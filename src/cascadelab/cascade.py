"""Truncated shell-cascade dynamics.

A state is a rectangular array of amplitudes ``X[i, n]`` over four species
and a finite shell window ``n_min..n_max``.  The right-hand side has a
quadratic part driven by a :class:`~cascadelab.tensor.CoefficientTensor`
and a diagonal dissipation part ``-kappa * lam**(2*alpha*n) * X``:

    dX[i,n]/dt = sum over entries and base shells b with b+mu3 == n of
                     a * lam**(5*b/2) * X[i1, b+mu1] * X[i2, b+mu2]
                 - kappa * lam**(2*alpha*n) * X[i,n]

Truncation drops a term only together with the whole cancellation group it
belongs to (all slot placements of one base shell reference the same shell
set), so the quadratic part conserves energy exactly on the finite window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import N_SPECIES
from .tensor import CoefficientTensor, dyadic_cascade_tensor, validate_tensor

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blowup_detected"
STATUS_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class CascadeConfig:
    """Scale ratio, dissipation exponent, shell window and coupling tensor."""

    lam: float
    alpha: float
    n_min: int
    n_max: int
    kappa: float = 1.0
    tensor: CoefficientTensor = field(default_factory=CoefficientTensor)
    check_tensor: bool = True  # disable only for deliberate-violation diagnostics

    def __post_init__(self):
        if not 1.0 < self.lam <= 2.0:
            raise ValueError(f"scale ratio must satisfy 1 < lam <= 2, got {self.lam}")
        if self.alpha < 0:
            raise ValueError(f"dissipation exponent must be >= 0, got {self.alpha}")
        if self.kappa < 0:
            raise ValueError(f"dissipation prefactor must be >= 0, got {self.kappa}")
        if self.n_min > self.n_max:
            raise ValueError(f"empty shell window [{self.n_min}, {self.n_max}]")
        # rates, term weights and guard weights lam**(2n) all grow with n
        for what, factor, exponent in (
                ("dissipation rate kappa*lam**(2*alpha*n)", self.kappa,
                 2.0 * self.alpha), ("term weight lam**(2.5*n)", 1.0, 2.5)):
            try:
                finite = math.isfinite(factor * self.lam ** (exponent * self.n_max))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(
                    f"{what} at shell n_max = {self.n_max} is beyond float range "
                    f"(lambda {self.lam}, alpha {self.alpha}, kappa {self.kappa})")
        if self.check_tensor:
            report = validate_tensor(self.tensor)
            if not report.valid:
                raise ValueError(f"tensor rejected:\n{report}")

    @property
    def n_shells(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def shells(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def zero_state(self, t: float = 0.0) -> "CascadeState":
        return CascadeState(t, np.zeros((N_SPECIES, self.n_shells)))

    @cached_property
    def compiled_rhs(self) -> "CompiledRHS":
        """Plan built once; the tensor must not be mutated after construction."""
        return CompiledRHS(self)


@dataclass
class CascadeState:
    """Shell amplitudes at one time instant; ``X`` has shape (4, n_shells)."""

    t: float
    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape[0] != N_SPECIES:
            raise ValueError(f"X must have shape (4, n_shells), got {self.X.shape}")

    def copy(self) -> "CascadeState":
        return CascadeState(self.t, self.X.copy())

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.X)))


def state_from_entries(config: CascadeConfig, entries: dict, t: float = 0.0) -> CascadeState:
    """Build a state from a sparse ``{(i, n): value}`` map."""
    state = config.zero_state(t)
    for (i, n), value in entries.items():
        if not 1 <= i <= N_SPECIES:
            raise ValueError(f"species index {i} outside 1..4")
        if not config.n_min <= n <= config.n_max:
            raise ValueError(f"shell {n} outside [{config.n_min}, {config.n_max}]")
        state.X[i - 1, n - config.n_min] = value
    return state


class CascadeTrajectory:
    """Times ``times`` (n,) and amplitudes ``X`` (n, 4, n_shells).

    ``samples`` views each row as a :class:`CascadeState`, built on first
    use; ``integrator_stats`` holds the counters of ``integrate``.
    """

    def __init__(self, samples: list[CascadeState], status: str,
                 blowup_time_estimate: float | None = None):
        """Trajectory from a list of states, copied into the arrays."""
        self._set(np.array([s.t for s in samples], dtype=float),
                  np.stack([s.X for s in samples]), status, blowup_time_estimate)

    @classmethod
    def from_arrays(cls, times, X, status, blowup_time_estimate=None,
                    integrator_stats=None) -> "CascadeTrajectory":
        """Trajectory over the given arrays, which are not copied."""
        traj = cls.__new__(cls)
        traj._set(times, X, status, blowup_time_estimate, integrator_stats)
        return traj

    def _set(self, times, X, status, blowup_time_estimate, integrator_stats=None):
        if status not in (STATUS_COMPLETED, STATUS_BLOWUP, STATUS_UNDERFLOW):
            raise ValueError(f"unknown status {status!r}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if status == STATUS_BLOWUP and blowup_time_estimate is None:
            raise ValueError("blowup status requires a blowup_time_estimate")
        self.times, self.X, self.status = times, X, status
        self.blowup_time_estimate = blowup_time_estimate
        self.integrator_stats = integrator_stats or {}

    @cached_property
    def samples(self) -> list[CascadeState]:
        return [CascadeState(t, x) for t, x in zip(self.times.tolist(), self.X)]

    def state_array(self) -> np.ndarray:
        """Stacked amplitudes, shape (n_samples, 4, n_shells)."""
        return self.X


# ---------------------------------------------------------------------------
# right-hand side


class CompiledRHS:
    """Gather/scatter plan for fast repeated right-hand-side evaluation.

    Each kept (entry, base shell) term is compiled, entry by entry and base
    shells ascending, into flat state indices ``iab`` of its factors, ``io``
    of its output, and an amplitude; a decay term ``x_i * 1`` of amplitude
    ``-rate_i`` per flat index follows these ``n_quadratic`` terms.  From
    ``xe``, the flat species-major state and a trailing 1, one gather forms
    ``(amp * x_a) * x_b`` and ``np.bincount`` sums them per output in term
    order, as a term-by-term loop would (``q + (-r x) == q - r x``).
    :meth:`quadratic` sums only the quadratic terms, with factors from two
    states: the RHS's quadratic part and the grid operator's coefficients.
    The plan is also the one home of the dissipation rates and of the blowup
    guard's norm ``sum lam**(2n) X**2``, both stored flat.
    """

    def __init__(self, config: CascadeConfig):
        lam, n_min, n_max, n = config.lam, config.n_min, config.n_max, config.n_shells
        self.rates = np.tile(
            config.kappa * lam ** (2.0 * config.alpha * config.shells), N_SPECIES)
        self.guard_weights = np.tile(lam ** (2.0 * config.shells), N_SPECIES)
        terms = [np.zeros((4, 0))]  # rows: ia, ib, io, amplitude
        for (i1, i2, i3, m1, m2, m3), a in config.tensor.entries.items():
            base = np.arange(n_min, n_max - max(m1, m2, m3) + 1)
            terms.append([(i - 1) * n + m + base - n_min for i, m in
                          ((i1, m1), (i2, m2), (i3, m3))] + [a * lam ** (2.5 * base)])
        self.n_quadratic = sum(len(t[3]) for t in terms)
        flat = np.arange(self.rates.size)
        terms.append([flat, np.full_like(flat, flat.size), flat, -self.rates])
        ia, ib, io, self.amp = np.concatenate(terms, axis=1)
        self.iab, self.io = np.stack([ia, ib]).astype(np.intp), io.astype(np.intp)

    def evaluate(self, xe: np.ndarray) -> np.ndarray:
        """Sum of all the terms at ``xe = [x, 1]``."""
        g = xe[self.iab]
        p = self.amp * g[0]
        p *= g[1]
        return np.bincount(self.io, p, len(xe) - 1)

    def quadratic(self, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """Sum of the quadratic terms ``(amp x_a) x_b``, x_a from the flat
        state ``xa`` and x_b from ``xb``; float even with no terms (where
        ``bincount`` counts in integers)."""
        q = self.n_quadratic
        p = self.amp[:q] * xa[self.iab[0, :q]]
        p *= xb[self.iab[1, :q]]
        return np.bincount(self.io[:q], p, xa.size).astype(float, copy=False)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        deriv = self.evaluate(np.concatenate((y.ravel(), (1.0,))))
        return deriv if y.ndim == 1 else deriv.reshape(y.shape)

    def weighted_norm(self, y: np.ndarray) -> float:
        return float((self.guard_weights * y.ravel()) @ y.ravel())


def quadratic_rhs(state: CascadeState, config: CascadeConfig) -> np.ndarray:
    """Quadratic part of the shell derivative with group-safe truncation
    (see the module docstring): zero cubic flux for valid tensors."""
    x = state.X.ravel()
    return config.compiled_rhs.quadratic(x, x).reshape(state.X.shape)


def cascade_rhs(state: CascadeState, config: CascadeConfig) -> np.ndarray:
    """Full shell derivative: quadratic interaction plus diagonal decay."""
    return config.compiled_rhs(state.X)


def nonlinear_energy_flux(state: CascadeState, config: CascadeConfig) -> float:
    """Cubic energy flux ``sum X * quadratic_rhs``; zero for valid tensors."""
    return float(np.sum(state.X * quadratic_rhs(state, config)))


def flux_scale(state: CascadeState, config: CascadeConfig) -> float:
    """Natural magnitude the flux is compared against, ``lam^(5 n_max/2) |X|^3``."""
    return config.lam ** (2.5 * config.n_max) * float(np.sum(state.X ** 2)) ** 1.5


# ---------------------------------------------------------------------------
# energies and diagnostics


def total_energy(state: CascadeState) -> float:
    return 0.5 * float(np.sum(state.X ** 2))


def energy_balance_residual(trajectory: CascadeTrajectory,
                            config: CascadeConfig) -> np.ndarray:
    """Pointwise defect of the energy dissipation balance at interior samples.

    residual_k = dE/dt(t_k) + kappa * sum lam**(2 alpha n) X[i,n](t_k)**2

    with dE/dt from the three-point stencil on the (possibly nonuniform)
    sample grid.  Second-order small on smooth trajectories.
    """
    times = trajectory.times
    if len(times) < 3:
        raise ValueError("need at least 3 samples for an interior residual")
    states = trajectory.state_array()
    energy = 0.5 * np.sum(states ** 2, axis=(1, 2))
    hl, hr = np.diff(times)[:-1], np.diff(times)[1:]
    dE = (-hr / (hl * (hl + hr)) * energy[:-2]
          + (hr - hl) / (hl * hr) * energy[1:-1]
          + hl / (hr * (hl + hr)) * energy[2:])
    interior = states[1:-1].reshape(len(times) - 2, -1)
    return dE + np.sum(config.compiled_rhs.rates * interior ** 2, axis=1)


def timescale_ratio(n: int, alpha: float, lam: float) -> float:
    """Cascade-to-dissipation timescale ratio ``lam**((5/2 - 2 alpha) n)``.

    Equal to 1 for every shell exactly at alpha = 5/4; strictly increasing
    in n below that threshold, where the cascade outruns dissipation.
    """
    return float(lam ** ((2.5 - 2.0 * alpha) * n))


# ---------------------------------------------------------------------------
# scaling symmetry


def rescale_trajectory(trajectory: CascadeTrajectory, m: int,
                       config: CascadeConfig) -> CascadeTrajectory:
    """Exact scaling symmetry of the dynamics applied sample by sample.

    Produces X'[i, n](t) = lam**((2 alpha - 5/2) m) X[i, n-m](lam**(2 alpha m) t)
    on a time grid compressed by lam**(-2 alpha m).  Because the tensor is
    shell-translation invariant, the output solves the same equations up to
    window truncation, provided the support stays inside the window.
    """
    if abs(m) >= config.n_shells:
        raise ValueError(f"shift {m} empties the {config.n_shells}-shell window")
    lam, alpha = config.lam, config.alpha
    amp = lam ** ((2.0 * alpha - 2.5) * m)
    tfac = lam ** (-2.0 * alpha * m)
    X = trajectory.X
    Xp = np.zeros_like(X)
    if m >= 0:
        Xp[:, :, m:] = amp * X[:, :, : X.shape[2] - m]
    else:
        Xp[:, :, :m] = amp * X[:, :, -m:]
    est = trajectory.blowup_time_estimate
    return CascadeTrajectory.from_arrays(tfac * trajectory.times, Xp,
                                         trajectory.status,
                                         None if est is None else tfac * est)


# ---------------------------------------------------------------------------
# builtin dyadic demo


def builtin_dyadic_config(lam: float, alpha: float, n_range: tuple[int, int],
                          kappa: float = 0.0) -> CascadeConfig:
    """Classical dyadic cascade configuration on the given shell window.

    Inviscid by default (kappa = 0) so the species-1 slice reduces to

        dX_n/dt = lam**(5(n-1)/2) X_{n-1}**2 - lam**(5n/2) X_n X_{n+1}

    with no decay term.  ``lam = 2`` is accepted for the dyadic demo.
    """
    n_min, n_max = n_range
    return CascadeConfig(lam=lam, alpha=alpha, n_min=int(n_min), n_max=int(n_max),
                         kappa=kappa, tensor=dyadic_cascade_tensor())
