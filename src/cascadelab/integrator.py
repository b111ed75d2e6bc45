"""Adaptive integration of the cascade system.

A PI step-size controller over the Dormand-Prince 5(4) pair, or over ETDRK4
(which takes the decay exactly) when the window is stiff at the start.
Integration is single-threaded and fully deterministic: identical config,
initial state, and tolerances give a bit-identical trajectory.

The run stops at ``t_end`` (``completed``), when the energy-weighted norm
``sum lam**(2n) X**2`` crosses its guard (``guard_factor`` times the
initial value), when the step falls below ``h_min``, or after ``max_steps``
steps.  An early stop is ``blowup_detected`` if the norm is above the guard
and ``step_underflow`` (stiffness, not a blowup surrogate) otherwise.  On a
finite window the guard crossing is the detection event proper: truncation
caps the norm at ``lam**(2 n_max)`` times the conserved energy, so waiting
for a literal divergence would instead stall in stiff terminal dynamics.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import N_SPECIES
from .cascade import (CascadeConfig, CascadeState, CascadeTrajectory,
                      STATUS_BLOWUP, STATUS_COMPLETED, STATUS_UNDERFLOW)

# Dormand-Prince 5(4) tableau: stage rows, 5th-order weights, error weights
_TABLEAU = np.zeros((9, 7))
_TABLEAU[1, :1] = [1 / 5]
_TABLEAU[2, :2] = [3 / 40, 9 / 40]
_TABLEAU[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_TABLEAU[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_TABLEAU[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_TABLEAU[6, :6] = _TABLEAU[7, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192,
                                     -2187 / 6784, 11 / 84]
_TABLEAU[8] = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40]

_ORDER = 5  # both error estimates scale as h**5
_DP5_STABLE = 3.3  # DP5 is stable for h * rate below this on the negative axis


_POSITIVE = (lambda v: 0 < v <= sys.float_info.max, "be positive and finite")
#: step controls: name -> (accepted types, range test, range rule)
CONTROLS = {
    "rel_tol": ((int, float), lambda v: 1e-14 < v < 1e-2, "lie in (1e-14, 1e-2)"),
    "h_min": ((int, float), *_POSITIVE),
    "guard_factor": ((int, float), *_POSITIVE),
    "max_steps": (int, lambda v: v >= 1, "be at least 1"),
}


def check_controls(**controls):
    """Raise ValueError for any given step control outside its range."""
    for name, value in controls.items():
        _, valid, rule = CONTROLS[name]
        if not valid(value):
            raise ValueError(f"{name} must {rule}, got {value!r}")


def _dp5(plan, y0):
    """Dormand-Prince 5(4) step.  ``K`` holds y and the seven stage
    derivatives; ``C`` the tableau times h behind a column of ones (zero in
    the error row).  Stage s's input is ``C[s, :s+1] @ K[:s+1]``; y_new and
    the error are ``C[7:] @ K``.  Returns the state buffer, the derivative
    there, ``attempt(h) -> (y_new, error)`` and ``accept()``."""
    size = y0.size
    K = np.empty((8, size))
    xe = np.ones(size + 1)  # the plan's extended state [x, 1]
    y, x = K[0], xe[:size]
    y[:] = x[:] = y0
    K[1] = plan.evaluate(xe)
    C = np.zeros((9, 8))
    C[:8, 0] = 1.0
    coef, out_rows = C[:, 1:], C[7:]
    stages = [(C[s, :s + 1], K[:s + 1]) for s in range(1, 7)]
    out = np.empty((2, size))

    def attempt(h):
        np.multiply(_TABLEAU, h, out=coef)
        for s, (row, ks) in enumerate(stages, 2):
            np.dot(row, ks, out=x)
            K[s] = plan.evaluate(xe)
        return np.matmul(out_rows, K, out=out)

    def accept():
        y[:] = out[0]
        K[1] = K[7]  # first-same-as-last
    return y, K[1], attempt, accept


#: the 16 points in the upper half of 32 on the unit circle; for real z
#: a mean over all 32 is the real part of the mean over these
_CONTOUR = np.exp(1j * np.pi * (np.arange(16) + 0.5) / 16)
_MEAN = np.full(16, 1 / 16)


def etd_coefficients(z: np.ndarray) -> np.ndarray:
    """``E, E2, Q/h, f1/h, f2/h, f3/h`` of ETDRK4 at ``z = -h rate``, stacked.

    The weights are the phi-combinations of Cox and Matthews (2002), each
    the mean of its closed form over 32 points on the unit circle around
    z (Kassam and Trefethen 2005), which avoids the cancellation of the
    closed form near z = 0 and stays accurate for large ``|z|``.
    """
    r = z[..., None] + _CONTOUR
    eh = np.exp(r / 2)
    er, r2 = eh * eh, r * r
    r3 = r2 * r
    out = np.empty((6,) + z.shape)
    out[0], out[1] = np.exp(z), np.exp(z / 2)
    out[2] = ((eh - 1) / r).real @ _MEAN
    out[3] = ((-4 - r + er * (4 - 3 * r + r2)) / r3).real @ _MEAN
    out[4] = ((2 + r + er * (r - 2)) / r3).real @ _MEAN
    out[5] = ((-4 - 3 * r - r2 + er * (4 - r)) / r3).real @ _MEAN
    return out


def _etdrk4(plan, y0):
    """ETDRK4 step on ``y' = -rates y + N(y)``: two steps of h/2 are
    propagated, and their difference from one step of h is the error.
    Returns as :func:`_dp5`, with ``N`` (the part of the derivative that
    the step resolves) in place of the derivative."""
    y = y0.copy()
    ny = plan.quadratic(y, y)
    rates = plan.rates.reshape(N_SPECIES, -1)[0]  # the same on every species
    fractions = np.array([[1.0], [0.5]])  # of h: the full and the half step
    out = np.empty((2, y.size))

    def step(v, nv, E, E2, Q, f1, f2, f3):
        a = E2 * v + Q * nv
        na = plan.quadratic(a, a)
        b = E2 * v + Q * na
        nb = plan.quadratic(b, b)
        c = E2 * a + Q * (2 * nb - nv)
        nc = plan.quadratic(c, c)
        return E * v + f1 * nv + f2 * (2 * (na + nb)) + f3 * nc

    def attempt(h):
        coef = etd_coefficients(-h * fractions * rates)
        coef[2:] *= h * fractions
        full, half = np.tile(coef, N_SPECIES).transpose(1, 0, 2)
        mid = step(y, ny, *half)
        out[0] = step(mid, plan.quadratic(mid, mid), *half)
        np.subtract(out[0], step(y, ny, *full), out=out[1])
        return out

    def accept():
        y[:] = out[0]
        ny[:] = plan.quadratic(y, y)
    return y, ny, attempt, accept


def integrate(config: CascadeConfig, initial: CascadeState, t_end: float,
              rel_tol: float = 1e-8, *, h_min: float = 1e-13,
              guard_factor: float = 1e12, max_steps: int = 5_000_000
              ) -> CascadeTrajectory:
    """Integrate the cascade ODE from ``initial`` toward ``t_end``.

    ``integrator_stats`` names the ``method``, counts accepted and rejected
    steps and RHS evaluations (``dp5``: six per attempted step plus one;
    ``etdrk4``: ten per attempted step, one per accepted step, plus one;
    the stiffness test's quadratic sum is not counted),
    gives the smallest and largest accepted step (None if no step was
    accepted), ``guard_ratio``, the final energy-weighted norm over the
    initial one (None if it overflows), and ``stop_reason``: ``t_end``,
    ``guard``, ``h_min`` or ``max_steps``.

    Parameters
    ----------
    rel_tol : float
        Per-step relative error target; must lie in (1e-14, 1e-2).  The
        absolute error floor is ``rel_tol * 1e-3`` times the initial
        amplitude scale.
    h_min : float
        Step size below which integration stops.
    guard_factor : float
        Blowup guard on the energy-weighted norm, relative to its initial value.
    """
    check_controls(rel_tol=rel_tol, h_min=h_min, guard_factor=guard_factor,
                   max_steps=max_steps)
    if not initial.finite:
        raise ValueError("initial state contains non-finite entries")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end <= initial.t:
        raise ValueError(f"t_end={t_end} does not lie beyond t0={initial.t}")
    if initial.X.shape != (4, config.n_shells):
        raise ValueError("initial state shape does not match the config window")

    plan = config.compiled_rhs
    t = float(initial.t)
    y0 = initial.X.ravel()
    size = y0.size
    scale0 = max(float(np.max(np.abs(y0))), 1e-30)
    atol = rel_tol * 1e-3 * scale0
    norm0 = max(plan.weighted_norm(y0), 1e-30)
    guard = guard_factor * norm0

    # standard magnitude-based starting guess (idle if deriv is 0), clipped
    sc = atol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))

    def first_step(deriv, idle):
        d1 = float(np.sqrt(np.mean((deriv / sc) ** 2)))
        return min(max(0.01 * d0 / d1 if d1 > 0 else idle, 1e-12), t_end - t)

    # stiff: the first step that the quadratic part asks for (the whole span
    # if it is 0) exceeds DP5's stability bound on the fastest decay
    h = first_step(plan.quadratic(y0, y0), t_end - t) if plan.rates.any() else 0.0
    method = "etdrk4" if h * plan.rates.max() > _DP5_STABLE else "dp5"
    y, deriv, attempt, accept = (_dp5 if method == "dp5" else _etdrk4)(plan, y0)
    if method == "dp5":
        h = first_step(deriv, 1e-6)

    times, states = np.empty(1024), np.empty((1024, size))
    times[0], states[0] = t, y
    n = 1
    err_prev = 1.0
    steps = rejected = 0
    h_lo, h_hi = math.inf, 0.0
    reason = "t_end"

    while t < t_end:
        if steps >= max_steps:
            reason = "max_steps"
            break
        steps += 1
        h = min(h, t_end - t)
        y_new, delta = attempt(h)

        if np.isfinite(y_new).all():
            delta /= atol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = math.sqrt((delta @ delta) / size)
        else:
            err = math.inf

        if err <= 1.0:
            t += h
            accept()
            if n == len(times):  # no view of either buffer exists yet
                times.resize(2 * n, refcheck=False)
                states.resize((2 * n, size), refcheck=False)
            times[n], states[n] = t, y
            n += 1
            h_lo, h_hi = min(h_lo, h), max(h_hi, h)
            if plan.weighted_norm(y) > guard:
                reason = "guard"
                break
            err = max(err, 1e-10)
            factor = 0.9 * err ** (-0.7 / _ORDER) * err_prev ** (0.4 / _ORDER)
            err_prev = err
            h *= min(5.0, max(0.2, factor))
        else:
            rejected += 1
            shrink = 0.9 * err ** (-1.0 / _ORDER) if math.isfinite(err) else 0.1
            h *= min(1.0, max(0.1, shrink))

        if h < h_min and t < t_end:
            reason = "h_min"
            break

    norm = plan.weighted_norm(y)
    status = (STATUS_COMPLETED if reason == "t_end" else
              STATUS_BLOWUP if norm > guard else STATUS_UNDERFLOW)
    ratio = norm / norm0
    evals = 6 * steps + 1 if method == "dp5" else 10 * steps + n
    stats = dict(method=method, accepted_steps=n - 1, rejected_steps=rejected,
                 rhs_evals=evals, h_min_reached=h_lo if n > 1 else None,
                 h_max_reached=h_hi if n > 1 else None, stop_reason=reason,
                 guard_ratio=ratio if np.isfinite(ratio) else None)
    return CascadeTrajectory.from_arrays(
        times[:n], states[:n].reshape(n, N_SPECIES, -1), status,
        t if status == STATUS_BLOWUP else None, stats)


def rk4_fixed_step(config: CascadeConfig, initial: CascadeState, dt: float,
                   t_max: float, stop_norm: float | None = None
                   ) -> tuple[CascadeState, float | None]:
    """Classical fixed-step RK4 march, independent of the adaptive path.

    Serves as a plain reference integrator: no error control, no step
    adaptation.  It takes ``round((t_max - t0) / dt)`` steps, the k-th
    ending at ``t0 + k dt``.  If ``stop_norm`` is given, the march halts at
    the first step where the energy-weighted norm reaches it and that time
    is returned as the detection time (``None`` if never reached).
    """
    plan = config.compiled_rhs
    y = initial.X.astype(float).copy()
    t0 = t = float(initial.t)
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, max(0, round((t_max - t0) / dt)) + 1):
        s1 = plan(y)
        s2 = plan(y + half * s1)
        s3 = plan(y + half * s2)
        s4 = plan(y + dt * s3)
        y = y + sixth * (s1 + 2.0 * (s2 + s3) + s4)
        t = t0 + k * dt
        if stop_norm is not None:
            w = plan.weighted_norm(y)
            if not np.isfinite(w) or w >= stop_norm:
                return CascadeState(t, y), t
    return CascadeState(t, y), None
