"""Divergence-free, zero-momentum wavelet basis on the periodic grid.

Four Schwartz-type vector profiles ``psi_i`` are realized directly in
discrete Fourier space: each is a smooth radial bump translated to a ball
``B_i`` inside the annulus ``{1 < |xi| <= (lam+1)/2}``, mirrored onto
``-B_i`` for realness, polarized orthogonally to the ball center, and
projected mode-by-mode onto divergence-free fields before L^2
normalization.  The shell copy ``psi_{i,n}``, the L^2 rescaling of
``psi_i`` by ``lam**n``, lives on the dilated balls ``lam**n B_i`` and is
realized the same way (continuum symbol evaluated at the available grid
modes, which plays the role of nearest-mode snapping; the residual snap
offset is recorded in the basis metadata).

Because the supports of all realized shells are pairwise disjoint sets of
grid modes, the family is exactly orthonormal on the grid, coefficients
are recovered by plain inner products, and zero momentum and
divergence-freeness hold to machine precision.

Every spectrum the basis builds is Hermitian, so every field is real and
only real-input transforms run, one component at a time: synthesis builds
only the ``kz >= 0`` half of the spectrum (the other half is its mirror)
and inverts it with :func:`~cascadelab.grid.real_samples`, and projection
reads ``Re u_hat`` from an ``rfftn`` (``Re u_hat(-k) = Re u_hat(k)`` for a
real field, so a mode in the other half is read at its mirror), both only
on the lines that hold a mode (:attr:`WaveletBasis.support`).  The profile
fields ``psi`` are materialized on first read; building the basis runs no
transform.  Each ball is scanned only on the index box around it.

The box side is tied to the dimensionless geometry through ``base_scale``:
``box_size = 2 pi base_scale`` makes the fundamental mode ``1/base_scale``
so the unit annulus is resolved by about ``base_scale`` modes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import N_SPECIES
from .grid import GridField, _is_power_of_two, radial_bump, real_samples

#: shells must stay inside this fraction of the Nyquist frequency
NYQUIST_MARGIN = 0.98

DEFAULT_DIRECTIONS = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [1.0, 1.0, 1.0] / np.sqrt(3.0),
])


class UnresolvedShellError(ValueError):
    """A requested shell has no resolvable grid modes (or exceeds Nyquist)."""


def _polarization(direction: np.ndarray) -> np.ndarray:
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(direction)))] = 1.0
    v = np.cross(direction, axis)
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class BallGeometry:
    """Dimensionless ball layout shared by all shells."""

    directions: np.ndarray      # (N_SPECIES, 3) unit vectors
    center_radius: float        # distance of ball centers from the origin
    ball_radius: float

    @classmethod
    def for_lambda(cls, lam: float) -> "BallGeometry":
        """The one layout; for 1 < lam <= 2, ``r0 - rho > 1``, ``r0 + rho <=
        (lam+1)/2`` and signed centers ``>= 0.919 r0`` apart, against ``2 rho
        <= 0.36 r0``: balls disjoint and in the annulus, so shells are too."""
        if not 1.0 < lam <= 2.0:
            raise ValueError(f"scale ratio must satisfy 1 < lam <= 2, got {lam}")
        return cls(DEFAULT_DIRECTIONS.copy(), (1.0 + (lam + 1.0) / 2.0) / 2.0,
                   0.9 * (lam - 1.0) / 4.0)

    def centers(self) -> np.ndarray:
        return self.center_radius * self.directions


@dataclass
class SpectralShell:
    """Sparse spectral support of one realized shell wavelet."""

    flat_idx: np.ndarray   # flat indices into the N^3 FFT cube
    amp: np.ndarray        # (3, m) real spectral amplitudes
    snap_offset: float     # |center - nearest mode| / ball radius
    half_idx: np.ndarray   # flat index of each mode, or of its mirror when
                           # kz > N/2, in the (N, N, N//2+1) rfftn cube
    in_half: np.ndarray    # True where the mode itself has kz <= N/2


@dataclass
class WaveletBasis:
    lam: float
    n_grid: int
    base_scale: float
    geometry: BallGeometry
    n_window: tuple[int, int]
    shells: dict[tuple[int, int], SpectralShell]
    profile_shell: int = 0

    @property
    def box_size(self) -> float:
        return 2.0 * np.pi * self.base_scale

    def covers(self, n_min: int, n_max: int) -> bool:
        return self.n_window[0] <= n_min and n_max <= self.n_window[1]

    @property
    def max_snap_offset(self) -> float:
        return max(s.snap_offset for s in self.shells.values())

    def shell_band(self, n: int) -> int:
        """Dyadic band index hosting the center frequency of shell n."""
        return int(round(np.log2(self.geometry.center_radius * self.lam ** n)))

    @property
    def basis_id(self) -> str:
        payload = json.dumps({
            "lam": self.lam, "n_grid": self.n_grid, "base_scale": self.base_scale,
            "window": list(self.n_window),
            "r0": self.geometry.center_radius, "rho": self.geometry.ball_radius,
            "dirs": np.round(self.geometry.directions, 12).tolist(),
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def empty_spectrum(self) -> np.ndarray:
        """Zero full-layout flat spectrum, indexed by ``SpectralShell.flat_idx``."""
        n = self.n_grid
        return np.zeros((3, n * n * n), dtype=complex)

    @cached_property
    def support(self) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        """``(kc, (ky, kz))``: each basis mode, or its mirror outside the half
        spectrum, has ``kz < kc`` and lies on an axis-0 line ``(ky, kz)``."""
        half = self.n_grid // 2 + 1
        held = np.zeros(self.n_grid * half, bool)  # np.unique would load numpy.ma
        for sh in self.shells.values():
            held[sh.half_idx % held.size] = True
        ky, kz = np.divmod(np.flatnonzero(held), half)
        return int(kz.max()) + 1, (ky, kz)

    def materialize(self, spectrum_flat: np.ndarray,
                    time_tag: float | None = None) -> GridField:
        """Real field of a Hermitian flat spectrum, half or full layout, zero
        off the basis modes; its :attr:`support` columns are overwritten."""
        n = self.n_grid
        kc, lines = self.support
        hat = spectrum_flat.reshape(3, n, n, -1)[..., :kc]
        data = np.empty((3, n, n, n))
        for comp, out in zip(hat, data):
            real_samples(comp, n, out=out, lines=lines)
        return GridField(data, self.box_size, time_tag)

    @cached_property
    def psi(self) -> list[GridField]:
        """The profile fields, one per species, on shell ``profile_shell``,
        built on first read."""
        return [synthesize_field(np.eye(N_SPECIES)[:, [i]], self, self.profile_shell)
                for i in range(N_SPECIES)]


def _box_axis(n_grid: int, center: float, radius: float) -> np.ndarray:
    """Ascending FFT-layout indices of the integer modes within one cell of
    ``[center - radius, center + radius]`` (mode units) on one axis."""
    lo = max(int(np.floor(center - radius)) - 1, -(n_grid // 2))
    hi = min(int(np.ceil(center + radius)) + 1, (n_grid - 1) // 2)
    return np.sort(np.arange(lo, hi + 1) % n_grid)


def build_wavelet_basis(lam: float, n_grid: int,
                        n_window: tuple[int, int] = (0, 2),
                        base_scale: float = 4.0) -> WaveletBasis:
    """Construct the realized basis for a shell window on an N^3 grid.

    Raises
    ------
    UnresolvedShellError
        If some requested shell contains no grid mode or pokes past the
        Nyquist sphere.
    """
    geometry = BallGeometry.for_lambda(lam)
    if not _is_power_of_two(n_grid):
        raise ValueError(f"grid side must be a power of two, got {n_grid}")
    n_lo, n_hi = int(n_window[0]), int(n_window[1])
    if n_lo > n_hi:
        raise ValueError(f"empty shell window {n_window!r}")
    if not base_scale > 0:
        raise ValueError(f"base_scale must be positive, got {base_scale}")

    box = 2.0 * np.pi * base_scale
    # physical frequency of mode k is k / base_scale
    freq = np.fft.fftfreq(n_grid, d=1.0 / n_grid) / base_scale
    nyq = 0.5 * n_grid / base_scale
    try:
        norm_factor = box ** 3 / n_grid ** 6  # Parseval weight for FFT-layout sums
    except OverflowError:
        raise ValueError(f"base_scale {base_scale} overflows the Parseval "
                         "weight (2 pi base_scale)**3") from None

    shells: dict[tuple[int, int], SpectralShell] = {}
    for n in range(n_lo, n_hi + 1):
        scale = lam ** n
        outer = (geometry.center_radius + geometry.ball_radius) * scale
        if outer > NYQUIST_MARGIN * nyq:
            raise UnresolvedShellError(
                f"shell {n} reaches |xi|={outer:.3g}, beyond "
                f"{NYQUIST_MARGIN:.2f} x Nyquist ({nyq:.3g})")
        for i in range(N_SPECIES):
            center = geometry.centers()[i] * scale
            radius = geometry.ball_radius * scale
            # the ball and the mode nearest its center lie in this index box;
            # its axes ascend, so hits come out in the full cube's C order
            axes = [_box_axis(n_grid, c * base_scale, radius * base_scale)
                    for c in center]
            dx, dy, dz = ((freq[a] - c) ** 2 for a, c in zip(axes, center))
            dist = np.sqrt(dx[:, None, None] + dy[None, :, None]
                           + dz[None, None, :])
            mask = dist < radius * (1.0 - 1e-12)
            if not np.any(mask):
                raise UnresolvedShellError(
                    f"shell {n}, species {i + 1}: no grid mode inside the ball")
            snap = float(np.min(dist) / radius)
            pol = _polarization(geometry.directions[i])
            ball_amp = radial_bump(dist[mask] / radius)
            ix, iy, iz = (a[b] for a, b in zip(axes, np.nonzero(mask)))
            xi = np.stack([freq[ix], freq[iy], freq[iz]])
            xi_dot_v = np.einsum("c,cm->m", pol, xi)
            xi_sq = np.sum(xi ** 2, axis=0)
            amp_half = ball_amp * (pol[:, None] - xi * (xi_dot_v / xi_sq))

            # mirror ball at -center: same real amplitudes, negated modes
            ix = np.concatenate([ix, -ix % n_grid])
            iy = np.concatenate([iy, -iy % n_grid])
            iz = np.concatenate([iz, -iz % n_grid])
            flat_idx = (ix * n_grid + iy) * n_grid + iz
            amp = np.concatenate([amp_half, amp_half], axis=1)
            flip = iz > n_grid // 2  # outside the rfftn half: read the mirror
            hx, hy, hz = (np.where(flip, -a % n_grid, a) for a in (ix, iy, iz))
            half_idx = (hx * n_grid + hy) * (n_grid // 2 + 1) + hz

            norm = np.sqrt(np.sum(amp ** 2) * norm_factor)
            if norm == 0:
                raise UnresolvedShellError(
                    f"shell {n}, species {i + 1}: degenerate amplitude")
            shells[(i + 1, n)] = SpectralShell(flat_idx, amp / norm, snap,
                                               half_idx, ~flip)

    return WaveletBasis(lam=lam, n_grid=n_grid, base_scale=base_scale,
                        geometry=geometry, n_window=(n_lo, n_hi),
                        shells=shells,
                        profile_shell=0 if n_lo <= 0 <= n_hi else n_lo)


def project_coefficients(fld: GridField, basis: WaveletBasis) -> np.ndarray:
    """Recover shell amplitudes <u, psi_{i,n}> over the basis window.

    Output shape is (N_SPECIES, window length), species-major.  The amplitudes
    are real, so only ``Re u_hat`` enters, read from ``rfftn``'s passes
    over the basis :attr:`~WaveletBasis.support` at each mode or its mirror;
    this is exact for any real field.  Recovery of a field synthesized from
    the same basis is exact (to roundoff) by disjoint spectral supports.
    """
    if fld.n_grid != basis.n_grid:
        raise ValueError("field grid does not match the basis grid")
    if abs(fld.box_size - basis.box_size) > 1e-12 * basis.box_size:
        raise ValueError("field box size does not match the basis box size")
    n = fld.n_grid
    kc, (ky, kz) = basis.support
    hat = np.empty((3, n * n * (n // 2 + 1)), complex)
    for comp, spectrum in zip(fld.data, hat.reshape(3, n, n, -1)):
        np.fft.rfft(comp, axis=2, out=spectrum)
        part = spectrum[..., :kc]
        np.fft.fft(part, axis=1, out=part)
        part[:, ky, kz] = np.fft.fft(part[:, ky, kz], axis=0)
    weight = basis.box_size ** 3 / n ** 6
    lo, hi = basis.n_window
    out = np.zeros((N_SPECIES, hi - lo + 1))
    for (i, shell_n), sh in basis.shells.items():
        out[i - 1, shell_n - lo] = np.sum(hat[:, sh.half_idx].real * sh.amp) * weight
    return out


def synthesize_field(coeffs, basis: WaveletBasis, n_min: int | None = None,
                     time_tag: float | None = None) -> GridField:
    """Velocity field ``u = sum X[i,n] psi_{i,n}`` from shell amplitudes.

    ``coeffs`` is an (N_SPECIES, n_shells) array whose shell axis starts at
    ``n_min`` (defaults to the basis window start).  Every populated shell
    must lie inside the basis window.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[0] != N_SPECIES:
        raise ValueError(f"coeffs must have shape ({N_SPECIES}, n_shells), "
                         f"got {coeffs.shape}")
    lo = basis.n_window[0] if n_min is None else int(n_min)
    hi = lo + coeffs.shape[1] - 1
    if not basis.covers(lo, hi):
        raise ValueError(
            f"state window [{lo}, {hi}] outside basis window {basis.n_window}")
    n = basis.n_grid
    spec = np.zeros((3, n * n * (n // 2 + 1)), complex)  # the kz >= 0 half
    for (i, shell_n), sh in basis.shells.items():
        if lo <= shell_n <= hi:
            x = coeffs[i - 1, shell_n - lo]
            if x != 0.0:  # modes outside the half are implied by their mirrors
                spec[:, sh.half_idx[sh.in_half]] += x * sh.amp[:, sh.in_half]
    return basis.materialize(spec, time_tag)


def synthesize_checked(coeffs, basis: WaveletBasis, n_min: int,
                       time_tag: float | None = None) -> tuple[GridField, float]:
    """One snapshot: :func:`synthesize_field` and the largest coefficient
    error of projecting the field back onto the basis."""
    fld = synthesize_field(coeffs, basis, n_min, time_tag)
    coeffs = np.asarray(coeffs, dtype=float)
    start = n_min - basis.n_window[0]
    recovered = project_coefficients(fld, basis)[:, start:start + coeffs.shape[1]]
    return fld, float(np.max(np.abs(recovered - coeffs)))
