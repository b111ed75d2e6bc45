"""Littlewood-Paley band projections.

The band symbols are built telescopically from a single smooth radial
profile ``chi`` that equals 1 below 4/3 and 0 above 3:

    p_j(xi) = chi(2**-j |xi|) - chi(2**(-j+1) |xi|)

so that each ``p_j`` is supported in the annulus (2/3) 2**j < |xi| < 3 2**j,
satisfies ``p_j(xi) = p_0(2**-j xi)``, and the bands sum to exactly 1
wherever the telescoping closes (the "resolvable annulus" on a finite
grid).  The widened band ``p~_j`` sums the five neighbors j-2..j+2 and is
identically 1 on the support of ``p_j``, which gives the projection
identity ``P~_j P_j = P_j`` to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridField, apply_symbol, nyquist, wave_vectors


def smoothstep(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.where(hi, 1.0, 0.0)
    if np.any(mid):
        tm = t[mid]
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
        out[mid] = a / (a + b)
    return out


def chi_profile(r):
    """Radial plateau: 1 for r <= 4/3, 0 for r >= 3, smooth in between."""
    return 1.0 - smoothstep((np.asarray(r, dtype=float) - 4.0 / 3.0) / (5.0 / 3.0))


class BandRangeError(ValueError):
    """Requested band index outside the grid-resolvable range."""


@dataclass(frozen=True)
class LPPartition:
    """Resolvable band range [j_min, j_max] for a given grid geometry."""

    j_min: int
    j_max: int

    def __post_init__(self):
        if self.j_min > self.j_max:
            raise ValueError("empty band range")

    @classmethod
    def for_grid(cls, n_grid: int, box_size: float = 2.0 * np.pi) -> "LPPartition":
        """Bands whose support meets the resolvable frequency range.

        The top band may be truncated by the Nyquist frequency; use
        :meth:`unity_interval` for the radii where the partition still
        sums to one.
        """
        nyq = nyquist(n_grid, box_size)
        fund = 2.0 * np.pi / box_size
        j_max = int(np.floor(np.log2(1.5 * nyq) - 1e-9))
        j_min = int(np.ceil(np.log2(fund / 3.0) + 1e-9))
        return cls(j_min, j_max)

    def check(self, j: int):
        if not self.j_min <= j <= self.j_max:
            raise BandRangeError(
                f"band {j} outside resolvable range [{self.j_min}, {self.j_max}]")

    def bands(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def symbol(self, j: int, radii: np.ndarray) -> np.ndarray:
        """Band symbol p_j evaluated on an array of |xi| values."""
        return chi_profile(radii / 2.0 ** j) - chi_profile(radii / 2.0 ** (j - 1))

    def wide_symbol(self, j: int, radii: np.ndarray) -> np.ndarray:
        """Widened symbol summing bands j-2..j+2 (closed telescoping form)."""
        return chi_profile(radii / 2.0 ** (j + 2)) - chi_profile(radii / 2.0 ** (j - 3))

    def unity_interval(self, n_grid: int, box_size: float) -> tuple[float, float]:
        """Radii [lo, hi] where the in-range bands sum to exactly one."""
        lo = 3.0 * 2.0 ** (self.j_min - 1)
        hi = min((4.0 / 3.0) * 2.0 ** self.j_max, nyquist(n_grid, box_size))
        return lo, hi


def lp_project(fld: GridField, j: int, partition: LPPartition | None = None,
               widen: bool = False) -> GridField:
    """Band projection P_j (or the widened P~_j) of a grid field."""
    if partition is None:
        partition = LPPartition.for_grid(fld.n_grid, fld.box_size)
    partition.check(j)
    kx, ky, kz = wave_vectors(fld.n_grid, fld.box_size)  # the half apply_symbol reads
    radii = np.sqrt(kx ** 2 + ky ** 2 + kz[..., :fld.n_grid // 2 + 1] ** 2)
    sym = partition.wide_symbol(j, radii) if widen else partition.symbol(j, radii)
    return apply_symbol(fld, sym)
