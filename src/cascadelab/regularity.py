"""Per-cube coefficient analysis, badness classification, and covering counts.

The analyzer works in box-relative frequency units: band k holds integer
mode magnitudes in ``(2/3) 2**k < |k| < 3 2**k`` regardless of the physical
box size, which pairs level-j cubes (side ``2**(-j(1-eps))`` of the box)
with band-j oscillations in the scale-covariant way the classification
needs.  When ``box_size == 2 pi`` these coincide with physical frequencies.

The cube coefficient is ``u_Q = || phi_{Q,j} P_j u ||_2`` with the graded
cutoff of :class:`~cascadelab.cubes.BumpProfile`.  A cube is flagged
("mildly_bad") when

    W**(w j) int_{T - W**(-w j)}^{T} u_{N^L(Q)}^2 dt
      + int_0^T sum_{k >= j} 2**(2 alpha k) || phi_{Q,j} P_k u ||_2^2 dt
    >= K * 2**(-(5 - 4 alpha) j - offset j - gamma j)

where ``N^L(Q)`` is the nuclear family and the proof-scale constants
(window exponent, family depth, offset) are exposed as parameters with
desk-scale defaults.  Raw (lhs, threshold) pairs are always reported so a
different K needs no recomputation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .cubes import (VITALI_DILATION, BumpProfile, CubeId,
                    LevelResolutionError, covering_count, cube_hierarchy,
                    level_geometry, nuclear_family, vitali_cover)
from .grid import GridField, apply_symbol, wave_magnitude
from .spectral import LPPartition, fractional_symbol

VERDICT_BAD = "mildly_bad"
VERDICT_REGULAR = "regular"


def mode_partition(n_grid: int) -> LPPartition:
    """Band range on integer mode magnitudes (box-relative frequencies)."""
    return LPPartition.for_grid(n_grid, box_size=2.0 * np.pi)


def mode_radii(n_grid: int) -> np.ndarray:
    return wave_magnitude(n_grid, 2.0 * np.pi)


def band_project(fld: GridField, k: int,
                 partition: LPPartition | None = None) -> GridField:
    """Band projection on box-relative frequencies (mode units)."""
    if partition is None:
        partition = mode_partition(fld.n_grid)
    partition.check(k)
    sym = partition.symbol(k, mode_radii(fld.n_grid))
    return apply_symbol(fld, sym)


def wavelet_coefficient(fld: GridField, cube: CubeId, j: int,
                        partition: LPPartition | None = None) -> float:
    """Cube coefficient ``|| phi_{Q,j} P_j u ||_2`` (grid quadrature)."""
    proj = band_project(fld, j, partition)
    phi = BumpProfile(cube, fld.n_grid, type_j=j).sample()
    mag_sq = np.sum(proj.data ** 2, axis=0)
    return float(np.sqrt(np.sum(phi ** 2 * mag_sq) * fld.cell_volume))


@dataclass
class RegularityParams:
    """Classification constants; proof-scale knobs with desk defaults."""

    alpha: float
    epsilon: float
    gamma: float
    K_threshold: float
    nuclear_depth: int = 2
    window_exponent: int = 10
    exponent_offset: float | None = None   # None -> epsilon
    window_base: float = 2.0
    vitali_pre_dilation: float = 4.0

    def __post_init__(self):
        if min(self.alpha, self.gamma, self.K_threshold) <= 0 or self.epsilon <= 0:
            raise ValueError("alpha, epsilon, gamma, K_threshold must be positive")
        if self.nuclear_depth < 0 or self.window_exponent <= 0:
            raise ValueError("nuclear_depth >= 0 and window_exponent > 0 required")
        if self.vitali_pre_dilation < 1.0:
            raise ValueError("vitali_pre_dilation must be >= 1")

    @property
    def offset(self) -> float:
        return self.epsilon if self.exponent_offset is None else self.exponent_offset

    def threshold(self, j: int) -> float:
        expo = (5.0 - 4.0 * self.alpha) + self.offset + self.gamma
        return self.K_threshold * 2.0 ** (-expo * j)

    @property
    def desk_bound(self) -> float:
        """Dimension bound evaluated with the parameters actually used."""
        return 5.0 - 4.0 * self.alpha + self.offset + self.gamma

    @property
    def reference_bound(self) -> float:
        """Dimension bound with the full-strength offset ``100 epsilon``."""
        return 5.0 - 4.0 * self.alpha + 100.0 * self.epsilon + self.gamma

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha, "epsilon": self.epsilon, "gamma": self.gamma,
            "K_threshold": self.K_threshold, "nuclear_depth": self.nuclear_depth,
            "window_exponent": self.window_exponent,
            "exponent_offset": self.offset, "window_base": self.window_base,
            "vitali_pre_dilation": self.vitali_pre_dilation,
        }


@dataclass
class CubeRecord:
    cube: CubeId
    badness_lhs: float
    threshold: float

    @property
    def verdict(self) -> str:
        return VERDICT_BAD if self.badness_lhs >= self.threshold else VERDICT_REGULAR


# ---------------------------------------------------------------------------
# coefficient tables


class CoefficientCache:
    """Lattices of cube coefficients across snapshots, levels, and bands.

    ``table(s, level, band)`` returns the array (lattice-shaped) of
    ``|| phi_{Q,level} P_band u(t_s) ||_2`` over all level cubes.  Bands
    beyond the resolvable range give zeros and are recorded in
    ``unresolved_bands``.
    """

    def __init__(self, snapshots: list[GridField], epsilon: float):
        if not snapshots:
            raise ValueError("need at least one snapshot")
        times = [s.time_tag for s in snapshots]
        if any(t is None for t in times):
            raise ValueError("snapshots must carry time tags")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        self.snapshots = snapshots
        self.epsilon = epsilon
        self.n_grid = snapshots[0].n_grid
        if any(s.n_grid != self.n_grid for s in snapshots):
            raise ValueError("snapshots must share one grid")
        self.times = np.array(times, dtype=float)
        self.partition = mode_partition(self.n_grid)
        self.unresolved_bands: set[int] = set()
        self._band_sq: dict[tuple[int, int], np.ndarray] = {}
        self._tables: dict[tuple[int, int, int], np.ndarray] = {}
        self._templates: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._family_sq: dict[tuple[CubeId, int], np.ndarray] = {}

    def band_energy_density(self, s: int, k: int) -> np.ndarray:
        key = (s, k)
        if key not in self._band_sq:
            proj = band_project(self.snapshots[s], k, self.partition)
            self._band_sq[key] = np.sum(proj.data ** 2, axis=0)
        return self._band_sq[key]

    def _template(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis squared cutoff weights and relative cell offsets."""
        if level not in self._templates:
            side, _ = level_geometry(level, self.epsilon, self.n_grid)
            probe = CubeId(level, (0, 0, 0), self.epsilon)
            profile = BumpProfile(probe, self.n_grid, type_j=level)
            pad = int(np.ceil(profile.margin)) + 1
            offsets = np.arange(-pad, side + pad)
            weights = profile.axis_profile(offsets.astype(float), 0) ** 2
            self._templates[level] = (offsets, weights)
        return self._templates[level]

    def table(self, s: int, level: int, band: int) -> np.ndarray:
        key = (s, level, band)
        if key in self._tables:
            return self._tables[key]
        side, _ = level_geometry(level, self.epsilon, self.n_grid)
        m = self.n_grid // side
        if not self.partition.j_min <= band <= self.partition.j_max:
            self.unresolved_bands.add(band)
            out = np.zeros((m, m, m))
            self._tables[key] = out
            return out
        offsets, weights = self._template(level)
        density = self.band_energy_density(s, band)
        dV = self.snapshots[s].cell_volume
        out = np.empty((m, m, m))
        idx_axis = [(offsets + p * side) % self.n_grid for p in range(m)]
        for px, py, pz in itertools.product(range(m), repeat=3):
            patch = density[np.ix_(idx_axis[px], idx_axis[py], idx_axis[pz])]
            val = np.einsum("a,b,c,abc->", weights, weights, weights, patch)
            out[px, py, pz] = np.sqrt(val * dV)
        self._tables[key] = out
        return out

    def family_sq_series(self, cube: CubeId, depth: int) -> np.ndarray:
        """Time series of the nuclear-family energy ``sum u_{Q'}^2``.

        Independent of the classification exponents, so one computation
        serves every parameter set sharing the cube geometry.
        """
        key = (cube, depth)
        if key not in self._family_sq:
            by_level = _family_index(cube, depth, self.n_grid)
            out = np.zeros(len(self.snapshots))
            for s in range(len(self.snapshots)):
                total = 0.0
                for level, idx in by_level.items():
                    tab = self.table(s, level, level)
                    total += float(np.sum(tab[idx] ** 2))
                out[s] = total
            self._family_sq[key] = out
        return self._family_sq[key]


# nuclear-family lattice indices are pure cube geometry: share them across
# caches (different snapshot sets, same grid)
_FAMILY_INDEX: dict[tuple, dict[int, tuple]] = {}


def _family_index(cube: CubeId, depth: int, n_grid: int) -> dict[int, tuple]:
    key = (cube, depth, n_grid)
    if key not in _FAMILY_INDEX:
        family = nuclear_family(cube, depth, n_grid, clamp=True)
        by_level: dict[int, list] = {}
        for member in family:
            by_level.setdefault(member.j, []).append(member.corner)
        _FAMILY_INDEX[key] = {
            level: tuple(np.array(corners).T)
            for level, corners in by_level.items()}
    return _FAMILY_INDEX[key]


# ---------------------------------------------------------------------------
# badness functional and classification


def _trapezoid(times: np.ndarray, values: np.ndarray) -> float:
    return float(np.trapezoid(values, times))


def _terminal_window_mean(times: np.ndarray, values: np.ndarray,
                          width: float) -> tuple[float, bool]:
    """Mean of a sampled function over the terminal window [T - width, T].

    Evaluated in mean form (never forming T - width when the window is
    narrower than float spacing allows), with linear interpolation inside
    sample gaps.  Returns (mean, clipped) where ``clipped`` flags a window
    wider than the sampled span.
    """
    T = times[-1]
    span = T - times[0]
    if width <= 0:
        return float(values[-1]), False
    if width >= span:
        total = _trapezoid(times, values)
        return total / max(span, np.finfo(float).tiny), True
    gap = T - times[-2]
    if width <= gap:
        slope = (values[-1] - values[-2]) / gap
        return float(values[-1] - 0.5 * slope * width), False
    t_lo = T - width
    inside = times >= t_lo
    ts = np.concatenate([[t_lo], times[inside]])
    left = np.interp(t_lo, times, values)
    vs = np.concatenate([[left], values[inside]])
    return _trapezoid(ts, vs) / width, False


def badness_functional(snapshots: list[GridField], cube: CubeId,
                       params: RegularityParams,
                       cache: CoefficientCache | None = None
                       ) -> tuple[float, float]:
    """(lhs, threshold) of the classification inequality for one cube.

    The terminal-window term uses the mean formulation ``W**(wj) int = mean``
    when the window fits the sampled span, so astronomically narrow windows
    degrade gracefully to the terminal value instead of underflowing.
    """
    if cache is None:
        cache = CoefficientCache(snapshots, cube.epsilon)
    j = cube.j
    times = cache.times
    n_snap = len(cache.snapshots)

    fam_sq = cache.family_sq_series(cube, params.nuclear_depth)
    width = params.window_base ** (-params.window_exponent * j)
    term1, clipped = _terminal_window_mean(times, fam_sq, width)
    if clipped:
        # window wider than the sampled span: apply the raw weight
        term1 *= (times[-1] - times[0]) * params.window_base ** (
            params.window_exponent * j)

    term2 = 0.0
    for k in range(j, cache.partition.j_max + 1):
        series = np.array([cache.table(s, j, k)[cube.corner] ** 2
                           for s in range(n_snap)])
        term2 += 2.0 ** (2.0 * params.alpha * k) * _trapezoid(times, series)

    return term1 + term2, params.threshold(j)


def classify_level_records(snapshots: list[GridField], j: int,
                           params: RegularityParams,
                           cache: CoefficientCache | None = None
                           ) -> list[CubeRecord]:
    if cache is None:
        cache = CoefficientCache(snapshots, params.epsilon)
    records = []
    for cube in cube_hierarchy(j, params.epsilon, cache.n_grid):
        lhs, thr = badness_functional(snapshots, cube, params, cache)
        records.append(CubeRecord(cube, lhs, thr))
    return records


def classify_level(snapshots: list[GridField], j: int,
                   params: RegularityParams,
                   cache: CoefficientCache | None = None) -> set[CubeId]:
    """Set M_j of flagged cubes in the level-j tiling."""
    return {r.cube for r in classify_level_records(snapshots, j, params, cache)
            if r.verdict == VERDICT_BAD}


# ---------------------------------------------------------------------------
# covering counts and the dimension estimate


def dimension_estimate(level_counts: dict[int, float]) -> tuple[float, float]:
    """Least-squares slope of log2(count) against level.

    Levels with nonpositive counts are unusable; at least four usable
    levels are required.  Returns (slope, max absolute fit deviation).
    """
    usable = sorted((j, c) for j, c in level_counts.items() if c > 0)
    if len(usable) < 4:
        raise ValueError(f"need >= 4 levels with positive counts, have {len(usable)}")
    js = np.array([j for j, _ in usable], dtype=float)
    logs = np.log2([c for _, c in usable])
    slope, intercept = np.polyfit(js, logs, 1)
    fit = slope * js + intercept
    return float(slope), float(np.max(np.abs(fit - logs)))


@dataclass
class LevelSummary:
    j: int
    tiling_count: int
    bad_count: int
    vitali_count: int
    covering_count: int

    def to_dict(self) -> dict:
        return {"j": self.j, "tiling_count": self.tiling_count,
                "bad_count": self.bad_count, "vitali_count": self.vitali_count,
                "covering_count": self.covering_count}


@dataclass
class CoveringReport:
    params: RegularityParams
    per_level: list[LevelSummary]
    d_est: float | None
    residual: float | None
    notes: list[str] = field(default_factory=list)

    @property
    def desk_bound(self) -> float:
        return self.params.desk_bound

    @property
    def reference_bound(self) -> float:
        return self.params.reference_bound

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "per_level": [row.to_dict() for row in self.per_level],
            "d_est": self.d_est,
            "residual": self.residual,
            "desk_bound": self.desk_bound,
            "paper_bound": self.reference_bound,
            "notes": list(self.notes),
        }


def analyze_snapshots(snapshots: list[GridField], params: RegularityParams,
                      levels, cache: CoefficientCache | None = None
                      ) -> CoveringReport:
    """Classification, Vitali selection, and covering counts per level.

    The dimension estimate is fitted on the Vitali-selected counts: with a
    pre-dilation wide enough to separate nuclear families, the flagged
    energy summed over selected cubes is bounded by the global budget, so
    these counts carry the covering bound directly.  The rasterized
    covering counts (level-j cubes under the full ``5 x pre_dilation``
    enlargements, capped by the tiling) are reported alongside; at desk
    box sizes they saturate the tiling at coarse levels, which is why the
    fit does not use them.
    """
    if cache is None:
        cache = CoefficientCache(snapshots, params.epsilon)
    rows = []
    counts = {}
    notes = []
    for j in sorted(levels):
        try:
            records = classify_level_records(snapshots, j, params, cache)
        except LevelResolutionError as exc:  # report, do not abort
            notes.append(f"level {j} skipped: {exc}")
            continue
        bad = [r.cube for r in records if r.verdict == VERDICT_BAD]
        selected = vitali_cover(bad, cache.n_grid, params.vitali_pre_dilation)
        n_cover = covering_count(selected, j, cache.n_grid,
                                 VITALI_DILATION * params.vitali_pre_dilation)
        rows.append(LevelSummary(j, len(records), len(bad), len(selected), n_cover))
        counts[j] = len(selected)
    if cache.unresolved_bands:
        notes.append("bands treated as empty (beyond grid resolution): "
                     f"{sorted(cache.unresolved_bands)}")
    try:
        d_est, residual = dimension_estimate(counts)
    except ValueError as exc:
        d_est, residual = None, None
        notes.append(f"dimension estimate unavailable: {exc}")
    return CoveringReport(params, rows, d_est, residual, notes)


# ---------------------------------------------------------------------------
# dissipation pairing diagnostic


def local_dissipation_check(fld: GridField, cube: CubeId, j: int, alpha: float,
                            partition: LPPartition | None = None
                            ) -> tuple[float, tuple[float, float, float]]:
    """Pairing ``<(-Delta)^alpha u, P_j phi^2 P_j u>`` and its bound terms.

    The returned triple is ``(2**(2 alpha j) u_Q^2,
    2**((2 alpha - eps) j) sum_{N^1(Q)} u_{Q'}^2, 2**(-100 j))``; fitting an
    empirical constant K against ``pairing >= K (t1 - t2 - t3)`` is the
    caller's business.  All frequencies are box-relative mode units.
    """
    if partition is None:
        partition = mode_partition(fld.n_grid)
    phi = BumpProfile(cube, fld.n_grid, type_j=j).sample()
    proj = band_project(fld, j, partition)
    localized = GridField(phi ** 2 * proj.data, fld.box_size)
    inner_field = band_project(localized, j, partition)
    frac = apply_symbol(fld, fractional_symbol(mode_radii(fld.n_grid), alpha))
    pairing = float(np.sum(frac.data * inner_field.data) * fld.cell_volume)

    u_q = float(np.sqrt(np.sum(phi ** 2 * np.sum(proj.data ** 2, axis=0))
                        * fld.cell_volume))
    t1 = 2.0 ** (2.0 * alpha * j) * u_q ** 2
    snapshot = GridField(fld.data, fld.box_size, 0.0)
    cache = CoefficientCache([snapshot], cube.epsilon)
    neighbor = float(cache.family_sq_series(cube, 1)[0])
    t2 = 2.0 ** ((2.0 * alpha - cube.epsilon) * j) * neighbor
    t3 = 2.0 ** (-100.0 * j)
    return pairing, (t1, t2, t3)
