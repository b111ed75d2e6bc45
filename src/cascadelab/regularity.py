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

Cube sums separate by axis, so a level is classified at once: coefficient
tables and family energies are per-axis contractions, the latter with
:func:`~cascadelab.cubes.family_matrices`, the one implementation of the
nuclear families.  Every table row the requested levels read is computed
in one pass over the snapshots: the calling thread reads each snapshot
once, and a pool thread (:func:`~cascadelab.grid.map_snapshots`, whose
threads live for one pass) transforms it once, on work arrays it keeps
for the pass (:func:`_snapshot_rows`), and contracts each band density
into its tables.  The family energy is read only inside the terminal
window, so a band that only family tables need is inverted only at the
snapshots the window reads.  Rows are gathered in snapshot order, so
tables do not depend on the pool size.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from .cubes import (VITALI_DILATION, BumpProfile, CubeId, LevelResolutionError,
                    covering_count, cube_hierarchy, family_matrices,
                    level_geometry, vitali_cover)
from .grid import GridField, map_snapshots, real_samples, wave_magnitude
from .spectral import LPPartition

VERDICT_BAD = "mildly_bad"
VERDICT_REGULAR = "regular"


def mode_partition(n_grid: int) -> LPPartition:
    """Band range on integer mode magnitudes (box-relative frequencies)."""
    return LPPartition.for_grid(n_grid, box_size=2.0 * np.pi)


def mode_radii(n_grid: int) -> np.ndarray:
    return wave_magnitude(n_grid, 2.0 * np.pi)


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
        for name in ("alpha", "epsilon", "gamma", "K_threshold", "window_base"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epsilon >= 1:  # every level would snap to the whole box
            raise ValueError(f"epsilon must be below 1, got {self.epsilon}")
        if self.nuclear_depth < 0 or self.window_exponent <= 0:
            raise ValueError("nuclear_depth >= 0 and window_exponent > 0 required")
        if self.vitali_pre_dilation < 1.0:
            raise ValueError("vitali_pre_dilation must be >= 1")
        if self.exponent_offset is None:
            self.exponent_offset = self.epsilon
        if not np.isfinite([self.desk_bound, self.reference_bound]).all():
            raise ValueError(
                f"alpha {self.alpha}, epsilon {self.epsilon}, gamma {self.gamma} and "
                f"exponent_offset {self.exponent_offset}: the dimension bound "
                "is beyond float range")

    def threshold(self, j: int) -> float:
        return self.K_threshold * _power(2.0, -self.desk_bound * j, (
            f"alpha, epsilon, gamma and exponent_offset at level {j}"))

    @property
    def desk_bound(self) -> float:
        """Dimension bound evaluated with the parameters actually used."""
        return 5.0 - 4.0 * self.alpha + self.exponent_offset + self.gamma

    @property
    def reference_bound(self) -> float:
        """Dimension bound with the full-strength offset ``100 epsilon``."""
        return 5.0 - 4.0 * self.alpha + 100.0 * self.epsilon + self.gamma


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

    ``table(level, band)`` returns the (snapshots, m, m, m) array of
    ``|| phi_{Q,level} P_band u(t_s) ||_2`` over all level cubes.  Bands
    beyond the resolvable range give zeros and are recorded in
    ``unresolved_bands``.  Snapshots are fields, or files read only in
    :meth:`fill` (:class:`~cascadelab.io.SnapshotFile`), forming one set:
    each has a time tag, no two share a time, and all share one
    ``(n_grid, box_size, n_components)``; else a ValueError names two of
    them, a file as ``<base>.json``, a field by list position.  They are
    held in time order; ``stats`` counts the reads, FFTs and tables of fills.
    """

    def __init__(self, snapshots, epsilon: float):
        if not snapshots:
            raise ValueError("need at least one snapshot")
        named = [(f"snapshot {s}" if isinstance(snap, GridField)
                  else f"{snap.base}.json", snap) for s, snap in enumerate(snapshots)]
        for name, snap in named:
            if snap.time_tag is None:
                raise ValueError(f"{name}: snapshot has no time tag")
        named.sort(key=lambda pair: pair[1].time_tag)
        for (name_a, a), (name_b, b) in zip(named, named[1:]):
            grids = [(s.n_grid, s.box_size, s.n_components) for s in (a, b)]
            if a.time_tag == b.time_tag or grids[0] != grids[1]:
                raise ValueError(
                    f"{name_a} and {name_b}: snapshots need distinct times and one "
                    f"(n_grid, box_size, components), got times {a.time_tag!r} "
                    f"and {b.time_tag!r}, grids {grids[0]} and {grids[1]}")
        self.snapshots = [snap for _, snap in named]
        self.epsilon = epsilon
        self.n_grid = snapshots[0].n_grid
        self.times = np.array([s.time_tag for s in self.snapshots], dtype=float)
        self.partition = mode_partition(self.n_grid)
        self.unresolved_bands: set[int] = set()
        self.stats = dict.fromkeys(("snapshots_read", "forward_ffts",
                                    "band_inverses", "tables_filled"), 0)
        self._tables: dict[tuple[int, int], np.ndarray] = {}
        self._first: dict[tuple[int, int], int] = {}  # first filled row
        self._weights: dict[int, np.ndarray] = {}
        self._members: dict[tuple[int, int], dict[int, np.ndarray]] = {}

    def fill(self, rows) -> None:
        """Missing rows of the tables of ``rows``, ((level, band), first
        snapshot row) pairs, in one pass over the snapshots that need one:
        each is read here and transformed on the pool
        (:func:`_snapshot_rows`), inverting only the bands it needs."""
        count = len(self.snapshots)
        first, symbols, plans = {}, {}, [{} for _ in range(count)]
        for (level, band), lo in sorted(rows):
            hi = first.get((level, band), self._first.get((level, band), count))
            if lo >= hi:
                continue
            weights = self._axis_weights(level)
            if (level, band) not in self._tables:  # rows count from _first
                self._tables[level, band] = np.zeros((count,) + (len(weights),) * 3)
            first[level, band] = lo
            self.stats["tables_filled"] += hi - lo
            if not self.partition.j_min <= band <= self.partition.j_max:
                self.unresolved_bands.add(band)
                continue
            if band not in symbols:  # built here, so no pool thread writes a cache
                symbols[band] = self.band_symbol(band)
            for plan in plans[lo:hi]:
                plan.setdefault(band, (*symbols[band], {}))[2][level] = weights
        read = [s for s, plan in enumerate(plans) if plan]  # none: zip starts no pool

        def jobs():  # read here, so only this thread touches snapshot files
            for s in read:
                snap = self.snapshots[s]
                fld = snap if isinstance(snap, GridField) else snap.load()
                job = [fld.data], fld.cell_volume, plans[s]
                del fld  # the job's list is then the one reference to the samples
                yield job

        for s, found in zip(read, map_snapshots(_snapshot_rows, jobs())):
            for key, row in found.items():
                self._tables[key][s] = row
        self.stats["snapshots_read"] += len(read)
        self.stats["forward_ffts"] += len(read)
        self.stats["band_inverses"] += sum(len(plans[s]) for s in read)
        self._first.update(first)

    def band_symbol(self, band: int) -> tuple[np.ndarray, tuple | None]:
        """``(symbol, lines)``: the symbol on the real-FFT half spectrum up to
        column ``3 2**band``, where it ends, a table of its values on the
        integer ``|k|**2``, and the ``(ky, kz)`` lines it reaches (None: all)."""
        cols = min(int(np.ceil(3.0 * 2.0 ** band)), self.n_grid // 2 + 1)
        k2 = np.fft.fftfreq(self.n_grid, 1.0 / self.n_grid).astype(int) ** 2
        r2 = k2[:, None, None] + k2[:, None] + k2[:cols]
        symbol = self.partition.symbol(band, np.sqrt(np.arange(r2.max() + 1)))[r2]
        nonzero = symbol.any(axis=0)
        return symbol, None if nonzero.all() else np.nonzero(nonzero)

    def _axis_weights(self, level: int) -> np.ndarray:
        """(m, N) squared cutoff profile of each level cube along one axis."""
        if level not in self._weights:
            side, _ = level_geometry(level, self.epsilon, self.n_grid)
            cells = np.arange(self.n_grid, dtype=float)
            self._weights[level] = np.array([
                BumpProfile(CubeId(level, (p, 0, 0), self.epsilon), self.n_grid,
                            type_j=level).axis_profile(cells, 0) ** 2
                for p in range(self.n_grid // side)])
        return self._weights[level]

    def table(self, level: int, band: int) -> np.ndarray:
        """The (snapshots, m, m, m) coefficient table of one (level, band)."""
        self.fill([((level, band), 0)])
        return self._tables[level, band]

    def family_members(self, level: int, depth: int) -> dict[int, np.ndarray]:
        """:func:`~cascadelab.cubes.family_matrices`, computed once per key."""
        if (level, depth) not in self._members:
            self._members[level, depth] = family_matrices(
                level, depth, self.epsilon, self.n_grid)
        return self._members[level, depth]

    def family_sq(self, level: int, depth: int, first: int = 0) -> np.ndarray:
        """Nuclear-family energy ``sum_{N^depth(Q)} u_{Q'}^2`` of every level cube.

        Shape (snapshots, m, m, m), summed anew from the cached tables on
        each call; rows before snapshot ``first`` are left zero.
        """
        members = self.family_members(level, depth)
        self.fill(((l, l), first) for l in members)
        m = len(self._axis_weights(level))
        total = np.zeros((len(self.snapshots), m, m, m))
        for level_l, member in members.items():
            member = member.astype(float)
            total[first:] += np.array([
                _separable_sum(member, row)
                for row in self._tables[level_l, level_l][first:] ** 2])
        return total


#: a pool thread's spectrum, band product and square arrays, made on its
#: first job; a pool's threads live for one pass, so the arrays go with it
_WORK = threading.local()


def _snapshot_rows(box: list, cell_volume: float, plan: dict) -> dict:
    """Coefficient rows ``{(level, band): table[s]}`` of one snapshot.

    ``box`` holds the samples and is emptied, so the field is dropped once
    its real-FFT spectrum exists; ``plan`` maps each band to its half
    symbol, the lines it reaches and the axis weights of its levels
    (:meth:`CoefficientCache.band_symbol`).  Each band density ``|P_band
    u|^2`` is inverted one component at a time (``grid.real_samples``, on
    the columns and ``lines`` the band reaches), squared and summed over
    components in order; only the density is allocated.
    """
    data = box.pop()
    n = data.shape[-1]
    if getattr(_WORK, "shape", None) != data.shape:  # this thread's first job
        _WORK.shape = data.shape
        _WORK.spectrum = np.empty(data.shape[:-1] + (n // 2 + 1,), complex)
        _WORK.hat = np.empty(_WORK.spectrum[0].size, complex)
        _WORK.square = np.empty((n, n, n)) if len(data) > 1 else None
    for c in range(len(data)):
        np.fft.rfftn(data[c], out=_WORK.spectrum[c])
    del data
    rows = {}
    for band, (symbol, lines, weights) in plan.items():
        cols = symbol.shape[-1]
        hat = _WORK.hat[:n * n * cols].reshape(n, n, cols)
        density = None
        for comp in _WORK.spectrum:
            square = real_samples(np.multiply(comp[..., :cols], symbol, out=hat), n,
                                  out=None if density is None else _WORK.square,
                                  lines=lines)
            np.square(square, out=square)
            density = square if density is None else np.add(density, square,
                                                             out=density)
        for level, w in weights.items():
            rows[level, band] = np.sqrt(_separable_sum(w, density) * cell_volume)
    return rows


def _separable_sum(weights: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """``out[a,b,c] = sum_{ijk} w[a,i] w[b,j] w[c,k] arr[i,j,k]`` for an (m, n) w."""
    for _ in range(3):
        arr = np.tensordot(arr, weights, axes=(0, 1))
    return arr


# ---------------------------------------------------------------------------
# badness functional and classification


def _terminal_window_mean(times: np.ndarray, values: np.ndarray,
                          width: float) -> tuple[np.ndarray, bool]:
    """Mean of sampled functions (time along axis 0) over [T - width, T].

    Evaluated in mean form (never forming T - width when the window is
    narrower than float spacing allows), with linear interpolation inside
    sample gaps.  Returns (mean, clipped) where ``clipped`` flags a window
    wider than the sampled span.
    """
    T = times[-1]
    span = T - times[0]
    if width <= 0:
        return values[-1], False
    if width >= span:
        total = np.trapezoid(values, times, axis=0)
        return total / max(span, np.finfo(float).tiny), True
    gap = T - times[-2]
    if width <= gap:
        slope = (values[-1] - values[-2]) / gap
        return values[-1] - 0.5 * slope * width, False
    t_lo = T - width
    inside = times >= t_lo
    i = _window_start(times, width)
    slope = (values[i + 1] - values[i]) / (times[i + 1] - times[i])
    left = slope * (t_lo - times[i]) + values[i]
    ts = np.concatenate([[t_lo], times[inside]])
    vs = np.concatenate([left[None], values[inside]])
    return np.trapezoid(vs, ts, axis=0) / width, False


def _window_start(times: np.ndarray, width: float) -> int:
    """First sample row :func:`_terminal_window_mean` reads, by its branches."""
    if width <= 0:
        return len(times) - 1
    if width >= times[-1] - times[0]:
        return 0
    if width <= times[-1] - times[-2]:
        return len(times) - 2
    return int(np.searchsorted(times, times[-1] - width, side="right")) - 1


def _level_rows(cache: CoefficientCache, j: int, params: RegularityParams):
    """(rows, width, first): the ((level, band), first row) pairs of the
    tables classifying level j reads, the width of its terminal window
    and the first snapshot row the window reads.  The nuclear-family
    tables (l, l) are read from there, bands j and up from row 0."""
    width = _power(params.window_base, -params.window_exponent * j,
                   f"window_base and window_exponent at level {j}")
    first = _window_start(cache.times, width)
    rows = [((l, l), first) for l in cache.family_members(j, params.nuclear_depth)]
    rows += [((j, k), 0) for k in range(j, cache.partition.j_max + 1)]
    return rows, width, first


def _level_badness(cache: CoefficientCache, j: int,
                   params: RegularityParams) -> np.ndarray:
    """Left-hand side of the classification inequality for every level-j cube.

    The terminal-window term uses the mean formulation ``W**(wj) int = mean``
    when the window fits the sampled span, so astronomically narrow windows
    degrade gracefully to the terminal value instead of underflowing.  The
    family energy is summed only over the snapshots the window reads.
    """
    rows, width, first = _level_rows(cache, j, params)
    cache.fill(rows)
    times = cache.times
    term1, clipped = _terminal_window_mean(
        times, cache.family_sq(j, params.nuclear_depth, first), width)
    if clipped:
        # window wider than the sampled span: apply the raw weight
        term1 = term1 * ((times[-1] - times[0]) * _power(
            params.window_base, params.window_exponent * j,
            f"window_base and window_exponent at level {j}"))

    term2 = 0.0
    for k in range(j, cache.partition.j_max + 1):
        weight = _power(2.0, 2.0 * params.alpha * k, f"alpha at band {k}")
        term2 = term2 + weight * np.trapezoid(cache.table(j, k) ** 2, times, axis=0)
    return term1 + term2


def _power(base: float, exponent: float, inputs: str) -> float:
    """``base ** exponent``; an overflow is an OverflowError naming ``inputs``."""
    try:
        return base ** exponent
    except OverflowError:
        raise OverflowError(
            f"{inputs}: {base} ** {exponent} is beyond float range") from None


def classify_level_records(snapshots: list[GridField], j: int,
                           params: RegularityParams,
                           cache: CoefficientCache | None = None
                           ) -> list[CubeRecord]:
    if cache is None:
        cache = CoefficientCache(snapshots, params.epsilon)
    cubes = cube_hierarchy(j, params.epsilon, cache.n_grid)
    lhs = _level_badness(cache, j, params)
    return [CubeRecord(cube, float(lhs[cube.corner]), params.threshold(j))
            for cube in cubes]


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
        return asdict(self)


@dataclass
class CoveringReport:
    params: RegularityParams
    per_level: list[LevelSummary]
    d_est: float | None
    residual: float | None
    notes: list[str] = field(default_factory=list)
    analysis_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "per_level": [row.to_dict() for row in self.per_level],
            "d_est": self.d_est,
            "residual": self.residual,
            "desk_bound": self.params.desk_bound,
            "paper_bound": self.params.reference_bound,
            "notes": list(self.notes),
            "analysis_stats": dict(self.analysis_stats),
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
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct, got {levels!r}")
    if cache is None:
        cache = CoefficientCache(snapshots, params.epsilon)
    notes, classified = [], []
    for j in sorted(levels):  # report, do not abort
        try:
            level_geometry(j, params.epsilon, cache.n_grid)
        except LevelResolutionError as exc:
            notes.append(f"level {j} skipped: {exc}")
            continue
        if params.threshold(j) == 0:  # every cube would be flagged
            notes.append(f"level {j} skipped: its threshold K_threshold "
                         "2**(-desk_bound j) underflows to 0")
        else:
            classified.append(j)
    cache.fill(row for j in classified for row in _level_rows(cache, j, params)[0])
    rows = []
    counts = {}
    for j in classified:
        records = classify_level_records(snapshots, j, params, cache)
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
    return CoveringReport(params, rows, d_est, residual, notes, dict(cache.stats))
