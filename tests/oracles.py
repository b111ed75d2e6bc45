"""Dense reference computations and conveniences the tests check against."""

import itertools
import math

import numpy as np

from cascadelab.cascade import CascadeState
from cascadelab.cubes import (COARSEST_LEVEL, BumpProfile, CubeId,
                              LevelResolutionError, cube_side_cells,
                              finest_level, level_geometry)
from cascadelab.grid import GridField, apply_symbol, wave_vectors
from cascadelab.regularity import (VERDICT_BAD, CoefficientCache,
                                   RegularityParams, classify_level_records,
                                   mode_partition, mode_radii)


def band_project(fld: GridField, k: int, partition=None) -> GridField:
    """Band projection on box-relative frequencies (mode units)."""
    if partition is None:
        partition = mode_partition(fld.n_grid)
    partition.check(k)
    return apply_symbol(fld, partition.symbol(k, mode_radii(fld.n_grid)))


def wavelet_coefficient(fld: GridField, cube: CubeId, j: int,
                        partition=None) -> float:
    """Cube coefficient ``|| phi_{Q,j} P_j u ||_2`` (grid quadrature)."""
    proj = band_project(fld, j, partition)
    phi = BumpProfile(cube, fld.n_grid, type_j=j).sample()
    mag_sq = np.sum(proj.data ** 2, axis=0)
    return float(np.sqrt(np.sum(phi ** 2 * mag_sq) * fld.cell_volume))


def badness_functional(snapshots, cube: CubeId, params: RegularityParams,
                       cache: CoefficientCache | None = None
                       ) -> tuple[float, float]:
    """(lhs, threshold) of the classification inequality for one cube."""
    records = classify_level_records(snapshots, cube.j, params, cache)
    record = next(r for r in records if r.cube == cube)
    return record.badness_lhs, record.threshold


def classify_level(snapshots, j: int, params: RegularityParams,
                   cache: CoefficientCache | None = None) -> set[CubeId]:
    """Set M_j of flagged cubes in the level-j tiling."""
    return {r.cube for r in classify_level_records(snapshots, j, params, cache)
            if r.verdict == VERDICT_BAD}


def zero_field(n_grid: int, box_size: float = 2.0 * np.pi,
               n_components: int = 3) -> GridField:
    return GridField(np.zeros((n_components, n_grid, n_grid, n_grid)), box_size)


def plane_wave(n_grid: int, box_size: float, mode: tuple[int, int, int],
               component: int = 0, phase: float = 0.0) -> GridField:
    """Real plane wave cos(xi . x + phase) in one vector component."""
    n = n_grid
    axes = [np.arange(n) * (box_size / n)] * 3
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    scale = 2.0 * np.pi / box_size
    arg = scale * (mode[0] * xx + mode[1] * yy + mode[2] * zz) + phase
    data = np.zeros((3, n, n, n))
    data[component] = np.cos(arg)
    return GridField(data, box_size)


def energy_balance_residual_loop(trajectory, config) -> np.ndarray:
    """Sample-by-sample reference for ``cascade.energy_balance_residual``."""
    times = trajectory.times
    states = trajectory.state_array()
    energy = 0.5 * np.sum(states ** 2, axis=(1, 2))
    rates = config.compiled_rhs.rates
    out = np.empty(len(times) - 2)
    for k in range(1, len(times) - 1):
        hl = times[k] - times[k - 1]
        hr = times[k + 1] - times[k]
        dE = (-hr / (hl * (hl + hr)) * energy[k - 1]
              + (hr - hl) / (hl * hr) * energy[k]
              + hl / (hr * (hl + hr)) * energy[k + 1])
        out[k - 1] = dE + float(np.sum(rates * states[k].ravel() ** 2))
    return out


def project_coefficients_rfftn(fld: GridField, basis) -> np.ndarray:
    """Full-``rfftn`` reference for ``wavelets.project_coefficients``:
    ``Re u_hat`` of every half-spectrum mode, read at each basis mode or at
    its mirror."""
    n = fld.n_grid
    hat = np.stack([np.fft.rfftn(comp).real.ravel() for comp in fld.data])
    weight = basis.box_size ** 3 / n ** 6
    lo, hi = basis.n_window
    out = np.zeros((4, hi - lo + 1))
    for (i, shell_n), sh in basis.shells.items():
        out[i - 1, shell_n - lo] = np.sum(hat[:, sh.half_idx] * sh.amp) * weight
    return out


def apply_symbol_complex(fld: GridField, symbol: np.ndarray) -> GridField:
    """Full-spectrum reference for ``grid.apply_symbol``."""
    hat = np.fft.fftn(fld.data, axes=(1, 2, 3))
    return fld.like(np.fft.ifftn(hat * symbol, axes=(1, 2, 3)).real)


def spectral_divergence_complex(fld: GridField) -> GridField:
    """Full-spectrum reference for ``grid.spectral_divergence``."""
    kx, ky, kz = wave_vectors(fld.n_grid, fld.box_size, zero_nyquist=True)
    hat = np.fft.fftn(fld.data, axes=(1, 2, 3))
    div_hat = 1j * (kx * hat[0] + ky * hat[1] + kz * hat[2])
    return GridField(np.fft.ifftn(div_hat).real[None], fld.box_size, fld.time_tag)


def spectral_gradient_norm_complex(fld: GridField) -> float:
    """Full-spectrum reference for ``grid.spectral_gradient_norm``."""
    kx, ky, kz = wave_vectors(fld.n_grid, fld.box_size, zero_nyquist=True)
    hat = np.fft.fftn(fld.data, axes=(1, 2, 3))
    total = sum(np.sum((kx ** 2 + ky ** 2 + kz ** 2) * np.abs(comp) ** 2)
                for comp in hat)
    return float(np.sqrt(total * fld.box_size ** 3 / fld.n_grid ** 6))


def _dilated_extent(cube: CubeId, n_grid: int, dilation: float):
    """Per-axis (start, stop) in cells of ``dilation * Q``."""
    side = cube_side_cells(cube, n_grid)
    margin = 0.5 * (dilation - 1.0) * side
    return [(c * side - margin, (c + 1) * side + margin) for c in cube.corner]


def _dilated_intersect(a: CubeId, b: CubeId, n_grid: int, dilation: float) -> bool:
    """Whether the periodic ``dilation``-fold enlargements of a and b meet."""
    def meet(a_start, a_len, b_start, b_len):
        if a_len >= n_grid or b_len >= n_grid:
            return True
        return ((b_start - a_start) % n_grid < a_len
                or (a_start - b_start) % n_grid < b_len)

    return all(meet(sa, ea - sa, sb, eb - sb)
               for (sa, ea), (sb, eb) in zip(_dilated_extent(a, n_grid, dilation),
                                             _dilated_extent(b, n_grid, dilation)))


def vitali_cover_pairwise(cubes, n_grid: int,
                          pre_dilation: float = 1.0) -> list[CubeId]:
    """Pairwise greedy reference for ``cubes.vitali_cover``: cubes in
    decreasing size, ties broken by level then corner, kept when their
    ``pre_dilation``-fold enlargement misses every kept one's."""
    def sort_key(c: CubeId):
        return (-cube_side_cells(c, n_grid), c.j, c.corner)

    selected: list[CubeId] = []
    for cube in sorted(set(cubes), key=sort_key):
        if all(not _dilated_intersect(cube, kept, n_grid, pre_dilation)
               for kept in selected):
            selected.append(cube)
    return selected


def _lattice_cover(extent, side: int, n_grid: int):
    """Corners of the side-``side`` lattice cubes meeting a per-axis
    (start, stop) extent in cells, periodically wrapped."""
    m = n_grid // side
    return itertools.product(*(
        range(m) if stop - start >= n_grid
        else [p % m for p in range(math.floor(start / side), math.ceil(stop / side))]
        for start, stop in extent))


def covering_count_sets(selected, j: int, n_grid: int, dilation: float) -> int:
    """Set-union reference for ``cubes.covering_count``: the level-j corners
    meeting any dilated selected cube, one tuple per covered cube."""
    covered: set[tuple[int, int, int]] = set()
    for cube in selected:
        side, _ = level_geometry(j, cube.epsilon, n_grid)
        covered.update(_lattice_cover(_dilated_extent(cube, n_grid, dilation),
                                      side, n_grid))
    return len(covered)


def enumerated_family(cube: CubeId, depth: int, n_grid: int,
                      clamp: bool = True) -> set[CubeId]:
    """Cube-by-cube reference for ``cubes.nuclear_family`` and
    ``cubes.family_matrices``: ``N^1(Q)`` unites the cubes at levels
    j-2 .. j+2 meeting ``(1 + 2**(-eps j)) Q``, and deeper families repeat
    that step on every member.  A band level outside the resolvable range
    is clamped to it, or raises ``LevelResolutionError`` without ``clamp``."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    eps, finest = cube.epsilon, finest_level(cube.epsilon, n_grid)
    level_geometry(cube.j, eps, n_grid)  # an unresolvable cube raises
    sides = {level: level_geometry(level, eps, n_grid)[0]
             for level in range(COARSEST_LEVEL, finest + 1)}
    current = {(cube.j, cube.corner)}
    for _ in range(depth):
        nxt: set[tuple[int, tuple[int, int, int]]] = set()
        for j, corner in current:
            side = sides[j]
            margin = 0.5 * 2.0 ** (-eps * j) * side
            extent = [(c * side - margin, (c + 1) * side + margin) for c in corner]
            for level in range(j - 2, j + 3):
                if not clamp and not COARSEST_LEVEL <= level <= finest:
                    raise LevelResolutionError(f"family band at level {level} is "
                                               "unresolved")
                level = min(max(level, COARSEST_LEVEL), finest)
                band = _lattice_cover(extent, sides[level], n_grid)
                nxt.update((level, c) for c in band)
        current = nxt
    return {CubeId(j, corner, eps) for j, corner in current}


def cube_cells(cube: CubeId, n_grid: int) -> list[set[int]]:
    """Per axis, the grid cells a cube occupies (cubes are cell-aligned)."""
    side = cube_side_cells(cube, n_grid)
    return [{(c * side + i) % n_grid for i in range(side)} for c in cube.corner]


def cubes_intersect_cells(a: CubeId, b: CubeId, n_grid: int) -> bool:
    """Exact reference for ``cubes.cubes_intersect``: a shared cell."""
    return all(ca & cb for ca, cb in zip(cube_cells(a, n_grid),
                                         cube_cells(b, n_grid)))


_DP5_ROWS = [[1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
             [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
             [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
             [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]]
_DP5_ERROR = [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
              22 / 525, -1 / 40]


def dp5_reference(config, initial, t_end: float, rel_tol: float):
    """Final state of a plain Dormand-Prince 5(4) run on the full
    derivative: every stage evaluated afresh, an I controller, the error
    norm and absolute floor of ``integrate``.  The reference for windows
    with dissipation, which ``integrate`` steps exponentially."""
    plan = config.compiled_rhs
    y, t = initial.X.ravel().astype(float), float(initial.t)
    atol = rel_tol * 1e-3 * float(np.max(np.abs(y)))
    h = 1e-6
    while t < t_end:
        h = min(h, t_end - t)
        k = [plan(y)]
        for row in _DP5_ROWS:  # the last row gives y_new and k7 = f(y_new)
            y_new = y + h * sum(a * kj for a, kj in zip(row, k))
            k.append(plan(y_new))
        delta = h * sum(e * kj for e, kj in zip(_DP5_ERROR, k))
        scale = atol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((delta / scale) ** 2)))
        if err <= 1.0:
            t, y = t + h, y_new
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
    return CascadeState(t, y.reshape(initial.X.shape))
