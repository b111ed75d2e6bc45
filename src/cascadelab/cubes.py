"""Cube hierarchy, graded cutoffs, nuclear families, and Vitali selection.

A cube at level j has nominal side ``2**(-j(1-eps))`` in box units.  On an
N-cell grid the side is snapped to the nearest power-of-two cell count so
every level tiles the box exactly; the snap is visible through
:func:`level_geometry`.  Levels whose snapped side would fall below
``MIN_SIDE_CELLS`` cells (or exceed the box) are rejected as unresolved.

All geometry lives in grid-cell units and is periodic: intervals,
memberships, and dilations wrap around the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import smoothstep

MIN_SIDE_CELLS = 4

#: the whole box is one cube at level 0, the coarsest resolvable level
COARSEST_LEVEL = 0

#: enlargement under which a Vitali selection covers its input
VITALI_DILATION = 5.0


class LevelResolutionError(ValueError):
    """Requested cube level is not representable on the grid."""


@dataclass(frozen=True)
class CubeId:
    j: int
    corner: tuple[int, int, int]   # level-j lattice units
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "corner", tuple(int(c) for c in self.corner))


def level_geometry(j: int, epsilon: float, n_grid: int) -> tuple[int, float]:
    """Snapped side in cells and the exact (unsnapped) request.

    Raises :class:`LevelResolutionError` when the level is coarser than
    the box, finer than ``MIN_SIDE_CELLS`` cells, or so fine that its
    :class:`BumpProfile` margin underflows to 0; a side beyond float range
    is rejected before any power that overflows.
    """
    if abs(j) > 1e300 or abs(j * (1.0 - epsilon)) > 1000:
        raise LevelResolutionError(f"level {j} requests a side beyond float range")
    exact = n_grid * 2.0 ** (-j * (1.0 - epsilon))
    if exact > n_grid * (1.0 + 1e-12):
        raise LevelResolutionError(
            f"level {j} requests side {exact:.3g} cells, coarser than the box")
    snapped = int(2 ** int(round(np.log2(exact))))
    snapped = min(snapped, n_grid)
    if snapped < MIN_SIDE_CELLS:
        raise LevelResolutionError(
            f"level {j} snaps to {snapped} cells, below the {MIN_SIDE_CELLS}-cell floor")
    if epsilon * j > 0 and 0.5 * snapped * 2.0 ** (-epsilon * j) == 0:
        raise LevelResolutionError(
            f"level {j} cutoff margin 0.5 side 2**(-epsilon j) underflows to 0")
    return snapped, exact


def finest_level(epsilon: float, n_grid: int) -> int:
    """Largest j >= 0 with levels 1..j resolvable.  Sides shrink with j, and
    level j resolves while ``j (1 - eps) <= log2 N - 1.5`` (a side of 2**1.5
    cells snaps to 4) and its cutoff margin, ``2**(-eps j) / 2`` sides,
    stays above 0; rounding moves that estimate by a step or two."""
    def resolves(j):
        try:
            level_geometry(j, epsilon, n_grid)
        except LevelResolutionError:
            return False
        return True

    j = max(int((np.log2(n_grid) - 1.5) // (1.0 - epsilon)), 0)
    if epsilon > 0:  # past this the margin 2**(-eps j) side/2 is below 2**-1074
        j = min(j, int((1076 + np.log2(n_grid)) / epsilon))
    while j > 0 and not resolves(j):
        j -= 1
    while resolves(j + 1):
        j += 1
    return j


def cube_hierarchy(j: int, epsilon: float, n_grid: int) -> list[CubeId]:
    """Exact tiling of the box by level-j cubes, lexicographic corner order."""
    side, _ = level_geometry(j, epsilon, n_grid)
    m = n_grid // side
    return [CubeId(j, corner, epsilon)
            for corner in itertools.product(range(m), repeat=3)]


def cube_side_cells(cube: CubeId, n_grid: int) -> int:
    side, _ = level_geometry(cube.j, cube.epsilon, n_grid)
    return side


def _enlarged_extent(cube: CubeId, n_grid: int,
                     grow: float) -> list[tuple[float, float]]:
    """Per-axis (start, stop) in cells of Q grown by ``grow * side`` per face.

    ``grow = (D - 1) / 2`` gives the D-fold dilation ``D Q``.
    """
    side = cube_side_cells(cube, n_grid)
    margin = grow * side
    return [(c * side - margin, (c + 1) * side + margin) for c in cube.corner]


def dilated_contains(cube: CubeId, points: np.ndarray, n_grid: int,
                     dilation: float = 1.0) -> np.ndarray:
    """Membership of points (cell coordinates, shape (m, 3)) in ``dilation * Q``."""
    points = np.atleast_2d(points)
    inside = np.ones(len(points), dtype=bool)
    extent = _enlarged_extent(cube, n_grid, 0.5 * (dilation - 1.0))
    for axis, (start, stop) in enumerate(extent):
        if stop - start < n_grid:
            inside &= ((points[:, axis] - start) % n_grid) < stop - start
    return inside


def _cover_axes(cube: CubeId, grow: float, side: int,
                n_grid: int) -> list[list[int]]:
    """Per axis, the indices of the side-``side`` lattice cubes meeting Q
    grown by ``grow`` of its own sides per face (periodically wrapped)."""
    m = n_grid // side
    return [list(range(m)) if stop - start >= n_grid
            else [p % m for p in range(math.floor(start / side),
                                       math.ceil(stop / side))]
            for start, stop in _enlarged_extent(cube, n_grid, grow)]


def cubes_intersect(a: CubeId, b: CubeId, n_grid: int) -> bool:
    """Whether cubes of any levels overlap: b's corner in a's cover."""
    side = cube_side_cells(b, n_grid)
    return all(c in cells for c, cells
               in zip(b.corner, _cover_axes(a, 0.0, side, n_grid)))


# ---------------------------------------------------------------------------
# graded cutoffs ("type j" bumps)


class BumpProfile:
    """Smooth cutoff equal to 1 on Q, zero outside ``(1 + 2**(-eps j)) Q``.

    The transition margin is ``side * 2**(-eps j) / 2`` per face, built from
    the C-infinity smoothstep, so all derivatives exist and the gradient
    magnitude scales like the inverse margin.  ``type_j`` is the grade of
    the cutoff and defaults to the cube's own level.
    """

    def __init__(self, cube: CubeId, n_grid: int, type_j: int | None = None):
        self.cube = cube
        self.n_grid = n_grid
        self.type_j = cube.j if type_j is None else type_j
        self.side = cube_side_cells(cube, n_grid)
        self.margin = 0.5 * self.side * 2.0 ** (-cube.epsilon * self.type_j)
        self.whole_box = self.side >= n_grid
        if not self.whole_box and self.side + 2.0 * self.margin > n_grid:
            raise ValueError(
                f"cutoff support {self.side + 2 * self.margin:.1f} cells exceeds "
                f"the periodic box ({n_grid} cells)")

    def axis_profile(self, coords: np.ndarray, axis: int) -> np.ndarray:
        """Profile factor along one axis at cell coordinates ``coords``."""
        if self.whole_box:
            return np.ones_like(np.asarray(coords, dtype=float))
        center = (self.cube.corner[axis] + 0.5) * self.side
        d = np.abs((np.asarray(coords, dtype=float) - center + self.n_grid / 2.0)
                   % self.n_grid - self.n_grid / 2.0)
        t = (d - 0.5 * self.side) / self.margin
        return 1.0 - smoothstep(t)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at points given in cell coordinates, shape (m, 3)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.ones(len(points))
        for axis in range(3):
            out *= self.axis_profile(points[:, axis], axis)
        return out

    def sample(self) -> np.ndarray:
        """Dense (N, N, N) sample on the grid (cell-corner convention)."""
        coords = np.arange(self.n_grid, dtype=float)
        gx = self.axis_profile(coords, 0)
        gy = self.axis_profile(coords, 1)
        gz = self.axis_profile(coords, 2)
        return np.einsum("i,j,k->ijk", gx, gy, gz)


# ---------------------------------------------------------------------------
# nuclear families


def nuclear_family(cube: CubeId, depth: int, n_grid: int,
                   clamp: bool = True) -> set[CubeId]:
    """The members of ``N^depth(Q)``: the products of Q's rows of
    :func:`family_matrices`.  Without ``clamp``, a family whose bands reach
    past the resolvable levels raises :class:`LevelResolutionError`."""
    if depth == 0:
        return {cube}
    rows = family_matrices(cube.j, depth, cube.epsilon, n_grid)
    lo, hi = cube.j - 2 * depth, cube.j + 2 * depth
    finest = finest_level(cube.epsilon, n_grid)
    if not clamp and not COARSEST_LEVEL <= lo <= hi <= finest:
        raise LevelResolutionError(f"family bands reach levels {lo}..{hi}, "
                                   f"outside [{COARSEST_LEVEL}, {finest}]")
    return {CubeId(level, corner, cube.epsilon) for level, member in rows.items()
            for corner in itertools.product(  # corners wrap: m_j rows per axis
                *(np.flatnonzero(member[c % len(member)]) for c in cube.corner))}


def family_matrices(j: int, depth: int, epsilon: float,
                    n_grid: int) -> dict[int, np.ndarray]:
    """Per-axis membership of ``N^depth(Q)`` for every level-j cube Q.

    Maps each member level l to a boolean (m_j, m_l) matrix, the same on
    all three axes: the level-l members of the family of the cube with
    corner (a, b, c) are the products of rows a, b and c.  Each step adds,
    for every level-l member Q', the cubes at levels l-2 .. l+2 (clamped
    to the resolvable range) that meet ``(1 + 2**(-eps l)) Q'``.  Uniting
    paths axis by axis is exact because a cover only grows as the levels
    along a path coarsen, so the coarsest path to l contains every other.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    hi = finest_level(epsilon, n_grid)
    current = {j: np.eye(n_grid // level_geometry(j, epsilon, n_grid)[0], dtype=bool)}
    for _ in range(depth):
        nxt: dict[int, np.ndarray] = {}
        for level, member in current.items():
            grow = 0.5 * 2.0 ** (-epsilon * level)
            for target in {min(max(level + offset, COARSEST_LEVEL), hi)
                           for offset in range(-2, 3)}:
                side, _ = level_geometry(target, epsilon, n_grid)
                cover = np.zeros((member.shape[1], n_grid // side), dtype=bool)
                for p in range(member.shape[1]):  # band covers along one axis
                    probe = CubeId(level, (p, 0, 0), epsilon)
                    cover[p, _cover_axes(probe, grow, side, n_grid)[0]] = True
                nxt[target] = nxt.get(target, False) | member @ cover
        if nxt.keys() == current.keys() and all(
                np.array_equal(nxt[level], current[level]) for level in nxt):
            break  # saturated: every further step gives the same family
        current = nxt
    return current


# ---------------------------------------------------------------------------
# Vitali selection


def vitali_cover(cubes, n_grid: int,
                 pre_dilation: float = 1.0) -> list[CubeId]:
    """Greedy disjoint subfamily whose 5-fold enlargements cover the input.

    The cubes share one level and epsilon (else a ValueError).  Corners are
    visited in lexicographic order and a cube is kept when disjoint from
    every kept one, so a rejected cube meets a kept cube of its size and
    lies inside its 5-fold enlargement (``VITALI_DILATION``).

    With ``pre_dilation = D > 1`` the D-fold enlargements must be disjoint
    instead, spreading kept cubes at least D sides apart (their nuclear
    families stop overlapping); coverage transfers to the ``5 D``
    enlargements.  Two D-fold enlargements meet exactly when one cube meets
    the other grown by ``D - 1`` sides: each kept cube blocks that box.
    """
    cubes = set(cubes)
    levels = {(c.j, c.epsilon) for c in cubes}
    if len(levels) > 1:
        raise ValueError("Vitali selection needs cubes of one level and "
                         f"epsilon, got (level, epsilon) {sorted(levels)}")
    if not cubes:
        return []
    (j, epsilon), = levels
    side, _ = level_geometry(j, epsilon, n_grid)
    blocked = np.zeros((n_grid // side,) * 3, dtype=bool)
    selected: list[CubeId] = []
    for corner in sorted(c.corner for c in cubes):
        if not blocked[corner]:
            kept = CubeId(j, corner, epsilon)
            selected.append(kept)
            blocked[np.ix_(*_cover_axes(kept, pre_dilation - 1.0, side,
                                        n_grid))] = True
    return selected


def covering_count(selected: list[CubeId], j: int, n_grid: int,
                   dilation: float) -> int:
    """Number of level-j cubes meeting the dilated selected cubes' union."""
    if not selected:
        return 0
    side, _ = level_geometry(j, selected[0].epsilon, n_grid)
    covered = np.zeros((n_grid // side,) * 3, dtype=bool)
    for cube in selected:
        covered[np.ix_(*_cover_axes(cube, 0.5 * (dilation - 1.0), side,
                                    n_grid))] = True
    return int(covered.sum())
