"""Cube hierarchy, graded cutoffs, nuclear families, Vitali selection."""

import itertools
import time

import numpy as np
import pytest

from cascadelab.cubes import (BumpProfile, CubeId, LevelResolutionError,
                              covering_count, cube_hierarchy, cube_side_cells,
                              cubes_intersect, dilated_contains,
                              family_matrices, finest_level, level_geometry,
                              nuclear_family, vitali_cover)
from oracles import (covering_count_sets, cubes_intersect_cells,
                     enumerated_family, vitali_cover_pairwise)

#: the sweep the cube relations are checked on against the references
GRIDS = (16, 32, 64, 128)
EPSILONS = (0.0, 1 / 4, 1 / 3, 1 / 2)
PRE_DILATIONS = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3)


class TestHierarchy:
    def test_level_zero_single_cube(self):
        cubes = cube_hierarchy(0, 0.25, 64)
        assert len(cubes) == 1
        assert cube_side_cells(cubes[0], 64) == 64

    def test_eps0_level2_tiling(self):
        assert len(cube_hierarchy(2, 0.0, 16)) == 64

    def test_count_times_volume_covers_box(self):
        for j, eps, n in [(2, 0.0, 32), (3, 1.0 / 3.0, 64), (1, 0.25, 64)]:
            cubes = cube_hierarchy(j, eps, n)
            side = cube_side_cells(cubes[0], n)
            assert len(cubes) * side ** 3 == n ** 3

    def test_under_resolved_rejected(self):
        with pytest.raises(LevelResolutionError):
            cube_hierarchy(5, 0.0, 64)
        with pytest.raises(LevelResolutionError):
            cube_hierarchy(-1, 0.0, 64)

    def test_snapping_recorded(self):
        side, exact = level_geometry(2, 1.0 / 3.0, 64)
        assert side == 32
        assert exact == pytest.approx(64 * 2 ** (-4.0 / 3.0))

    def test_finest_level(self):
        jf = finest_level(0.0, 64)
        assert jf == 4  # side 4 cells
        with pytest.raises(LevelResolutionError):
            level_geometry(jf + 1, 0.0, 64)

    def test_finest_level_matches_a_scan_of_the_levels(self):
        def scan(eps, n):  # the first j whose next level is unresolvable
            j = 0
            while True:
                try:
                    level_geometry(j + 1, eps, n)
                except LevelResolutionError:
                    return j
                j += 1

        epsilons = [*np.linspace(0.001, 0.995, 200), 1 / 3, 2 / 3,
                    *(1 - 2.0 ** -k for k in range(1, 9))]
        for n in (8, 16, 32, 64, 128, 256):
            for eps in epsilons:
                assert finest_level(eps, n) == scan(eps, n), (eps, n)

    def test_finest_level_near_one_is_immediate(self):
        # a scan would step through about 4.5e9 levels here
        j = finest_level(1 - 1e-9, 64)
        level_geometry(j, 1 - 1e-9, 64)
        with pytest.raises(LevelResolutionError):
            level_geometry(j + 1, 1 - 1e-9, 64)

    @pytest.mark.parametrize("j", [2000, -2000, 10 ** 400, -(10 ** 400)])
    def test_level_beyond_float_range_rejected(self, j):
        with pytest.raises(LevelResolutionError, match="beyond float range"):
            level_geometry(j, 0.25, 64)

    def test_level_whose_margin_underflows_rejected(self):
        # level 1000 snaps to the 16-cell box and level 1e9 to 8 cells; only
        # the finer level's margin 4 * 2**(-(1 - 1e-9) 1e9) underflows to 0
        assert level_geometry(1000, 1 - 1e-9, 16)[0] == 16
        with pytest.raises(LevelResolutionError, match="margin"):
            level_geometry(10 ** 9, 1 - 1e-9, 16)


class TestBumpProfile:
    def test_center_value_one_outside_zero(self):
        cube = CubeId(2, (1, 2, 3), 0.25)
        profile = BumpProfile(cube, 64)
        side = profile.side
        center = (np.array(cube.corner) + 0.5) * side
        assert profile(center[None])[0] == pytest.approx(1.0)
        far = (center + 32.0) % 64
        assert profile(far[None])[0] == 0.0

    def test_support_bound(self):
        cube = CubeId(2, (0, 0, 0), 0.25)
        profile = BumpProfile(cube, 64)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 64, size=(4000, 3))
        vals = profile(pts)
        outside = ~dilated_contains(cube, pts, 64,
                                    1.0 + 2.0 ** (-0.25 * 2) + 1e-9)
        assert np.all(vals[outside] == 0.0)

    def test_gradient_constant_stable_across_levels(self):
        # measured max |d phi / dx| ~ C 2^(j(1-eps)); at eps=0 the constant
        # is level-independent (probe the analytic profile on a fine line)
        consts = []
        n_grid = 4096  # analytic evaluation only, no grid arrays allocated
        for j in (3, 4, 5, 6):
            cube = CubeId(j, (1,) * 3, 0.0)
            profile = BumpProfile(cube, n_grid, type_j=j)
            side = profile.side
            line = np.linspace(side * 0.5, side * 2.5, 20001)
            pts = np.stack([line,
                            np.full_like(line, side * 1.5),
                            np.full_like(line, side * 1.5)], axis=1)
            vals = profile(pts)
            grad = np.max(np.abs(np.diff(vals) / np.diff(line)))  # per cell
            grad_box = grad * n_grid                              # per box unit
            consts.append(grad_box / 2.0 ** (j * 1.0))
        assert max(consts) / min(consts) < 1.05

    def test_translation_invariance(self):
        a = BumpProfile(CubeId(3, (0, 0, 0), 0.25), 64)
        b = BumpProfile(CubeId(3, (2, 1, 5), 0.25), 64)
        sa = np.roll(a.sample(), (2 * a.side, 1 * a.side, 5 * a.side),
                     axis=(0, 1, 2))
        assert np.max(np.abs(sa - b.sample())) < 1e-14

    def test_support_exceeding_box_rejected(self):
        # a cutoff graded coarser than the cube level inflates the margin
        # beyond the periodic box
        with pytest.raises(ValueError):
            BumpProfile(CubeId(2, (0, 0, 0), 0.5), 64, type_j=-2)

    def test_whole_box_cutoff_is_identity(self):
        sample = BumpProfile(CubeId(0, (0, 0, 0), 0.25), 32).sample()
        assert np.all(sample == 1.0)

    def test_sample_matches_callable(self):
        cube = CubeId(2, (1, 0, 3), 0.25)
        profile = BumpProfile(cube, 32)
        sample = profile.sample()
        rng = np.random.default_rng(1)
        idx = rng.integers(0, 32, size=(50, 3))
        direct = profile(idx.astype(float))
        assert np.allclose(sample[idx[:, 0], idx[:, 1], idx[:, 2]], direct)


class TestNuclearFamily:
    def test_depth_zero(self):
        q = CubeId(2, (1, 1, 1), 0.25)
        assert nuclear_family(q, 0, 64) == {q}

    def test_negative_depth_raises(self):
        q = CubeId(2, (1, 1, 1), 0.25)
        for clamp in (True, False):
            with pytest.raises(ValueError, match="depth must be >= 0"):
                nuclear_family(q, -1, 64, clamp=clamp)

    def test_first_family_bands_and_counts(self):
        q = CubeId(2, (1, 2, 3), 0.25)
        fam = nuclear_family(q, 1, 64)
        levels = sorted({c.j for c in fam})
        assert levels == [0, 1, 2, 3, 4]
        for level in levels:
            band = [c for c in fam if c.j == level]
            assert len(band) < 2 ** 10

    def test_band_covers_enlargement(self):
        q = CubeId(2, (1, 2, 3), 0.25)
        fam = nuclear_family(q, 1, 64)
        side = cube_side_cells(q, 64)
        margin = 0.5 * side * 2.0 ** (-q.epsilon * q.j)
        rng = np.random.default_rng(2)
        pts = (np.array(q.corner) * side - margin
               + rng.uniform(0, 1, size=(500, 3)) * (side + 2 * margin))
        pts %= 64
        for level in sorted({c.j for c in fam}):
            band = [c for c in fam if c.j == level]
            covered = np.zeros(len(pts), dtype=bool)
            for c in band:
                covered |= dilated_contains(c, pts, 64, 1.0)
            assert np.all(covered)

    def test_cardinality_bounds(self):
        q = CubeId(3, (0, 4, 2), 0.25)
        for depth in (1, 2):
            fam = nuclear_family(q, depth, 64)
            assert len(fam) <= 2 ** (13 * depth)

    def test_strict_mode_raises_on_underflow(self):
        q = CubeId(1, (0, 0, 0), 0.25)  # bands reach level -1
        with pytest.raises(LevelResolutionError):
            nuclear_family(q, 1, 64, clamp=False)

    def test_clamped_mode_contains_whole_box_cube(self):
        q = CubeId(1, (1, 0, 0), 0.25)
        fam = nuclear_family(q, 1, 64)
        assert CubeId(0, (0, 0, 0), 0.25) in fam

    def test_family_matrices_match_enumeration(self):
        # multiplying out the per-axis rows gives the clamped family
        # member for member, on sampled cubes of every resolvable level
        rng = np.random.default_rng(12)
        for n in (16, 32, 64):
            for eps in (1 / 4, 1 / 3, 1 / 2):
                for j in range(finest_level(eps, n) + 1):
                    tiling = cube_hierarchy(j, eps, n)
                    for depth in range(4 if n < 64 else 3):
                        rows = family_matrices(j, depth, eps, n)
                        for i in rng.choice(len(tiling), min(2, len(tiling)),
                                            replace=False):
                            q = tiling[i]
                            got = {CubeId(level, corner, eps)
                                   for level, member in rows.items()
                                   for corner in itertools.product(
                                       *(np.flatnonzero(member[c])
                                         for c in q.corner))}
                            assert got == enumerated_family(q, depth, n, clamp=True)

    def test_unclamped_family_raises_where_the_enumeration_does(self):
        # without clamping, the family raises exactly when a band of the
        # enumeration leaves the resolvable levels, else it is that family
        rng = np.random.default_rng(14)
        for n in (16, 32, 64):
            for eps in (1 / 4, 1 / 3, 1 / 2):
                for j in range(finest_level(eps, n) + 1):
                    tiling = cube_hierarchy(j, eps, n)
                    for depth in range(3):
                        q = tiling[rng.integers(len(tiling))]
                        try:
                            expect = enumerated_family(q, depth, n, clamp=False)
                        except LevelResolutionError:
                            with pytest.raises(LevelResolutionError):
                                nuclear_family(q, depth, n, clamp=False)
                        else:
                            assert nuclear_family(q, depth, n, clamp=False) == expect

    def test_out_of_lattice_corner_wraps(self):
        # corners are periodic: a corner past the lattice, or below it,
        # has the family of the corner it wraps to
        q = CubeId(3, (0, 4, 2), 0.25)  # 4 cubes per axis on 64 cells
        for depth in (1, 2):
            wrapped = nuclear_family(CubeId(3, (0, 0, 2), 0.25), depth, 64)
            assert nuclear_family(q, depth, 64) == wrapped
            assert nuclear_family(CubeId(3, (-4, 8, -2), 0.25), depth, 64) == wrapped
            assert enumerated_family(q, depth, 64) == wrapped

    def test_family_matrices_saturate_in_depth(self):
        # families only grow with depth and stop changing within a few
        # steps, so a huge depth costs no more than those steps
        for n in (32, 64, 128):
            for eps in (0.05, 1 / 4, 1 / 3, 0.7):
                for j in range(finest_level(eps, n) + 1):
                    huge = family_matrices(j, 10 ** 9, eps, n)
                    deep = family_matrices(j, 20, eps, n)
                    assert huge.keys() == deep.keys()
                    for level in deep:
                        assert np.array_equal(huge[level], deep[level])


class TestVitali:
    def test_disjoint_input_unchanged(self):
        cubes = [CubeId(3, (0, 0, 0), 0.0), CubeId(3, (4, 4, 4), 0.0)]
        assert set(vitali_cover(cubes, 64)) == set(cubes)

    def test_duplicate_collapses(self):
        cubes = [CubeId(3, (1, 1, 1), 0.0)] * 3
        assert len(vitali_cover(cubes, 64)) == 1

    def test_mixed_levels_rejected(self):
        big = CubeId(1, (0, 0, 0), 0.0)      # side 32
        small = CubeId(3, (1, 1, 1), 0.0)    # side 8, inside big
        with pytest.raises(ValueError, match="one level and epsilon"):
            vitali_cover([small, big], 64)
        with pytest.raises(ValueError, match="one level and epsilon"):
            vitali_cover([small, CubeId(3, (1, 1, 1), 0.25)], 64)

    def test_random_cluster_cover_property(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            level = int(rng.integers(2, 4))
            m = 64 // cube_side_cells(CubeId(level, (0, 0, 0), 0.0), 64)
            cubes = [CubeId(level, tuple(rng.integers(0, m, size=3)), 0.0)
                     for _ in range(50)]
            sel = vitali_cover(cubes, 64)
            for a in range(len(sel)):
                for b in range(a + 1, len(sel)):
                    assert not cubes_intersect(sel[a], sel[b], 64)
            side = cube_side_cells(cubes[0], 64)
            pts = []
            for c in cubes:
                base = np.array(c.corner) * side
                pts.append(base + rng.uniform(0, side, size=(100, 3)))
            pts = np.vstack(pts) % 64
            covered = np.zeros(len(pts), dtype=bool)
            for c in sel:
                covered |= dilated_contains(c, pts, 64, 5.0)
            assert np.all(covered)

    def test_pre_dilation_spreads_selection(self):
        cubes = [CubeId(3, (x, 0, 0), 0.0) for x in range(8)]
        plain = vitali_cover(cubes, 64)
        spread = vitali_cover(cubes, 64, pre_dilation=3.0)
        assert len(plain) == 8          # tiling cubes are already disjoint
        assert len(spread) < len(plain)
        # no array is sized from the dilation: the first cube blocks the box
        whole = vitali_cover(cubes, 64, pre_dilation=1e308)
        assert whole == cubes[:1]
        assert covering_count(whole, 3, 64, 5 * 1e308) == 8 ** 3


def _corner_sets(rng, m):
    """A random and a clustered set of corners on the m^3 lattice."""
    k = int(rng.integers(1, 40))
    center = rng.integers(0, m, size=3)
    return ([tuple(rng.integers(0, m, size=3)) for _ in range(k)],
            [tuple((center + rng.integers(-2, 3, size=3)) % m)
             for _ in range(k)])


class TestCubeRelations:
    def test_vitali_and_covering_match_the_references(self):
        rng = np.random.default_rng(17)
        for n in GRIDS:
            for eps in EPSILONS:
                for j in range(finest_level(eps, n) + 1):
                    m = n // level_geometry(j, eps, n)[0]
                    for dilation in PRE_DILATIONS:
                        for corners in _corner_sets(rng, m):
                            cubes = [CubeId(j, c, eps) for c in corners]
                            sel = vitali_cover(cubes, n, dilation)
                            assert sel == vitali_cover_pairwise(
                                cubes, n, dilation), (n, eps, j, dilation)
                            assert covering_count(sel, j, n, 5 * dilation) \
                                == covering_count_sets(sel, j, n, 5 * dilation)

    def test_cubes_intersect_matches_cells_on_mixed_levels(self):
        rng = np.random.default_rng(18)
        for n in GRIDS:
            for eps in EPSILONS:
                top = finest_level(eps, n)
                for _ in range(300):
                    a, b = (CubeId(j, rng.integers(0, n // level_geometry(
                                j, eps, n)[0], size=3), eps)
                            for j in map(int, rng.integers(0, top + 1, size=2)))
                    assert cubes_intersect(a, b, n) \
                        == cubes_intersect_cells(a, b, n), (a, b, n)

    def test_covering_of_empty_selection_is_zero(self):
        assert covering_count([], 2, 64, 20.0) == 0
        assert vitali_cover([], 64, 4.0) == []

    def test_dense_fine_level_selection_is_fast(self):
        # 128^3, eps = 1/3, level 7 (side 4): a quarter of the 32^3 tiling
        rng = np.random.default_rng(19)
        tiling = cube_hierarchy(7, 1 / 3, 128)
        bad = [tiling[i] for i in rng.choice(len(tiling), 8192, replace=False)]
        t0 = time.perf_counter()
        sel = vitali_cover(bad, 128, 4.0)
        count = covering_count(sel, 7, 128, 20.0)
        assert time.perf_counter() - t0 < 2.0
        assert 0 < len(sel) < count <= len(tiling)
