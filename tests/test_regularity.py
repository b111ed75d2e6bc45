"""Cube coefficients, badness classification, covering, dimension fits."""

import json

import numpy as np
import pytest

from cascadelab.cubes import CubeId, LevelResolutionError, cube_hierarchy
from cascadelab.grid import GridField, l2_norm
from cascadelab.regularity import (CoefficientCache, RegularityParams,
                                   _level_badness, _terminal_window_mean,
                                   _window_start,
                                   analyze_snapshots,
                                   classify_level_records, dimension_estimate,
                                   mode_partition, mode_radii)
from oracles import (badness_functional, band_project, classify_level,
                     enumerated_family, plane_wave, wavelet_coefficient)

N = 32
EPS = 0.25


def make_params(**overrides):
    base = dict(alpha=1.0, epsilon=EPS, gamma=0.1, K_threshold=1.0)
    base.update(overrides)
    return RegularityParams(**base)


def localized_snapshots(rng, n_snapshots=4, grow=1.0, n=N, box=2 * np.pi):
    """Band-3 content concentrated in one octant, optionally growing in time."""
    ax = (np.arange(n) + 0.5) / n
    xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
    envelope = np.exp(-(((xx - 0.25) ** 2 + (yy - 0.25) ** 2
                         + (zz - 0.25) ** 2) / (2 * 0.08 ** 2)))
    carrier = np.cos(2 * np.pi * 10 * xx)
    out = []
    for s in range(n_snapshots):
        t = s / (n_snapshots - 1)
        amp = grow ** s
        data = np.zeros((3, n, n, n))
        data[0] = amp * envelope * carrier
        out.append(GridField(data, box, time_tag=t))
    return out


class TestWaveletCoefficient:
    def test_zero_field(self):
        fld = GridField(np.zeros((3, N, N, N)), 2 * np.pi)
        cube = CubeId(2, (0, 0, 0), EPS)
        assert wavelet_coefficient(fld, cube, 2) == 0.0

    def test_whole_box_plane_wave(self):
        part = mode_partition(N)
        fld = plane_wave(N, 2 * np.pi, (10, 0, 0))
        cube = CubeId(0, (0, 0, 0), EPS)
        got = wavelet_coefficient(fld, cube, 3, part)
        expect = part.symbol(3, np.array([10.0]))[0] * l2_norm(fld)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_collection_sum_dominates_restricted_norm(self):
        # || chi_E P_j u ||^2 <= sum over the collection of u_Q^2, for E the
        # union of any subcollection of tiling cubes
        rng = np.random.default_rng(0)
        fld = GridField(rng.normal(size=(3, N, N, N)), 2 * np.pi)
        j = 2
        proj = band_project(fld, j)
        mag_sq = np.sum(proj.data ** 2, axis=0)
        tiling = cube_hierarchy(j, EPS, N)
        from cascadelab.cubes import cube_side_cells
        side = cube_side_cells(tiling[0], N)
        for _ in range(5):
            picks = [c for c in tiling if rng.random() < 0.4]
            if not picks:
                continue
            chi = np.zeros((N, N, N))
            for c in picks:
                sx, sy, sz = (v * side for v in c.corner)
                chi[sx:sx + side, sy:sy + side, sz:sz + side] = 1.0
            restricted = np.sum(chi * mag_sq) * fld.cell_volume
            total_sq = sum(wavelet_coefficient(fld, c, j) ** 2 for c in picks)
            assert total_sq >= restricted * (1 - 1e-12)


class TestCoefficientCache:
    def test_tables_match_dense_coefficient(self):
        rng = np.random.default_rng(11)
        fld = GridField(rng.normal(size=(3, N, N, N)), 2 * np.pi, time_tag=0.0)
        cache = CoefficientCache([fld], EPS)
        for level in (2, 3):
            table = cache.table(level, level)[0]
            for cube in cube_hierarchy(level, EPS, N):
                assert table[cube.corner] == pytest.approx(
                    wavelet_coefficient(fld, cube, level), rel=1e-12)

    def test_family_energy_matches_dense_enumeration(self):
        rng = np.random.default_rng(13)
        snaps = [GridField(rng.normal(size=(3, N, N, N)), 2 * np.pi, time_tag=t)
                 for t in (0.0, 1.0)]
        cache = CoefficientCache(snaps, EPS)
        dense = {}
        for level in (2, 3):
            family_sq = cache.family_sq(level, 2)
            for cube in cube_hierarchy(level, EPS, N):
                family = enumerated_family(cube, 2, N)
                for s, fld in enumerate(snaps):
                    for q in family:
                        if (s, q) not in dense:
                            dense[s, q] = wavelet_coefficient(fld, q, q.j) ** 2
                    expect = sum(dense[s, q] for q in family)
                    assert family_sq[(s,) + cube.corner] == pytest.approx(
                        expect, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_half_symbols_are_the_full_symbols_trimmed(self, n):
        """``fill`` cuts each band symbol after half-spectrum column
        ``3 2**band``: the last kept column is nonzero and nothing beyond it is.
        The table-built symbol is that trimmed symbol, bit for bit."""
        partition = mode_partition(n)
        radii = mode_radii(n)[..., :n // 2 + 1]
        cache = CoefficientCache([GridField(np.zeros((3, n, n, n)), time_tag=0.0)], EPS)
        for band in partition.bands():
            full = partition.symbol(band, radii)
            cols = min(int(np.ceil(3.0 * 2.0 ** band)), n // 2 + 1)
            assert full[..., cols - 1].any() and not full[..., cols:].any()
            symbol, lines = cache.band_symbol(band)
            assert symbol.tobytes() == partition.symbol(
                band, mode_radii(n)[..., :cols]).tobytes()
            reached = np.zeros(symbol.shape[1:], bool)
            reached[lines] = True  # None: every line
            assert np.array_equal(reached, symbol.any(axis=0))


#: window widths on TIMES (span 1.0, last gap 0.1), one per regime
WINDOW_REGIMES = {"empty": 0.0, "negative": -0.5, "last-gap": 0.06,
                  "inside-span": 0.55, "whole-span": 1.0, "clipped": 3.0}
TIMES = np.array([0.0, 0.15, 0.4, 0.5, 0.75, 0.9, 1.0])


class TestTerminalWindowMean:
    @pytest.mark.parametrize("width", WINDOW_REGIMES.values(),
                             ids=WINDOW_REGIMES.keys())
    def test_linear_data(self, width):
        a, b = np.array([[1.0, -2.0, 0.5]]), np.array([[3.0, 0.25, -7.0]])
        values = a + b * TIMES[:, None, None]
        mean, clipped = _terminal_window_mean(TIMES, values, width)
        T = TIMES[-1]
        if width >= T - TIMES[0]:
            expected = a + b * 0.5 * (TIMES[0] + T)  # mean over the whole span
        else:
            expected = a + b * (T - max(width, 0.0) / 2)
        assert clipped == (width >= T - TIMES[0])
        np.testing.assert_allclose(mean, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", WINDOW_REGIMES.values(),
                             ids=WINDOW_REGIMES.keys())
    def test_random_data_matches_fine_trapezoid(self, width):
        values = np.random.default_rng(11).normal(size=(len(TIMES), 4))
        mean, _ = _terminal_window_mean(TIMES, values, width)
        if width <= 0:
            np.testing.assert_array_equal(mean, values[-1])
            return
        ts = np.linspace(max(TIMES[-1] - width, TIMES[0]), TIMES[-1], 10 ** 5)
        fine = np.stack([np.interp(ts, TIMES, v) for v in values.T], axis=1)
        ref = np.trapezoid(fine, ts, axis=0) / (ts[-1] - ts[0])
        np.testing.assert_allclose(mean, ref, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("width", WINDOW_REGIMES.values(),
                             ids=WINDOW_REGIMES.keys())
    def test_reads_no_row_before_window_start(self, width):
        values = np.random.default_rng(12).normal(size=(len(TIMES), 4))
        first = _window_start(TIMES, width)
        blanked = values.copy()
        blanked[:first] = np.nan
        mean, clipped = _terminal_window_mean(TIMES, values, width)
        got, got_clipped = _terminal_window_mean(TIMES, blanked, width)
        assert got.tobytes() == mean.tobytes() and got_clipped == clipped
        blanked[first] = np.nan  # the first row it reads
        assert np.isnan(_terminal_window_mean(TIMES, blanked, width)[0]).all()


def full_row_badness(snaps, j, params):
    """``_level_badness`` from every row of every table of a fresh cache."""
    cache = CoefficientCache(snaps, params.epsilon)
    times, depth = cache.times, params.nuclear_depth
    width = params.window_base ** (-params.window_exponent * j)
    term1, clipped = _terminal_window_mean(times, cache.family_sq(j, depth), width)
    if clipped:
        term1 = term1 * ((times[-1] - times[0])
                         * params.window_base ** (params.window_exponent * j))
    term2 = 0.0
    for k in range(j, cache.partition.j_max + 1):
        term2 = term2 + 2.0 ** (2.0 * params.alpha * k) * np.trapezoid(
            cache.table(j, k) ** 2, times, axis=0)
    return term1 + term2


def window_snapshots():
    rng = np.random.default_rng(21)
    return [GridField(rng.normal(size=(3, N, N, N)), 2 * np.pi, time_tag=float(t))
            for t in TIMES]


#: (window_base, window_exponent) giving level 2 a window in each regime
#: on TIMES, and the first snapshot that window reads
SKIP_REGIMES = {"last-gap": (2.0, 10, 5), "inside-span": (1.5, 1, 3),
                "on-a-sample": (2.0, 1, 4), "whole-span": (0.5, 1, 0),
                "underflow": (2.0, 600, 6)}


class TestFamilyRowSkip:
    """The family energy is filled only from the first snapshot the terminal
    window reads, and the badness stays bitwise that of every row."""

    @pytest.mark.parametrize("base, exponent, first", SKIP_REGIMES.values(),
                             ids=SKIP_REGIMES.keys())
    def test_badness_is_bitwise_the_full_rows(self, base, exponent, first):
        snaps = window_snapshots()
        params = make_params(window_base=base, window_exponent=exponent)
        cache = CoefficientCache(snaps, EPS)
        got = _level_badness(cache, 2, params)
        assert got.tobytes() == full_row_badness(snaps, 2, params).tobytes()
        assert cache._first[1, 1] == first  # a family-only table
        assert cache._first[2, 2] == 0      # also read by the dissipation term
        # bands 2 to 4 at every snapshot, the family-only bands 0 and 1 from first
        assert cache.stats["band_inverses"] == (3 * len(snaps)
                                                + 2 * (len(snaps) - first))

    @pytest.mark.parametrize("order", [(2, 3, 4), (4, 3, 2)])
    def test_family_pair_that_is_also_a_dissipation_pair(self, order):
        """(4, 4) is in the family of level 2 and in level 4's dissipation
        history, which reads all of it, whichever level is classified first."""
        snaps, params = window_snapshots(), make_params()
        cache = CoefficientCache(snaps, EPS)
        for j in order:
            got = _level_badness(cache, j, params)
            assert got.tobytes() == full_row_badness(snaps, j, params).tobytes()
        assert cache._first[4, 4] == 0

    def test_public_tables_return_every_row_after_a_pass(self):
        snaps, params = window_snapshots(), make_params()
        cache, fresh = CoefficientCache(snaps, EPS), CoefficientCache(snaps, EPS)
        analyze_snapshots(snaps, params, [2, 3, 4], cache)
        assert cache._first[0, 0] == len(snaps) - 2  # earlier rows left out
        for key in list(cache._tables):
            assert cache.table(*key).tobytes() == fresh.table(*key).tobytes()
        for j in (2, 3, 4):
            assert (cache.family_sq(j, params.nuclear_depth).tobytes()
                    == fresh.family_sq(j, params.nuclear_depth).tobytes())


class TestBadnessFunctional:
    def test_zero_trajectory_regular(self):
        snaps = [GridField(np.zeros((3, N, N, N)), 2 * np.pi, time_tag=t)
                 for t in (0.0, 0.5, 1.0)]
        cube = CubeId(2, (1, 1, 1), EPS)
        lhs, thr = badness_functional(snaps, cube, make_params())
        assert lhs == 0.0
        assert thr > 0.0

    def test_doubling_quadruples_lhs(self):
        rng = np.random.default_rng(1)
        snaps = localized_snapshots(rng)
        doubled = [GridField(2.0 * s.data, s.box_size, s.time_tag)
                   for s in snaps]
        cube = CubeId(2, (1, 1, 1), EPS)
        params = make_params()
        cache_a = CoefficientCache(snaps, EPS)
        cache_b = CoefficientCache(doubled, EPS)
        lhs_a, _ = badness_functional(snaps, cube, params, cache_a)
        lhs_b, _ = badness_functional(doubled, cube, params, cache_b)
        assert lhs_b == pytest.approx(4.0 * lhs_a, rel=1e-10)

    def test_concentrated_energy_is_flagged_for_small_K(self):
        rng = np.random.default_rng(2)
        snaps = localized_snapshots(rng, grow=1.4)
        hot = CubeId(2, (1, 1, 1), EPS)   # octant holding the envelope
        lhs, thr = badness_functional(snaps, hot, make_params(K_threshold=1e-8))
        assert lhs >= thr

    def test_window_wider_than_span_weights_the_whole_integral(self):
        # W**(-w j) = 0.5**(-2) = 4 exceeds the sampled span [0, 3]
        snaps = [GridField(s.data, s.box_size, 3.0 * s.time_tag) for s in
                 localized_snapshots(np.random.default_rng(5), grow=1.2)]
        params = make_params(window_base=0.5, window_exponent=1)
        cache = CoefficientCache(snaps, EPS)
        j, times = 2, cache.times
        expected = 0.5 ** j * np.trapezoid(
            cache.family_sq(j, params.nuclear_depth), times, axis=0)
        for k in range(j, cache.partition.j_max + 1):
            expected = expected + 2.0 ** (2 * params.alpha * k) * np.trapezoid(
                cache.table(j, k) ** 2, times, axis=0)
        assert np.all(expected > 0)
        np.testing.assert_allclose(_level_badness(cache, j, params), expected,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("epsilon", [1.0, 1.5])
def test_epsilon_at_or_above_one_rejected(epsilon):
    with pytest.raises(ValueError, match="epsilon must be below 1"):
        make_params(epsilon=epsilon)


class TestClassifyLevel:
    def test_zero_fields_empty(self):
        snaps = [GridField(np.zeros((3, N, N, N)), 2 * np.pi, time_tag=t)
                 for t in (0.0, 0.5, 1.0)]
        assert classify_level(snaps, 2, make_params()) == set()

    def test_threshold_collapse_flags_everything(self):
        rng = np.random.default_rng(3)
        snaps = localized_snapshots(rng)
        bad = classify_level(snaps, 2, make_params(K_threshold=1e-12))
        assert len(bad) == len(cube_hierarchy(2, EPS, N))

    def test_antitone_in_K(self):
        rng = np.random.default_rng(4)
        snaps = localized_snapshots(rng)
        cache = CoefficientCache(snaps, EPS)
        sets = [classify_level(snaps, 2, make_params(K_threshold=k), cache)
                for k in (1e-6, 1e-4, 1e-2)]
        assert sets[2] <= sets[1] <= sets[0]

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        snaps = localized_snapshots(rng, grow=1.3)
        j = 2
        side = N // len(set(c.corner[0] for c in cube_hierarchy(j, EPS, N)))
        shift = (1, 0, 2)
        moved = [GridField(np.roll(s.data,
                                   tuple(side * v for v in shift),
                                   axis=(1, 2, 3)), s.box_size, s.time_tag)
                 for s in snaps]
        params = make_params(K_threshold=1e-5)
        bad_a = classify_level(snaps, j, params)
        bad_b = classify_level(moved, j, params)
        m = N // side
        expected = {CubeId(j, tuple((np.array(c.corner) + shift) % m), EPS)
                    for c in bad_a}
        assert bad_b == expected

    @pytest.mark.parametrize("j", [-1, 9, 2000])
    def test_unresolvable_level_raises(self, j):
        """Coarser than the box, below the cell floor, or beyond float
        range: classifying such a level raises instead of flagging none."""
        snaps = [GridField(np.zeros((3, N, N, N)), 2 * np.pi, time_tag=t)
                 for t in (0.0, 0.5, 1.0)]
        with pytest.raises(LevelResolutionError):
            classify_level_records(snaps, j, make_params())


class TestDimensionEstimate:
    def test_exact_log_linear(self):
        counts = {j: 2.0 ** (2 * j) for j in range(4, 11)}
        d, resid = dimension_estimate(counts)
        assert d == pytest.approx(2.0, abs=0.01)
        assert resid < 1e-9

    def test_rounded_three_halves(self):
        counts = {j: round(2.0 ** (1.5 * j)) for j in range(4, 11)}
        d, _ = dimension_estimate(counts)
        assert d == pytest.approx(1.5, abs=0.05)

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            dimension_estimate({3: 8.0})
        with pytest.raises(ValueError):
            dimension_estimate({3: 8.0, 4: 16.0, 5: 0.0, 6: 0.0})

    def test_bounded_counts_never_overshoot(self):
        rng = np.random.default_rng(6)
        for d_true in (0.5, 1.0, 2.5):
            counts = {j: np.floor(7.0 * 2.0 ** (d_true * j)) for j in range(3, 9)}
            d, _ = dimension_estimate(counts)
            assert d <= d_true + 0.1


class TestAnalyzeSnapshots:
    def test_zero_fields_report(self):
        snaps = [GridField(np.zeros((3, N, N, N)), 2 * np.pi, time_tag=t)
                 for t in (0.0, 0.5, 1.0)]
        report = analyze_snapshots(snaps, make_params(), levels=(2, 3))
        assert all(row.bad_count == 0 for row in report.per_level)
        assert report.d_est is None
        assert any("dimension estimate unavailable" in s for s in report.notes)

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(7)
        snaps = localized_snapshots(rng, grow=1.3)
        params = make_params(K_threshold=1e-5)
        a = analyze_snapshots(snaps, params, levels=(2, 3))
        b = analyze_snapshots(snaps, params, levels=(2, 3))
        assert a.to_dict() == b.to_dict()

    def test_unresolved_level_noted_not_fatal(self):
        rng = np.random.default_rng(8)
        snaps = localized_snapshots(rng)
        report = analyze_snapshots(snaps, make_params(), levels=(2, 9))
        assert any("level 9 skipped" in s for s in report.notes)

    def test_level_whose_margin_underflows_is_skipped(self):
        """At epsilon = 1 - 1e-9, level 1e9 snaps to 8 of 16 cells, but its
        cutoff margin 4 * 2**(-1e9) is 0: no cube of it can be classified."""
        snaps = localized_snapshots(np.random.default_rng(8), n=16)
        report = analyze_snapshots(snaps, make_params(epsilon=1 - 1e-9),
                                   levels=[10 ** 9])
        assert report.per_level == []
        assert report.notes[:-1] == [
            "level 1000000000 skipped: level 1000000000 cutoff margin "
            "0.5 side 2**(-epsilon j) underflows to 0"]

    def test_level_whose_threshold_underflows_is_skipped(self):
        """Level 300 at epsilon = 0.996 resolves on 16^3 (side 8), but its
        threshold 1e-6 * 2**(-4.096 * 300) is 0, which every cube meets."""
        snaps = localized_snapshots(np.random.default_rng(8), n=16)
        params = make_params(alpha=0.5, epsilon=0.996, K_threshold=1e-6)
        assert cube_hierarchy(300, 0.996, 16) and params.threshold(300) == 0
        report = analyze_snapshots(snaps, params, levels=[2, 300])
        assert [row.j for row in report.per_level] == [2]
        assert report.notes[0] == ("level 300 skipped: its threshold "
                                   "K_threshold 2**(-desk_bound j) underflows to 0")

    def test_repeated_level_rejected(self):
        snaps = localized_snapshots(np.random.default_rng(8))
        with pytest.raises(ValueError, match="distinct"):
            analyze_snapshots(snaps, make_params(), levels=(2, 2))

    @pytest.mark.parametrize("position, edit, named", [
        pytest.param(1, lambda f: GridField(f.data[:1], f.box_size, f.time_tag),
                     "snapshot 2 and snapshot 1", id="components-differ"),
        pytest.param(0, lambda f: GridField(f.data, 3.0, f.time_tag),
                     "snapshot 0 and snapshot 2", id="boxes-differ"),
        pytest.param(1, lambda f: GridField(f.data, f.box_size, 0.0),
                     "snapshot 0 and snapshot 1", id="times-repeated"),
    ])
    def test_one_snapshot_set_names_both_positions(self, position, edit, named):
        """Fields at times 0, 1 and 1/2, one of them changed: the two that
        break the set are named by list position, in time order."""
        snaps = localized_snapshots(np.random.default_rng(8), n_snapshots=3, n=16)
        snaps = [snaps[0], snaps[2], snaps[1]]
        snaps[position] = edit(snaps[position])
        with pytest.raises(ValueError, match=f"^{named}: snapshots need distinct"):
            analyze_snapshots(snaps, make_params(), levels=(2,))

    def test_reversed_fields_give_the_same_report(self):
        snaps = localized_snapshots(np.random.default_rng(7), grow=1.3)
        params = make_params(K_threshold=1e-5)
        reports = [json.dumps(analyze_snapshots(s, params, levels=(2, 3))
                              .to_dict(), sort_keys=True)
                   for s in (snaps, snaps[::-1])]
        assert reports[0] == reports[1]
        assert '"bad_count": 0' not in reports[0]


class TestModeFrame:
    def test_mode_radii_are_integer_magnitudes(self):
        radii = mode_radii(8)
        assert radii[0, 0, 0] == 0.0
        assert radii[1, 0, 0] == 1.0
        assert radii[4, 0, 0] == 4.0  # Nyquist magnitude

    def test_band_project_independent_of_box_size(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(3, N, N, N))
        a = band_project(GridField(data, 2 * np.pi), 2)
        b = band_project(GridField(data, 11.7), 2)
        assert np.max(np.abs(a.data - b.data)) < 1e-12
