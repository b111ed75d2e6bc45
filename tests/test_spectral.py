"""Band projections and their norm inequalities."""

import numpy as np
import pytest

from cascadelab.grid import (GridField, apply_symbol, l2_norm, lp_norm,
                             real_samples, spectral_divergence,
                             spectral_gradient_norm, wave_magnitude)
from cascadelab.spectral import (BandRangeError, LPPartition, chi_profile,
                                 lp_project, smoothstep)
from oracles import (apply_symbol_complex, plane_wave,
                     spectral_divergence_complex,
                     spectral_gradient_norm_complex, zero_field)

N, L = 32, 2 * np.pi


@pytest.fixture(scope="module")
def partition():
    return LPPartition.for_grid(N, L)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


def band_limited(rng, j, partition, n=N, box=L, seed_comp=3):
    f = GridField(rng.normal(size=(seed_comp, n, n, n)), box)
    return lp_project(f, j, partition)


class TestChiProfile:
    def test_plateau_and_support(self):
        r = np.array([0.0, 1.0, 4.0 / 3.0, 3.0, 5.0])
        vals = chi_profile(r)
        assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
        assert vals[3] == 0.0 and vals[4] == 0.0

    def test_smoothstep_monotone(self):
        t = np.linspace(-0.5, 1.5, 101)
        s = smoothstep(t)
        assert np.all(np.diff(s) >= 0)
        assert s[0] == 0.0 and s[-1] == 1.0


class TestPartition:
    def test_band_support(self, partition):
        radii = np.linspace(0.01, 20, 2000)
        for j in (1, 2, 3):
            sym = partition.symbol(j, radii)
            outside = (radii <= (2.0 / 3.0) * 2 ** j) | (radii >= 3.0 * 2 ** j)
            assert np.all(sym[outside] == 0.0)
            assert np.max(sym) > 0.5

    def test_partition_of_unity_no_deviation(self, partition):
        radii = wave_magnitude(N, L)
        total = sum(partition.symbol(j, radii) for j in partition.bands())
        lo, hi = partition.unity_interval(N, L)
        annulus = (radii >= lo) & (radii <= hi)
        assert annulus.sum() > 1000
        assert np.max(np.abs(total[annulus] - 1.0)) < 1e-12

    def test_scaling_relation(self, partition):
        radii = np.linspace(0.7, 2.9, 500)
        p0 = partition.symbol(0, radii)
        p3 = partition.symbol(3, radii * 2 ** 3)
        assert np.max(np.abs(p0 - p3)) < 1e-14


class TestLPProject:
    def test_zero_field(self, partition):
        out = lp_project(zero_field(N, L), 2, partition)
        assert np.all(out.data == 0.0)

    def test_plane_wave_outside_band_killed(self, partition):
        f = plane_wave(N, L, (9, 0, 0))  # |xi| = 9
        out = lp_project(f, 1, partition)  # band 1 support (4/3, 6)
        assert l2_norm(out) < 1e-12 * l2_norm(f)

    def test_widened_projection_identity(self, partition, rng):
        f = GridField(rng.normal(size=(3, N, N, N)), L)
        pj = lp_project(f, 3, partition)
        back = lp_project(pj, 3, partition, widen=True)
        assert np.max(np.abs(back.data - pj.data)) < 1e-12

    def test_out_of_range_band(self, partition):
        with pytest.raises(BandRangeError):
            lp_project(zero_field(N, L), partition.j_max + 1, partition)

    def test_linearity(self, partition, rng):
        f = GridField(rng.normal(size=(3, N, N, N)), L)
        g = GridField(rng.normal(size=(3, N, N, N)), L)
        combo = GridField(2.0 * f.data - 3.0 * g.data, L)
        lhs = lp_project(combo, 2, partition).data
        rhs = (2.0 * lp_project(f, 2, partition).data
               - 3.0 * lp_project(g, 2, partition).data)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("box", [2 * np.pi, 8 * np.pi], ids=["2pi", "8pi"])
    @pytest.mark.parametrize("widen", [False, True])
    def test_half_symbol_is_the_full_cube_symbol(self, rng, box, widen):
        """The half-spectrum symbol ``lp_project`` builds gives the fields
        of the full-cube symbol, bit for bit."""
        f = GridField(rng.normal(size=(3, N, N, N)), box)
        part = LPPartition.for_grid(N, box)
        symbol = part.wide_symbol if widen else part.symbol
        full = apply_symbol(f, symbol(2, wave_magnitude(N, box)))
        assert lp_project(f, 2, part, widen).data.tobytes() == full.data.tobytes()


class TestNormInequalities:
    """Single fitted constant per inequality, valid across bands."""

    @staticmethod
    def spike_field(rng, j, partition, n=N, box=L):
        """Band projection of a sparse spike train: saturates the inequality."""
        data = np.zeros((3, n, n, n))
        for _ in range(rng.integers(1, 4)):
            ix, iy, iz = rng.integers(0, n, size=3)
            data[rng.integers(0, 3), ix, iy, iz] = rng.normal()
        return lp_project(GridField(data, box), j, partition)

    def test_band_lq_vs_l2(self, partition, rng):
        # ||P_j f||_q <= K 2^(3j(1/2-1/q)) ||P_j f||_2, one K for all j,
        # fitted on extremal (coherent point-source) fields
        for q in (4.0, np.inf):
            inv_q = 0.0 if np.isinf(q) else 1.0 / q
            ratios = {}
            for j in (1, 2, 3):
                vals = []
                for _ in range(4):
                    f = self.spike_field(rng, j, partition)
                    weight = 2.0 ** (3 * j * (0.5 - inv_q))
                    vals.append(lp_norm(f, q) / (weight * l2_norm(f)))
                ratios[j] = max(vals)
            fitted = 1.05 * max(ratios.values())
            assert max(ratios.values()) / min(ratios.values()) < 2.5
            # holdout: random fields and fresh spikes stay under the constant
            for j in (1, 2, 3):
                for f in (band_limited(rng, j, partition),
                          self.spike_field(rng, j, partition)):
                    weight = 2.0 ** (3 * j * (0.5 - inv_q))
                    assert lp_norm(f, q) <= fitted * weight * l2_norm(f)

    def test_finite_band_sobolev_equivalence(self, partition, rng):
        # 2^(js) ||P_j f||_2  ~  ||P_j f||_{H^s} with j-independent constants
        radii = wave_magnitude(N, L)
        for s in (1.0, 2.0):
            ratios = []
            for j in (1, 2, 3):
                f = band_limited(rng, j, partition)
                hat = np.fft.fftn(f.data, axes=(1, 2, 3))
                weight = (1.0 + radii ** 2) ** (s / 2.0)
                hs = np.sqrt(np.sum(np.abs(weight * hat) ** 2)
                             * L ** 3 / N ** 6)
                ratios.append(hs / (2.0 ** (j * s) * l2_norm(f)))
            assert max(ratios) / min(ratios) < 8.0

    def test_cutoff_projection_commutator_decays(self, partition, rng):
        # || phi P_k f - P~_k phi P_k f ||_2 decays geometrically in k >= j
        from cascadelab.cubes import BumpProfile, CubeId
        n = 64
        part = LPPartition.for_grid(n, L)
        cube = CubeId(1, (1, 0, 1), 0.5)
        phi = BumpProfile(cube, n, type_j=1).sample()
        f = GridField(rng.normal(size=(3, n, n, n)), L)
        f = GridField(sum(lp_project(f, k, part).data for k in range(1, 5)), L)
        norms = []
        for k in (1, 2, 3, 4):
            pk = lp_project(f, k, part)
            loc = GridField(phi * pk.data, L)
            resid = loc.data - lp_project(loc, k, part, widen=True).data
            norms.append(np.sqrt(np.sum(resid ** 2) * f.cell_volume))
        for a, b in zip(norms, norms[1:]):
            assert b <= 0.5 * a or b < 1e-12


def _max_rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("box", [2 * np.pi, np.pi / 2], ids=["2pi", "pi/2"])
class TestRealTransforms:
    """The half-spectrum transforms against full-spectrum complex ones."""

    @pytest.fixture
    def fld(self, n, box):
        rng = np.random.default_rng([n, int(box * 100)])
        return GridField(rng.normal(size=(3, n, n, n)), box)

    def test_apply_symbol_matches_complex(self, fld, n, box):
        rng = np.random.default_rng(n)
        mirror = -np.arange(n) % n
        noise = rng.normal(size=(n, n, n))
        symbols = [LPPartition.for_grid(n, box).symbol(2, wave_magnitude(n, box)),
                   noise + noise[np.ix_(mirror, mirror, mirror)]]  # even, not radial
        for symbol in symbols:
            ref = apply_symbol_complex(fld, symbol).data
            for given in (symbol, symbol[..., :n // 2 + 1]):  # full cube, half
                assert _max_rel(apply_symbol(fld, given).data, ref) < 1e-12

    def test_divergence_matches_complex(self, fld):
        ref = spectral_divergence_complex(fld).data
        assert _max_rel(spectral_divergence(fld).data, ref) < 1e-12

    def test_gradient_norm_matches_complex(self, fld):
        ref = spectral_gradient_norm_complex(fld)
        assert abs(spectral_gradient_norm(fld) - ref) < 1e-12 * ref


@pytest.mark.parametrize("n", [16, 32])
def test_real_samples_match_irfftn(n):
    rng = np.random.default_rng(n)
    hat = (rng.normal(size=(n, n, n // 2 + 1))
           + 1j * rng.normal(size=(n, n, n // 2 + 1)))
    ref = np.fft.irfftn(hat, s=(n, n, n), axes=(0, 1, 2))
    assert _max_rel(real_samples(hat.copy(), n), ref) < 1e-13
    out = np.empty((n, n, n))
    assert real_samples(hat.copy(), n, out=out) is out
    assert _max_rel(out, ref) < 1e-13
    padded = hat.copy()
    padded[..., n // 4:] = 0.0  # columns a short spectrum leaves out are zero
    assert _max_rel(real_samples(hat[..., :n // 4].copy(), n),
                    np.fft.irfftn(padded, s=(n, n, n), axes=(0, 1, 2))) < 1e-13
    lines = np.nonzero(rng.random((n, n // 2 + 1)) < 0.2)
    sparse = np.zeros_like(hat)  # zero off the lines of the first pass
    sparse[:, lines[0], lines[1]] = hat[:, lines[0], lines[1]]
    assert np.array_equal(real_samples(sparse.copy(), n, lines=lines),
                          real_samples(sparse.copy(), n))
