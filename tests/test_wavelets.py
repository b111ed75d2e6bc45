"""Wavelet basis construction, invariants, and synthesis round trips."""

import numpy as np
import pytest

from cascadelab.grid import (GridField, inner, l2_norm, mean_integral,
                             real_samples, spectral_divergence,
                             spectral_gradient_norm)
from cascadelab.wavelets import (BallGeometry, UnresolvedShellError,
                                 _polarization,
                                 build_wavelet_basis, project_coefficients,
                                 radial_bump, synthesize_field)
from oracles import project_coefficients_rfftn


@pytest.fixture(scope="module")
def basis32():
    return build_wavelet_basis(2.0, 32, n_window=(0, 1), base_scale=4.0)


@pytest.fixture(scope="module")
def basis64():
    return build_wavelet_basis(2.0, 64, n_window=(0, 2), base_scale=4.0)


def materialize_shell(basis, i, n):
    spec = basis.empty_spectrum()
    sh = basis.shells[(i, n)]
    spec[:, sh.flat_idx] = sh.amp
    return basis.materialize(spec)


class TestGeometry:
    def test_default_geometry_valid(self):
        # the one layout fits the annulus with disjoint signed balls for
        # every lam in (1, 2], which is what makes the shells disjoint
        for lam in (1.0 + 1e-9, 1.1, 1.5, 1.7, 2.0):
            geo = BallGeometry.for_lambda(lam)
            assert np.array_equal(np.linalg.norm(geo.directions, axis=1),
                                  np.ones(4))
            assert geo.center_radius - geo.ball_radius > 1.0
            assert geo.center_radius + geo.ball_radius <= (lam + 1) / 2 + 1e-12
            signed = np.concatenate([geo.centers(), -geo.centers()])
            gaps = np.linalg.norm(signed[:, None] - signed[None], axis=-1)
            assert np.min(gaps[~np.eye(8, dtype=bool)]) > 2 * geo.ball_radius

    @pytest.mark.parametrize("lam", [1.0, 2.5])
    def test_lambda_out_of_range_rejected(self, lam):
        with pytest.raises(ValueError, match="1 < lam <= 2"):
            BallGeometry.for_lambda(lam)

    @pytest.mark.parametrize("base_scale", [0.0, -1.0])
    def test_nonpositive_base_scale_rejected(self, base_scale):
        with pytest.raises(ValueError, match="base_scale must be positive"):
            build_wavelet_basis(2.0, 32, base_scale=base_scale)

    def test_centers_inside_annulus(self, basis32):
        radii = np.linalg.norm(basis32.geometry.centers(), axis=1)
        assert np.all(radii > 1.0)
        assert np.all(radii <= (basis32.lam + 1) / 2)


class TestInvariants:
    def test_profiles(self, basis32):
        for psi in basis32.psi:
            assert abs(l2_norm(psi) - 1.0) < 1e-10
            div_rel = (l2_norm(spectral_divergence(psi))
                       / spectral_gradient_norm(psi))
            assert div_rel < 1e-10
            assert np.max(np.abs(mean_integral(psi))) < 1e-10

    def test_fourier_support_in_scaled_balls(self, basis32):
        geo = basis32.geometry
        for (i, n), sh in basis32.shells.items():
            scale = basis32.lam ** n
            n_grid = basis32.n_grid
            idx = sh.flat_idx
            iz = idx % n_grid
            iy = (idx // n_grid) % n_grid
            ix = idx // (n_grid * n_grid)
            freqs = (np.stack([ix, iy, iz]).astype(float) + n_grid / 2) % n_grid \
                - n_grid / 2
            xi = freqs / basis32.base_scale
            center = geo.centers()[i - 1] * scale
            d_pos = np.linalg.norm(xi - center[:, None], axis=0)
            d_neg = np.linalg.norm(xi + center[:, None], axis=0)
            assert np.all(np.minimum(d_pos, d_neg)
                          < geo.ball_radius * scale + 1e-9)

    def test_orthonormality_by_grid_quadrature(self, basis32):
        keys = sorted(basis32.shells)
        fields = {key: materialize_shell(basis32, *key) for key in keys}
        for a in range(len(keys)):
            for b in range(a, len(keys)):
                val = inner(fields[keys[a]], fields[keys[b]])
                expect = 1.0 if a == b else 0.0
                assert abs(val - expect) < 1e-10

    def test_unresolved_window_rejected(self):
        with pytest.raises(UnresolvedShellError):
            build_wavelet_basis(2.0, 32, n_window=(0, 4), base_scale=4.0)

    def test_snap_offset_reported(self, basis32):
        assert 0.0 <= basis32.max_snap_offset < 1.0


class TestSynthesis:
    def test_zero_coefficients(self, basis32):
        u = synthesize_field(np.zeros((4, 2)), basis32)
        assert np.all(u.data == 0.0)

    def test_single_mode_unit_norm(self, basis32):
        X = np.zeros((4, 2))
        X[0, 0] = 1.0
        u = synthesize_field(X, basis32)
        assert abs(l2_norm(u) - 1.0) < 1e-8

    def test_round_trip_recovery(self, basis32):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 2))
        u = synthesize_field(X, basis32)
        rec = project_coefficients(u, basis32)
        assert np.max(np.abs(rec - X)) < 1e-8

    def test_linearity(self, basis32):
        rng = np.random.default_rng(6)
        X, Y = rng.normal(size=(2, 4, 2))
        lhs = synthesize_field(2.0 * X + 0.5 * Y, basis32).data
        rhs = (2.0 * synthesize_field(X, basis32).data
               + 0.5 * synthesize_field(Y, basis32).data)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_window_mismatch_rejected(self, basis32):
        with pytest.raises(ValueError):
            synthesize_field(np.zeros((4, 3)), basis32)  # shells 0..2 vs (0,1)

    def test_synthesized_fields_divergence_free(self, basis32):
        rng = np.random.default_rng(7)
        u = synthesize_field(rng.normal(size=(4, 2)), basis32)
        rel = l2_norm(spectral_divergence(u)) / spectral_gradient_norm(u)
        assert rel < 1e-12

    def test_state_based_synthesis(self, basis32):
        from cascadelab.cascade import CascadeConfig, state_from_entries
        cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=1, kappa=0.0)
        state = state_from_entries(cfg, {(1, 0): 0.7, (3, 1): -0.2}, t=0.3)
        u = synthesize_field(state.X, basis32, n_min=cfg.n_min, time_tag=state.t)
        assert u.time_tag == 0.3
        rec = project_coefficients(u, basis32)
        assert np.max(np.abs(rec - state.X)) < 1e-12


def shell_spectrum(basis, key):
    spec = basis.empty_spectrum()
    sh = basis.shells[key]
    spec[:, sh.flat_idx] = sh.amp
    return spec


def brute_force_shell(basis, i, n):
    """(flat_idx, amp, snap_offset) of shell (i, n) from a scan of every
    grid mode, written from the module docstring."""
    n_grid, geo = basis.n_grid, basis.geometry
    k = np.fft.fftfreq(n_grid, d=1.0 / n_grid)
    gx, gy, gz = np.meshgrid(k, k, k, indexing="ij")
    fx, fy, fz = (g / basis.base_scale for g in (gx, gy, gz))
    center = geo.centers()[i - 1] * basis.lam ** n
    radius = geo.ball_radius * basis.lam ** n
    dist = np.sqrt((fx - center[0]) ** 2 + (fy - center[1]) ** 2
                   + (fz - center[2]) ** 2)
    mask = dist < radius * (1.0 - 1e-12)
    pol = _polarization(geo.directions[i - 1])
    xi = np.stack([fx[mask], fy[mask], fz[mask]])
    amp = radial_bump(dist[mask] / radius) * (
        pol[:, None] - xi * (np.einsum("c,cm->m", pol, xi)
                             / np.sum(xi ** 2, axis=0)))
    ix, iy, iz = np.nonzero(mask)
    mirror = ((-ix % n_grid) * n_grid + (-iy % n_grid)) * n_grid + (-iz % n_grid)
    flat_idx = np.concatenate([np.flatnonzero(mask), mirror])
    amp = np.concatenate([amp, amp], axis=1)
    norm = np.sqrt(np.sum(amp ** 2) * basis.box_size ** 3 / n_grid ** 6)
    return flat_idx, amp / norm, float(np.min(dist) / radius)


class TestRealTransforms:
    @pytest.mark.parametrize("name", ["basis32", "basis64"])
    def test_materialize_matches_complex_inverse(self, name, request):
        basis = request.getfixturevalue(name)
        n = basis.n_grid
        for key in basis.shells:
            spec = shell_spectrum(basis, key)
            ref = np.fft.ifftn(spec.reshape(3, n, n, n), axes=(1, 2, 3)).real
            got = basis.materialize(spec).data
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_projection_matches_complex_transform(self, basis64):
        n = basis64.n_grid
        rng = np.random.default_rng(11)
        noise = GridField(rng.normal(size=(3, n, n, n)), basis64.box_size)
        fld = noise.like(noise.data + synthesize_field(
            rng.normal(size=(4, 3)), basis64).data)
        hat = np.fft.fftn(fld.data, axes=(1, 2, 3)).reshape(3, -1)
        weight = basis64.box_size ** 3 / n ** 6
        ref = np.zeros((4, 3))
        for (i, shell_n), sh in basis64.shells.items():
            ref[i - 1, shell_n] = np.sum(hat[:, sh.flat_idx] * sh.amp).real * weight
        got = project_coefficients(fld, basis64)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ["basis32", "basis64"])
    def test_pruned_inverse_is_the_full_inverse(self, name, request):
        """Synthesis and ``materialize`` transform only the support lines,
        and give the full passes' samples for every shell."""
        basis = request.getfixturevalue(name)
        n, (lo, hi) = basis.n_grid, basis.n_window
        for (i, shell_n) in basis.shells:
            spec = shell_spectrum(basis, (i, shell_n))
            half = spec.reshape(3, n, n, n)[..., :n // 2 + 1].copy()
            ref = np.stack([real_samples(comp, n) for comp in half])
            assert np.array_equal(basis.materialize(spec).data, ref)
            coeffs = np.zeros((4, hi - lo + 1))
            coeffs[i - 1, shell_n - lo] = 1.0
            assert np.array_equal(synthesize_field(coeffs, basis).data, ref)

    @pytest.mark.parametrize("window", [(0, 2), (1, 2)])
    def test_projection_equals_the_full_rfftn_reading(self, window):
        basis = build_wavelet_basis(2.0, 64, n_window=window, base_scale=4.0)
        rng = np.random.default_rng(window[0])
        noise = GridField(rng.normal(size=(3, 64, 64, 64)), basis.box_size)
        field = synthesize_field(rng.normal(size=(4, window[1] - window[0] + 1)),
                                 basis)
        for fld in (noise, field):
            assert (project_coefficients(fld, basis).tobytes()
                    == project_coefficients_rfftn(fld, basis).tobytes())

    @pytest.mark.parametrize("name", ["basis32", "basis64"])
    def test_box_scan_equals_full_grid_scan(self, name, request):
        basis = request.getfixturevalue(name)
        for (i, n), sh in basis.shells.items():
            flat_idx, amp, snap = brute_force_shell(basis, i, n)
            assert np.array_equal(sh.flat_idx, flat_idx)
            assert np.array_equal(sh.amp, amp)
            assert sh.snap_offset == snap

    def test_profiles_built_on_first_read(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                     "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
            def counted(*args, _f=getattr(np.fft, name), **kwargs):
                calls.append(_f)
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        basis = build_wavelet_basis(2.0, 32, n_window=(0, 1), base_scale=4.0)
        assert calls == []
        psi = basis.psi
        # one inverse per profile: two ifft passes and an irfft per component
        assert len(calls) == 4 * 3 * 3
        assert basis.psi is psi
        for i, fld in enumerate(psi, start=1):
            ref = basis.materialize(shell_spectrum(basis, (i, basis.profile_shell)))
            assert np.array_equal(fld.data, ref.data)

    def test_grid_side_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            build_wavelet_basis(2.0, 48, n_window=(0, 1), base_scale=4.0)
