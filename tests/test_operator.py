"""Grid cascade operator: cancellation, route agreement, band split."""

import numpy as np
import pytest

from cascadelab.cascade import CascadeConfig, CascadeState, quadratic_rhs
from cascadelab.grid import inner, l2_norm
from cascadelab.operator import apply_cascade_operator, paraproduct_split
from cascadelab.spectral import lp_project
from cascadelab.tensor import dyadic_cascade_tensor, random_valid_tensor
from cascadelab.wavelets import build_wavelet_basis, project_coefficients, \
    synthesize_field


@pytest.fixture(scope="module")
def basis():
    return build_wavelet_basis(2.0, 32, n_window=(0, 1), base_scale=4.0)


@pytest.fixture(scope="module")
def basis64():
    return build_wavelet_basis(2.0, 64, n_window=(0, 2), base_scale=4.0)


def cancellation_scale(u, basis):
    return basis.lam ** (2.5 * basis.n_window[1]) * l2_norm(u) ** 3


class TestApplyCascadeOperator:
    def test_disjoint_support_input_maps_to_zero(self, basis):
        # plane wave far outside every shell ball pairs to nothing
        from oracles import plane_wave
        u = plane_wave(basis.n_grid, basis.box_size, (1, 1, 0))
        out = apply_cascade_operator(u, u, dyadic_cascade_tensor(), basis)
        assert np.max(np.abs(out.data)) < 1e-14

    def test_cancellation_identity_on_grid(self, basis):
        rng = np.random.default_rng(11)
        for _ in range(5):
            tensor = random_valid_tensor(rng, n_groups=4)
            u = synthesize_field(rng.normal(size=(4, 2)), basis)
            c = apply_cascade_operator(u, u, tensor, basis)
            assert abs(inner(c, u)) <= 1e-10 * cancellation_scale(u, basis)

    def test_symmetry_in_arguments(self, basis):
        rng = np.random.default_rng(12)
        tensor = random_valid_tensor(rng, n_groups=3)
        u = synthesize_field(rng.normal(size=(4, 2)), basis)
        v = synthesize_field(rng.normal(size=(4, 2)), basis)
        cuv = apply_cascade_operator(u, v, tensor, basis)
        cvu = apply_cascade_operator(v, u, tensor, basis)
        assert np.max(np.abs(cuv.data - cvu.data)) < 1e-12

    def test_agreement_with_coefficient_route(self, basis):
        rng = np.random.default_rng(13)
        tensor = random_valid_tensor(rng, n_groups=4)
        X = rng.normal(size=(4, 2))
        u = synthesize_field(X, basis)
        grid_coeffs = project_coefficients(
            apply_cascade_operator(u, u, tensor, basis), basis)
        cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=1, kappa=0.0,
                            tensor=tensor)
        coeff_route = quadratic_rhs(CascadeState(0.0, X), cfg)
        assert np.max(np.abs(grid_coeffs - coeff_route)) < 1e-12 * max(
            1.0, np.max(np.abs(coeff_route)))

    def test_distinct_arguments_match_polarized_coefficient_route(self, basis):
        rng = np.random.default_rng(16)
        tensor = random_valid_tensor(rng, n_groups=4)
        cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=1, kappa=0.0,
                            tensor=tensor)

        def Q(X):
            return quadratic_rhs(CascadeState(0.0, X), cfg)

        X, Y = rng.normal(size=(2, 4, 2))
        grid_coeffs = project_coefficients(apply_cascade_operator(
            synthesize_field(X, basis), synthesize_field(Y, basis), tensor,
            basis), basis)
        polarized = (Q(X + Y) - Q(X) - Q(Y)) / 2.0
        assert np.max(np.abs(grid_coeffs - polarized)) < 1e-12 * max(
            1.0, np.max(np.abs(polarized)))


REGIMES = ("lh", "hl", "hh", "loc")


def split_by_terms(u, tensor, basis, j, width):
    """Reference split: one (entry, base shell) term at a time, each scattered
    into its regime's full-layout spectrum.  Returns the projected parts and
    the number of nonzero terms per regime."""
    X = project_coefficients(u, basis)
    lo, hi = basis.n_window
    spectra = {name: basis.empty_spectrum() for name in REGIMES}
    counts = dict.fromkeys(REGIMES, 0)
    for (i1, i2, i3, m1, m2, m3), a in tensor.entries.items():
        for b in range(lo, hi - max(m1, m2, m3) + 1):
            c = (a * basis.lam ** (2.5 * b)
                 * X[i1 - 1, b + m1 - lo] * X[i2 - 1, b + m2 - lo])
            b1 = basis.shell_band(b + m1)
            b2 = basis.shell_band(b + m2)
            if min(b1, b2) > j + width:
                name = "hh"
            elif b1 < j - width and b1 <= b2:
                name = "lh"
            elif b2 < j - width:
                name = "hl"
            else:
                name = "loc"
            shell = basis.shells[(i3, b + m3)]
            spectra[name][:, shell.flat_idx] += c * shell.amp
            counts[name] += c != 0.0
    parts = [lp_project(basis.materialize(spectra[name]), j)
             for name in REGIMES]
    return parts, counts


class TestParaproductSplit:
    def test_parts_sum_to_projected_total(self, basis64):
        rng = np.random.default_rng(15)
        tensor = dyadic_cascade_tensor()
        u = synthesize_field(rng.normal(size=(4, 3)), basis64)
        j = basis64.shell_band(1)
        parts = paraproduct_split(u, tensor, basis64, j, width=2)
        total = lp_project(apply_cascade_operator(u, u, tensor, basis64), j)
        sums = sum(p.data for p in parts)
        assert np.max(np.abs(sums - total.data)) <= 1e-10 * max(
            1.0, np.max(np.abs(total.data)))

    def test_low_supported_input_kills_hh_and_loc(self, basis64):
        # content only on shells whose bands sit below j - width
        X = np.zeros((4, 3))
        X[0, 0] = 1.0
        X[1, 0] = -0.5
        u = synthesize_field(X, basis64)
        j = basis64.shell_band(0) + 3
        parts = paraproduct_split(u, tensor=dyadic_cascade_tensor(),
                                  basis=basis64, j=j, width=2)
        lh, hl, hh, loc = parts
        assert np.max(np.abs(hh.data)) < 1e-14
        assert np.max(np.abs(loc.data)) < 1e-14

    def test_high_supported_input_kills_lh_hl_loc(self, basis64):
        X = np.zeros((4, 3))
        X[0, 2] = 1.0
        X[2, 2] = 0.7
        u = synthesize_field(X, basis64)
        j = basis64.shell_band(2) - 3
        parts = paraproduct_split(u, tensor=dyadic_cascade_tensor(),
                                  basis=basis64, j=j, width=2)
        lh, hl, hh, loc = parts
        assert np.max(np.abs(lh.data)) < 1e-14
        assert np.max(np.abs(hl.data)) < 1e-14
        assert np.max(np.abs(loc.data)) < 1e-14

    def test_each_part_matches_term_by_term_regimes(self, basis64):
        rng = np.random.default_rng(17)
        u = synthesize_field(rng.normal(size=(4, 3)), basis64)
        tensors = [dyadic_cascade_tensor()] + [
            random_valid_tensor(rng, n_groups=6) for _ in range(2)]
        had_terms = dict.fromkeys(REGIMES, False)
        resolved = dict.fromkeys(REGIMES, False)
        for tensor in tensors:
            # roundoff is relative to the unprojected operator, not a part
            scale = np.max(np.abs(
                apply_cascade_operator(u, u, tensor, basis64).data))
            for j, width in ((-1, 1), (2, 1), (3, 1)):
                parts = paraproduct_split(u, tensor, basis64, j, width)
                expected, counts = split_by_terms(u, tensor, basis64, j, width)
                for name, part, ref in zip(REGIMES, parts, expected):
                    assert np.max(np.abs(part.data - ref.data)) <= 1e-12 * scale
                    had_terms[name] |= counts[name] > 0
                    resolved[name] |= np.max(np.abs(ref.data)) > 1e-10 * scale
        assert all(had_terms.values()), had_terms
        # parts 100 times the tolerance: lh and hl cannot trade places
        assert resolved["lh"] and resolved["loc"], resolved

    def test_width_validation(self, basis64):
        u = synthesize_field(np.zeros((4, 3)), basis64)
        with pytest.raises(ValueError):
            paraproduct_split(u, dyadic_cascade_tensor(), basis64, 2, width=0)
