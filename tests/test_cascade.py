"""Shell dynamics: right-hand side, flux cancellation, energies, scaling."""

import numpy as np
import pytest

from cascadelab.cascade import (CascadeConfig, CascadeState, CascadeTrajectory,
                                builtin_dyadic_config, cascade_rhs,
                                energy_balance_residual, flux_scale,
                                nonlinear_energy_flux, quadratic_rhs,
                                rescale_trajectory, state_from_entries,
                                timescale_ratio, total_energy)
from cascadelab.tensor import (CoefficientTensor, dyadic_cascade_tensor,
                               random_valid_tensor)


def dyadic_rhs_reference(x, lam, alpha, kappa):
    """Directly coded classical dyadic formula (species-1 slice oracle)."""
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        if i >= 1:
            out[i] += lam ** (2.5 * (i - 1)) * x[i - 1] ** 2
        if i + 1 < n:
            out[i] -= lam ** (2.5 * i) * x[i] * x[i + 1]
        out[i] -= kappa * lam ** (2.0 * alpha * i) * x[i]
    return out


def rhs_by_terms(X, config):
    """The module docstring's formula, one (entry, base shell) term at a time.

    Powers are taken over whole arrays, because numpy's vectorised ``**``
    may round differently from the scalar one.
    """
    shells = config.shells
    growth = config.lam ** (2.5 * shells)
    rates = config.kappa * config.lam ** (2.0 * config.alpha * shells)
    out = np.zeros_like(X)
    for (i1, i2, i3, m1, m2, m3), a in config.tensor.entries.items():
        for k, b in enumerate(shells):
            if b + max(m1, m2, m3) <= config.n_max:
                out[i3 - 1, k + m3] += (a * growth[k] * X[i1 - 1, k + m1]
                                        * X[i2 - 1, k + m2])
    for i in range(4):
        for k in range(len(shells)):
            out[i, k] -= rates[k] * X[i, k]
    return out


class TestCascadeRHS:
    def test_zero_state_zero_rhs(self):
        cfg = builtin_dyadic_config(2.0, 0.0, (0, 5))
        assert np.all(cascade_rhs(cfg.zero_state(), cfg) == 0.0)

    def test_dyadic_single_seed(self):
        cfg = builtin_dyadic_config(2.0, 0.0, (0, 5))
        s = state_from_entries(cfg, {(1, 0): 1.0})
        d = cascade_rhs(s, cfg)
        assert d[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert d[0, 0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("lam,alpha,kappa", [(2.0, 0.0, 0.0),
                                                 (2.0, 1.0, 0.7),
                                                 (1.5, 1.25, 0.2)])
    def test_matches_direct_dyadic_formula(self, lam, alpha, kappa):
        cfg = builtin_dyadic_config(lam, alpha, (0, 9), kappa=kappa)
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        s = state_from_entries(cfg, {(1, n): x[n] for n in range(10)})
        got = cascade_rhs(s, cfg)
        assert np.allclose(got[0], dyadic_rhs_reference(x, lam, alpha, kappa),
                           rtol=1e-13, atol=1e-13)
        assert np.all(got[1:] == 0.0)

    def test_pure_diagonal_decay(self):
        cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=3, kappa=1.0)
        s = state_from_entries(cfg, {(1, 0): 2.0})
        d = cascade_rhs(s, cfg)
        assert d[0, 0] == pytest.approx(-2.0)

    @pytest.mark.parametrize("n_min", [0, -3, 4])
    def test_equals_term_by_term_sum(self, n_min):
        rng = np.random.default_rng(10 + n_min)
        configs = [builtin_dyadic_config(1.7, 1.2, (n_min, n_min + 8), kappa=0.4)]
        for _ in range(6):
            configs.append(CascadeConfig(
                lam=float(rng.uniform(1.1, 2.0)), alpha=float(rng.uniform(0, 2)),
                n_min=n_min, n_max=n_min + int(rng.integers(0, 10)),
                kappa=float(rng.uniform(0, 3)),
                tensor=random_valid_tensor(rng, n_groups=4)))
        # inviscid, and without any quadratic term: the decay terms alone
        configs += [builtin_dyadic_config(1.7, 1.2, (n_min, n_min + 8)),
                    CascadeConfig(lam=1.5, alpha=1.0, n_min=n_min,
                                  n_max=n_min + 3, kappa=0.0),
                    CascadeConfig(lam=1.5, alpha=1.0, n_min=n_min,
                                  n_max=n_min + 3, kappa=0.7)]
        for cfg in configs:
            s = CascadeState(0.0, rng.normal(size=(4, cfg.n_shells)))
            expected = rhs_by_terms(s.X, cfg)
            # bytes, so that signed zeros count too
            assert cascade_rhs(s, cfg).tobytes() == expected.tobytes()
            assert cfg.compiled_rhs(s.X.ravel()).tobytes() == expected.tobytes()
            quad = quadratic_rhs(s, cfg)
            assert quad.dtype == float and quad.shape == s.X.shape
            if cfg.kappa == 0.0:
                assert quad.tobytes() == expected.tobytes()

    def test_truncation_drops_top_base_shells(self):
        # a term is kept only when all three shells sit in the window, so
        # each entry loses its top max(mu) base shells
        def dropped(tensor):
            cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=1,
                                kappa=0.0, tensor=tensor)
            return len(tensor) * cfg.n_shells - cfg.compiled_rhs.n_quadratic
        assert dropped(dyadic_cascade_tensor()) == 3
        tensor = random_valid_tensor(np.random.default_rng(14), n_groups=4)
        assert dropped(tensor) == sum(max(key[3:]) for key in tensor.entries)

    def test_nonzero_shell_window(self):
        # window not starting at zero: base-shell powers follow absolute n
        cfg = builtin_dyadic_config(2.0, 0.0, (3, 8))
        s = state_from_entries(cfg, {(1, 4): 1.0})
        d = cascade_rhs(s, cfg)
        assert d[0, 5 - 3] == pytest.approx(2.0 ** (2.5 * 4))


class TestFluxCancellation:
    def test_zero_state(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 5))
        assert nonlinear_energy_flux(cfg.zero_state(), cfg) == 0.0

    def test_dyadic_random_states(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 11))
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = CascadeState(0.0, rng.normal(size=(4, 12)))
            flux = nonlinear_energy_flux(s, cfg)
            assert abs(flux) <= 1e-12 * flux_scale(s, cfg)

    def test_random_valid_tensors(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            tensor = random_valid_tensor(rng, n_groups=4)
            cfg = CascadeConfig(lam=1.6, alpha=1.0, n_min=0, n_max=9,
                                kappa=0.0, tensor=tensor)
            s = CascadeState(0.0, rng.normal(size=(4, 10)))
            assert abs(nonlinear_energy_flux(s, cfg)) <= 1e-12 * flux_scale(s, cfg)

    def test_unpaired_group_lights_up(self):
        tensor = CoefficientTensor({(1, 1, 1, 0, 0, 0): 1.0})
        cfg = CascadeConfig(lam=2.0, alpha=0.0, n_min=0, n_max=3, kappa=0.0,
                            tensor=tensor, check_tensor=False)
        s = state_from_entries(cfg, {(1, 1): 1.0})
        # single self-interaction: flux = lam^(5/2) X^3 != 0
        assert abs(nonlinear_energy_flux(s, cfg)) > 1e-3 * flux_scale(s, cfg)

    def test_group_safe_truncation_preserves_cancellation(self):
        # support straddling the window boundary still gives exact zero flux
        cfg = builtin_dyadic_config(2.0, 0.0, (0, 4))
        s = state_from_entries(cfg, {(1, 3): 0.9, (1, 4): 1.3})
        assert abs(nonlinear_energy_flux(s, cfg)) <= 1e-12 * flux_scale(s, cfg)


class TestEnergies:
    def test_single_mode_total(self):
        cfg = builtin_dyadic_config(2.0, 0.0, (0, 4))
        s = state_from_entries(cfg, {(1, 0): 3.0})
        assert total_energy(s) == pytest.approx(4.5)

    def test_zero(self):
        cfg = builtin_dyadic_config(2.0, 0.0, (0, 4))
        assert total_energy(cfg.zero_state()) == 0.0

    def test_total_is_shell_sum(self):
        cfg = builtin_dyadic_config(2.0, 0.0, (0, 4))
        rng = np.random.default_rng(3)
        s = CascadeState(0.0, rng.normal(size=(4, 5)))
        parts = sum(0.5 * float(s.X[i - 1, n - cfg.n_min] ** 2)
                    for i in range(1, 5) for n in range(0, 5))
        assert parts == pytest.approx(total_energy(s), rel=1e-12)


class TestTimescaleRatio:
    def test_critical_exponent_flat(self):
        for n in range(-5, 15):
            assert timescale_ratio(n, 1.25, 1.7) == pytest.approx(1.0)

    def test_direct_value(self):
        assert timescale_ratio(2, 1.0, 2.0) == pytest.approx(2.0)

    def test_increasing_below_critical(self):
        for alpha in np.linspace(0.0, 1.2499, 20):
            ratios = [timescale_ratio(n, alpha, 1.8) for n in range(12)]
            assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestEnergyBalanceResidual:
    def decay_trajectory(self, dt, n_steps):
        cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=2, kappa=1.0)
        rates = cfg.kappa * cfg.lam ** (2 * cfg.alpha * cfg.shells)
        samples = []
        for k in range(n_steps + 1):
            t = k * dt
            X = np.zeros((4, 3))
            X[0] = 0.8 * np.exp(-rates * t)   # closed-form linear decay
            samples.append(CascadeState(t, X))
        return CascadeTrajectory(samples, "completed"), cfg

    def test_second_order_convergence(self):
        traj1, cfg = self.decay_trajectory(0.004, 20)
        traj2, _ = self.decay_trajectory(0.002, 40)
        r1 = np.max(np.abs(energy_balance_residual(traj1, cfg)))
        r2 = np.max(np.abs(energy_balance_residual(traj2, cfg)))
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_zero_trajectory(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 2))
        samples = [CascadeState(t, np.zeros((4, 3))) for t in (0.0, 0.1, 0.2)]
        res = energy_balance_residual(CascadeTrajectory(samples, "completed"), cfg)
        assert np.all(res == 0.0)

    @pytest.mark.parametrize("alpha, n_range, t_end", [
        (1.25, (0, 6), 0.5), (0.75, (0, 7), 1.0), (1.0, (0, 8), 0.5)])
    def test_matches_sample_loop_bitwise(self, alpha, n_range, t_end):
        from cascadelab.integrator import integrate
        from oracles import energy_balance_residual_loop
        cfg = builtin_dyadic_config(2.0, alpha, n_range, kappa=1.0)
        traj = integrate(cfg, state_from_entries(cfg, {(1, 0): 1.0, (2, 1): -0.5}),
                         t_end)
        assert len(traj.times) > 300
        assert (energy_balance_residual(traj, cfg).tobytes()
                == energy_balance_residual_loop(traj, cfg).tobytes())

    def test_needs_three_samples(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 2))
        samples = [CascadeState(t, np.zeros((4, 3))) for t in (0.0, 0.1)]
        with pytest.raises(ValueError):
            energy_balance_residual(CascadeTrajectory(samples, "completed"), cfg)


class TestRescale:
    def interior_trajectory(self, cfg, t_end=0.02, n_samples=41):
        # interior-supported smooth solution on O(1)-rate shells; uniform
        # samples produced by segment restarts (every sample is an accepted
        # integrator endpoint, no interpolation error)
        from cascadelab.integrator import integrate
        state = state_from_entries(cfg, {(1, -1): 0.5, (1, 0): -0.3, (2, 1): 0.2})
        ts = np.linspace(0, t_end, n_samples)
        samples = [state.copy()]
        for t in ts[1:]:
            seg = integrate(cfg, state, float(t), rel_tol=1e-11)
            state = seg.samples[-1]
            samples.append(CascadeState(float(t), state.X.copy()))
            state = samples[-1]
        return CascadeTrajectory(samples, "completed")

    @staticmethod
    def max_ode_residual(traj, cfg):
        """5-point finite-difference derivative against the right-hand side."""
        ts = traj.times
        h = ts[1] - ts[0]
        states = traj.state_array()
        worst = 0.0
        for k in range(2, len(ts) - 2):
            dX = (states[k - 2] - 8 * states[k - 1] + 8 * states[k + 1]
                  - states[k + 2]) / (12 * h)
            rhs = cascade_rhs(CascadeState(ts[k], states[k]), cfg)
            worst = max(worst, float(np.max(np.abs(dX - rhs))))
        return worst

    def test_identity_at_zero_shift(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (-9, 10), kappa=0.3)
        traj = self.interior_trajectory(cfg)
        out = rescale_trajectory(traj, 0, cfg)
        assert np.allclose(out.state_array(), traj.state_array())
        assert np.allclose(out.times, traj.times)

    @pytest.mark.parametrize("m", [1, 2, -1, 3, -3])
    def test_rescaled_solves_same_equations(self, m):
        cfg = builtin_dyadic_config(2.0, 1.0, (-9, 10), kappa=0.3)
        traj = self.interior_trajectory(cfg)
        out = rescale_trajectory(traj, m, cfg)
        # finite-difference truncation rescales by lam**((4 alpha - 5/2) m)
        scale = cfg.lam ** ((4 * cfg.alpha - 2.5) * abs(m))
        assert self.max_ode_residual(out, cfg) < 1e-6 * max(1.0, scale)

    def test_zero_trajectory_maps_to_zero(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 5))
        samples = [CascadeState(t, np.zeros((4, 6))) for t in (0.0, 0.1, 0.2)]
        out = rescale_trajectory(CascadeTrajectory(samples, "completed"), 2, cfg)
        assert np.all(out.state_array() == 0.0)

    def test_empty_window_rejected(self):
        cfg = builtin_dyadic_config(2.0, 1.0, (0, 3))
        samples = [CascadeState(0.0, np.zeros((4, 4)))]
        traj = CascadeTrajectory(samples, "completed")
        with pytest.raises(ValueError):
            rescale_trajectory(traj, 4, cfg)


class TestConfigValidation:
    def test_lambda_range(self):
        with pytest.raises(ValueError):
            CascadeConfig(lam=0.9, alpha=1.0, n_min=0, n_max=3)
        with pytest.raises(ValueError):
            CascadeConfig(lam=2.1, alpha=1.0, n_min=0, n_max=3)

    def test_empty_window(self):
        with pytest.raises(ValueError):
            builtin_dyadic_config(2.0, 1.0, (3, 2))

    def test_invalid_tensor_rejected_at_construction(self):
        bad = CoefficientTensor({(1, 1, 1, 0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=3, tensor=bad)

    def test_truncation_window_insensitivity(self):
        # interior-supported run barely changes when the window widens
        from cascadelab.integrator import integrate
        cfg_a = builtin_dyadic_config(2.0, 1.0, (0, 11), kappa=0.5)
        cfg_b = builtin_dyadic_config(2.0, 1.0, (-2, 13), kappa=0.5)
        s_a = state_from_entries(cfg_a, {(1, 5): 0.4, (1, 6): 0.3})
        s_b = state_from_entries(cfg_b, {(1, 5): 0.4, (1, 6): 0.3})
        t_a = integrate(cfg_a, s_a, 1e-3, rel_tol=1e-11)
        t_b = integrate(cfg_b, s_b, 1e-3, rel_tol=1e-11)
        xa = t_a.samples[-1].X
        xb = t_b.samples[-1].X[:, 2:-2]
        assert np.max(np.abs(xa - xb)) < 1e-8 * max(1.0, np.max(np.abs(xa)))
