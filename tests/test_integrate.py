"""Adaptive integrator: accuracy, statuses, determinism."""

import math

import numpy as np
import pytest

from cascadelab.cascade import (CascadeConfig, CascadeState, CascadeTrajectory,
                                builtin_dyadic_config,
                                state_from_entries, total_energy)
from cascadelab.integrator import etd_coefficients, integrate, rk4_fixed_step
from oracles import dp5_reference


def test_linear_decay_closed_form():
    rel_tol = 1e-9
    cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=4, kappa=1.0)
    s = state_from_entries(cfg, {(1, 2): 0.7})
    traj = integrate(cfg, s, t_end=0.1, rel_tol=rel_tol)
    assert traj.status == "completed"
    rate = 2.0 ** (2.0 * 1.0 * 2)
    exact = 0.7 * np.exp(-rate * 0.1)
    got = traj.samples[-1].X[0, 2]
    assert abs(got - exact) / exact < 10 * rel_tol


def test_dyadic_blowup_detection_and_peak_march():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=0.0)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=10.0, rel_tol=1e-8, guard_factor=1e3)
    assert traj.status == "blowup_detected"
    assert traj.blowup_time_estimate is not None
    peaks = [int(np.argmax(np.sum(st.X ** 2, axis=0))) for st in traj.samples]
    assert all(b >= a for a, b in zip(peaks, peaks[1:]))


def test_blowup_time_against_fixed_step_reference():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=0.0)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    guard = 1e3
    traj = integrate(cfg, s, t_end=10.0, rel_tol=1e-9, guard_factor=guard)
    _, t_ref = rk4_fixed_step(cfg, s, 1e-5, 2.0, stop_norm=guard)
    assert t_ref is not None
    assert abs(traj.blowup_time_estimate - t_ref) / t_ref < 0.05


def test_overdamped_completes_with_monotone_energy():
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 7), kappa=50.0)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=0.5, rel_tol=1e-8)
    assert traj.status == "completed"
    energies = [total_energy(st) for st in traj.samples]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))


def test_inviscid_energy_conservation():
    rel_tol = 1e-10
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 9), kappa=0.0)
    s = state_from_entries(cfg, {(1, 3): 0.5})
    traj = integrate(cfg, s, t_end=0.05, rel_tol=rel_tol, guard_factor=1e14)
    assert traj.status == "completed"
    energies = np.array([total_energy(st) for st in traj.samples])
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    assert drift < 10 * rel_tol


def test_step_underflow_on_stiff_decay():
    # the exponential step takes the decay exactly, so here it is the step
    # that the quadratic part asks for that lies below the forced floor
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 7), kappa=50.0)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=1.0, rel_tol=1e-9, h_min=1e-3)
    assert traj.status == "step_underflow"
    assert traj.blowup_time_estimate is None
    assert traj.integrator_stats["stop_reason"] == "h_min"
    assert traj.integrator_stats["method"] == "etdrk4"


def test_stiff_decay_holds_a_step_above_h_min():
    """Pure decay in a fast shell (rate 2**36): DP5 could not hold a step
    above 1e-4; the exponential step takes the whole span in one step."""
    cfg = CascadeConfig(lam=2.0, alpha=2.0, n_min=0, n_max=9, kappa=1.0)
    s = state_from_entries(cfg, {(1, 9): 1.0})
    traj = integrate(cfg, s, t_end=1.0, rel_tol=1e-9, h_min=1e-4)
    assert traj.status == "completed"
    assert traj.integrator_stats["method"] == "etdrk4"
    assert traj.times[-1] == 1.0
    assert not traj.X[-1].any()  # exp(-2**36) underflows to 0


def test_step_underflow_on_inviscid_front():
    """A front reaching the top of shells 0..11 forces DP5 below an h_min
    that it held more than a hundredfold above earlier."""
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 11), kappa=0.0)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=2.0, rel_tol=1e-9, h_min=5e-6)
    assert traj.status == "step_underflow"
    assert traj.blowup_time_estimate is None
    assert traj.integrator_stats["stop_reason"] == "h_min"
    assert traj.integrator_stats["method"] == "dp5"
    assert traj.integrator_stats["h_max_reached"] > 100 * 5e-6


def test_exhausted_step_budget_reports_max_steps():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=0.5)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=2.0, rel_tol=1e-8, max_steps=10)
    assert traj.status == "step_underflow"
    stats = traj.integrator_stats
    assert stats["stop_reason"] == "max_steps"
    assert stats["accepted_steps"] + stats["rejected_steps"] == 10
    assert traj.times[-1] < 2.0


def test_overdamped_critical_run_matches_rk4_reference():
    """alpha = 5/4, kappa = 50, shells 0..7: the adaptive run lands within
    one tolerance unit of fixed-step RK4 at h = 2e-7 (inside RK4's stability
    interval for the fastest rate, about 9.3e6)."""
    rel_tol, t_end, n_steps = 1e-8, 0.005, 25_000
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 7), kappa=50.0)
    s = state_from_entries(cfg, {(1, 0): 1.02, (1, 1): -0.04, (1, 2): 0.006})
    traj = integrate(cfg, s, t_end=t_end, rel_tol=rel_tol)
    assert traj.status == "completed"
    assert traj.times[-1] == pytest.approx(t_end, rel=1e-12)
    dt = t_end / n_steps
    ref, _ = rk4_fixed_step(cfg, s, dt, t_end)
    assert ref.t == pytest.approx(t_end, rel=1e-9)
    x, x_ref = traj.X[-1], ref.X
    atol = rel_tol * 1e-3 * float(np.max(np.abs(s.X)))
    scale = atol + rel_tol * np.maximum(np.abs(x), np.abs(x_ref))
    assert float(np.sqrt(np.mean(((x - x_ref) / scale) ** 2))) <= 1.0


@pytest.mark.parametrize("dt, t_max, n_steps, kappa", [
    (2e-7, 0.005, 25_000, 50.0), (0.1, 1.0, 10, 0.0)])
def test_rk4_fixed_step_takes_a_whole_number_of_steps(dt, t_max, n_steps,
                                                      kappa, monkeypatch):
    """``round(t_max / dt)`` steps ending at ``k dt``: summing ``t += dt``
    would take 25,001 steps to pass 0.005, and end the second march at 1.1."""
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 7), kappa=kappa)
    s = state_from_entries(cfg, {(1, 0): 0.1, (1, 1): -0.004})
    plan = type(cfg.compiled_rhs)
    calls = []

    def counted(self, y, _call=plan.__call__):
        calls.append(1)
        return _call(self, y)
    monkeypatch.setattr(plan, "__call__", counted)
    end, detected = rk4_fixed_step(cfg, s, dt, t_max)
    assert len(calls) == 4 * n_steps
    assert end.t == n_steps * dt
    assert end.t == pytest.approx(t_max, rel=1e-12)
    assert detected is None


def test_determinism_bit_identical():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=0.1)
    s = state_from_entries(cfg, {(1, 0): 1.0, (1, 1): -0.2})
    a = integrate(cfg, s, t_end=0.3, rel_tol=1e-8)
    b = integrate(cfg, s, t_end=0.3, rel_tol=1e-8)
    assert len(a.samples) == len(b.samples)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.state_array().tobytes() == b.state_array().tobytes()


def test_input_validation():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 3))
    s = state_from_entries(cfg, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        integrate(cfg, s, t_end=0.0, rel_tol=1e-8)
    with pytest.raises(ValueError):
        integrate(cfg, s, t_end=1.0, rel_tol=0.5)
    for t_end in (np.nan, np.inf):
        with pytest.raises(ValueError):
            integrate(cfg, s, t_end=t_end, rel_tol=1e-8, max_steps=10)
    bad = state_from_entries(cfg, {(1, 0): 1.0})
    bad.X[0, 0] = np.nan
    with pytest.raises(ValueError):
        integrate(cfg, bad, t_end=1.0, rel_tol=1e-8)


def test_sample_times_strictly_increasing():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 5), kappa=0.2)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=0.2, rel_tol=1e-7)
    ts = traj.times
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == pytest.approx(0.2)


def test_samples_view_the_arrays_and_counters_add_up():
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=0.0)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=10.0, rel_tol=1e-6, guard_factor=1e3)
    X = traj.state_array()
    assert X.shape == (len(traj.times), 4, 8)
    assert len(traj.samples) == len(traj.times)
    for k, sample in enumerate(traj.samples):
        assert sample.t == traj.times[k]
        assert np.all(sample.X == X[k])
    stats = traj.integrator_stats
    assert stats["accepted_steps"] == len(traj.times) - 1
    assert stats["rejected_steps"] > 0
    assert stats["rhs_evals"] == 6 * (stats["accepted_steps"]
                                      + stats["rejected_steps"]) + 1
    steps = np.diff(traj.times)
    assert stats["h_min_reached"] == pytest.approx(steps.min(), rel=1e-6)
    assert stats["h_max_reached"] == pytest.approx(steps.max(), rel=1e-6)


def test_non_increasing_times_rejected():
    X = np.zeros((3, 4, 2))
    with pytest.raises(ValueError):
        CascadeTrajectory.from_arrays(np.array([0.0, 0.1, 0.1]), X, "completed")
    with pytest.raises(ValueError):
        CascadeTrajectory([CascadeState(t, X[0]) for t in (0.0, 0.2, 0.1)],
                          "completed")
    with pytest.raises(ValueError):
        CascadeTrajectory.from_arrays(np.array([0.0, 0.1, 0.2]), X,
                                      "blowup_detected")


@pytest.mark.parametrize("kappa, status", [(0.0, "blowup_detected"),
                                           (0.5, "completed")])
def test_guard_ratio_is_final_over_initial_weighted_norm(kappa, status):
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 7), kappa=kappa)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=2.0, rel_tol=1e-8, guard_factor=1e3)
    assert traj.status == status
    assert traj.integrator_stats["stop_reason"] == {
        "blowup_detected": "guard", "completed": "t_end"}[status]
    X = traj.state_array()
    norm = cfg.compiled_rhs.weighted_norm
    ratio = traj.integrator_stats["guard_ratio"]
    assert ratio == norm(X[-1]) / norm(X[0])
    assert (ratio > 1e3) == (status == "blowup_detected")


# ---------------------------------------------------------------------------
# the exponential step (kappa > 0)


def _phi(z, k, terms=12):
    """Taylor series of phi_k(z) = sum_j z**j / (j + k)!."""
    return sum(z ** j / math.factorial(j + k) for j in range(terms))


def test_etd_coefficients_match_their_series_and_closed_forms():
    """The contour means equal the Taylor series near z = 0 and the closed
    forms of Cox and Matthews away from it, to 1e-13 relative.  (Close to
    |z| = 1 a contour point passes near 0, where the closed form cancels;
    there the means are good to about 1e-12.)"""
    small = -np.array([0.0, 1e-15, 1e-12, 1e-8, 3e-6, 2e-4, 9.9e-4])
    p1, p2, p3 = (np.array([_phi(z, k) for z in small]) for k in (1, 2, 3))
    series = [np.exp(small), np.exp(small / 2),
              np.array([_phi(z / 2, 1) / 2 for z in small]),
              p1 - 3 * p2 + 4 * p3, p2 - 2 * p3, 4 * p3 - p2]
    np.testing.assert_allclose(etd_coefficients(small), series, rtol=1e-13)

    z = -np.array([1.5, 2.0, 5.0, 10.0, 47.0, 1e3, 1e5])
    e = np.exp(z)
    closed = [e, np.exp(z / 2), (np.exp(z / 2) - 1) / z,
              (-4 - z + e * (4 - 3 * z + z * z)) / z ** 3,
              (2 + z + e * (z - 2)) / z ** 3,
              (-4 - 3 * z - z * z + e * (4 - z)) / z ** 3]
    np.testing.assert_allclose(etd_coefficients(z), closed, rtol=1e-13)
    # any shape: the integrator builds the full and the half step at once
    grid = -np.array([[1e-6, 0.5], [1e2, 3.0]])
    assert np.array_equal(etd_coefficients(grid)[:, 1, 0],
                          etd_coefficients(grid[1])[:, 0])


def test_exponential_step_integrates_pure_decay_exactly():
    cfg = CascadeConfig(lam=2.0, alpha=1.0, n_min=0, n_max=4, kappa=1.0)
    s = state_from_entries(cfg, {(1, n): 0.7 for n in range(5)})
    traj = integrate(cfg, s, t_end=0.1, rel_tol=1e-9)
    assert traj.status == "completed"
    assert traj.integrator_stats["method"] == "etdrk4"
    assert traj.integrator_stats["rejected_steps"] == 0
    exact = 0.7 * np.exp(-np.outer(traj.times, 4.0 ** np.arange(5)))
    np.testing.assert_allclose(traj.X[:, 0], exact, rtol=1e-13)


@pytest.mark.parametrize("kappa", [0.1, 0.5])
def test_exponential_step_matches_a_dp5_reference(kappa):
    """Within one tolerance unit of a plain DP5 run at rel_tol 1e-12."""
    rel_tol, t_end = 1e-8, 0.05
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 8), kappa=kappa)
    s = state_from_entries(cfg, {(1, 0): 1.0, (1, 1): -0.2})
    traj = integrate(cfg, s, t_end=t_end, rel_tol=rel_tol)
    assert traj.status == "completed"
    assert traj.integrator_stats["method"] == "etdrk4"
    ref = dp5_reference(cfg, s, t_end, rel_tol=1e-12)
    assert traj.times[-1] == ref.t == t_end
    x, x_ref = traj.X[-1], ref.X
    scale = rel_tol * 1e-3 + rel_tol * np.maximum(np.abs(x), np.abs(x_ref))
    assert float(np.sqrt(np.mean(((x - x_ref) / scale) ** 2))) <= 1.0


def test_exponential_rows_match_rk4_at_their_own_times():
    """Every row of the overdamped run, not only the last, lies within one
    tolerance unit of fixed-step RK4 (h at most 2e-7) marched to its time."""
    rel_tol = 1e-8
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 7), kappa=50.0)
    s = state_from_entries(cfg, {(1, 0): 0.97, (1, 1): 0.08, (1, 2): -0.009})
    traj = integrate(cfg, s, t_end=0.005, rel_tol=rel_tol)
    assert traj.integrator_stats["method"] == "etdrk4"
    atol = rel_tol * 1e-3 * float(np.max(np.abs(s.X)))
    ref = s
    for t, x in zip(traj.times[1:], traj.X[1:]):
        n = math.ceil((t - ref.t) / 2e-7)
        ref, _ = rk4_fixed_step(cfg, ref, (t - ref.t) / n, t)
        assert ref.t == pytest.approx(t, rel=1e-12)
        scale = atol + rel_tol * np.maximum(np.abs(x), np.abs(ref.X))
        assert float(np.sqrt(np.mean(((x - ref.X) / scale) ** 2))) <= 1.0


def test_weakly_viscous_window_is_not_stiff():
    """alpha = 1, shells 0..11, kappa = 1e-6: the fastest rate, about 4.2,
    caps no step that accuracy allows, so the run stays on DP5 (where an
    exponential step would cost about four DP5 steps apiece)."""
    cfg = builtin_dyadic_config(2.0, 1.0, (0, 11), kappa=1e-6)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=10.0, rel_tol=1e-8, guard_factor=1e4)
    assert traj.status == "blowup_detected"
    assert traj.integrator_stats["method"] == "dp5"


@pytest.mark.parametrize("kappa, method", [(0.0, "dp5"), (50.0, "etdrk4")])
def test_both_methods_share_the_budget_rules(kappa, method):
    """One loop for both methods: the step budget counts attempted steps,
    the run stops short of t_end, and rhs_evals follows the method's rule."""
    cfg = builtin_dyadic_config(2.0, 1.25, (0, 7), kappa=kappa)
    s = state_from_entries(cfg, {(1, 0): 1.0})
    traj = integrate(cfg, s, t_end=2.0, rel_tol=1e-8, max_steps=10)
    stats = traj.integrator_stats
    assert stats["method"] == method
    assert traj.status == "step_underflow"
    assert stats["stop_reason"] == "max_steps"
    assert stats["accepted_steps"] + stats["rejected_steps"] == 10
    assert traj.times[-1] < 2.0
    assert stats["rhs_evals"] == {"dp5": 6 * 10 + 1,
                                  "etdrk4": 10 * 10 + stats["accepted_steps"] + 1
                                  }[method]
