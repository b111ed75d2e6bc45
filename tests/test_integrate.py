"""Adaptive integrator: accuracy, statuses, determinism."""

import numpy as np
import pytest

from cascadelab.cascade import (CascadeConfig, CascadeState, CascadeTrajectory,
                                builtin_dyadic_config,
                                state_from_entries, total_energy)
from cascadelab.integrator import integrate, rk4_fixed_step


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
    # explicit method cannot hold h above the forced floor on this stiff run
    cfg = CascadeConfig(lam=2.0, alpha=2.0, n_min=0, n_max=9, kappa=1.0)
    s = state_from_entries(cfg, {(1, 9): 1.0})
    traj = integrate(cfg, s, t_end=1.0, rel_tol=1e-9, h_min=1e-4)
    assert traj.status == "step_underflow"
    assert traj.blowup_time_estimate is None
    assert traj.integrator_stats["stop_reason"] == "h_min"


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
    """alpha = 5/4, kappa = 50, shells 0..7: the fused DP5 step lands within
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
