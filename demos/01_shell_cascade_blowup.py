"""Shell cascade dynamics: conservation, decay, and the blowup surrogate.

Walks the cascade layer end to end:

1. the classical dyadic coupling tensor and its exact constraints,
2. an inviscid run conserving energy while it lasts,
3. an overdamped run draining monotonically, stepped exponentially,
4. the blowup surrogate: the energy-weighted norm crossing its guard,
   cross-checked against a fixed-step reference integrator.

Run:  python demos/01_shell_cascade_blowup.py
"""

import numpy as np

import cascadelab as cl

print("=" * 72)
print("1. the dyadic coupling tensor")
print("=" * 72)
tensor = cl.dyadic_cascade_tensor()
for row in tensor.as_rows():
    print("   a[i1,i2,i3 | mu] =", row)
print("validate_tensor:", cl.validate_tensor(tensor))

cfg = cl.builtin_dyadic_config(2.0, alpha=1.0, n_range=(0, 11), kappa=0.0)
state = cl.state_from_entries(cfg, {(1, 0): 1.0})
print("\nseed: all energy in shell 0, total =", cl.total_energy(state))
print("cubic flux on a random state is zero by the cancellation sum:")
rng = np.random.default_rng(0)
probe = cl.CascadeState(0.0, rng.normal(size=(4, 12)))
print("   flux =", cl.nonlinear_energy_flux(probe, cfg))

print()
print("=" * 72)
print("2. inviscid run: energy is conserved while resolvable")
print("=" * 72)
short = cl.integrate(cfg, state, t_end=0.3, rel_tol=1e-10, guard_factor=1e14)
energies = [cl.total_energy(s) for s in short.samples]
print(f"status {short.status}, {len(short.samples)} samples, "
      f"energy drift {max(abs(e - energies[0]) for e in energies):.2e}")

print()
print("=" * 72)
print("3. overdamped run: monotone dissipation")
print("=" * 72)
damped_cfg = cl.builtin_dyadic_config(2.0, alpha=1.25, n_range=(0, 7), kappa=20.0)
damped = cl.integrate(damped_cfg, cl.state_from_entries(damped_cfg, {(1, 0): 1.0}),
                      t_end=0.5, rel_tol=1e-8)
e = [cl.total_energy(s) for s in damped.samples]
stats = damped.integrator_stats
print(f"status {damped.status}, energy {e[0]:.4f} -> {e[-1]:.2e}, "
      f"monotone: {all(b <= a for a, b in zip(e, e[1:]))}")
print(f"method {stats['method']} (the decay is integrated exactly), "
      f"{stats['accepted_steps']} accepted steps")

print()
print("=" * 72)
print("4. blowup surrogate on 12 shells")
print("=" * 72)
guard = 1e4
traj = cl.integrate(cfg, state, t_end=10.0, rel_tol=1e-8, guard_factor=guard)
print(f"status: {traj.status}, detection time {traj.blowup_time_estimate:.6f}")
print("shell energy march (time, dominant shell, energy-weighted norm):")
weights = cfg.lam ** (2 * cfg.shells)
for idx in np.linspace(0, len(traj.samples) - 1, 8).astype(int):
    s = traj.samples[idx]
    shell = int(np.argmax(np.sum(s.X ** 2, axis=0)))
    wn = float(np.sum(weights * s.X ** 2))
    print(f"   t={s.t:8.5f}   peak shell {shell:2d}   weighted norm {wn:10.3e}")

print("\nfixed-step RK4 reference on the same system:")
_, t_ref = cl.rk4_fixed_step(cfg, state, 2e-6, 2.0, stop_norm=guard)
rel = abs(traj.blowup_time_estimate - t_ref) / t_ref
print(f"   reference detection {t_ref:.6f}  ({100 * rel:.3f}% apart)")

print("\nscaling symmetry: a shifted, rescaled trajectory solves the same")
print("equations; timescale ratio per shell at the critical exponent:")
for alpha in (1.0, 1.25):
    ratios = [round(cl.timescale_ratio(n, alpha, 2.0), 3) for n in range(6)]
    print(f"   alpha={alpha}: {ratios}")
