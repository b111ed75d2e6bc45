"""Covering analysis of a concentrating field sequence.

Synthesizes a sequence whose energy hops up one shell per stage (the
discrete scaling symmetry of the cascade applied repeatedly), then runs
the per-cube classification, Vitali selection, and box-counting fit, and
compares the fitted slope with the dimension bound evaluated at the
analysis parameters.

Runtime is a couple of minutes at 64^3; pass a smaller grid size as the
first argument for a quick look (the level range shrinks accordingly).

Run:  python demos/03_singular_set_covering.py [n_grid]
"""

import sys

import numpy as np

import cascadelab as cl
from cascadelab.regularity import (CoefficientCache, RegularityParams,
                                   classify_level_records)

n_grid = int(sys.argv[1]) if len(sys.argv) > 1 else 64
lam, alpha, eps, gamma = 2.0, 1.0, 1.0 / 3.0, 0.1
if n_grid >= 64:
    levels, window, base_scale = (2, 3, 4, 5, 6), (0, 2), 5.0
else:
    levels, window, base_scale = (2, 3), (0, 1), 4.0
n_shells = window[1] + 1

print(f"grid {n_grid}^3, analysis levels {levels}, alpha={alpha}")
basis = cl.build_wavelet_basis(lam, n_grid, n_window=window,
                               base_scale=base_scale)
cfg = cl.CascadeConfig(lam=lam, alpha=alpha, n_min=0, n_max=window[1],
                       kappa=0.0, tensor=cl.dyadic_cascade_tensor())

base = np.zeros((4, n_shells))
base[:, 0] = [1.0, 0.55, 0.35, 0.2]
T = 1.0
times = T - (T - 0.02) * np.geomspace(1.0, 0.015, 8)
snapshots = []
for s, t in enumerate(times):
    stage = int(round(window[1] * s / 7))
    seed = cl.CascadeTrajectory([cl.CascadeState(0.0, base)], "completed")
    X = cl.rescale_trajectory(seed, stage, cfg).samples[0].X.copy()
    if stage > 0:
        X += 0.12 * cl.rescale_trajectory(seed, stage - 1, cfg).samples[0].X
    snapshots.append(cl.synthesize_field(X, basis, n_min=0, time_tag=float(t)))
print(f"{len(snapshots)} snapshots synthesized, refined toward t = {T}")

cache = CoefficientCache(snapshots, eps)
probe = RegularityParams(alpha=alpha, epsilon=eps, gamma=gamma, K_threshold=1.0)
mid = levels[len(levels) // 2]
records = classify_level_records(snapshots, mid, probe, cache)
ratios = np.array([r.badness_lhs for r in records]) / probe.threshold(mid)
K = float(np.quantile(ratios, 0.98))
print(f"calibrated K from the level-{mid} ratio quantile: {K:.4g}")

params = RegularityParams(alpha=alpha, epsilon=eps, gamma=gamma, K_threshold=K)
report = cl.analyze_snapshots(snapshots, params, levels, cache=cache)

print("\nper-level summary (tiling / flagged / selected / covering):")
for row in report.per_level:
    print(f"  level {row.j}: {row.tiling_count:5d} / {row.bad_count:5d} / "
          f"{row.vitali_count:4d} / {row.covering_count:5d}")
print(f"\nfitted dimension estimate: {report.d_est}")
print(f"fit residual:              {report.residual}")
print(f"bound at these parameters: {report.params.desk_bound:.3f}")
print(f"bound at full offset:      {report.params.reference_bound:.3f}")
for note in report.notes:
    print("note:", note)
