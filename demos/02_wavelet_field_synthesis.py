"""Divergence-free wavelet basis and the grid cascade operator.

Builds the four-profile basis on a 64^3 periodic box, verifies its
invariants numerically, synthesizes a velocity field from shell
amplitudes, and evaluates the cascade operator on the grid, including the
four-part frequency-regime split of its band projection.

Run:  python demos/02_wavelet_field_synthesis.py
"""

import numpy as np

import cascadelab as cl
from cascadelab.grid import (inner, l2_norm, mean_integral,
                             spectral_divergence, spectral_gradient_norm)
from cascadelab.spectral import lp_project

print("building basis: lam=2, 64^3, shells 0..2")
basis = cl.build_wavelet_basis(2.0, 64, n_window=(0, 2), base_scale=4.0)
print("basis id:", basis.basis_id, "| max snap offset:",
      round(basis.max_snap_offset, 4))
print("ball centers (dimensionless):")
print(np.round(basis.geometry.centers(), 4))

print("\nprofile invariants:")
for i, psi in enumerate(basis.psi, start=1):
    print(f"  psi_{i}: |norm-1| = {abs(l2_norm(psi) - 1):.1e}   "
          f"div-free = {l2_norm(spectral_divergence(psi)) / spectral_gradient_norm(psi):.1e}   "
          f"momentum = {np.max(np.abs(mean_integral(psi))):.1e}")

rng = np.random.default_rng(1)
X = rng.normal(size=(4, 3))
u = cl.synthesize_field(X, basis)
recovered = cl.project_coefficients(u, basis)
print(f"\nsynthesis round trip: max coefficient error "
      f"{np.max(np.abs(recovered - X)):.1e}")
print(f"synthesized field is divergence-free: "
      f"{l2_norm(spectral_divergence(u)) / spectral_gradient_norm(u):.1e}")

tensor = cl.dyadic_cascade_tensor()
c = cl.apply_cascade_operator(u, u, tensor, basis)
scale = basis.lam ** (2.5 * basis.n_window[1]) * l2_norm(u) ** 3
print(f"\ngrid cancellation: |<C(u,u), u>| / scale = "
      f"{abs(inner(c, u)) / scale:.1e}")

j = basis.shell_band(1)
parts = cl.paraproduct_split(u, tensor, basis, j, width=2)
total = lp_project(cl.apply_cascade_operator(u, u, tensor, basis), j)
names = ("low-high", "high-low", "high-high", "local")
print(f"\nband-{j} projection of C(u,u) split by input regimes:")
for name, part in zip(names, parts):
    print(f"  {name:10s} norm {l2_norm(part):.4e}")
resid = np.max(np.abs(sum(p.data for p in parts) - total.data))
print(f"  parts sum to the projected total: max dev {resid:.1e}")

print("\nconstructive divergence potential for a zero-momentum profile:")
n, box = 64, basis.box_size
ax = (np.arange(n) + 0.5) * box / n - box / 2
xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
g = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2) / (2 * (0.06 * box) ** 2))
psi = cl.GridField((-xx / (0.06 * box) ** 2 * g)[None], box)
pot = cl.divergence_potential(psi)
print(f"  residual ||div Psi - psi|| / ||psi|| = {pot.meta['div_residual']:.1e}")
try:
    cl.divergence_potential(cl.GridField(g[None], box))
except cl.NonzeroMomentumError as exc:
    print(f"  net-mass profile rejected: {exc}")
