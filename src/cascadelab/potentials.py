"""Constructive divergence potentials for zero-momentum scalar profiles.

A scalar profile ``psi`` with vanishing integral is written as
``psi = div Psi`` with ``Psi = (Gamma, Gamma, Xi)`` built from cumulative
integrals:

    Gamma(x, y, z) = f(z) * int_{-inf}^x int_{-inf}^y int_R psi(r, s, t) dt ds dr
    Xi(x, y, z)    = int_{-inf}^z (psi - d_x Gamma - d_y Gamma)(x, y, t) dt

where ``f`` is any smooth compactly supported 1D profile (here a fixed
mollifier bump, supported in the middle 60% of the box).  Zero momentum is
necessary: without it the cumulative mass does not return to zero at the
far face of the box and no decaying potential exists, so such inputs are
rejected.

On the grid, "cumulative integral" and "partial derivative" are realized
as an exactly inverse pair (left Riemann sums against backward
differences, with a zero ghost layer at the lower box face), so the
identity ``backward_divergence(Psi) == psi`` holds to machine precision.
The box stands in for full space: profiles are expected to decay to
(near) zero inside the box, which is checked against ``BOUNDARY_TOL``.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField, radial_bump

#: largest accepted ``|int psi|``, relative to ``||psi||_2 * box^{3/2}``
MOMENTUM_TOL = 1e-10
#: largest accepted boundary-face magnitude, relative to ``max |psi|``
BOUNDARY_TOL = 1e-6


class NonzeroMomentumError(ValueError):
    """Input profile carries net mass, which no divergence field can."""


def cumulative(arr: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Left Riemann cumulative integral from the lower box face."""
    return np.cumsum(arr, axis=axis) * step


def backward_diff(arr: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Backward difference with a zero ghost layer; exact inverse of cumulative."""
    return np.diff(arr, axis=axis, prepend=0.0) / step


def backward_divergence(fld: GridField) -> np.ndarray:
    """Divergence under the same one-sided calculus as the construction."""
    if fld.n_components != 3:
        raise ValueError("divergence needs a 3-component field")
    h = fld.box_size / fld.n_grid
    return (backward_diff(fld.data[0], 0, h)
            + backward_diff(fld.data[1], 1, h)
            + backward_diff(fld.data[2], 2, h))


def divergence_potential(psi: GridField) -> GridField:
    """Vector potential ``Psi`` with ``div Psi = psi`` (one-sided calculus).

    Parameters
    ----------
    psi : GridField
        Scalar profile; must have (numerically) zero integral and decay to
        ~0 near the box faces (``MOMENTUM_TOL``, ``BOUNDARY_TOL``).

    Returns
    -------
    GridField
        Three-component potential (Gamma, Gamma, Xi).
    """
    if psi.n_components != 1:
        raise ValueError("expected a scalar profile")
    data = psi.data[0]
    n = psi.n_grid
    h = psi.box_size / n
    peak = float(np.max(np.abs(data)))
    # relative to the peak, so that its squares neither underflow nor overflow
    l2 = peak * float(np.sqrt(np.sum((data / (peak or 1.0)) ** 2) * h ** 3))
    momentum = float(np.sum(data) * h ** 3)
    scale = l2 * psi.box_size ** 1.5
    if abs(momentum) > MOMENTUM_TOL * scale:
        raise NonzeroMomentumError(
            f"profile integral {momentum:.3e} exceeds {MOMENTUM_TOL:.1e} x "
            f"{scale:.3e}; a nonzero-mass profile is not a divergence")

    boundary = max(
        float(np.max(np.abs(data[0]))), float(np.max(np.abs(data[-1]))),
        float(np.max(np.abs(data[:, 0]))), float(np.max(np.abs(data[:, -1]))),
        float(np.max(np.abs(data[:, :, 0]))), float(np.max(np.abs(data[:, :, -1]))))
    if boundary > BOUNDARY_TOL * peak:
        raise ValueError(
            f"profile does not decay at the box faces "
            f"(boundary/peak = {boundary / peak:.2e} > {BOUNDARY_TOL:.1e})")

    f_profile = radial_bump(((np.arange(n) + 0.5) / n - 0.5) / 0.3)
    z_total = np.sum(data, axis=2) * h                    # int psi dz  -> (x, y)
    gamma_xy = cumulative(cumulative(z_total, 0, h), 1, h)
    gamma = gamma_xy[:, :, None] * f_profile[None, None, :]
    dx_gamma = backward_diff(gamma, 0, h)
    dy_gamma = backward_diff(gamma, 1, h)
    xi = cumulative(data - dx_gamma - dy_gamma, 2, h)

    return GridField(np.stack([gamma, gamma, xi]), psi.box_size, psi.time_tag)
