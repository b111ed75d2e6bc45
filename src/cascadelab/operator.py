"""Grid realization of the local cascade operator and its band split.

``apply_cascade_operator`` evaluates

    C(u, v) = sum over base shells b and tensor entries of
              a * lam**(5b/2) * <u, psi_{i1, b+mu1}> <v, psi_{i2, b+mu2}>
              * psi_{i3, b+mu3}

in coefficient space: u and v are projected once, the cascade's own
compiled terms (``CompiledRHS.quadratic``) are summed with the first factor
from u and the second from v, and ``synthesize_field`` builds the field.
The plan's whole-group truncation rule keeps a (entry, base) term only
when all three referenced shells sit inside the basis window, so the
cancellation identity ``<C(u,u), u> = 0`` is preserved exactly.

``paraproduct_split`` partitions the terms of ``P_j C(u,u)`` into four
frequency regimes according to the dyadic bands carrying the two input
pairings: both inputs far above the output band (``hh``), first input far
below (``lh``), second input far below (``hl``), and everything near the
output band (``loc``).  A term's regime depends only on its two input
shells, so each pair of input shells is summed into its regime.  The
regimes are disjoint and exhaustive, so the four parts always sum to
``P_j C(u,u)``.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeConfig, CompiledRHS
from .grid import GridField
from .spectral import LPPartition, lp_project
from .tensor import CoefficientTensor
from .wavelets import WaveletBasis, project_coefficients, synthesize_field


def _plan(tensor: CoefficientTensor, basis: WaveletBasis) -> CompiledRHS:
    """The cascade's compiled terms over the basis window."""
    lo, hi = basis.n_window
    return CascadeConfig(basis.lam, 0.0, lo, hi, kappa=0.0, tensor=tensor,
                         check_tensor=False).compiled_rhs


def apply_cascade_operator(u: GridField, v: GridField,
                           tensor: CoefficientTensor,
                           basis: WaveletBasis) -> GridField:
    """Field ``C(u, v)``; symmetric in (u, v) for symmetric tensors."""
    plan = _plan(tensor, basis)
    xu = project_coefficients(u, basis)
    xv = xu if v is u else project_coefficients(v, basis)
    coeffs = plan.quadratic(xu.ravel(), xv.ravel()).reshape(xu.shape)
    return synthesize_field(coeffs, basis, time_tag=u.time_tag)


def paraproduct_split(u: GridField, tensor: CoefficientTensor,
                      basis: WaveletBasis, j: int, width: int = 2
                      ) -> tuple[GridField, GridField, GridField, GridField]:
    """Split ``P_j C(u,u)`` into (lh, hl, hh, loc) regime parts.

    Each (entry, base shell) term is classified once, by the dyadic bands
    ``b1, b2`` of its two input shells relative to the thresholds
    ``j - width`` and ``j + width``:

    * ``hh``  -- min(b1, b2) > j + width;
    * ``lh``  -- b1 < j - width and b1 <= b2 (first input is the low one);
    * ``hl``  -- b2 < j - width and b2 < b1;
    * ``loc`` -- everything else.

    The classification is a partition, so the four parts sum to
    ``lp_project(apply_cascade_operator(u, u), j)`` up to roundoff.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    partition = LPPartition.for_grid(u.n_grid, u.box_size)
    partition.check(j)
    plan = _plan(tensor, basis)
    x = project_coefficients(u, basis)
    shells = range(basis.n_window[0], basis.n_window[1] + 1)
    on_shell = [(x * e).ravel() for e in np.eye(len(shells))]  # x on one shell
    coeffs = {name: np.zeros(x.size) for name in ("lh", "hl", "hh", "loc")}
    for n1, x1 in zip(shells, on_shell):
        b1 = basis.shell_band(n1)
        for n2, x2 in zip(shells, on_shell):
            b2 = basis.shell_band(n2)
            if min(b1, b2) > j + width:
                name = "hh"
            elif b1 < j - width and b1 <= b2:
                name = "lh"
            elif b2 < j - width:
                name = "hl"
            else:
                name = "loc"
            coeffs[name] += plan.quadratic(x1, x2)
    return tuple(lp_project(synthesize_field(c.reshape(x.shape), basis,
                                             time_tag=u.time_tag), j, partition)
                 for c in coeffs.values())
