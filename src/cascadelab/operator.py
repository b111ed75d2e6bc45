"""Grid realization of the local cascade operator and its band split.

``apply_cascade_operator`` evaluates

    C(u, v) = sum over base shells b and tensor entries of
              a * lam**(5b/2) * <u, psi_{i1, b+mu1}> <v, psi_{i2, b+mu2}>
              * psi_{i3, b+mu3}

with the same whole-group truncation rule as the coefficient-space
dynamics: a (entry, base) term survives only when all three referenced
shells sit inside the basis window, so the cancellation identity
``<C(u,u), u> = 0`` is preserved exactly under truncation.

``paraproduct_split`` partitions the terms of ``P_j C(u,u)`` into four
frequency regimes according to the dyadic bands carrying the two input
pairings: both inputs far above the output band (``hh``), first input far
below (``lh``), second input far below (``hl``), and everything near the
output band (``loc``).  The regimes are disjoint and exhaustive, so the
four parts always sum to ``P_j C(u,u)``.
"""

from __future__ import annotations

import numpy as np

from .grid import GridField
from .spectral import LPPartition, lp_project
from .tensor import CoefficientTensor
from .wavelets import WaveletBasis, project_coefficients


def _pairings(u: GridField, v: GridField, basis: WaveletBasis):
    Xu = project_coefficients(u, basis)
    Xv = Xu if v is u else project_coefficients(v, basis)
    return Xu, Xv


def _term_iter(tensor: CoefficientTensor, basis: WaveletBasis,
               Xu: np.ndarray, Xv: np.ndarray):
    """Yield ``(key, b, c)`` for every in-window term with nonzero coefficient.

    A term is one (entry, base shell b) pair whose full shell triple lies in
    the window; ``c = a lam**(5b/2) <u, psi_{i1,b+mu1}> <v, psi_{i2,b+mu2}>``.
    """
    lo, hi = basis.n_window
    for key, a in tensor.entries.items():
        i1, i2, i3, m1, m2, m3 = key
        for b in range(lo, hi - max(m1, m2, m3) + 1):
            c = (a * basis.lam ** (2.5 * b)
                 * Xu[i1 - 1, b + m1 - lo] * Xv[i2 - 1, b + m2 - lo])
            if c != 0.0:
                yield key, b, c


def _add_term(spectrum: np.ndarray, basis: WaveletBasis, key, b: int, c: float):
    """Accumulate ``c psi_{i3, b+mu3}`` into a flat half spectrum."""
    basis.shells[(key[2], b + key[5])].add_to(spectrum, c)


def apply_cascade_operator(u: GridField, v: GridField,
                           tensor: CoefficientTensor,
                           basis: WaveletBasis) -> GridField:
    """Field ``C(u, v)``; symmetric in (u, v) for symmetric tensors."""
    Xu, Xv = _pairings(u, v, basis)
    out = basis.half_spectrum()
    for key, b, c in _term_iter(tensor, basis, Xu, Xv):
        _add_term(out, basis, key, b, c)
    result = basis.materialize(out, time_tag=u.time_tag)
    # each entry with a shifted slot loses its top base shell to truncation
    result.meta["truncated_groups"] = sum(max(key[3:]) for key in tensor.entries)
    return result


def paraproduct_split(u: GridField, tensor: CoefficientTensor,
                      basis: WaveletBasis, j: int, width: int = 2,
                      partition: LPPartition | None = None
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
    if partition is None:
        partition = LPPartition.for_grid(u.n_grid, u.box_size)
    partition.check(j)
    Xu, _ = _pairings(u, u, basis)
    spectra = {name: basis.half_spectrum() for name in ("lh", "hl", "hh", "loc")}
    for key, b, c in _term_iter(tensor, basis, Xu, Xu):
        b1 = basis.shell_band(b + key[3])
        b2 = basis.shell_band(b + key[4])
        if min(b1, b2) > j + width:
            name = "hh"
        elif b1 < j - width and b1 <= b2:
            name = "lh"
        elif b2 < j - width:
            name = "hl"
        else:
            name = "loc"
        _add_term(spectra[name], basis, key, b, c)
    parts = tuple(
        lp_project(basis.materialize(spectra[name], time_tag=u.time_tag),
                   j, partition)
        for name in ("lh", "hl", "hh", "loc"))
    return parts
