"""cascadelab: shell cascades, spectral fields, and covering analysis.

Three layers:

* cascade dynamics  -- coefficient tensors with symmetry/cancellation
  constraints, the truncated shell ODE, an embedded adaptive integrator
  with a blowup guard, energy/scaling diagnostics;
* spectral toolkit  -- Littlewood-Paley band projections, a
  divergence-free zero-momentum wavelet basis, field synthesis, the grid
  cascade operator and its band split, constructive divergence potentials;
* regularity analyzer -- cube hierarchies, graded cutoffs, nuclear
  families, per-cube badness classification, Vitali covering, and the
  box-counting dimension estimate.

The batch pipeline (``cascadelab`` CLI) chains the layers:
simulate -> synthesize -> analyze.
"""

from importlib import import_module

__version__ = "0.1.0"

#: species of a shell state, of the wavelet basis and of a trajectory file
N_SPECIES = 4

#: submodule -> the public names it defines, each imported on first use
_EXPORTS = dict(
    cascade="CascadeConfig CascadeState CascadeTrajectory builtin_dyadic_config cascade_rhs "
            "energy_balance_residual nonlinear_energy_flux rescale_trajectory "
            "state_from_entries timescale_ratio total_energy",
    cubes="BumpProfile CubeId LevelResolutionError cube_hierarchy nuclear_family vitali_cover",
    grid="GridField",
    integrator="integrate rk4_fixed_step",
    operator="apply_cascade_operator paraproduct_split",
    potentials="NonzeroMomentumError divergence_potential",
    regularity="CoefficientCache CoveringReport CubeRecord RegularityParams analyze_snapshots "
               "dimension_estimate",
    spectral="BandRangeError LPPartition lp_project",
    tensor="CoefficientTensor TensorKeyError ValidationReport dyadic_cascade_tensor "
           "random_valid_tensor validate_tensor",
    wavelets="UnresolvedShellError WaveletBasis build_wavelet_basis "
             "project_coefficients synthesize_checked synthesize_field")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = import_module(f".{_SOURCE[name]}", __name__)
    globals()[name] = value = getattr(source, name)
    return value
