"""cascadelab: shell cascades, spectral fields, and covering analysis.

Three layers:

* cascade dynamics  -- coefficient tensors with symmetry/cancellation
  constraints, the truncated shell ODE, an embedded adaptive integrator
  with a blowup guard, energy/scaling diagnostics;
* spectral toolkit  -- Littlewood-Paley band projections, fractional
  Laplacian, Leray projection, a divergence-free zero-momentum wavelet
  basis, field synthesis, the grid cascade operator and its band split,
  constructive divergence potentials;
* regularity analyzer -- cube hierarchies, graded cutoffs, nuclear
  families, per-cube badness classification, Vitali covering, and the
  box-counting dimension estimate.

The batch pipeline (``cascadelab`` CLI) chains the layers:
simulate -> synthesize -> analyze.
"""

from .cascade import (CascadeConfig, CascadeState, CascadeTrajectory,
                      builtin_dyadic_config, cascade_rhs,
                      energy_balance_residual, nonlinear_energy_flux,
                      rescale_trajectory, state_from_entries,
                      timescale_ratio, total_energy)
from .cubes import (BumpProfile, CubeId, LevelResolutionError,
                    cube_hierarchy, nuclear_family, vitali_cover)
from .grid import GridField, plane_wave, zero_field
from .integrate import integrate, rk4_fixed_step
from .operator import apply_cascade_operator, paraproduct_split
from .potentials import NonzeroMomentumError, divergence_potential
from .regularity import (CoefficientCache, CoveringReport, CubeRecord,
                         RegularityParams, analyze_snapshots,
                         dimension_estimate, local_dissipation_check)
from .spectral import (BandRangeError, LPPartition, fractional_laplacian,
                       leray_project, lp_project)
from .tensor import (CoefficientTensor, TensorKeyError, ValidationReport,
                     dyadic_cascade_tensor, random_valid_tensor,
                     validate_tensor)
from .wavelets import (BasisGeometryError, UnresolvedShellError, WaveletBasis,
                       build_wavelet_basis, project_coefficients,
                       synthesize_field)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
