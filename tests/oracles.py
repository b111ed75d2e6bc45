"""Dense reference computations and conveniences the tests check against."""

import numpy as np

from cascadelab.cubes import BumpProfile, CubeId
from cascadelab.grid import GridField, apply_symbol, fft_field, wave_magnitude
from cascadelab.regularity import (VERDICT_BAD, CoefficientCache,
                                   RegularityParams, classify_level_records,
                                   mode_partition, mode_radii)
from cascadelab.spectral import fractional_symbol


def band_project(fld: GridField, k: int, partition=None) -> GridField:
    """Band projection on box-relative frequencies (mode units)."""
    if partition is None:
        partition = mode_partition(fld.n_grid)
    partition.check(k)
    return apply_symbol(fld, partition.symbol(k, mode_radii(fld.n_grid)))


def wavelet_coefficient(fld: GridField, cube: CubeId, j: int,
                        partition=None) -> float:
    """Cube coefficient ``|| phi_{Q,j} P_j u ||_2`` (grid quadrature)."""
    proj = band_project(fld, j, partition)
    phi = BumpProfile(cube, fld.n_grid, type_j=j).sample()
    mag_sq = np.sum(proj.data ** 2, axis=0)
    return float(np.sqrt(np.sum(phi ** 2 * mag_sq) * fld.cell_volume))


def badness_functional(snapshots, cube: CubeId, params: RegularityParams,
                       cache: CoefficientCache | None = None
                       ) -> tuple[float, float]:
    """(lhs, threshold) of the classification inequality for one cube."""
    records = classify_level_records(snapshots, cube.j, params, cache)
    record = next(r for r in records if r.cube == cube)
    return record.badness_lhs, record.threshold


def classify_level(snapshots, j: int, params: RegularityParams,
                   cache: CoefficientCache | None = None) -> set[CubeId]:
    """Set M_j of flagged cubes in the level-j tiling."""
    return {r.cube for r in classify_level_records(snapshots, j, params, cache)
            if r.verdict == VERDICT_BAD}


def fractional_energy(fld: GridField, alpha: float) -> float:
    """Homogeneous energy ``sum |xi|**(2 alpha) |u_hat|**2`` (Parseval form)."""
    weight = fractional_symbol(wave_magnitude(fld.n_grid, fld.box_size), alpha)
    hat = fft_field(fld)
    total = float(np.sum(weight * np.sum(np.abs(hat) ** 2, axis=0)))
    return total * fld.box_size ** 3 / fld.n_grid ** 6
