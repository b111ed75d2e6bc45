"""Dense reference computations and conveniences the tests check against."""

import numpy as np

from cascadelab.cubes import BumpProfile, CubeId
from cascadelab.grid import GridField, apply_symbol, wave_vectors
from cascadelab.regularity import (VERDICT_BAD, CoefficientCache,
                                   RegularityParams, classify_level_records,
                                   mode_partition, mode_radii)


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


def zero_field(n_grid: int, box_size: float = 2.0 * np.pi,
               n_components: int = 3) -> GridField:
    return GridField(np.zeros((n_components, n_grid, n_grid, n_grid)), box_size)


def plane_wave(n_grid: int, box_size: float, mode: tuple[int, int, int],
               component: int = 0, phase: float = 0.0) -> GridField:
    """Real plane wave cos(xi . x + phase) in one vector component."""
    n = n_grid
    axes = [np.arange(n) * (box_size / n)] * 3
    xx, yy, zz = np.meshgrid(*axes, indexing="ij")
    scale = 2.0 * np.pi / box_size
    arg = scale * (mode[0] * xx + mode[1] * yy + mode[2] * zz) + phase
    data = np.zeros((3, n, n, n))
    data[component] = np.cos(arg)
    return GridField(data, box_size)


def energy_balance_residual_loop(trajectory, config) -> np.ndarray:
    """Sample-by-sample reference for ``cascade.energy_balance_residual``."""
    times = trajectory.times
    states = trajectory.state_array()
    energy = 0.5 * np.sum(states ** 2, axis=(1, 2))
    rates = config.compiled_rhs.rates
    out = np.empty(len(times) - 2)
    for k in range(1, len(times) - 1):
        hl = times[k] - times[k - 1]
        hr = times[k + 1] - times[k]
        dE = (-hr / (hl * (hl + hr)) * energy[k - 1]
              + (hr - hl) / (hl * hr) * energy[k]
              + hl / (hr * (hl + hr)) * energy[k + 1])
        out[k - 1] = dE + float(np.sum(rates * states[k].ravel() ** 2))
    return out


def apply_symbol_complex(fld: GridField, symbol: np.ndarray) -> GridField:
    """Full-spectrum reference for ``grid.apply_symbol``."""
    hat = np.fft.fftn(fld.data, axes=(1, 2, 3))
    return fld.like(np.fft.ifftn(hat * symbol, axes=(1, 2, 3)).real)


def spectral_divergence_complex(fld: GridField) -> GridField:
    """Full-spectrum reference for ``grid.spectral_divergence``."""
    kx, ky, kz = wave_vectors(fld.n_grid, fld.box_size, zero_nyquist=True)
    hat = np.fft.fftn(fld.data, axes=(1, 2, 3))
    div_hat = 1j * (kx * hat[0] + ky * hat[1] + kz * hat[2])
    return GridField(np.fft.ifftn(div_hat).real[None], fld.box_size, fld.time_tag)


def spectral_gradient_norm_complex(fld: GridField) -> float:
    """Full-spectrum reference for ``grid.spectral_gradient_norm``."""
    kx, ky, kz = wave_vectors(fld.n_grid, fld.box_size, zero_nyquist=True)
    hat = np.fft.fftn(fld.data, axes=(1, 2, 3))
    total = sum(np.sum((kx ** 2 + ky ** 2 + kz ** 2) * np.abs(comp) ** 2)
                for comp in hat)
    return float(np.sqrt(total * fld.box_size ** 3 / fld.n_grid ** 6))
