"""Divergence potentials for zero-momentum profiles."""

import numpy as np
import pytest

from cascadelab.grid import GridField
from cascadelab.potentials import (NonzeroMomentumError, backward_diff,
                                   backward_divergence, cumulative,
                                   divergence_potential)

N, L = 64, 2 * np.pi


def centered_grid():
    ax = (np.arange(N) + 0.5) * L / N - L / 2
    return np.meshgrid(ax, ax, ax, indexing="ij")


def gaussian(width=0.35):
    xx, yy, zz = centered_grid()
    return np.exp(-(xx ** 2 + yy ** 2 + zz ** 2) / (2 * width ** 2)), xx


def random_zero_momentum_profile(rng, width=0.5):
    """Band-limited noise under a decaying envelope, mass removed along z."""
    xx, yy, zz = centered_grid()
    envelope = np.exp(-(xx ** 2 + yy ** 2 + zz ** 2) / (2 * width ** 2))
    spec = np.zeros((N, N, N), dtype=complex)
    k = np.fft.fftfreq(N, d=1.0 / N)
    kk = np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2
                 + k[None, None, :] ** 2)
    band = (kk > 1) & (kk < 5)
    spec[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    noise = np.fft.ifftn(spec).real
    data = envelope * noise
    # kill the residual mass with a second envelope, preserving decay
    sink = envelope / envelope.sum()
    data = data - data.sum() * sink
    return data


def test_cumulative_and_backward_diff_invert():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(8, 8, 8))
    for axis in range(3):
        round_trip = backward_diff(cumulative(arr, axis, 0.3), axis, 0.3)
        assert np.max(np.abs(round_trip - arr)) < 1e-12


def test_zero_profile_maps_to_zero():
    psi = GridField(np.zeros((1, N, N, N)), L)
    out = divergence_potential(psi)
    assert np.all(out.data == 0.0)


def test_axis_derivative_profile_recovered():
    g, xx = gaussian()
    psi_data = -xx / 0.35 ** 2 * g          # d/dx of the Gaussian
    psi = GridField(psi_data[None], L)
    out = divergence_potential(psi)
    resid = backward_divergence(out) - psi_data
    rel = np.sqrt(np.sum(resid ** 2) / np.sum(psi_data ** 2))
    assert rel < 1e-6


@pytest.mark.parametrize("scale", [1e-170, 1e-300])
def test_tiny_profile_neither_zeroed_nor_rejected(scale):
    # the squares of these samples underflow; the potential must not
    rng = np.random.default_rng(9)
    data = random_zero_momentum_profile(rng) * scale
    out = divergence_potential(GridField(data[None], L))
    resid = (backward_divergence(out) - data) / scale
    assert np.sqrt(np.sum(resid ** 2) / np.sum((data / scale) ** 2)) < 1e-6


def test_positive_bump_rejected():
    g, _ = gaussian()
    with pytest.raises(NonzeroMomentumError):
        divergence_potential(GridField(g[None], L))


def test_huge_net_mass_profile_rejected():
    # squares of 1e160 overflow, which must not make the tolerance infinite
    g, _ = gaussian()
    with pytest.raises(NonzeroMomentumError):
        divergence_potential(GridField(g[None] * 1e160, L))


def test_non_decaying_profile_rejected():
    xx, _, _ = centered_grid()
    data = np.sin(2 * np.pi * xx / L)
    data -= data.mean()
    with pytest.raises(ValueError):
        divergence_potential(GridField(data[None], L))


def test_random_zero_momentum_batch():
    rng = np.random.default_rng(9)
    for _ in range(5):
        data = random_zero_momentum_profile(rng)
        out = divergence_potential(GridField(data[None], L))
        resid = backward_divergence(out) - data
        assert np.sqrt(np.sum(resid ** 2) / np.sum(data ** 2)) < 1e-6
