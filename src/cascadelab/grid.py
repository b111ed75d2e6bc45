"""Periodic-grid fields and Fourier helpers.

Fields are sampled on an N^3 periodic box of side ``box_size`` with N a
power of two.  Physical wave vectors are ``2 pi k / box_size`` for integer
mode vectors k in the usual FFT layout.  Transforms are real-input, on the
``kz >= 0`` half spectrum of ``rfftn``; :func:`real_samples` is the inverse.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

#: threads that transform snapshots (see :func:`map_snapshots`)
SNAPSHOT_WORKERS = min(2, len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def map_snapshots(fn, jobs):
    """Yield ``fn(*job)`` for each job, in order, computed on
    ``SNAPSHOT_WORKERS`` daemon threads started for this call.

    ``jobs`` is drawn on the calling thread while at most that many jobs
    run and one waits queued, so a worker does not wait while the calling
    thread reads or writes a snapshot, and at most ``SNAPSHOT_WORKERS + 1``
    are held.  A job's exception is raised here when its result is due.
    However the caller leaves, the workers are stopped and joined.
    numpy's transforms release the GIL, which is what lets one snapshot's
    work overlap another's.
    """
    from collections import deque
    from queue import SimpleQueue  # not loaded by simulate

    todo, pending = SimpleQueue(), deque()

    def work():
        for job, slot in iter(todo.get, None):
            try:
                slot.put((fn(*job), None))
            except BaseException as exc:  # raised where the result is due
                slot.put((None, exc))
            del job, slot  # hold nothing while waiting for the next job

    def due():
        result, exc = pending.popleft().get()
        if exc is not None:
            raise exc
        return result

    workers = [threading.Thread(target=work, daemon=True)
               for _ in range(SNAPSHOT_WORKERS)]
    for worker in workers:
        worker.start()
    try:
        for job in jobs:
            pending.append(SimpleQueue())
            todo.put((job, pending[-1]))
            if len(pending) > len(workers):
                yield due()
        while pending:
            yield due()
    finally:  # a worker finishes its job at hand, then takes its stop
        for worker in workers:
            todo.put(None)
        for worker in workers:
            worker.join()


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def check_geometry(n_grid: int, box_size: float, n_components: int) -> None:
    """ValueError unless ``n_grid`` is a power of two, ``n_components`` is 1
    or 3 and ``box_size`` is positive; OverflowError unless the cell volume
    ``(box_size / n_grid)**3`` is a positive float."""
    if not _is_power_of_two(n_grid):
        raise ValueError(f"n_grid must be a power of two, got {n_grid}")
    if n_components not in (1, 3):
        raise ValueError(f"components must be 1 or 3, got {n_components}")
    if not box_size > 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    try:
        volume = (float(box_size) / n_grid) ** 3
    except OverflowError:
        volume = math.inf
    if not 0 < volume < math.inf:
        raise OverflowError(f"box_size {box_size}: the cell volume (box_size / "
                            f"n_grid)**3 at n_grid {n_grid} is beyond float range")


def radial_bump(r: np.ndarray) -> np.ndarray:
    """Compactly supported mollifier profile exp(-1/(1-r^2)) on |r| < 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass
class GridField:
    """Real field on the periodic grid; ``data`` has shape (c, N, N, N)."""

    data: np.ndarray
    box_size: float = 2.0 * np.pi
    time_tag: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim == 3:
            self.data = self.data[None]
        if self.data.ndim != 4:
            raise ValueError(f"expected (c, N, N, N), got {self.data.shape}")
        c, n = self.data.shape[:2]
        if self.data.shape[1:] != (n, n, n):
            raise ValueError(f"grid must be cubic, got {self.data.shape}")
        check_geometry(n, self.box_size, c)
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field samples must be finite")

    @property
    def n_grid(self) -> int:
        return self.data.shape[1]

    @property
    def n_components(self) -> int:
        return self.data.shape[0]

    @property
    def cell_volume(self) -> float:
        return (self.box_size / self.n_grid) ** 3

    def like(self, data: np.ndarray) -> "GridField":
        return GridField(data, self.box_size, self.time_tag)


def wave_vectors(n_grid: int, box_size: float,
                 zero_nyquist: bool = False) -> list[np.ndarray]:
    """Physical wave-vector components as broadcastable axes, shaped
    (N, 1, 1), (1, N, 1) and (1, 1, N), spanning the (N, N, N) mode cube.

    Odd (derivative-type) symbols must use ``zero_nyquist=True``: the
    Nyquist frequency has no sign-consistent representative on an even
    grid, and keeping it would break the Hermitian symmetry that
    :func:`real_samples` assumes.  Even symbols are safe with the full arrays.
    """
    k = np.fft.fftfreq(n_grid, d=1.0 / n_grid)  # integer mode numbers
    arr = 2.0 * np.pi / box_size * k
    if zero_nyquist:
        arr = np.where(np.abs(k) == n_grid // 2, 0.0, arr)
    return [arr.reshape(shape) for shape in
            ((-1, 1, 1), (1, -1, 1), (1, 1, -1))]


def wave_magnitude(n_grid: int, box_size: float) -> np.ndarray:
    gx, gy, gz = wave_vectors(n_grid, box_size)
    return np.sqrt(gx ** 2 + gy ** 2 + gz ** 2)


def nyquist(n_grid: int, box_size: float) -> float:
    return np.pi * n_grid / box_size


def real_samples(hat: np.ndarray, n: int, out=None, lines=None) -> np.ndarray:
    """Real (n, n, n) samples of a Hermitian half spectrum whose missing
    columns are zero: ``irfftn``'s passes, the first two overwriting ``hat``;
    the first only on ``lines`` ``(ky, kz)``, if given, all others zero."""
    if lines is None:
        np.fft.ifft(hat, axis=0, out=hat)
    else:
        hat[:, lines[0], lines[1]] = np.fft.ifft(hat[:, lines[0], lines[1]], axis=0)
    np.fft.ifft(hat, axis=1, out=hat)
    return np.fft.irfft(hat, n=n, axis=2, out=out)


def apply_symbol(fld: GridField, symbol: np.ndarray) -> GridField:
    """Multiply the spectrum componentwise by a real, even symbol, given on
    the (N, N, N) mode cube or on its ``kz >= 0`` half."""
    n, data = fld.n_grid, np.empty_like(fld.data)
    for comp, out in zip(fld.data, data):
        real_samples(np.fft.rfftn(comp) * symbol[..., :n // 2 + 1], n, out=out)
    return fld.like(data)


def l2_norm(fld: GridField) -> float:
    return float(np.sqrt(np.sum(fld.data ** 2) * fld.cell_volume))


def lp_norm(fld: GridField, q: float) -> float:
    """L^q norm; the pointwise magnitude is the euclidean one over components."""
    mag = np.sqrt(np.sum(fld.data ** 2, axis=0))
    if np.isinf(q):
        return float(np.max(mag))
    return float((np.sum(mag ** q) * fld.cell_volume) ** (1.0 / q))


def inner(a: GridField, b: GridField) -> float:
    if a.data.shape != b.data.shape:
        raise ValueError("field shapes differ")
    return float(np.sum(a.data * b.data) * a.cell_volume)


def mean_integral(fld: GridField) -> np.ndarray:
    """Componentwise integral of the field over the box."""
    return np.sum(fld.data, axis=(1, 2, 3)) * fld.cell_volume


def spectral_divergence(fld: GridField) -> GridField:
    if fld.n_components != 3:
        raise ValueError("divergence needs a 3-component field")
    n = fld.n_grid
    kx, ky, kz = wave_vectors(n, fld.box_size, zero_nyquist=True)
    div_hat = sum(1j * k * np.fft.rfftn(c)
                  for k, c in zip((kx, ky, kz[..., :n // 2 + 1]), fld.data))
    return fld.like(real_samples(div_hat, n))


def spectral_gradient_norm(fld: GridField) -> float:
    """L^2 norm of the full gradient from the half spectrum, where a column
    other than ``kz = 0`` and ``kz = N/2`` also stands for its mirror."""
    n = fld.n_grid
    kx, ky, kz = wave_vectors(n, fld.box_size, zero_nyquist=True)
    twice = np.full(n // 2 + 1, 2.0)
    twice[[0, -1]] = 1.0
    k2 = (kx ** 2 + ky ** 2 + kz[..., :n // 2 + 1] ** 2) * twice
    total = sum(np.sum(k2 * np.abs(np.fft.rfftn(c)) ** 2) for c in fld.data)
    return float(np.sqrt(total * fld.box_size ** 3 / n ** 6))
