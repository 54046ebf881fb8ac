"""Batched draws of random states and unitaries, and Wigner values.

Complex normal convention: real and imaginary parts of every Ginibre entry
are independent standard normals (each variance 1), so |z_ij|^2 is
chi-square with 2 degrees of freedom and mean 2.

Ginibre draws consume 2 N^2 standard normals per matrix, sample-major, then
row-major over entries, real part then imaginary part, so a batch of `count`
matrices draws the numbers of `count` batches of one in turn; a single draw
is ``ginibre_batch(1, n, rng)[0]`` or ``haar_batch(1, n, rng)[0]``.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import KernelSpectrum

__all__ = [
    "ginibre_batch",
    "hs_state",
    "row_energies_batch",
    "gamma_batch",
    "haar_batch",
    "wigner_value",
]


def ginibre_batch(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Ginibre matrices, shape (count, n, n) complex."""
    g = rng.standard_normal((count, n, n, 2))
    return g[..., 0] + 1j * g[..., 1]


def hs_state(z: np.ndarray) -> np.ndarray:
    """Density matrix z^dagger z / tr(z^dagger z) of a Hilbert-Schmidt-random state.

    Hermitian, unit trace, and positive semidefinite by construction.  A zero
    matrix, or one whose trace is NaN or infinite, raises ValueError.
    """
    z = np.asarray(z)
    w = z.conj().T @ z
    tr = np.trace(w).real
    if not 0.0 < tr < math.inf:
        raise ValueError(f"cannot normalize to a state: tr(z^dagger z) = {float(tr)!r}")
    return w / tr


def row_energies_batch(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """`count` rows of n independent gamma(shape=n, scale=2) deviates."""
    return rng.gamma(float(n), 2.0, size=(count, n))


def gamma_batch(count: int, shapes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`count` rows of independent standard-gamma deviates, shape (count, B).

    Column j has shape ``shapes[j]``.  When every shape is equal the draw
    takes the scalar shape, which gives the same numbers as the broadcast
    array but fills faster.
    """
    shapes = np.asarray(shapes, dtype=float)
    if (shapes == shapes[0]).all():
        return rng.standard_gamma(shapes[0], size=(count, shapes.size))
    return rng.standard_gamma(shapes, size=(count, shapes.size))


def haar_batch(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of `count` Haar-random unitaries, shape (count, n, n)."""
    z = ginibre_batch(count, n, rng)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    # fix the QR gauge: rotate columns so R has positive real diagonal
    q = q * (d / np.abs(d))[:, None, :]
    return q


def wigner_value(rho: np.ndarray, spectrum: KernelSpectrum, unitary: np.ndarray):
    """Wigner-type symbol of the state `rho` at the phase-space point `unitary`.

    Evaluates tr(rho U P U^dagger) with P the diagonal matrix of the kernel
    eigenvalues in decreasing order.  States and points may be stacks along
    leading axes, which broadcast against each other: a stack gives an array of
    real symbols, a single state at a single point a float.  The symbol is real
    for Hermitian rho; an imaginary residue beyond 1e-10 raises.
    """
    rho, unitary, n = np.asarray(rho), np.asarray(unitary), spectrum.dimension
    if rho.shape[-2:] != (n, n) or unitary.shape[-2:] != (n, n):
        raise ValueError(
            f"dimension mismatch: state {rho.shape}, point {unitary.shape}, kernel N={n}"
        )
    # the diagonal of U^dagger rho U, dotted with the eigenvalues
    value = (unitary.conj() * (rho @ unitary)).sum(axis=-2) @ spectrum.expanded()
    residue = np.abs(value.imag).max(initial=0.0)
    if residue > 1e-10:
        raise ValueError(f"imaginary residue {residue:.3e} exceeds 1e-10; state not Hermitian?")
    return float(value.real) if value.ndim == 0 else value.real
