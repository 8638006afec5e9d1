"""Map classical feature vectors of length D^2 - 1 onto density matrices.

The generators are tensor-product Pauli strings rescaled so that
Tr(Gi Gj) = 2 delta_ij for every qubit count.  With that normalization the
Hilbert-Schmidt distance between two encoded states is exactly sqrt(2) times
the Euclidean distance between the underlying vectors, which is what lets
k-means run on density matrices unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from qhsd.states import EIGENVALUE_TOL, DensityMatrix, StateError, check_n_qubits


class EncodingError(ValueError):
    """Encoding produced a matrix outside the positive-semidefinite set."""


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class GeneratorBasis:
    """The D^2 - 1 traceless Hermitian generators, in a fixed order."""

    n_qubits: int
    labels: Tuple[str, ...]
    generators: np.ndarray  # shape (D^2 - 1, D, D), read-only
    mixed: np.ndarray  # I/D, complex, read-only


@lru_cache(maxsize=None)
def generator_basis(n_qubits: int) -> GeneratorBasis:
    """Pauli strings over n qubits (identity string excluded), lexicographic
    in the letters I < X < Y < Z, scaled by 1/sqrt(2^(n-1))."""
    check_n_qubits(n_qubits)
    scale = 1.0 / np.sqrt(2.0 ** (n_qubits - 1))
    labels = []
    mats = []
    for letters in itertools.product("IXYZ", repeat=n_qubits):
        if all(c == "I" for c in letters):
            continue
        g = np.array([[1.0 + 0j]])
        for c in letters:
            g = np.kron(g, _PAULI[c])
        labels.append("".join(letters))
        mats.append(scale * g)
    stack = np.array(mats)
    stack.setflags(write=False)
    d = 2 ** n_qubits
    mixed = np.eye(d, dtype=complex) / d
    mixed.setflags(write=False)
    return GeneratorBasis(n_qubits, tuple(labels), stack, mixed)


@lru_cache(maxsize=None)
def _n_qubits_for_length(length: int) -> int:
    d = math.isqrt(length + 1)
    if d * d - 1 != length or d < 2 or (d & (d - 1)) != 0:
        raise StateError(f"feature length {length} is not D^2 - 1 for a qubit dimension")
    return d.bit_length() - 1


def safe_radius(dim: int) -> float:
    """Inner radius 1/sqrt(2 D (D-1)); every vector inside encodes to a
    positive-semidefinite matrix regardless of direction."""
    if dim < 2:
        raise StateError(f"dim={dim} must be >= 2")
    return float(1.0 / np.sqrt(2.0 * dim * (dim - 1)))


def _matrices(u: np.ndarray) -> np.ndarray:
    """I/D + sum_i u_i G_i for a vector u, or for every row of a stack."""
    basis = generator_basis(_n_qubits_for_length(u.shape[-1]))
    return basis.mixed + np.einsum("...i,ijk->...jk", u, basis.generators)


# Encoded matrices kept for recently seen vectors.  k-means encodes every
# centroid once per point and every point once per centroid, so a handful of
# entries catches most calls; the bound keeps 16x16 states cheap to hold.
ENCODE_CACHE_SIZE = 32


def encode(u: Sequence[float], validate: bool = True) -> DensityMatrix:
    """rho = I/D + sum_i u_i G_i.

    With validate=True the smallest eigenvalue is checked; vectors outside
    the positive set raise EncodingError reporting it.  A vector with the
    same float64 bytes as one of the last ENCODE_CACHE_SIZE encoded gets
    the DensityMatrix built for that one, which is shared and read-only.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise StateError(f"expected a feature vector, got shape {u.shape}")
    return _encode_bytes(u.tobytes(), validate)


@lru_cache(maxsize=ENCODE_CACHE_SIZE)
def _encode_bytes(data: bytes, validate: bool) -> DensityMatrix:
    m = _matrices(np.frombuffer(data))
    if validate:
        lam = float(np.linalg.eigvalsh(m)[0])
        if lam < EIGENVALUE_TOL:
            raise EncodingError(f"vector encodes outside the state space: min eigenvalue {lam:.3e}")
    return DensityMatrix(m)


def min_eigenvalues(points: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of encode(u) for every row u of `points`, from one
    batched eigendecomposition of the stacked matrices."""
    return np.linalg.eigvalsh(_matrices(np.asarray(points, dtype=float)))[:, 0]


def decode(rho: DensityMatrix) -> np.ndarray:
    """Inverse of encode: u_i = Tr(rho G_i) / 2."""
    basis = generator_basis(rho.n_qubits)
    return np.real(np.einsum("jk,ikj->i", rho.matrix, basis.generators)) / 2.0

