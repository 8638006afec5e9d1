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
from functools import lru_cache
from typing import Sequence

import numpy as np

from qhsd.states import EIGENVALUE_TOL, DensityMatrix, StateError, check_integer, check_n_qubits, maximally_mixed


class EncodingError(ValueError):
    """Encoding produced a matrix outside the positive-semidefinite set."""


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def generator_basis(n_qubits: int) -> np.ndarray:
    """The read-only (D^2 - 1, D, D) stack of Pauli strings over n qubits
    (identity string excluded), lexicographic in the letters I < X < Y < Z,
    scaled by 1/sqrt(2^(n-1)).  Cached per integer n, checked first."""
    return _generator_basis(check_n_qubits(n_qubits))


@lru_cache(maxsize=None)
def _generator_basis(n_qubits: int) -> np.ndarray:
    scale = 1.0 / np.sqrt(2.0 ** (n_qubits - 1))
    mats = []
    for letters in itertools.product("IXYZ", repeat=n_qubits):
        if all(c == "I" for c in letters):
            continue
        g = np.array([[1.0 + 0j]])
        for c in letters:
            g = np.kron(g, _PAULI[c])
        mats.append(scale * g)
    stack = np.array(mats)
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _n_qubits_for_length(length: int) -> int:
    d = math.isqrt(length + 1)
    if d * d - 1 != length or d < 2 or (d & (d - 1)) != 0:
        raise StateError(f"feature length {length} is not D^2 - 1 for a qubit dimension")
    return d.bit_length() - 1


def safe_radius(dim: int) -> float:
    """Inner radius 1/sqrt(2 D (D-1)); every vector inside encodes to a
    positive-semidefinite matrix regardless of direction."""
    dim = check_integer(dim, "dim", 2)
    return float(1.0 / np.sqrt(2.0 * dim * (dim - 1)))


def _matrices(u: np.ndarray) -> np.ndarray:
    """I/D + sum_i u_i G_i for a vector u, or for every row of a stack."""
    n = _n_qubits_for_length(u.shape[-1])
    return maximally_mixed(2 ** n).matrix + np.einsum("...i,ijk->...jk", u, generator_basis(n))


# Encoded matrices kept for recently seen vectors.  k-means encodes each
# point once per centroid per iteration (twice for k = 2) and each centroid
# once per point.  A centroid hits after its first encode, but a point's first
# encode in an iteration hits only if the memo holds the whole point set: this
# bound holds the 1000-point demo and every iteration's centroids.  Full, it
# retains about 1 MiB for 1-qubit points, 13 MiB for 4-qubit (16x16) states.
ENCODE_CACHE_SIZE = 2048


def check_encodable(points: np.ndarray) -> None:
    """Raise EncodingError for the first row u of `points` whose encode(u)
    is not a state: smallest eigenvalue below EIGENVALUE_TOL, or NaN when
    the matrix is not finite (one batched eigendecomposition covers the rest)."""
    m = _matrices(np.asarray(points, dtype=float))
    finite = np.isfinite(m).all(axis=(1, 2))
    lam = np.full(m.shape[0], np.nan)
    lam[finite] = np.linalg.eigvalsh(m[finite])[:, 0]
    bad = np.flatnonzero(~(lam >= EIGENVALUE_TOL))
    if bad.size:
        raise EncodingError(
            f"point row {bad[0]} encodes outside the state space: "
            f"min eigenvalue {lam[bad[0]]:.3e}"
        )


def encode(u: Sequence[float], validate: bool = True) -> DensityMatrix:
    """rho = I/D + sum_i u_i G_i.

    With validate=True, check_encodable(u[None]) runs first, on every call.
    A vector with the same float64 bytes as one of the last ENCODE_CACHE_SIZE
    (2048) encoded gets that one's shared, read-only DensityMatrix back, so
    k-means on up to ~2000 points builds each point's matrix once per run.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise StateError(f"expected a feature vector, got shape {u.shape}")
    if validate:
        check_encodable(u[None])
    return _encode_bytes(u.tobytes())


@lru_cache(maxsize=ENCODE_CACHE_SIZE)
def _encode_bytes(data: bytes) -> DensityMatrix:
    return DensityMatrix(_matrices(np.frombuffer(data)))


def decode(rho: DensityMatrix) -> np.ndarray:
    """Inverse of encode: u_i = Tr(rho G_i) / 2."""
    return np.real(np.einsum("jk,ikj->i", rho.matrix, generator_basis(rho.n_qubits))) / 2.0

