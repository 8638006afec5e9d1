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
import weakref
from functools import lru_cache
from typing import List, Sequence

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


# Encoded states keyed by their vector's float64 bytes, each kept only while
# something else holds it (as interferometry keeps its Pauli coordinates).
# check_encodable returns the states of the batch it checks; k-means holds
# them, so the per-pair encode calls of its assign loop find them here.
_MEMO: weakref.WeakValueDictionary[bytes, DensityMatrix] = weakref.WeakValueDictionary()


def _encode_rows(points: np.ndarray, validate: bool) -> List[DensityMatrix]:
    """The state of every row of a float64 stack, each stored in the memo.
    With validate, the first row that is not a state raises EncodingError
    and nothing is stored."""
    m = _matrices(points)
    if validate:
        finite = np.isfinite(m).all(axis=(1, 2))
        lam = np.full(m.shape[0], np.nan)
        lam[finite] = np.linalg.eigvalsh(m[finite])[:, 0]
        bad = np.flatnonzero(~(lam >= EIGENVALUE_TOL))
        if bad.size:
            raise EncodingError(
                f"point row {bad[0]} encodes outside the state space: "
                f"min eigenvalue {lam[bad[0]]:.3e}"
            )
    states = []
    for u, mat in zip(points, m):
        key = u.tobytes()
        rho = _MEMO.get(key)
        if rho is None:
            rho = _MEMO[key] = DensityMatrix(mat)
        states.append(rho)
    return states


def check_encodable(points: np.ndarray) -> List[DensityMatrix]:
    """Raise EncodingError for the first row u of `points` whose encode(u)
    is not a state: smallest eigenvalue below EIGENVALUE_TOL, or NaN when
    the matrix is not finite (one batched eigendecomposition covers the rest).
    Once every row passes, return the rows' states, built in this one batch
    and kept in encode's memo for as long as the caller holds them.  An
    array that is not 2-D raises StateError, as in kmeans."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise StateError(f"expected a (points, features) array, got shape {points.shape}")
    return _encode_rows(points, validate=True)


def encode(u: Sequence[float], validate: bool = True) -> DensityMatrix:
    """rho = I/D + sum_i u_i G_i.

    With validate=True, u is checked as check_encodable(u[None]) checks it,
    on every call.  A vector with the same float64 bytes as an encoded or
    checked one whose state is still held somewhere gets that shared,
    read-only DensityMatrix back, so k-means, which holds its points' and
    centroids' states, builds each matrix once per run.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise StateError(f"expected a feature vector, got shape {u.shape}")
    key = u.tobytes()
    rho = _MEMO.get(key)
    if rho is None or validate:
        return _encode_rows(u[None], validate)[0]
    return rho


def decode(rho: DensityMatrix) -> np.ndarray:
    """Inverse of encode: u_i = Tr(rho G_i) / 2."""
    return np.real(np.einsum("jk,ikj->i", rho.matrix, generator_basis(rho.n_qubits))) / 2.0

