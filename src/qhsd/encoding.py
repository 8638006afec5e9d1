"""Map classical feature vectors of length D^2 - 1 onto density matrices.

The generators (states.generator_basis) are tensor-product Pauli strings
rescaled so that Tr(Gi Gj) = 2 delta_ij for every qubit count.  With that
normalization the Hilbert-Schmidt distance between two encoded states is
exactly sqrt(2) times the Euclidean distance between the underlying vectors,
which is what lets k-means run on density matrices unchanged.
"""

from __future__ import annotations

import math
import weakref
from typing import List, Sequence

import numpy as np

from qhsd.states import EIGENVALUE_TOL, DensityMatrix, StateError, check_integer, generator_basis, maximally_mixed


class EncodingError(ValueError):
    """Encoding produced a matrix outside the positive-semidefinite set."""


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
# something else holds it.  Only check_encodable stores here, so every state
# in the memo is checked; k-means holds the states it returns, so the
# per-pair encode calls of its assign loop find them here.
_MEMO: weakref.WeakValueDictionary[bytes, DensityMatrix] = weakref.WeakValueDictionary()

_SHAPES = {1: "a feature vector", 2: "a (points, features) array"}


def feature_array(x, ndim: int) -> np.ndarray:
    """x as a float64 feature vector (ndim 1) or (points, features) stack
    (ndim 2).  Any other shape raises StateError, and so does complex input,
    whose imaginary part a float conversion would drop."""
    x = np.asarray(x)
    if x.dtype != float:
        if x.dtype.kind == "c":
            raise StateError(f"expected real features, got dtype {x.dtype}")
        x = x.astype(float)
    if x.ndim != ndim:
        raise StateError(f"expected {_SHAPES[ndim]}, got shape {x.shape}")
    return x


def check_encodable(points) -> List[DensityMatrix]:
    """Raise EncodingError for the first row u of `points` whose encode(u)
    is not a state: smallest eigenvalue below EIGENVALUE_TOL, or NaN when
    the matrix is not finite (one batched eigendecomposition covers the rest).
    Once every row passes, return the rows' states from this one batch,
    kept in encode's memo for as long as the caller holds them; a row whose
    state the memo still holds gets that state back, and no state is built
    for it.  A refused batch stores nothing.  Input that feature_array
    refuses raises StateError, as in kmeans."""
    points = feature_array(points, 2)
    m = _matrices(points)
    finite = np.isfinite(m).all(axis=(1, 2))
    lam = np.full(m.shape[0], np.nan)
    lam[finite] = np.linalg.eigvalsh(m[finite])[:, 0]
    bad = np.flatnonzero(~(lam >= EIGENVALUE_TOL))
    if bad.size:
        raise EncodingError(
            f"point row {bad[0]} encodes outside the state space: "
            f"min eigenvalue {lam[bad[0]]:.3e}"
        )
    held = []
    for u, mat in zip(points, m):
        key = u.tobytes()
        rho = _MEMO.get(key)
        if rho is None:
            rho = _MEMO[key] = DensityMatrix(mat)
        held.append(rho)
    return held


def encode(u: Sequence[float]) -> DensityMatrix:
    """rho = I/D + sum_i u_i G_i, checked as check_encodable(u[None]) checks it.

    A vector with the same float64 bytes as a checked one whose state is
    still held somewhere gets that shared, read-only DensityMatrix back
    without a second check, so k-means, which holds its points' and
    centroids' states, builds and checks each matrix once per run.
    """
    u = feature_array(u, 1)
    rho = _MEMO.get(u.tobytes())
    return check_encodable(u[None])[0] if rho is None else rho

