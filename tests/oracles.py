"""Reference constructions that the tests check the library against.

The library never forms the joint state of two copies; these build it
explicitly (tensor product, then qubit relabelling), and draw random mixed
states for property checks.
"""

from typing import Sequence

import numpy as np

from qhsd.states import DensityMatrix, StateError


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def permute_qubits(a: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Relabel qubits so that new qubit i is old qubit order[i].  Joint states
    of two copies can exceed MAX_QUBITS, which DensityMatrix.n_qubits refuses,
    so the qubit count is read off the dimension here."""
    n = a.dim.bit_length() - 1
    order = list(order)
    if sorted(order) != list(range(n)):
        raise StateError(f"{order} is not a permutation of 0..{n - 1}")
    t = a.matrix.reshape((2,) * (2 * n))
    t = t.transpose(order + [n + o for o in order])
    return DensityMatrix(t.reshape(a.dim, a.dim))


def random_mixed(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """A A^dag / Tr(A A^dag) for a complex Gaussian dim x dim matrix A."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))
