"""Reference constructions that the tests check the library against.

The library never forms the joint state of two copies; these build it
explicitly (tensor product, then qubit relabelling) and apply each photon's
POVM operator to it for the configuration probabilities, build pure states
from state vectors, and draw random mixed states for property checks.  The
overlap estimator is kept as first written, on a plain sequence of rates
with the mode and shots passed separately.  The exact overlap and the HSD
are kept with every product written as `@`, and the CSV writer with its
per-cell `repr` formatting, as the library had them before it took its
small products through `ndarray.dot` and wrote each CSV file as one
string.  Two-qubit k-means data, the paper's own setting, is drawn here
too, since no CLI target uses it.  The bit-identity tests
share two harnesses: one runs code under a tracer, the other records the
states the count draws seed their streams with.  Tests that start a child
interpreter share its environment.
"""

import contextlib
import csv
import itertools
import math
import os
import sys
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np
import pytest

from qhsd import interferometry
from qhsd.encoding import safe_radius
from qhsd.states import BellKind, DensityMatrix, StateError, _check_qubit_dim, make_bell


def src_env() -> dict:
    """os.environ with this checkout's src/ first on PYTHONPATH, for a child
    interpreter that imports qhsd."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def permute_qubits(a: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Relabel qubits so that new qubit i is old qubit order[i]."""
    return DensityMatrix(permute_qubit_axes(a.matrix, order))


def permute_qubit_axes(m: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """permute_qubits on a plain 2^n x 2^n array.  Joint states of two copies
    can exceed MAX_QUBITS, which DensityMatrix refuses, so the qubit count is
    read off the dimension here."""
    dim = m.shape[0]
    n = dim.bit_length() - 1
    order = list(order)
    if sorted(order) != list(range(n)):
        raise StateError(f"{order} is not a permutation of 0..{n - 1}")
    t = m.reshape((2,) * (2 * n))
    t = t.transpose(order + [n + o for o in order])
    return t.reshape(dim, dim)


def _joint_matrix(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Joint state of the two copies, regrouped per photon: qubit k of rho1
    and qubit k of rho2 sit next to each other (photon k).  A plain array,
    since it may exceed MAX_QUBITS."""
    if rho1.dim != rho2.dim:
        raise StateError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    n = rho1.n_qubits
    order = [q for k in range(n) for q in (k, n + k)]
    return permute_qubit_axes(np.kron(rho1.matrix, rho2.matrix), order)


def joint_state_probabilities(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Tr(P_c joint) for every configuration c, in binary-counting order
    (photon A is the high bit, 1 = singlet)."""
    joint = _joint_matrix(rho1, rho2)
    singlet = make_bell(BellKind.PSI_MINUS).matrix
    probs = []
    for cfg in itertools.product((0, 1), repeat=rho1.n_qubits):
        op = np.ones((1, 1))
        for bit in cfg:
            op = np.kron(op, singlet if bit else np.eye(4))
        probs.append(np.real(np.trace(op @ joint)))
    return np.array(probs)


def pure_state(vector: Sequence[complex]) -> DensityMatrix:
    """|v><v| of the normalized v; v must be a finite, nonzero vector whose
    length is a power of two in 2..2^MAX_QUBITS."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise StateError(f"expected a state vector, got shape {v.shape}")
    _check_qubit_dim(v.shape[0])
    scale = np.maximum(np.abs(v.real), np.abs(v.imag)).max()  # norm(v / scale) cannot over- or underflow
    if not 0.0 < scale < math.inf:
        raise StateError(f"state vector norm {scale} is not finite and positive")
    v = v / scale
    return DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real)


def random_mixed(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """A A^dag / Tr(A A^dag) for a complex Gaussian dim x dim matrix A."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.real(np.trace(m)))


def estimate_overlap(rates: Sequence[float], shots: int, mode: str) -> Tuple[float, float]:
    """(value, std_error) from coincidence rates in configuration order,
    f_II > 0, with weights (-2)^(number of singlet projections) and
    first-order propagated binomial or Poisson variances (none in exact
    mode)."""
    rates = np.array(rates)
    f0 = rates[0]
    wrest = np.array([(-2.0) ** bin(c).count("1") for c in range(len(rates))])[1:]
    acc = float(wrest @ rates[1:])
    value = 1.0 + acc / f0
    err = 0.0
    if mode != "exact":
        if mode == "binomial":
            phat = np.clip(rates / shots, 0.0, 1.0)
            var = shots * phat * (1.0 - phat)
        else:
            var = rates.astype(float)
        var_value = float((wrest / f0) ** 2 @ var[1:]) + (acc / f0 ** 2) ** 2 * var[0]
        err = float(np.sqrt(var_value))
    return value, err


def overlap_exact(a: DensityMatrix, b: DensityMatrix) -> float:
    """Tr(a b) from the `@` product and ndarray.trace."""
    return float((a.matrix @ b.matrix).trace().real)


def hsd_exact(a: DensityMatrix, b: DensityMatrix) -> float:
    """sqrt(max(0, Tr[(a - b)^2])) from the `@` product and ndarray.trace."""
    d = a.matrix - b.matrix
    return math.sqrt(max(0.0, (d @ d).trace().real))


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """Header, then one writerow per row, every int/float/numpy-float cell
    formatted as repr(float(x)) before csv sees it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (int, float, np.floating)) else x for x in row])


def two_qubit_blobs(n_points: int, seed: int) -> np.ndarray:
    """Two Gaussian blobs of 15-feature points (two-qubit Bloch vectors),
    centred at +-(0.08 e0 + 0.05 e5) with spread 0.03, each point redrawn
    until it lies inside safe_radius(4), the ball where every direction
    encodes to a state.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    centre = np.zeros(15)
    centre[[0, 5]] = 0.08, 0.05
    radius = safe_radius(4)
    out = []
    for c, size in ((centre, n_points // 2), (-centre, n_points - n_points // 2)):
        pts = np.empty((0, 15))
        while pts.shape[0] < size:
            cand = c + 0.03 * rng.standard_normal((size - pts.shape[0], 15))
            pts = np.vstack([pts, cand[np.linalg.norm(cand, axis=1) <= radius]])
        out.append(pts)
    return np.vstack(out)


@contextlib.contextmanager
def under_a_tracer():
    """Run the block with a no-op tracer installed, which keeps CPython from
    specialising its integer and float operations; the previous tracer is
    put back on the way out."""
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        yield
    finally:
        sys.settrace(previous)


@contextlib.contextmanager
def recorded_seeds():
    """Yield a list that gains, as a list of ints, every state that
    interferometry's count draws hand to PCG64 inside the block."""
    seeded = []

    class RecordingSeed(interferometry._hashed_seed_type()):
        def __init__(self, state):
            seeded.append(state.tolist())
            super().__init__(state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interferometry, "_hashed_seed_type", lambda: RecordingSeed)
        yield seeded
