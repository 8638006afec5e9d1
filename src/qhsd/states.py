"""Density matrices for small qubit systems, their Pauli basis and
coordinates, the Hilbert-Schmidt distance, and the exact probabilities of
the configurations of the interferometric overlap measurement.

Everything downstream (encoding, measurement simulation, clustering) treats
this module as the exact ground truth.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Tuple

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = -1e-9

# Largest supported qubit count: states are 2x2 to 16x16 matrices.
MAX_QUBITS = 4


class StateError(ValueError):
    """A matrix violates the density-matrix invariants, or inputs are
    otherwise unusable (bad parameter range, dimension mismatch)."""


class BellKind(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_SQRT2 = np.sqrt(2.0)

_BELL_VECTORS = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=complex) / _SQRT2,
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=complex) / _SQRT2,
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=complex) / _SQRT2,
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=complex) / _SQRT2,
}


def check_integer(value, name: str, minimum: Optional[int] = None) -> int:
    try:
        if not isinstance(value, bool):  # operator.index would read a bool as 0 or 1
            n = operator.index(value)
            if minimum is None or n >= minimum:
                return n
            raise StateError(f"{name} must be >= {minimum}, got {n}")
    except TypeError:
        pass
    raise StateError(f"{name} must be an integer, got {value!r}")


def check_n_qubits(n: int) -> int:
    n = check_integer(n, "n_qubits")
    if not 1 <= n <= MAX_QUBITS:
        raise StateError(f"n_qubits={n} outside supported range 1..{MAX_QUBITS}")
    return n


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
    for letters in list(itertools.product("IXYZ", repeat=n_qubits))[1:]:  # the first is the identity string
        g = np.array([[1.0 + 0j]])
        for c in letters:
            g = np.kron(g, _PAULI[c])
        mats.append(scale * g)
    stack = np.array(mats)
    stack.setflags(write=False)
    return stack


def _check_qubit_dim(d: int) -> None:
    if not 2 <= d <= 2 ** MAX_QUBITS or (d & (d - 1)) != 0:
        raise StateError(f"dimension {d} is not a power of two in 2..{2 ** MAX_QUBITS}")


def _validate_matrix(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise StateError("matrix has non-finite entries")
    herm = np.abs(m - m.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise StateError(f"not Hermitian: max asymmetry {herm:.3e}")
    tr = abs(m.trace() - 1.0)
    if tr > TRACE_TOL:
        raise StateError(f"trace differs from 1 by {tr:.3e}")
    lam = np.linalg.eigvalsh(m)[0]
    if lam < EIGENVALUE_TOL:
        raise StateError(f"not positive semidefinite: min eigenvalue {lam:.3e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite complex matrix.

    Immutable once constructed; the wrapped array is made read-only.
    Equality and hashing go by identity, so a state can key a dictionary.
    Construction refuses a matrix that is not square or whose dimension is
    no qubit dimension; from_array also checks the state invariants.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StateError(f"expected a square matrix, got shape {m.shape}")
        _check_qubit_dim(m.shape[0])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_array(cls, matrix) -> "DensityMatrix":
        rho = cls(matrix)
        _validate_matrix(rho.matrix)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    @cached_property
    def pauli_coordinates(self) -> np.ndarray:
        """(1, sqrt(2D) decode(self)): Tr(rho P_a) over the 4^n Pauli strings
        in generator_basis order, the identity string first.  Read-only,
        computed on first read and kept in the instance __dict__, which
        cached_property writes directly, so the frozen dataclass allows it."""
        r = np.concatenate(([1.0], math.sqrt(2 * self.dim) * decode(self)))
        r.setflags(write=False)
        return r

    @cached_property
    def self_probabilities(self) -> np.ndarray:
        """povm_probabilities(self, self), the configuration probabilities of
        the state's overlap with itself: a distance measures two such
        self-overlaps, and k-means measures each state's many times.
        Read-only, computed on first read and kept like pauli_coordinates."""
        p = povm_probabilities(self, self)
        p.setflags(write=False)
        return p


def decode(rho: DensityMatrix) -> np.ndarray:
    """Inverse of encoding.encode: u_i = Tr(rho G_i) / 2."""
    return np.real(np.einsum("jk,ikj->i", rho.matrix, generator_basis(rho.n_qubits))) / 2.0


def maximally_mixed(dim: int) -> DensityMatrix:
    """I/dim; dim must be an integer power of two in 2..2^MAX_QUBITS.  Cached
    per value, so repeated calls share one read-only state (a numpy integer
    gets the Python int's); an invalid dim raises before anything is cached."""
    dim = check_integer(dim, "dim")
    _check_qubit_dim(dim)
    return _maximally_mixed(dim)


@lru_cache(maxsize=None)
def _maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def make_bell(kind: BellKind | str) -> DensityMatrix:
    """Rank-1 projector onto a Bell state, given as a BellKind or its value."""
    try:
        v = _BELL_VECTORS[BellKind(kind)]
    except ValueError:
        raise StateError(f"unknown bell kind {kind!r}") from None
    return DensityMatrix(np.outer(v, v.conj()))


def make_separable(bits: str) -> DensityMatrix:
    """Computational-basis projector |b1 b2><b1 b2| for a two-bit string."""
    if bits not in ("00", "01", "10", "11"):
        raise StateError(f"invalid two-bit string {bits!r}")
    e = np.eye(4, dtype=complex)[int(bits, 2)]
    return DensityMatrix(np.outer(e, e))


def make_werner(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4; positive for -1/3 <= p <= 1."""
    if not (-1.0 / 3.0 - 1e-12 <= p <= 1.0 + 1e-12):
        raise StateError(f"werner weight p={p} outside [-1/3, 1]")
    m = p * make_bell(BellKind.PHI_PLUS).matrix + (1.0 - p) * maximally_mixed(4).matrix
    return DensityMatrix(m)


def make_horodecki(q: float) -> DensityMatrix:
    """q |Phi-><Phi-| + (1-q) |01><01|."""
    if not (0.0 - 1e-12 <= q <= 1.0 + 1e-12):
        raise StateError(f"horodecki weight q={q} outside [0, 1]")
    m = q * make_bell(BellKind.PHI_MINUS).matrix + (1.0 - q) * make_separable("01").matrix
    return DensityMatrix(m)


def check_same_dim(a: DensityMatrix, b: DensityMatrix) -> None:
    if a.matrix.shape[0] != b.matrix.shape[0]:
        raise StateError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _real_trace(m: np.ndarray) -> float:
    """m.trace().real, bit for bit, without numpy's ~2 us dispatch.  At 2x2
    the diagonal is added onto 0j in C in a fixed order, as numpy's complex
    add-reduce adds it (so -0.0 + -0.0 reads +0.0, and a NaN sum keeps
    numpy's sign bit); a Python float add of two NaNs keeps either sign, as
    the interpreter has specialised it or not.  From 4x4 on numpy sums
    pairwise, not left to right, so larger matrices keep ndarray.trace."""
    if m.shape[0] == 2:
        return (0j + m.item(0, 0) + m.item(1, 1)).real
    return m.trace().real


def overlap_exact(a: DensityMatrix, b: DensityMatrix) -> float:
    """First-order overlap Tr(a b)."""
    check_same_dim(a, b)
    return float(_real_trace(a.matrix.dot(b.matrix)))


def purity(a: DensityMatrix) -> float:
    """Tr(rho^2), between 1/D (maximally mixed) and 1 (pure)."""
    return overlap_exact(a, a)


def hsd_exact(a: DensityMatrix, b: DensityMatrix) -> float:
    """Hilbert-Schmidt distance sqrt(Tr[(a - b)^2]): +0.0 for a trace <= 0
    (rounding can leave it just below), NaN for a NaN trace."""
    check_same_dim(a, b)
    d = a.matrix - b.matrix
    t = _real_trace(d.dot(d))
    return 0.0 if t <= 0.0 else math.sqrt(t)


def hsd_from_overlaps(o11: float, o22: float, o12: float) -> Tuple[float, float, bool]:
    """(HSD, d2, clamped) from the three first-order overlaps: d2 = o11 + o22
    - 2 o12, clamped when shot noise drove d2 negative and the HSD to 0."""
    d2 = o11 + o22 - 2.0 * o12
    if d2 < 0.0:
        return 0.0, d2, True
    return math.sqrt(d2), d2, False


@lru_cache(maxsize=None)
def _configurations(n: int) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
    """(names, W, weights) of the 2^n configurations of n photons, in
    configuration order (see interferometry.OverlapEstimate), built photon
    by photon with photon A highest.  Photon k takes the identity (I) or the
    singlet (S):
    - its name gains "I" or "S";
    - W, of shape (2^n, 4^n), gains by Kronecker product the row [1, 0, 0, 0]
      or [1, -1, -1, -1] / 4 over its qubit's letters I, X, Y, Z (the
      singlet is (I - SWAP)/2, and SWAP = 1/2 sum_P P (x) P), so that
      configuration c has probability W[c] . (r1 * r2), r the Pauli
      coordinates of each state (pauli_coordinates);
    - its estimator weight gains the factor 1 or -2, so that configuration c
      weighs (-2)^(number of singlets).
    Every entry of W is 0 or +-4^-m, so row 0 picks r1_0 * r2_0 = 1 exactly,
    and every weight is an exact power of two."""
    check_n_qubits(n)
    names, w, weights = ("",), np.ones((1, 1)), np.ones(1)
    for _ in range(n):
        names = tuple(name + letter for name in names for letter in "IS")
        w = np.kron(w, [[1.0, 0.0, 0.0, 0.0], [0.25, -0.25, -0.25, -0.25]])
        weights = np.kron(weights, [1.0, -2.0])
    w.setflags(write=False)
    weights.setflags(write=False)
    return names, w, weights


def povm_probabilities(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Probabilities of the 2^n configurations of two n-qubit states, in
    configuration order (see interferometry.OverlapEstimate): II, IS, SI,
    SS for n = 2."""
    check_same_dim(rho1, rho2)
    return _configurations(rho1.n_qubits)[1].dot(rho1.pauli_coordinates * rho2.pauli_coordinates)


# ---------------------------------------------------------------------------
# State JSON schema shared with the CLI:
# either {"dim": D, "re": [[...]], "im": [[...]]}
# or     {"named": "bell|separable|werner|horodecki|mixed", "params": {...}}

def _number(value, key: str):
    if isinstance(value, numbers.Real) and not isinstance(value, bool):  # a bool is an int, 0 or 1
        return value
    raise StateError(f"{key} must be a number, got {value!r}")


# Each named state's one parameter, its default (None: required) and its
# builder.  p and q must be real numbers (_number), as re/im entries must;
# dim must be an integer, also as a whole float such as an inline 8 reads
# (8.0); bell's kind and separable's bits are checked by their builders.
NAMED_STATES = {
    "bell": ("kind", None, make_bell),
    "separable": ("bits", None, make_separable),
    "werner": ("p", None, lambda p: make_werner(_number(p, "p"))),
    "horodecki": ("q", None, lambda q: make_horodecki(_number(q, "q"))),
    "mixed": ("dim", 4, lambda dim: maximally_mixed(
        int(dim) if isinstance(dim, float) and dim.is_integer() else dim
    )),
}


def _named_state(name, params) -> DensityMatrix:
    if not isinstance(name, str) or name not in NAMED_STATES:
        raise StateError(f"unknown named state {name!r}")
    if not isinstance(params, dict):
        raise StateError(f"params of {name} must be an object, got {params!r}")
    param, default, build = NAMED_STATES[name]
    unknown = [key for key in params if key != param]
    if unknown:
        raise StateError(f"{name} takes no parameter {unknown[0]!r}")
    return build(params.get(param, default))


def state_from_json(obj) -> DensityMatrix:
    """Density matrix from the state JSON schema; any malformed object,
    including one with a key its form does not take, raises StateError."""
    if not isinstance(obj, dict):
        raise StateError(f"state JSON must be an object, got {type(obj).__name__}")
    allowed = ("named", "params") if "named" in obj else ("dim", "re", "im")
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise StateError(f"state JSON takes no key {unknown[0]!r}")
    if "named" in obj:
        return _named_state(obj["named"], obj.get("params", {}))
    try:
        re = np.asarray(obj["re"])
        im = np.asarray(obj["im"])
    except KeyError as exc:
        raise StateError(f"state JSON missing key {exc}") from exc
    except ValueError as exc:  # ragged rows
        raise StateError(f"state JSON re/im are not numeric arrays: {exc}") from exc
    if re.shape != im.shape:
        raise StateError(f"re has shape {re.shape} but im has shape {im.shape}")
    if re.dtype.kind not in "iuf" or im.dtype.kind not in "iuf" or any(
        type(x) is bool for x in np.asarray([obj["re"], obj["im"]], dtype=object).flat
    ):
        raise StateError("state JSON re/im must be arrays of numbers, not booleans, strings or nulls")
    with np.errstate(invalid="ignore"):  # 1j * inf; from_array refuses the result
        m = re + 1j * im
    rho = DensityMatrix.from_array(m)
    if "dim" in obj and _number(obj["dim"], "dim") != rho.dim:
        raise StateError("declared dim does not match matrix shape")
    return rho
