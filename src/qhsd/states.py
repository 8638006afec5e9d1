"""Density matrices for small qubit systems and the Hilbert-Schmidt distance.

Everything downstream (encoding, measurement simulation, clustering) treats
this module as the exact ground truth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

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


def check_n_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise StateError(f"n_qubits={n} outside supported range 1..{MAX_QUBITS}")


def _check_qubit_dim(d: int) -> None:
    if not 2 <= d <= 2 ** MAX_QUBITS or (d & (d - 1)) != 0:
        raise StateError(f"dimension {d} is not a power of two in 2..{2 ** MAX_QUBITS}")


def _validate_matrix(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateError(f"expected a square matrix, got shape {m.shape}")
    _check_qubit_dim(m.shape[0])
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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite complex matrix.

    Immutable once constructed; the wrapped array is made read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_array(cls, matrix) -> "DensityMatrix":
        m = np.asarray(matrix, dtype=complex)
        _validate_matrix(m)
        return cls(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        d = self.matrix.shape[0]
        _check_qubit_dim(d)
        return d.bit_length() - 1


def maximally_mixed(dim: int) -> DensityMatrix:
    """I/dim; dim must be a power of two in 2..2^MAX_QUBITS."""
    _check_qubit_dim(dim)
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


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
    idx = int(bits, 2)
    m = np.zeros((4, 4), dtype=complex)
    m[idx, idx] = 1.0
    return DensityMatrix(m)


def make_werner(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4; positive for -1/3 <= p <= 1."""
    if not (-1.0 / 3.0 - 1e-12 <= p <= 1.0 + 1e-12):
        raise StateError(f"werner weight p={p} outside [-1/3, 1]")
    m = p * make_bell(BellKind.PHI_PLUS).matrix + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(m)


def make_horodecki(q: float) -> DensityMatrix:
    """q |Phi-><Phi-| + (1-q) |01><01|."""
    if not (0.0 - 1e-12 <= q <= 1.0 + 1e-12):
        raise StateError(f"horodecki weight q={q} outside [0, 1]")
    m = q * make_bell(BellKind.PHI_MINUS).matrix + (1.0 - q) * make_separable("01").matrix
    return DensityMatrix(m)


def check_same_dim(a: DensityMatrix, b: DensityMatrix) -> None:
    if a.dim != b.dim:
        raise StateError(f"dimension mismatch: {a.dim} vs {b.dim}")


def overlap_exact(a: DensityMatrix, b: DensityMatrix) -> float:
    """First-order overlap Tr(a b)."""
    check_same_dim(a, b)
    return float(np.real(np.trace(a.matrix @ b.matrix)))


def purity(a: DensityMatrix) -> float:
    """Tr(rho^2), between 1/D (maximally mixed) and 1 (pure)."""
    return overlap_exact(a, a)


def hsd_exact(a: DensityMatrix, b: DensityMatrix) -> float:
    """Hilbert-Schmidt distance sqrt(Tr[(a - b)^2])."""
    check_same_dim(a, b)
    d = a.matrix - b.matrix
    return math.sqrt(max(0.0, (d @ d).trace().real))


def hsd_from_overlaps(o11: float, o22: float, o12: float) -> Tuple[float, float, bool]:
    """(HSD, d2, clamped) from the three first-order overlaps: d2 = o11 + o22
    - 2 o12, clamped when shot noise drove d2 negative and the HSD to 0."""
    d2 = o11 + o22 - 2.0 * o12
    if d2 < 0.0:
        return 0.0, d2, True
    return float(np.sqrt(d2)), d2, False


# ---------------------------------------------------------------------------
# State JSON schema shared with the CLI:
# either {"dim": D, "re": [[...]], "im": [[...]]}
# or     {"named": "bell|separable|werner|horodecki|mixed", "params": {...}}

# The one parameter each named state takes.
NAMED_PARAMS = {"bell": "kind", "separable": "bits", "werner": "p", "horodecki": "q", "mixed": "dim"}


def _number(obj: dict, key: str, default=None) -> float:
    value = obj.get(key, default)
    try:
        if not isinstance(value, bool):  # float() would read a boolean as 0 or 1
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise StateError(f"{key} must be a number, got {value!r}")


def _named_state(name, params) -> DensityMatrix:
    if not isinstance(name, str) or name not in NAMED_PARAMS:
        raise StateError(f"unknown named state {name!r}")
    if not isinstance(params, dict):
        raise StateError(f"params of {name} must be an object, got {params!r}")
    unknown = [key for key in params if key != NAMED_PARAMS[name]]
    if unknown:
        raise StateError(f"{name} takes no parameter {unknown[0]!r}")
    if name == "bell":
        return make_bell(params.get("kind"))
    if name == "separable":
        return make_separable(params.get("bits"))
    if name == "werner":
        return make_werner(_number(params, "p"))
    if name == "horodecki":
        return make_horodecki(_number(params, "q"))
    dim = _number(params, "dim", 4)
    if not dim.is_integer():
        raise StateError(f"dim must be an integer, got {params['dim']!r}")
    return maximally_mixed(int(dim))


def state_from_json(obj) -> DensityMatrix:
    """Density matrix from the state JSON schema; any malformed object
    raises StateError."""
    if not isinstance(obj, dict):
        raise StateError(f"state JSON must be an object, got {type(obj).__name__}")
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
    if "dim" in obj and _number(obj, "dim") != rho.dim:
        raise StateError("declared dim does not match matrix shape")
    return rho
