"""POVM-level simulation of the interferometric overlap measurement.

Two copies of the compared states are split over n photons: photon k carries
qubit k of each state.  Each photon is measured with either the identity (I)
or the singlet (S) projection across its two degrees of freedom, which gives
2^n coincidence rates per overlap.  For two qubits the overlap follows from
the four rates as

    O = 1 - 2 (f_SI + f_IS - 2 f_SS) / f_II

which is the trace of the pairwise SWAP (= I - 2S per photon) against the
two copies; in general each rate carries the weight (-2)^(number of S).

Every rate is a fixed linear functional of rho1 (x) rho2, so the 2^n
probabilities of a pair come from one tensor K per qubit count, built on
first use: p_c = vec(rho1) . K[c] . vec(rho2).  No joint state is formed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from qhsd.states import (
    MAX_QUBITS,
    BellKind,
    DensityMatrix,
    StateError,
    check_n_qubits,
    check_same_dim,
    hsd_from_overlaps,
    make_bell,
)

NOISE_MODES = ("exact", "binomial", "poisson")

# Counts are float64, which holds every integer up to 2^53 exactly.
MAX_SHOTS = 2 ** 53


class EstimationError(ValueError):
    """Counts cannot be turned into an overlap estimate (e.g. f_II = 0)."""


@dataclass(frozen=True)
class NoiseModel:
    """Counting-statistics model for the simulated coincidence rates.

    exact    -> expected counts shots * p, no randomness
    binomial -> fixed shots per POVM configuration
    poisson  -> free-running counting with expected shots per configuration
    """

    mode: str = "exact"
    shots: int = 10_000
    seed: int = 0

    def __post_init__(self):
        _check_mode(self.mode)
        _check_shots("shots", self.shots)
        _check_integer("seed", self.seed)
        if self.seed < 0:
            raise StateError(f"seed must be >= 0, got {self.seed}")


def _check_mode(mode: str) -> None:
    if mode not in NOISE_MODES:
        raise StateError(f"unknown noise mode {mode!r}")


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise StateError(f"{name} must be an integer, got {value!r}")


def _check_shots(name: str, value) -> None:
    _check_integer(name, value)
    if value < 1:
        raise StateError(f"{name} must be >= 1, got {value}")
    if value > MAX_SHOTS:
        raise StateError(f"{name} must be <= 2^53, got {value}")


@dataclass(frozen=True)
class CoincidenceCounts:
    """The 2^n rates of one n-qubit overlap configuration.

    `rates` is in configuration order: bit n-1-k of the index is set when
    photon k takes the singlet projection, so photon A is the high bit (II,
    IS, SI, SS for two qubits).  named() labels each rate f_<letters>, one
    I or S per photon, photon A first: f_SI has the singlet on photon A.

    Counts are integers in the stochastic modes; exact mode keeps the
    unrounded expected counts so the estimator reproduces the exact overlap.
    Every rate is finite and non-negative, and shots_per_config >= 1.
    """

    rates: Tuple[float, ...]
    shots_per_config: int

    def __post_init__(self):
        n = len(self.rates)
        if not 2 <= n <= 2 ** MAX_QUBITS or n & (n - 1):
            raise StateError(f"{n} rates, expected 2^n for n in 1..{MAX_QUBITS}")
        if not all(0.0 <= r < math.inf for r in self.rates):
            raise StateError(f"rates must be finite and non-negative, got {self.rates}")
        _check_shots("shots_per_config", self.shots_per_config)

    @property
    def n_qubits(self) -> int:
        return len(self.rates).bit_length() - 1

    def named(self) -> Dict[str, float]:
        """{f_<letters>: rate} for every configuration."""
        return {
            "f_" + "".join("IS"[bit] for bit in cfg): rate
            for cfg, rate in zip(_configs(self.n_qubits), self.rates)
        }


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated Tr(rho1 rho2); `clamped` flags values outside [0, 1]
    (the value itself is reported unclamped)."""

    value: float
    std_error: float
    clamped: bool
    counts: CoincidenceCounts


_SINGLET = make_bell(BellKind.PSI_MINUS).matrix


def singlet_projector() -> np.ndarray:
    """Rank-1 projector onto (|01> - |10>)/sqrt(2) for one photon's two
    degrees of freedom."""
    return _SINGLET.copy()


def _configs(n: int) -> List[Tuple[int, ...]]:
    """All identity/singlet choices per photon; 1 = singlet.  Binary counting
    order, so (0,...,0) comes first."""
    return list(itertools.product((0, 1), repeat=n))


@lru_cache(maxsize=None)
def _povm_functional(n: int) -> np.ndarray:
    """K of shape (2^n, D^2, D^2), D = 2^n, such that configuration c has
    probability vec(rho1) . K[c] . vec(rho2), vec flattening row-major.

    K[c] is the configuration's projector on the two copies, whose indices
    run photon by photon (qubit k of rho1, qubit k of rho2), regrouped as
    (rho1 row, rho1 column) x (rho2 row, rho2 column).  Its entries are real
    but stored complex, so the product with a density matrix needs no cast."""
    check_n_qubits(n)
    d = 2 ** n
    rows = np.arange(2 * n)
    cols = rows + 2 * n
    axes = [*cols[0::2], *rows[0::2], *cols[1::2], *rows[1::2]]
    singlet = np.real(_SINGLET)
    k = np.empty((2 ** n, d * d, d * d), dtype=complex)
    for c, cfg in enumerate(_configs(n)):
        op = np.ones((1, 1))
        for bit in cfg:
            op = np.kron(op, singlet if bit else np.eye(4))
        k[c] = op.reshape((2,) * (4 * n)).transpose(axes).reshape(d * d, d * d)
    k.setflags(write=False)
    return k


def povm_probabilities(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Probabilities of the 2^n configurations of two n-qubit states, in
    configuration order (see CoincidenceCounts): II, IS, SI, SS for n = 2."""
    check_same_dim(rho1, rho2)
    k = _povm_functional(rho1.n_qubits)
    return np.real((k @ rho2.matrix.ravel()) @ rho1.matrix.ravel())


@lru_cache(maxsize=None)
def _config_weights(n: int) -> np.ndarray:
    """Estimator weights (-2)^(number of singlet projections)."""
    w = np.array([(-2.0) ** sum(cfg) for cfg in _configs(n)])
    w.setflags(write=False)
    return w


def _stream_words(seed: int, key: Sequence[int]) -> np.ndarray:
    """The uint32 words SeedSequence makes of [seed mod 2^64, *key]: each
    value split into little-endian 32-bit words, at least one per value."""
    words = []
    for value in (int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(k) for k in key]):
        if value < 0:
            raise ValueError(f"stream key entries must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence.generate_state hash (numpy/random/bit_generator.pyx):
# output word i of a 4-word pool is
#     x = pool[i % 4] ^ h_i;  x *= h_(i+1);  x ^= x >> 16   (uint32, wrapping)
# with h_0 = INIT_B and h_(i+1) = h_i * MULT_B.  PCG64 asks for 4 uint64, that
# is 8 such words read as little-endian pairs.  Both constants are arranged
# (2, 4), so that row h, column j is word 4h + j, which hashes pool[j].
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_HASH_H = np.array([_INIT_B * _MULT_B ** i % 2 ** 32 for i in range(9)], dtype=np.uint32)
_HASH_XOR = _HASH_H[:8].reshape(2, 4)
_HASH_MULT = _HASH_H[1:].reshape(2, 4)


def _pool_states(pools: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of every row of an (L, 4)
    uint32 stack of SeedSequence pools, as one (L, 4) uint64 array."""
    x = np.bitwise_xor(pools[:, None, :], _HASH_XOR)
    np.multiply(x, _HASH_MULT, out=x)
    np.bitwise_xor(x, x >> np.uint32(16), out=x)
    x = x.reshape(len(pools), 8).astype("<u4", copy=False)
    return x.view("<u8").astype(np.uint64, copy=False)


@lru_cache(maxsize=None)
def _hashed_seed_type() -> type:
    """A minimal ISeedSequence holding the already hashed state words of one
    stream; PCG64 runs its own srandom step on them, as it does on a
    SeedSequence's.  Built on first use, so that importing qhsd does not
    import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self._state  # PCG64 asks for (4, np.uint64) only

    return HashedSeed


def _stream(state: np.ndarray) -> np.random.Generator:
    """The stream of one row of `_pool_states`."""
    return np.random.Generator(np.random.PCG64(_hashed_seed_type()(state)))


def _draw_counts(
    probs: np.ndarray, noise: NoiseModel, stream_key: Sequence[int] = ()
) -> np.ndarray:
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    if noise.mode == "exact":
        return noise.shots * probs
    # configuration i < 2^MAX_QUBITS is the one last word of stream (*stream_key, i)
    words = _stream_words(noise.seed, (*stream_key, 0))
    pools = np.empty((len(probs), 4), dtype=np.uint32)
    for i in range(len(probs)):
        words[-1] = i
        pools[i] = np.random.SeedSequence(words).pool
    counts = np.empty(len(probs))
    for i, (p, state) in enumerate(zip(probs, _pool_states(pools))):
        rng = _stream(state)
        if noise.mode == "binomial":
            counts[i] = rng.binomial(noise.shots, p)
        else:
            counts[i] = rng.poisson(noise.shots * p)
    return counts


def estimate_overlap(counts: CoincidenceCounts, mode: str) -> OverlapEstimate:
    """Overlap and first-order-propagated uncertainty from coincidence rates
    counted under the noise mode `mode`."""
    _check_mode(mode)
    rates = np.array(counts.rates)
    f0 = rates[0]
    if f0 <= 0:
        raise EstimationError("f_II = 0: cannot normalize the overlap estimate")
    wrest = _config_weights(counts.n_qubits)[1:]
    acc = float(wrest @ rates[1:])
    value = 1.0 + acc / f0
    err = 0.0
    if mode != "exact":
        if mode == "binomial":
            phat = np.clip(rates / counts.shots_per_config, 0.0, 1.0)
            var = counts.shots_per_config * phat * (1.0 - phat)
        else:
            var = rates.astype(float)
        var_value = float((wrest / f0) ** 2 @ var[1:]) + (acc / f0 ** 2) ** 2 * var[0]
        err = float(np.sqrt(var_value))
    return OverlapEstimate(value, err, not 0.0 <= value <= 1.0, counts)


def measure_overlap(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    noise: NoiseModel,
    stream_key: Sequence[int] = (),
) -> OverlapEstimate:
    counts = _draw_counts(povm_probabilities(rho1, rho2), noise, stream_key)
    return estimate_overlap(CoincidenceCounts(tuple(counts.tolist()), noise.shots), noise.mode)


@dataclass(frozen=True)
class HsdMeasurement:
    """Result of the three-configuration distance measurement."""

    value: float
    d2: float
    d2_std_error: float
    clamped: bool
    overlaps: Tuple[OverlapEstimate, OverlapEstimate, OverlapEstimate]


def measure_hsd(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    noise: NoiseModel,
    stream_key: Sequence[int] = (),
) -> HsdMeasurement:
    """Measure O(1,1), O(2,2), O(1,2) and combine them into the distance."""
    o11 = measure_overlap(rho1, rho1, noise, (*stream_key, 0))
    o22 = measure_overlap(rho2, rho2, noise, (*stream_key, 1))
    o12 = measure_overlap(rho1, rho2, noise, (*stream_key, 2))
    value, d2, clamped = hsd_from_overlaps(o11.value, o22.value, o12.value)
    d2_err = float(
        np.sqrt(o11.std_error ** 2 + o22.std_error ** 2 + 4.0 * o12.std_error ** 2)
    )
    return HsdMeasurement(value, d2, d2_err, clamped, (o11, o22, o12))


def plan_measurements(n_qubits: int, method: str) -> int:
    """POVM-setting count of one distance: 3 overlap configurations with 2^n
    POVMs each, against the 2(D^2 - 1) + 2 settings of two state
    reconstructions."""
    check_n_qubits(n_qubits)
    if method == "overlap":
        return 3 * 2 ** n_qubits
    if method == "tomography":
        d = 2 ** n_qubits
        return 2 * (d ** 2 - 1) + 2
    raise StateError(f"unknown method {method!r}")
