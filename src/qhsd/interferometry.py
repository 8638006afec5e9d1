"""POVM-level simulation of the interferometric overlap measurement.

Two copies of the compared states are split over n photons: photon k carries
qubit k of each state.  Each photon is measured with either the identity (I)
or the singlet (S) projection across its two degrees of freedom, which gives
2^n coincidence rates per overlap.  For two qubits the overlap follows from
the four rates as

    O = 1 - 2 (f_SI + f_IS - 2 f_SS) / f_II

which is the trace of the pairwise SWAP (= I - 2S per photon) against the
two copies; in general each rate carries the weight (-2)^(number of S).

The exact probability of every configuration comes from qhsd.states:
povm_probabilities forms it from the two states' Pauli coordinates, and a
state keeps those of its overlap with itself (self_probabilities).  This
module adds the counting noise, the random stream of each count and the
estimator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from qhsd.states import (
    MAX_QUBITS,
    DensityMatrix,
    StateError,
    _configurations,
    check_integer,
    check_n_qubits,
    hsd_from_overlaps,
    povm_probabilities,
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
        if self.mode not in NOISE_MODES:
            raise StateError(f"unknown noise mode {self.mode!r}")
        object.__setattr__(self, "shots", check_integer(self.shots, "shots", 1))
        if self.shots > MAX_SHOTS:
            raise StateError(f"shots must be <= 2^53, got {self.shots}")
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated Tr(rho1 rho2); `clamped` flags values outside [0, 1]
    (the value itself is reported unclamped).

    `counts` holds the 2^n coincidence counts it was estimated from, in
    configuration order: bit n-1-k of the index is set when photon k takes
    the singlet projection, so photon A is the high bit (II, IS, SI, SS for
    two qubits).  They are integers in the stochastic modes; exact mode
    keeps the unrounded expected counts so the estimator reproduces the
    exact overlap.  `noise` is the model they were counted under.
    """

    value: float
    clamped: bool
    counts: Tuple[float, ...]
    noise: NoiseModel

    @property
    def std_error(self) -> float:
        """First-order propagated error of `value` (0.0 in exact mode, else
        binomial or Poisson count variances), computed from `counts` and
        `noise` each time it is read."""
        if self.noise.mode == "exact":
            return 0.0
        counts = np.array(self.counts)
        f0, wrest = counts.item(0), _configurations(len(counts).bit_length() - 1)[2][1:]
        # -dO/df_II, in Python floats: f_II = 0 raises ZeroDivisionError here
        slope = float(wrest.dot(counts[1:])) / f0 ** 2
        var = counts  # a Poisson count's variance is its mean
        if self.noise.mode == "binomial":
            # a binomial count lies in 0..shots, so counts / shots needs no clip to [0, 1]
            shots = self.noise.shots
            var = shots * (counts / shots) * (1.0 - counts / shots)
        sq = (wrest / f0) * (wrest / f0)
        return math.sqrt(float(sq.dot(var[1:])) + slope ** 2 * var[0])

    def named_counts(self) -> Dict[str, float]:
        """{f_<letters>: count} for every configuration, one I or S per
        photon, photon A first: f_SI has the singlet on photon A."""
        names = _configurations(len(self.counts).bit_length() - 1)[0]
        return {"f_" + name: count for name, count in zip(names, self.counts)}


def _stream_words(seed: int, key: Sequence[int]) -> np.ndarray:
    """The uint32 words SeedSequence makes of [seed, *key]: each value split
    into little-endian 32-bit words, at least one per value.  A value that is
    not an integer raises TypeError, as in numpy's default_rng([seed, *key]),
    rather than alias the integer it would truncate to."""
    words = []
    for value in map(operator.index, (seed, *key)):
        if value < 0:
            raise ValueError(f"stream key entries must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


# numpy's SeedSequence mixing (numpy/random/bit_generator.pyx), uint32 and
# wrapping: the k-th hashmix of the run is
#     x = (word ^ h_k) * h_(k+1);  x ^= x >> 16
# with h_0 = INIT_A and h_(k+1) = h_k * MULT_A, and pool word d takes in a
# hashed word as mix(pool[d], x) = MIX_L * pool[d] - MIX_R * x, then x ^= x >> 16.
# Words 0..3 fill the pool and are cross-mixed (16 hashmixes); each word at
# index L >= 4 after that is mixed into pool[d] alone with hashmix 4L + d.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715


@lru_cache(maxsize=None)
def _last_word_terms(n_words: int) -> np.ndarray:
    """The (2^MAX_QUBITS, 8) uint32 table for L = n_words >= 4 whose row c,
    column d + 4j is MIX_R * hashmix_(4L+d)(c): what SeedSequence subtracts
    from MIX_L * pool[d] when c is entropy word L, once per hash read."""
    k = range(4 * n_words, 4 * n_words + 5)
    h = np.array([_INIT_A * _MULT_A ** i % 2 ** 32 for i in k], dtype=np.uint32)
    x = (np.arange(2 ** MAX_QUBITS, dtype=np.uint32)[:, None] ^ h[:4]) * h[1:]
    terms = np.tile(_MIX_R * (x ^ x >> 16), 2)
    terms.setflags(write=False)
    return terms


# numpy's SeedSequence.generate_state hash (numpy/random/bit_generator.pyx):
# output word i of a 4-word pool is
#     x = pool[i % 4] ^ h_i;  x *= h_(i+1);  x ^= x >> 16   (uint32, wrapping)
# with h_0 = INIT_B and h_(i+1) = h_i * MULT_B.  PCG64 asks for 4 uint64, that
# is 8 such words read as little-endian pairs, so the pool is read twice.
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_HASH_H = np.array([_INIT_B * _MULT_B ** i % 2 ** 32 for i in range(9)], dtype=np.uint32)
_HASH_XOR, _HASH_MULT = _HASH_H[:8], _HASH_H[1:]
_HASHED_POOL_WORD = np.arange(8) % 4


def _pool_states(x: np.ndarray) -> np.ndarray:
    """generate_state(4, np.uint64) of each row of an (n, 8) uint32 stack of
    4-word pools, each read twice, or of one such 8-word row: the hash
    above, in place.  The one place that hash is written."""
    x ^= _HASH_XOR
    x *= _HASH_MULT
    x ^= x >> 16
    return x.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _stream_states(words: np.ndarray, n_configs: int) -> np.ndarray:
    """SeedSequence([*words, c]).generate_state(4, np.uint64) for c below
    n_configs, as one (n_configs, 4) uint64 array, for 4 words or more: there
    c enters the pool of `words` alone, so one SeedSequence serves every c."""
    pool = np.random.SeedSequence(words).pool[_HASHED_POOL_WORD]
    x = _MIX_L * pool - _last_word_terms(len(words))[:n_configs]
    x ^= x >> 16
    return _pool_states(x)


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


def _draw_counts(
    probs: np.ndarray, noise: NoiseModel, stream_key: Sequence[int] = ()
) -> List[float]:
    if noise.mode == "exact":
        return (noise.shots * np.minimum(np.maximum(probs, 0.0), 1.0)).tolist()
    seed_type, shots, binomial = _hashed_seed_type(), noise.shots, noise.mode == "binomial"
    # the last word is the configuration slot: c < 2^MAX_QUBITS there gives stream (*stream_key, c)
    words = _stream_words(noise.seed, (*stream_key, 0))
    # A 1-qubit overlap draws at most two streams, and below a 4-word prefix c
    # enters the cross-mixing: seed those one by one.  Two-qubit overlaps
    # draw 3-4 streams, for which the prefix's table is cheaper.
    one_by_one = len(words) <= 4 or len(probs) == 2
    states = None if one_by_one else _stream_states(words[:-1], len(probs))
    draws = []
    for c, p in enumerate(probs.tolist()):
        # NaN stays NaN, as in np.minimum(np.maximum(...)); -0.0 stays -0.0,
        # where numpy gives 0.0, and p == 0.0 counts it as the certain 0.0
        p = min(max(p, 0.0), 1.0)
        if p == 0.0 or (binomial and p == 1.0):
            draws.append(float(shots) if p else 0.0)  # what its stream would draw
            continue
        if states is None:
            words[-1] = c
            state = _pool_states(np.random.SeedSequence(words).pool[_HASHED_POOL_WORD])
        else:
            state = states[c]
        rng = np.random.Generator(np.random.PCG64(seed_type(state)))
        draws.append(float(rng.binomial(shots, p) if binomial else rng.poisson(shots * p)))
    return draws


def _estimate(
    counts: List[float], noise: NoiseModel, stream_key: Sequence[int] = ()
) -> OverlapEstimate:
    """Overlap value from the coincidence counts of one overlap, counted
    under `noise` on stream `stream_key`; its std_error is computed from
    the counts when read."""
    f0, wrest = counts[0], _configurations(len(counts).bit_length() - 1)[2][1:]
    if f0 <= 0:
        key = tuple(int(k) for k in stream_key)
        raise EstimationError(
            f"f_II = 0 at stream key {key}: cannot normalize the overlap estimate"
        )
    value = 1.0 + float(wrest.dot(counts[1:])) / f0
    return OverlapEstimate(value, not 0.0 <= value <= 1.0, tuple(counts), noise)


def measure_overlap(
    rho1: DensityMatrix, rho2: DensityMatrix, noise: NoiseModel, stream_key: Sequence[int] = ()
) -> OverlapEstimate:
    """Estimate Tr(rho1 rho2) from the simulated counts of its 2^n
    configurations.  Configuration c's count comes from the stream
    default_rng([noise.seed, *stream_key, c]); a count that is certain (a
    clipped probability of 0, or of 1 under binomial) draws no stream."""
    probs = rho1.self_probabilities if rho1 is rho2 else povm_probabilities(rho1, rho2)
    counts = _draw_counts(probs, noise, stream_key)
    return _estimate(counts, noise, stream_key)


@dataclass(frozen=True)
class HsdMeasurement:
    """Result of the three-configuration distance measurement."""

    value: float
    d2: float
    clamped: bool
    overlaps: Tuple[OverlapEstimate, OverlapEstimate, OverlapEstimate]

    @property
    def d2_std_error(self) -> float:
        """First-order error of d2 from the three overlaps' std_error,
        computed each time it is read."""
        e11, e22, e12 = (o.std_error for o in self.overlaps)
        return math.sqrt(e11 ** 2 + e22 ** 2 + 4.0 * e12 ** 2)


def measure_hsd(
    rho1: DensityMatrix, rho2: DensityMatrix, noise: NoiseModel, stream_key: Sequence[int] = ()
) -> HsdMeasurement:
    """Measure O(1,1), O(2,2), O(1,2) and combine them into the distance."""
    o11 = measure_overlap(rho1, rho1, noise, (*stream_key, 0))
    o22 = measure_overlap(rho2, rho2, noise, (*stream_key, 1))
    o12 = measure_overlap(rho1, rho2, noise, (*stream_key, 2))
    value, d2, clamped = hsd_from_overlaps(o11.value, o22.value, o12.value)
    return HsdMeasurement(value, d2, clamped, (o11, o22, o12))


def plan_measurements(n_qubits: int) -> Dict[str, int]:
    """POVM-setting counts of one distance: 3 overlap configurations with 2^n
    POVMs each, against the 2(D^2 - 1) + 2 settings of two state
    reconstructions."""
    check_n_qubits(n_qubits)
    d = 2 ** n_qubits
    return {"overlap_povms": 3 * d, "tomography_settings": 2 * (d ** 2 - 1) + 2}
