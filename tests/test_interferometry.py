import gc
import itertools
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from qhsd import interferometry
from qhsd.encoding import encode, safe_radius
from qhsd.interferometry import (
    NOISE_MODES,
    EstimationError,
    NoiseModel,
    _configurations,
    _draw_counts,
    _MIX_L,
    _estimate,
    _last_word_terms,
    _pool_states,
    _stream_states,
    _stream_words,
    measure_hsd,
    measure_overlap,
    plan_measurements,
    povm_probabilities,
)
from qhsd.states import (
    MAX_QUBITS,
    BellKind,
    DensityMatrix,
    StateError,
    decode,
    hsd_exact,
    make_bell,
    make_separable,
    make_werner,
    maximally_mixed,
    overlap_exact,
)

from oracles import _joint_matrix, estimate_overlap, joint_state_probabilities, pure_state, random_mixed, tensor


def arrange_joint_state(rho1, rho2):
    """The oracle's per-photon joint state of the two copies as a state."""
    return DensityMatrix(_joint_matrix(rho1, rho2))


@st.composite
def mixed_pairs(draw):
    """Two random density matrices A A^dag / Tr of 1 to 3 qubits."""
    dim = 2 ** draw(st.integers(1, 3))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    pair = []
    for _ in range(2):
        a = np.array(draw(st.lists(entries, min_size=2 * dim * dim, max_size=2 * dim * dim)))
        a = (a[::2] + 1j * a[1::2]).reshape(dim, dim)
        m = a @ a.conj().T
        tr = np.real(np.trace(m))
        pair.append(DensityMatrix(m / tr) if tr > 1e-3 else maximally_mixed(dim))
    return tuple(pair)


def test_singlet_projector_properties():
    s = make_bell(BellKind.PSI_MINUS).matrix
    assert np.abs(s @ s - s).max() < 1e-14
    assert np.trace(s) == pytest.approx(1.0, abs=1e-14)
    assert np.real(np.trace(s @ (np.eye(4) / 4))) == pytest.approx(0.25, abs=1e-14)


def test_identity_minus_two_singlets_is_swap():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.abs(np.eye(4) - 2 * make_bell(BellKind.PSI_MINUS).matrix - swap).max() < 1e-12


def test_arrange_joint_state():
    mm = maximally_mixed(4)
    assert hsd_exact(arrange_joint_state(mm, mm), maximally_mixed(16)) < 1e-12
    out = arrange_joint_state(make_separable("00"), make_separable("11"))
    expected = np.zeros((16, 16))
    expected[0b0101, 0b0101] = 1.0  # photon-grouped order (pol_A, spa_A, pol_B, spa_B)
    assert np.abs(out.matrix - expected).max() < 1e-14
    rng = np.random.default_rng(0)
    a, b = random_mixed(4, rng), random_mixed(4, rng)
    ev1 = np.sort(np.linalg.eigvalsh(tensor(a, b).matrix))
    ev2 = np.sort(np.linalg.eigvalsh(arrange_joint_state(a, b).matrix))
    assert np.abs(ev1 - ev2).max() < 1e-10
    with pytest.raises(StateError):
        arrange_joint_state(mm, maximally_mixed(2))


@settings(max_examples=150, deadline=None)
@given(mixed_pairs())
def test_probabilities_match_joint_state_oracle(pair):
    a, b = pair
    p = povm_probabilities(a, b)
    assert np.abs(p - joint_state_probabilities(a, b)).max() <= 1e-14
    assert p[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all((p >= -1e-14) & (p <= 1.0 + 1e-14))  # [0, 1] up to rounding
    with pytest.raises(StateError):
        povm_probabilities(a, maximally_mixed(2 * a.dim))


def test_povm_probabilities_maximally_mixed():
    mm = maximally_mixed(4)
    p_ii, p_is, p_si, p_ss = povm_probabilities(mm, mm)
    assert p_ii == pytest.approx(1.0, abs=1e-12)
    assert p_si == pytest.approx(0.25, abs=1e-12)
    assert p_is == pytest.approx(0.25, abs=1e-12)
    assert p_ss == pytest.approx(1 / 16, abs=1e-12)


def test_povm_probabilities_identity_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = random_mixed(4, rng), random_mixed(4, rng)
        p_ii, p_is, p_si, p_ss = povm_probabilities(a, b)
        est = 1.0 - 2.0 * (p_si + p_is - 2.0 * p_ss)
        assert abs(est - overlap_exact(a, b)) < 1e-9
        for p in (p_ii, p_si, p_is, p_ss):
            assert -1e-12 <= p <= 1.0 + 1e-12


def test_povm_probabilities_pure_self():
    rng = np.random.default_rng(2)
    psi = pure_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    p_ii, p_is, p_si, p_ss = povm_probabilities(psi, psi)
    assert 1.0 - 2.0 * (p_si + p_is - 2.0 * p_ss) == pytest.approx(1.0, abs=1e-10)


def sample_counts(probabilities, noise):
    """The estimate made of two-qubit coincidence counts drawn for
    probabilities in configuration order (II, IS, SI, SS)."""
    return _estimate(_draw_counts(np.array(probabilities), noise), noise)


def test_sample_counts_exact_mode():
    est = sample_counts((1.0, 0.25, 0.25, 1 / 16), NoiseModel("exact", 1600, 0))
    assert est.counts == (1600, 400, 400, 100)
    assert est.named_counts() == {"f_II": 1600, "f_IS": 400, "f_SI": 400, "f_SS": 100}


def test_sample_counts_seeded_determinism():
    noise = NoiseModel("binomial", 5000, 42)
    c1 = sample_counts((1.0, 0.2, 0.3, 0.05), noise)
    c2 = sample_counts((1.0, 0.2, 0.3, 0.05), noise)
    assert c1 == c2
    c3 = sample_counts((1.0, 0.2, 0.3, 0.05), NoiseModel("binomial", 5000, 43))
    assert c1.counts != c3.counts


def test_sample_counts_binomial_mean():
    p_si = 0.3
    shots = 2000
    vals = [
        sample_counts((1.0, 0.2, p_si, 0.05), NoiseModel("binomial", shots, seed)).named_counts()["f_SI"]
        / shots
        for seed in range(2000)
    ]
    se = np.sqrt(p_si * (1 - p_si) / shots / len(vals))
    assert abs(np.mean(vals) - p_si) < 3 * se


def _seed_stream_rng(seed, key):
    """The stream definition: default_rng of [seed, *key]."""
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


# NoiseModel refuses negative seeds; seeds past 2^64 take three or more words
_SEEDS = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 64, 2 ** 96))
_KEYS = st.lists(st.integers(0, 2 ** 40), max_size=6)
# SeedSequence entropy of 1 to 8 values, some past 2^32 (two words each)
_ENTROPY = st.lists(
    st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ENTROPY, min_size=1, max_size=16))
def test_pool_states_match_generate_state(rows):
    seqs = [np.random.SeedSequence(row) for row in rows]
    states = _pool_states(np.tile([ss.pool for ss in seqs], 2))
    assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
    for ss, state in zip(seqs, states):
        assert state.tolist() == ss.generate_state(4, np.uint64).tolist()


def _n_words(values):
    return len(_stream_words(values[0], values[1:]))


# From 4 words on, configuration c's pool is xorshift(MIX_L * pool - T_L[c])
# of the prefix's pool, T_L the table of the last word's hashed terms.
@settings(max_examples=300, deadline=None)
@given(_ENTROPY.filter(lambda values: _n_words(values) >= 4), st.integers(1, MAX_QUBITS))
@example([1, 2, 3, 4], MAX_QUBITS)  # 4 words: the first shared-prefix case
@example([2 ** 40, 2 ** 63], MAX_QUBITS)  # 4 words from 2 values
@example([2 ** 63] * 8, MAX_QUBITS)  # 16 words, the longest prefix drawn
def test_config_pools_match_seed_sequence(values, n):
    terms = _last_word_terms(_n_words(values))
    assert terms.dtype == np.uint32 and terms.shape == (2 ** MAX_QUBITS, 8)
    assert terms[:, 4:].tolist() == terms[:, :4].tolist()  # the hash reads the pool twice
    prefix = np.random.SeedSequence(_stream_words(values[0], values[1:])).pool
    for c in range(2 ** n):
        x = _MIX_L * prefix - terms[c, :4]
        assert (x ^ x >> 16).tolist() == np.random.SeedSequence([*values, c]).pool.tolist()


@settings(max_examples=300, deadline=None)
@given(_ENTROPY.filter(lambda values: _n_words(values) >= 4), st.integers(1, MAX_QUBITS))
@example([1, 2, 3, 4], MAX_QUBITS)  # 4 words: the first shared-prefix case
@example([2 ** 40, 2 ** 63], MAX_QUBITS)  # 4 words from 2 values
def test_stream_states_match_seed_sequence(values, n):
    states = _stream_states(_stream_words(values[0], values[1:]), 2 ** n)
    assert states.dtype == np.uint64 and states.shape == (2 ** n, 4)
    for c, state in enumerate(states):
        expected = np.random.SeedSequence([*values, c]).generate_state(4, np.uint64)
        assert state.tolist() == expected.tolist()


def _check_stream_state(values):
    """The state _draw_counts seeds each stream of [*values, c] with, at 1 to
    MAX_QUBITS qubits: SeedSequence([*values, c]).generate_state(4, np.uint64),
    seeded alone (1 qubit, or a prefix under 4 words) or from the table."""
    with oracles.recorded_seeds() as seeded:
        for n in range(1, MAX_QUBITS + 1):
            seeded.clear()
            _draw_counts(np.full(2 ** n, 0.5), NoiseModel("binomial", 1000, values[0]), values[1:])
            expected = [np.random.SeedSequence([*values, c]).generate_state(4, np.uint64).tolist() for c in range(2 ** n)]
            assert seeded == expected


def test_stream_state_keeps_its_bits_under_a_tracer():
    # a tracer turns off CPython's specialised integer operations
    with oracles.under_a_tracer():
        _check_stream_state([2 ** 40, 5])  # 3 words: every stream seeded alone
        _check_stream_state([7, 2 ** 40, 3, 1])  # 5 words: alone at 1 qubit, else from the table


@settings(max_examples=100, deadline=None)
@given(
    _SEEDS,
    _KEYS,
    st.sampled_from(["binomial", "poisson"]),
    st.integers(1, MAX_QUBITS),
    st.sampled_from([1, 1000, 100_000]),
)
def test_draw_counts_match_per_config_streams(seed, key, mode, n, shots):
    probs = np.random.default_rng(len(key)).uniform(0.0, 1.0, 2 ** n)
    noise = NoiseModel(mode, shots, seed)
    expected = []
    for i, p in enumerate(probs):
        rng = _seed_stream_rng(seed, (*key, i))
        expected.append(rng.binomial(shots, p) if mode == "binomial" else rng.poisson(shots * p))
    counts = _draw_counts(probs, noise, key)
    assert counts == expected and all(type(c) is float for c in counts)


# Clipped probabilities whose count is certain (0.0, -0.0, and 1.0 under
# binomial) draw no stream; the near-certain ones next to them are drawn.
_CERTAIN_PROBS = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, 0.5, 1.0, 0.0]


@pytest.mark.parametrize("mode", ["binomial", "poisson"])
@pytest.mark.parametrize("seed, key", [(0, ()), (7, (3,)), (2 ** 40, (0, 5, 9)), (1, (2 ** 33, 2 ** 40, 4))])
@pytest.mark.parametrize("shots", [1, 1000, 2 ** 53])
def test_certain_counts_match_per_config_streams(mode, seed, key, shots):
    noise = NoiseModel(mode, shots, seed)
    for probs in (_CERTAIN_PROBS, _CERTAIN_PROBS[::-1], _CERTAIN_PROBS[1:3]):
        expected = []
        for i, p in enumerate(probs):
            rng = _seed_stream_rng(seed, (*key, i))
            expected.append(float(rng.binomial(shots, p) if mode == "binomial" else rng.poisson(shots * p)))
        counts = _draw_counts(np.array(probs), noise, key)
        assert _hex(counts) == _hex(expected)
        assert all(math.copysign(1.0, c) == 1.0 for c in counts)  # never -0.0


@pytest.mark.parametrize("mode", NOISE_MODES)
@pytest.mark.parametrize("probs", [[-0.0, 1.0], [1.0, -0.0, 0.5, -0.0], [1.0] + [-0.0] * 15])
def test_negative_zero_probability_counts_positive_zero(mode, probs):
    # Python's max(-0.0, 0.0) keeps -0.0 where np.maximum gives 0.0; a
    # count of -0.0 would print as -0.0 in the reports
    counts = _draw_counts(np.array(probs), NoiseModel(mode, 1000, 3), (2 ** 33,))
    assert [c for c, p in zip(counts, probs) if p == 0.0] == [0.0] * probs.count(0.0)
    assert all(math.copysign(1.0, c) == 1.0 for c in counts)


@pytest.mark.parametrize("mode", ["binomial", "poisson"])
def test_nan_probability_still_raises(mode):
    for probs in ([0.0, np.nan], [1.0, np.nan, 0.0, 1.0], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="NaN"):
            _draw_counts(np.array(probs), NoiseModel(mode, 1000, 0), (1, 2))


@st.composite
def overlap_cases(draw):
    """Two random 1-4 qubit states, each mixed (A A^dag / Tr) or pure, a noise
    model of any mode and a stream key."""
    dim = 2 ** draw(st.integers(1, MAX_QUBITS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pair = []
    for _ in range(2):
        if draw(st.booleans()):
            pair.append(random_mixed(dim, rng))
        else:
            pair.append(pure_state(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
    noise = NoiseModel(
        draw(st.sampled_from(NOISE_MODES)),
        draw(st.sampled_from([1, 7, 1000, 100_000, 2 ** 53])),
        draw(_SEEDS),
    )
    return (*pair, noise, draw(_KEYS))


@settings(max_examples=150, deadline=None)
@given(overlap_cases())
def test_measure_overlap_counts_and_estimate(case):
    a, b, noise, key = case
    probs = np.clip(povm_probabilities(a, b), 0.0, 1.0)
    if noise.mode == "exact":
        expected = (noise.shots * probs).tolist()
    else:
        expected = []
        for i, p in enumerate(probs):
            rng = _seed_stream_rng(noise.seed, (*key, i))
            draw = rng.binomial(noise.shots, p) if noise.mode == "binomial" else rng.poisson(noise.shots * p)
            expected.append(float(draw))
    if expected[0] <= 0:
        with pytest.raises(EstimationError, match=re.escape(f"at stream key {tuple(key)}:")):
            measure_overlap(a, b, noise, key)
        return
    est = measure_overlap(a, b, noise, key)
    assert est.counts == tuple(expected) and est.noise == noise
    assert len(est.counts) == a.dim
    assert all(0.0 <= c < np.inf for c in est.counts)
    if noise.mode != "exact":
        assert all(c == int(c) for c in est.counts)
    if noise.mode == "binomial":
        # what lets the estimator take counts / shots as a probability unclipped
        assert all(0 <= c <= noise.shots for c in est.counts)
    value, std_error = estimate_overlap(est.counts, noise.shots, noise.mode)
    assert (est.value.hex(), est.std_error.hex()) == (value.hex(), std_error.hex())
    assert est.clamped == (not 0.0 <= value <= 1.0)


def _check_stream_contract(n, seed, key):
    """measure_overlap's counts under both stochastic modes, for pairs of
    n-qubit states whose probabilities include 0, 1, tiny values, a negative
    one clipped to 0 (at n = 3) and values in between: configuration c's count is the draw of the stream
    default_rng([seed, *key, c]) at its clipped probability p_c, and a
    certain count (p_c = 0, or p_c = 1 under binomial) is 0 or the shots and
    draws no stream (no PCG64 is made for it)."""
    d = 2 ** n
    rng = np.random.default_rng(n)
    first, last = pure_state(np.eye(d)[0]), pure_state(np.eye(d)[-1])
    mixed = random_mixed(d, rng)
    pure = pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    made = []

    class CountingPCG64(np.random.PCG64):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    for a, b in [(first, first), (first, last), (first, mixed), (mixed, last), (pure, pure), (mixed, pure)]:
        probs = [min(max(p, 0.0), 1.0) for p in povm_probabilities(a, b).tolist()]
        for mode in ("binomial", "poisson"):
            expected, drawn = [], 0
            for c, p in enumerate(probs):
                if p == 0.0 or (mode == "binomial" and p == 1.0):
                    expected.append(1000.0 if p else 0.0)
                    continue
                stream = np.random.default_rng([seed, *key, c])
                expected.append(float(stream.binomial(1000, p) if mode == "binomial" else stream.poisson(1000 * p)))
                drawn += 1
            made.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(np.random, "PCG64", CountingPCG64)
                counts = measure_overlap(a, b, NoiseModel(mode, 1000, seed), key).counts
            assert counts == tuple(expected)
            assert len(made) == drawn


# prefixes [seed, *key] of 1 to 7 words with entries past 2^32, on both sides
# of the 4-word boundary between seeding each stream alone and the prefix's
# table: 2 words for the single-pair CLI key (0, (2,)), exactly 4 for (5, (1, 2, 3))
_CONTRACT_KEYS = [
    (0, ()), (7, (2 ** 33,)), (2 ** 40, (3, 2 ** 33, 5)), (1, (2 ** 32, 2 ** 40, 4, 9)), (0, (2,)), (5, (1, 2, 3)),
]


@pytest.mark.parametrize("seed, key", _CONTRACT_KEYS)
@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_measure_overlap_counts_follow_the_stream_contract(n, seed, key):
    _check_stream_contract(n, seed, key)


def test_measure_overlap_counts_follow_the_stream_contract_under_a_tracer():
    # a tracer turns off CPython's specialised integer operations
    with oracles.under_a_tracer():
        for n in range(1, MAX_QUBITS + 1):
            for seed, key in _CONTRACT_KEYS:
                _check_stream_contract(n, seed, key)


def _overlap_outcome(rho, noise, key):
    """Every bit of measure_overlap(rho, rho, ...), or its EstimationError."""
    try:
        est = measure_overlap(rho, rho, noise, key)
    except EstimationError as exc:
        return str(exc)
    return _hex([est.value, est.std_error, *est.counts]), est.clamped, est.noise


def _pauli_coordinates(rho):
    """(1, sqrt(2D) decode(rho)), computed afresh."""
    return np.concatenate(([1.0], math.sqrt(2 * rho.dim) * decode(rho)))


@settings(max_examples=150, deadline=None)
@given(overlap_cases())
def test_coordinates_are_kept_per_state(case):
    # a state's Pauli coordinates are computed on their first read, by its
    # first overlap, and kept by the state; a fresh state with the same
    # matrix computes its own, and every outcome agrees bit for bit
    a, _, noise, key = case
    first = _overlap_outcome(a, noise, key)
    assert "pauli_coordinates" in vars(a)
    kept = a.pauli_coordinates
    assert _overlap_outcome(a, noise, key) == first
    assert a.pauli_coordinates is kept
    fresh = DensityMatrix(a.matrix)
    assert "pauli_coordinates" not in vars(fresh)
    assert _overlap_outcome(fresh, noise, key) == first
    assert _hex(kept) == _hex(_pauli_coordinates(a))


def _checked_coordinate_bits(rho):
    """The bits of rho.pauli_coordinates, checked to be one read-only array
    that the caller's decode and probabilities do not share."""
    probs = povm_probabilities(rho, rho)
    kept = rho.pauli_coordinates
    assert rho.pauli_coordinates is kept
    assert not kept.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kept[0] = 0.5
    fresh = decode(rho)
    assert fresh.flags.writeable and not np.shares_memory(fresh, kept)
    assert probs.flags.writeable and not np.shares_memory(probs, kept)
    fresh[0] = probs[0] = 0.5  # the caller's copies; the state keeps its own
    return _hex(kept)


def test_coordinates_are_read_only_and_private():
    # at 1-4 qubits, warm and under a tracer, the kept coordinates are
    # (1, sqrt(2D) decode(rho)) bit for bit
    rhos = [random_mixed(2 ** n, np.random.default_rng(3)) for n in range(1, MAX_QUBITS + 1)]
    warm = [_checked_coordinate_bits(rho) for rho in rhos]
    assert warm == [_hex(_pauli_coordinates(rho)) for rho in rhos]
    with oracles.under_a_tracer():
        traced = [_checked_coordinate_bits(DensityMatrix(rho.matrix)) for rho in rhos]
    assert traced == warm


def test_coordinates_go_with_their_state():
    rho = random_mixed(8, np.random.default_rng(4))
    measure_overlap(rho, rho, NoiseModel("exact", 1000, 0))
    state, coords = weakref.ref(rho), weakref.ref(rho.pauli_coordinates)
    del rho
    gc.collect()
    assert state() is None and coords() is None


def _hsd_outcome(a, b, noise, key):
    """Every bit of measure_hsd(a, b, ...), or its EstimationError."""
    try:
        m = measure_hsd(a, b, noise, key)
    except EstimationError as exc:
        return str(exc)
    overlaps = [(_hex([o.value, o.std_error, *o.counts]), o.clamped) for o in m.overlaps]
    return _hex([m.value, m.d2, m.d2_std_error]), m.clamped, overlaps


@settings(max_examples=150, deadline=None)
@given(overlap_cases())
def test_kept_self_probabilities_match_fresh_ones(case):
    # a state's self-overlap probabilities are computed by its first self-
    # overlap and kept on the state, read-only, for the next; counts, values
    # and errors agree bit for bit with those of probabilities computed afresh
    # for every overlap, on the first pass, warm and under a tracer
    a, b, noise, key = case
    pairs = [(a, b), (b, a), (a, a)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DensityMatrix, "self_probabilities", property(lambda rho: povm_probabilities(rho, rho)))
        fresh = [_hsd_outcome(x, y, noise, key) for x, y in pairs]
    assert "self_probabilities" not in vars(a) and "self_probabilities" not in vars(b)
    assert [_hsd_outcome(x, y, noise, key) for x, y in pairs] == fresh
    kept = [vars(a)["self_probabilities"], vars(b)["self_probabilities"]]
    for rho, probs in zip((a, b), kept):
        assert not probs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            probs[0] = 0.5
        # povm_probabilities itself still hands out a fresh, writable array
        again = povm_probabilities(rho, rho)
        assert again.flags.writeable and not np.shares_memory(again, probs)
        assert _hex(again) == _hex(probs)
    assert [_hsd_outcome(x, y, noise, key) for x, y in pairs] == fresh
    with oracles.under_a_tracer():
        assert [_hsd_outcome(x, y, noise, key) for x, y in pairs] == fresh
    assert a.self_probabilities is kept[0] and b.self_probabilities is kept[1]


def test_self_probabilities_go_with_their_states(monkeypatch):
    # a state's kept probabilities keep nothing alive: they are gone once
    # their states are dropped, also after a simulated k-means run, whose
    # every distance measures two self-overlaps
    from qhsd.clustering import SimulatedHsdBackend, kmeans, two_gaussian_demo

    rng = np.random.default_rng(8)
    rhos = [random_mixed(2 ** n, rng) for n in range(1, MAX_QUBITS + 1) for _ in range(2)]
    for a, b in zip(rhos[::2], rhos[1::2]):
        measure_hsd(a, b, NoiseModel("binomial", 1000, 0))
    kept = [weakref.ref(obj) for rho in rhos for obj in (rho, vars(rho)["self_probabilities"])]
    del rhos, a, b
    gc.collect()
    assert [ref() for ref in kept] == [None] * len(kept)
    computed, kept = [], []

    def counted(x, y):
        computed.append(x is y)
        probs = povm_probabilities(x, y)
        if x is y:
            kept.extend([weakref.ref(x), weakref.ref(probs)])
        return probs

    monkeypatch.setattr(interferometry, "povm_probabilities", counted)
    monkeypatch.setattr("qhsd.states.povm_probabilities", counted)
    backend = SimulatedHsdBackend(NoiseModel("binomial", 1000, 0))
    result = kmeans(two_gaussian_demo(12, seed=1), 2, max_iter=3, backend=backend)
    # each point's and each iteration's centroids' once, against two per distance
    assert 0 < sum(computed) <= 12 + 2 * result.iterations < len(computed)
    gc.collect()
    assert [ref() for ref in kept] == [None] * len(kept)


@st.composite
def product_cases(draw):
    """Two 1-4 qubit states, each random mixed, pure with some amplitudes
    exactly zero, diagonal with -0.0 everywhere off the diagonal, or the
    encoding of a vector with some components 0.0 or -0.0, optionally in
    Fortran order; shots, a seed and a stream key for the counts."""
    dim = 2 ** draw(st.integers(1, MAX_QUBITS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pair = []
    for kind in draw(st.lists(st.sampled_from(["mixed", "pure", "diagonal", "encoded"]), min_size=2, max_size=2)):
        if kind == "mixed":
            m = random_mixed(dim, rng).matrix
        elif kind == "pure":
            v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) * (rng.random(dim) < 0.6)
            v[0] += not v.any()
            m = pure_state(v).matrix
        elif kind == "diagonal":
            m = np.full((dim, dim), complex(-0.0, -0.0))
            np.fill_diagonal(m, rng.dirichlet(np.ones(dim)))
        else:
            u = rng.uniform(-1.0, 1.0, dim * dim - 1) * safe_radius(dim) / math.sqrt(dim * dim - 1)
            u[rng.random(u.size) < 0.4] = 0.0
            u[rng.random(u.size) < 0.3] = -0.0
            m = encode(u).matrix
        pair.append(DensityMatrix(np.asfortranarray(m) if draw(st.booleans()) else m))
    return (*pair, draw(st.sampled_from([1, 7, 1000, 100_000, 2 ** 53])), draw(_SEEDS), draw(_KEYS))


def _hex(values):
    return [float(x).hex() for x in np.ravel(values)]


@settings(max_examples=200, deadline=None)
@given(product_cases())
def test_dot_products_match_matmul_oracles_bit_for_bit(case):
    # hsd_exact, overlap_exact and the estimator form their small products
    # with ndarray.dot; the oracles form them with @.  The probabilities
    # agree with the joint state's, and the identity configuration is certain.
    a, b, shots, seed, key = case
    for x, y in ((a, b), (b, a), (a, a)):
        assert _hex(hsd_exact(x, y)) == _hex(oracles.hsd_exact(x, y))
        assert _hex(overlap_exact(x, y)) == _hex(oracles.overlap_exact(x, y))
        probs = povm_probabilities(x, y)
        assert np.abs(probs - joint_state_probabilities(x, y)).max() <= 1e-14
        assert probs[0] == 1.0
        for mode in NOISE_MODES:
            noise = NoiseModel(mode, shots, seed)
            counts = _draw_counts(probs, noise, key)
            if counts[0] > 0:
                est = _estimate(counts, noise, key)
                value, std_error = estimate_overlap(counts, shots, mode)
                assert _hex([est.value, est.std_error]) == _hex([value, std_error])


def test_stream_rng_rejects_negative_key():
    for key in [(-1,), (3, -(2 ** 40))]:
        with pytest.raises(ValueError):
            _seed_stream_rng(0, key)
        with pytest.raises(ValueError):
            _stream_words(0, key)
    with pytest.raises(ValueError):
        _stream_words(-1, ())


def test_stream_key_entries_must_be_integers():
    # int() would read these as the keys (1, 2), (0, 2), (1, 2) and (1, 2)
    a, b = make_werner(0.2), make_werner(0.7)
    noise = NoiseModel("binomial", 1000, 5)
    for key in [(1.5, 2), (-0.5, 2), "12", (np.float64(1.0), 2)]:
        with pytest.raises(TypeError):
            measure_overlap(a, b, noise, key)
    for key in [(1, 2), (0, 2 ** 40)]:
        numpy_key = tuple(np.int64(k) for k in key)
        assert measure_overlap(a, b, noise, numpy_key) == measure_overlap(a, b, noise, key)


def _check_identity_configuration(a, b, shots, seed, key):
    """p_II is exactly 1 for (a, b), (b, a) and (a, a): exact mode counts
    f_II = shots, and binomial noise draws configuration 0's count from no
    stream (no Generator is seeded with its state)."""
    first = np.random.SeedSequence([seed, *key, 0]).generate_state(4, np.uint64).tolist()
    for x, y in ((a, b), (b, a), (a, a)):
        assert povm_probabilities(x, y)[0] == 1.0
        assert measure_overlap(x, y, NoiseModel("exact", shots, seed), key).counts[0] == shots
        with oracles.recorded_seeds() as seeded:
            est = measure_overlap(x, y, NoiseModel("binomial", shots, seed), key)
        assert est.counts[0] == shots and first not in seeded


@settings(max_examples=100, deadline=None)
@given(product_cases())
def test_identity_configuration_is_certain(case):
    _check_identity_configuration(*case)


def test_identity_configuration_is_certain_under_a_tracer():
    # fresh states, so their coordinates are computed under the tracer too
    u = np.array([0.05, -0.0, 0.0, 0.02, 0.0, -0.03, 0.0, 0.01, -0.0, 0.0, 0.04, 0.0, 0.0, -0.02, 0.0])
    with oracles.under_a_tracer():
        a = DensityMatrix(encode(u).matrix)
        b = pure_state([0.6, 0.0, 0.8j, -0.0])
        _check_identity_configuration(a, b, 1000, 2 ** 40, (3, 2 ** 33))


def test_povm_weights_qubit_range():
    for n in (0, MAX_QUBITS + 1):
        with pytest.raises(StateError, match=f"^n_qubits={n} outside supported range 1..4$"):
            _configurations(n)


def test_estimate_overlap_arithmetic():
    est = _estimate([1600.0, 400.0, 400.0, 100.0], NoiseModel("binomial", 1600, 0))
    assert est.value == pytest.approx(0.25, abs=1e-12)
    assert not est.clamped
    quiet = _estimate([1000.0, 0.0, 0.0, 0.0], NoiseModel("binomial", 1000, 0))
    assert quiet.value == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EstimationError):
        _estimate([0.0, 1.0, 1.0, 1.0], NoiseModel("binomial", 10, 0))


def _exact_counts(n, seed):
    """Unrounded expected counts of an n-qubit pair of random mixed states."""
    rng = np.random.default_rng(seed)
    probs = povm_probabilities(random_mixed(2 ** n, rng), random_mixed(2 ** n, rng))
    return (1000 * np.clip(probs, 0.0, 1.0)).tolist()


@pytest.mark.parametrize("counts, mode, shots", [
    ([1000.0, 1000.0, 3.0, 0.0], "binomial", 1000),  # a count equal to shots
    ([1000.0, 17.0, 1000.0, 1000.0], "binomial", 1000),
    ([640.0, 0.0, 0.0, 0.0], "binomial", 1000),  # every non-II count 0
    ([2.0 ** 53, 2.0 ** 52, 12345.0, 1.0], "binomial", 2 ** 53),
    ([2.0 ** 53 - 1, 2.0 ** 53, 0.0, 2.0 ** 50 + 3], "binomial", 2 ** 53),
    # squaring w / f_II with Python's ** (libm pow) would change these std_errors
    ([2947.0, 81.0], "binomial", 100_000),
    ([5377.0, 4860.0, 1093.0, 2700.0], "binomial", 100_000),
    ([1012.0, 1003.0, 20.0, 0.0], "poisson", 1000),  # Poisson counts may pass shots
    ([3.0, 1.0, 0.0, 2.0, 5.0, 1.0, 0.0, 1.0], "poisson", 2),
    ([1.0, 0.0], "poisson", 1),
    (_exact_counts(3, 0), "exact", 1000),
    (_exact_counts(4, 1), "exact", 1000),
])
def test_estimate_edge_cases_match_oracle(counts, mode, shots):
    est = _estimate(counts, NoiseModel(mode, shots, 0))
    value, std_error = estimate_overlap(counts, shots, mode)
    assert (est.value.hex(), est.std_error.hex()) == (value.hex(), std_error.hex())
    assert est.counts == tuple(counts)


def test_estimate_overlap_refuses_unknown_mode():
    for mode in ("bogus", "binomal", "Poisson"):
        with pytest.raises(StateError, match=f"^unknown noise mode {mode!r}$"):
            NoiseModel(mode, 1000, 0)
    counts = [1000.0, 10.0, 12.0, 1.0]
    errors = [_estimate(counts, NoiseModel(mode, 1000, 0)).std_error for mode in NOISE_MODES]
    assert errors[0] == 0.0 and errors[1] != errors[2]


@pytest.mark.parametrize("field, value", [
    ("shots", 2.5),
    ("shots", True),
    ("shots", "1000"),
    ("shots", np.bool_(True)),
    ("shots", np.float64(1000.0)),
    ("shots", None),
    ("shots", "10"),
    ("shots", np.float64(10.0)),
    ("shots", -3),
    ("seed", 1.5),
    ("seed", False),
    ("seed", None),
    ("seed", -1),
    ("shots", 0),
    ("shots", 2 ** 53 + 1),
])
def test_noise_model_requires_integer_shots_and_seed(field, value):
    rule = {
        ("seed", -1): "must be >= 0, got -1",
        ("shots", -3): "must be >= 1, got -3",
        ("shots", 0): "must be >= 1, got 0",
        ("shots", 2 ** 53 + 1): "must be <= 2^53, got 9007199254740993",
    }.get((field, value), "must be an integer")
    with pytest.raises(StateError, match=f"^{field} {re.escape(rule)}"):
        NoiseModel(**{"mode": "binomial", "shots": 1000, "seed": 1, field: value})


def test_noise_model_checks_shots_before_seed():
    with pytest.raises(StateError, match="shots must be an integer"):
        NoiseModel("binomial", 2.5, 1.5)


def test_noise_model_accepts_numpy_integers():
    a, b = make_werner(0.2), make_werner(0.7)
    numpy_ints = NoiseModel("binomial", np.int64(1000), np.uint32(7))
    assert measure_hsd(a, b, numpy_ints) == measure_hsd(a, b, NoiseModel("binomial", 1000, 7))
    with pytest.raises(StateError, match="shots must be >= 1, got 0"):
        NoiseModel("binomial", np.int32(0), 7)


@pytest.mark.parametrize("shots", [0, -3, 2.5, True, "10", None, np.float64(10.0), 2 ** 53 + 1])
def test_coincidence_counts_refuse_bad_shots(shots):
    # NoiseModel is the one owner of the shots rule on the count path
    with pytest.raises(StateError, match="^shots must be"):
        NoiseModel("binomial", shots, 0)


@pytest.mark.parametrize("mode", NOISE_MODES)
def test_shots_are_bounded_by_two_to_the_53(mode):
    # float64 counts hold integers exactly only up to 2^53
    a, b = make_bell(BellKind.PHI_PLUS), make_bell(BellKind.PHI_MINUS)
    assert measure_overlap(a, b, NoiseModel(mode, 2 ** 53, 0)).noise.shots == 2 ** 53
    for shots in (2 ** 53 + 1, 2 ** 63, 10 ** 400):
        with pytest.raises(StateError, match=f"^shots must be <= 2\\^53, got {shots}$"):
            NoiseModel(mode, shots, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coincidence_counts_of_every_qubit_count(n):
    est = _estimate([10.0] + [0.0] * (2 ** n - 1), NoiseModel("binomial", 10, 0))
    assert list(est.named_counts()) == ["f_" + "".join(c) for c in itertools.product("IS", repeat=n)]
    assert est.value == 1.0


def test_overlap_coverage_orthogonal_bells():
    a = make_bell(BellKind.PHI_PLUS)
    b = make_bell(BellKind.PHI_MINUS)
    hits = 0
    for seed in range(300):
        est = measure_overlap(a, b, NoiseModel("binomial", 100_000, seed))
        if abs(est.value - 0.0) <= 3 * est.std_error or est.std_error == 0:
            hits += 1
    assert hits >= 297


def test_measure_hsd_exact_mode():
    noise = NoiseModel("exact", 1000, 0)
    m = measure_hsd(make_bell(BellKind.PHI_PLUS), make_bell(BellKind.PHI_MINUS), noise)
    assert m.value == pytest.approx(np.sqrt(2), abs=1e-9)
    assert m.d2_std_error == 0.0
    rng = np.random.default_rng(4)
    rho = random_mixed(4, rng)
    assert measure_hsd(rho, rho, noise).value == pytest.approx(0.0, abs=1e-9)
    m = measure_hsd(make_werner(0.3), make_werner(0.9), noise)
    assert m.value == pytest.approx(np.sqrt(0.27), abs=1e-9)


def test_measure_hsd_exact_matches_oracle_random():
    noise = NoiseModel("exact", 1000, 0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = random_mixed(4, rng), random_mixed(4, rng)
        m = measure_hsd(a, b, noise)
        assert abs(m.value - hsd_exact(a, b)) < 1e-9


def test_measure_hsd_single_qubit():
    noise = NoiseModel("exact", 1000, 0)
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = random_mixed(2, rng), random_mixed(2, rng)
        assert abs(measure_hsd(a, b, noise).value - hsd_exact(a, b)) < 1e-9


def test_measure_hsd_seeded_reproducibility():
    noise = NoiseModel("poisson", 10_000, 9)
    a, b = make_werner(0.2), make_werner(0.7)
    m1 = measure_hsd(a, b, noise)
    m2 = measure_hsd(a, b, noise)
    assert m1 == m2


def test_std_error_tracks_empirical_spread():
    a = maximally_mixed(4)
    b = make_werner(0.5)
    shots = 10_000
    vals, errs = [], []
    for seed in range(400):
        est = measure_overlap(a, b, NoiseModel("binomial", shots, seed))
        vals.append(est.value)
        errs.append(est.std_error)
    assert np.std(vals) == pytest.approx(np.mean(errs), rel=0.15)


class _ErrorComputed(Exception):
    pass


def test_discarding_paths_never_compute_an_error(monkeypatch, tmp_path):
    # simulated k-means and the binomial grids read d2 only, so they must
    # never reach the std_error computation
    from qhsd import cli
    from qhsd.clustering import SimulatedHsdBackend, kmeans, two_gaussian_demo

    backend = SimulatedHsdBackend(NoiseModel("binomial", 1000, 0))
    u, v = np.array([0.1, -0.2, 0.05]), np.array([-0.1, 0.15, 0.0])
    points = two_gaussian_demo(12, seed=1)

    def outputs(out_dir):
        d2 = backend.distance_sq(u, v, (0, 1, 2))
        result = kmeans(points, 2, max_iter=4, backend=backend)
        argv = ["reproduce", "werner_grid", "--noise", "binomial", "--shots", "1000"]
        assert cli.main([*argv, "--out-dir", str(out_dir)]) == 0
        return (
            d2.hex(), result.labels.tolist(), result.centroids.tobytes(), result.cost.hex(),
            (out_dir / "werner_grid.csv").read_bytes(),
        )

    def refuse(self):
        raise _ErrorComputed

    before = outputs(tmp_path / "before")
    monkeypatch.setattr(interferometry.OverlapEstimate, "std_error", property(refuse))
    assert outputs(tmp_path / "after") == before
    m = measure_hsd(encode(u), encode(v), NoiseModel("binomial", 1000, 0))
    with pytest.raises(_ErrorComputed):
        m.overlaps[2].std_error
    with pytest.raises(_ErrorComputed):
        m.d2_std_error


def _checked_error_bits(shots):
    """hex of every overlap's std_error and of d2_std_error, 1 to 4 qubits
    in each noise mode, each checked against the oracle formulas."""
    rng = np.random.default_rng(29)
    bits = []
    for n in range(1, MAX_QUBITS + 1):
        a, b = random_mixed(2 ** n, rng), random_mixed(2 ** n, rng)
        for mode in NOISE_MODES:
            m = measure_hsd(a, b, NoiseModel(mode, shots, n), (n,))
            errors = [estimate_overlap(o.counts, shots, mode)[1] for o in m.overlaps]
            assert _hex([o.std_error for o in m.overlaps]) == _hex(errors)
            e11, e22, e12 = errors
            d2_err = math.sqrt(e11 ** 2 + e22 ** 2 + 4.0 * e12 ** 2)
            assert m.d2_std_error.hex() == d2_err.hex()
            assert (mode == "exact") == (d2_err == 0.0)
            bits.append(_hex([*errors, d2_err]))
    return bits


@pytest.mark.parametrize("shots", [1000, 100_000])
def test_errors_keep_their_bits_under_a_tracer(shots):
    # both errors are computed when read: read warm, then with a tracer
    # (which keeps CPython from specialising its float operations), they
    # keep the bits of the oracle formulas
    warm = _checked_error_bits(shots)
    assert _checked_error_bits(shots) == warm
    with oracles.under_a_tracer():
        traced = _checked_error_bits(shots)
    assert traced == warm


def test_shot_scaling_minus_half():
    a, b = make_werner(0.4), make_werner(0.8)
    shot_grid = [1000, 10_000, 100_000]
    stds = []
    for shots in shot_grid:
        vals = [
            measure_overlap(a, b, NoiseModel("binomial", shots, seed)).value
            for seed in range(200)
        ]
        stds.append(np.std(vals))
    slope = np.polyfit(np.log(shot_grid), np.log(stds), 1)[0]
    assert abs(slope + 0.5) < 0.05


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda n: st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n + 1), max_size=2 ** (n + 1))
))
def test_measure_overlap_exact_pure_self_overlap(entries):
    # off-diagonal products make some rates round just below 0
    a = np.array(entries)
    if np.linalg.norm(a) < 1e-3:
        return
    psi = pure_state(a[::2] + 1j * a[1::2])
    est = measure_overlap(psi, psi, NoiseModel("exact", 10_000, 0))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_plan_measurements():
    # 3 overlaps of 2^n POVMs, against 2(D^2 - 1) + 2 tomography settings
    assert plan_measurements(1) == {"overlap_povms": 6, "tomography_settings": 8}
    assert plan_measurements(2) == {"overlap_povms": 12, "tomography_settings": 32}
    assert plan_measurements(3) == {"overlap_povms": 24, "tomography_settings": 128}
    assert list(plan_measurements(4)) == ["overlap_povms", "tomography_settings"]


@pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
def test_plan_measurements_qubit_range(n):
    with pytest.raises(StateError, match=f"n_qubits={n} outside supported range 1..{MAX_QUBITS}"):
        plan_measurements(n)


def test_povm_probabilities_rejects_non_qubit_dimension():
    # the 3x3 is refused when it is built, so it never reaches povm_probabilities
    with pytest.raises(StateError, match="dimension 3 is not a power of two"):
        DensityMatrix(np.eye(3) / 3)


@pytest.mark.parametrize("m, message", [
    (np.eye(3) / 3, "dimension 3 is not a power of two in 2..16"),
    (np.diag([1.0, 0.0, 0.0]), "dimension 3 is not a power of two in 2..16"),
    (np.eye(32) / 32, "dimension 32 is not a power of two in 2..16"),
    (np.ones((2, 4)) / 4, "expected a square matrix, got shape (2, 4)"),
    (np.eye(2)[None] / 2, "expected a square matrix, got shape (1, 2, 2)"),
])
def test_distances_cannot_receive_a_non_qubit_state(m, message):
    # hsd_exact took two 3x3 states (0.816 for I/3 against diag(1, 0, 0))
    for distance in (hsd_exact, lambda a, b: measure_hsd(a, b, NoiseModel("binomial", 1000, 0))):
        with pytest.raises(StateError) as got:
            distance(DensityMatrix(m), maximally_mixed(2))
        assert str(got.value) == message
