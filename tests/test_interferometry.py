import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhsd.interferometry import (
    CoincidenceCounts,
    NOISE_MODES,
    EstimationError,
    NoiseModel,
    _draw_counts,
    _pool_states,
    _povm_functional,
    _stream,
    _stream_words,
    estimate_overlap,
    measure_hsd,
    measure_overlap,
    plan_measurements,
    povm_probabilities,
    singlet_projector,
)
from qhsd.states import (
    MAX_QUBITS,
    BellKind,
    DensityMatrix,
    StateError,
    hsd_exact,
    make_bell,
    make_separable,
    make_werner,
    maximally_mixed,
    overlap_exact,
    pure_state,
)

from oracles import permute_qubits, random_mixed, tensor


# Reference for the configuration probabilities: the joint state of the two
# copies with each photon's POVM operator applied to it explicitly.

def arrange_joint_state(rho1, rho2):
    """Joint state of the two copies, regrouped per photon: qubit k of rho1
    and qubit k of rho2 sit next to each other (photon k)."""
    if rho1.dim != rho2.dim:
        raise StateError(f"dimension mismatch: {rho1.dim} vs {rho2.dim}")
    n = rho1.n_qubits
    order = [q for k in range(n) for q in (k, n + k)]
    return permute_qubits(tensor(rho1, rho2), order)


def joint_state_probabilities(rho1, rho2):
    """Tr(P_c joint) for every configuration c, in binary-counting order
    (photon A is the high bit, 1 = singlet)."""
    joint = arrange_joint_state(rho1, rho2).matrix
    probs = []
    for cfg in itertools.product((0, 1), repeat=rho1.n_qubits):
        op = np.ones((1, 1))
        for bit in cfg:
            op = np.kron(op, singlet_projector() if bit else np.eye(4))
        probs.append(np.real(np.trace(op @ joint)))
    return np.array(probs)


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
    s = singlet_projector()
    assert np.abs(s @ s - s).max() < 1e-14
    assert np.trace(s) == pytest.approx(1.0, abs=1e-14)
    assert np.real(np.trace(s @ (np.eye(4) / 4))) == pytest.approx(0.25, abs=1e-14)


def test_identity_minus_two_singlets_is_swap():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.abs(np.eye(4) - 2 * singlet_projector() - swap).max() < 1e-12


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
    """Two-qubit coincidence counts for probabilities in configuration order
    (II, IS, SI, SS)."""
    counts = _draw_counts(np.array(probabilities), noise)
    return CoincidenceCounts(tuple(counts.tolist()), noise.shots)


def test_sample_counts_exact_mode():
    counts = sample_counts((1.0, 0.25, 0.25, 1 / 16), NoiseModel("exact", 1600, 0))
    assert counts.rates == (1600, 400, 400, 100)
    assert counts.named() == {"f_II": 1600, "f_IS": 400, "f_SI": 400, "f_SS": 100}


def test_sample_counts_seeded_determinism():
    noise = NoiseModel("binomial", 5000, 42)
    c1 = sample_counts((1.0, 0.2, 0.3, 0.05), noise)
    c2 = sample_counts((1.0, 0.2, 0.3, 0.05), noise)
    assert c1 == c2
    c3 = sample_counts((1.0, 0.2, 0.3, 0.05), NoiseModel("binomial", 5000, 43))
    assert c1 != c3


def test_sample_counts_binomial_mean():
    p_si = 0.3
    shots = 2000
    vals = [
        sample_counts((1.0, 0.2, p_si, 0.05), NoiseModel("binomial", shots, seed)).named()["f_SI"]
        / shots
        for seed in range(2000)
    ]
    se = np.sqrt(p_si * (1 - p_si) / shots / len(vals))
    assert abs(np.mean(vals) - p_si) < 3 * se


def _seed_stream_rng(seed, key):
    """The stream definition: default_rng of [seed mod 2^64, *key]."""
    return np.random.default_rng([int(seed) & (2 ** 64 - 1), *[int(k) for k in key]])


_SEEDS = st.integers(-(2 ** 63), 2 ** 64 - 1)
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
    states = _pool_states(np.stack([ss.pool for ss in seqs]))
    assert states.dtype == np.uint64 and states.shape == (len(rows), 4)
    for ss, state in zip(seqs, states):
        assert state.tolist() == ss.generate_state(4, np.uint64).tolist()


def _stream_of(seed, key):
    words = _stream_words(seed, key)
    return _stream(_pool_states(np.random.SeedSequence(words).pool[None])[0])


@settings(max_examples=200, deadline=None)
@given(_SEEDS, _KEYS, st.integers(1, 10 ** 6), st.floats(0.0, 1.0), st.floats(0.0, 1e4))
def test_stream_rng_matches_default_rng(seed, key, shots, p, lam):
    rng, oracle = _stream_of(seed, key), _seed_stream_rng(seed, key)
    assert rng.binomial(shots, p, size=3).tolist() == oracle.binomial(shots, p, size=3).tolist()
    assert rng.poisson(lam, size=3).tolist() == oracle.poisson(lam, size=3).tolist()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2 ** 65),  # NoiseModel refuses negative seeds; past 2^64 they wrap
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
    assert _draw_counts(probs, noise, key).tolist() == expected


def test_stream_rng_rejects_negative_key():
    for key in [(-1,), (3, -(2 ** 40))]:
        with pytest.raises(ValueError):
            _seed_stream_rng(0, key)
        with pytest.raises(ValueError):
            _stream_words(0, key)


def test_povm_functional_qubit_range():
    for n in (0, MAX_QUBITS + 1):
        with pytest.raises(StateError, match=f"^n_qubits={n} outside supported range 1..4$"):
            _povm_functional(n)


def test_estimate_overlap_arithmetic():
    counts = CoincidenceCounts((1600, 400, 400, 100), 1600)
    est = estimate_overlap(counts, "binomial")
    assert est.value == pytest.approx(0.25, abs=1e-12)
    assert not est.clamped
    quiet = estimate_overlap(CoincidenceCounts((1000, 0, 0, 0), 1000), "binomial")
    assert quiet.value == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EstimationError):
        estimate_overlap(CoincidenceCounts((0, 1, 1, 1), 10), "binomial")


def test_estimate_overlap_refuses_unknown_mode():
    counts = CoincidenceCounts((1000.0, 10.0, 12.0, 1.0), 1000)
    for mode in ("bogus", "binomal", "Poisson"):
        with pytest.raises(StateError, match=f"unknown noise mode {mode!r}"):
            estimate_overlap(counts, mode)
    errors = [estimate_overlap(counts, mode).std_error for mode in NOISE_MODES]
    assert errors[0] == 0.0 and errors[1] != errors[2]


@pytest.mark.parametrize("field, value", [
    ("shots", 2.5),
    ("shots", True),
    ("shots", "1000"),
    ("shots", np.bool_(True)),
    ("shots", np.float64(1000.0)),
    ("seed", 1.5),
    ("seed", False),
    ("seed", None),
    ("seed", -1),
])
def test_noise_model_requires_integer_shots_and_seed(field, value):
    rule = "must be >= 0, got -1" if value == -1 else "must be an integer"
    with pytest.raises(StateError, match=f"^{field} {rule}"):
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


@pytest.mark.parametrize("n_rates", [0, 1, 3, 6, 12, 32])
def test_coincidence_counts_need_two_to_the_n_rates(n_rates):
    with pytest.raises(StateError, match=f"^{n_rates} rates"):
        CoincidenceCounts((1.0,) * n_rates, 10)


@pytest.mark.parametrize("shots", [0, -3, 2.5, True, "10", None, np.float64(10.0), 2 ** 53 + 1])
def test_coincidence_counts_refuse_bad_shots(shots):
    with pytest.raises(StateError, match="shots_per_config must be"):
        CoincidenceCounts((1000.0, 10.0, 12.0, 1.0), shots)


@pytest.mark.parametrize("bad", [-10.0, -1e-300, np.nan, np.inf, -np.inf])
def test_coincidence_counts_refuse_negative_or_non_finite_rates(bad):
    for position in range(4):
        rates = [1000.0, 10.0, 12.0, 1.0]
        rates[position] = bad
        with pytest.raises(StateError, match="rates must be finite and non-negative"):
            CoincidenceCounts(tuple(rates), 1000)


@pytest.mark.parametrize("mode", NOISE_MODES)
def test_shots_are_bounded_by_two_to_the_53(mode):
    # float64 counts hold integers exactly only up to 2^53
    a, b = make_bell(BellKind.PHI_PLUS), make_bell(BellKind.PHI_MINUS)
    assert measure_overlap(a, b, NoiseModel(mode, 2 ** 53, 0)).counts.shots_per_config == 2 ** 53
    for shots in (2 ** 53 + 1, 2 ** 63, 10 ** 400):
        with pytest.raises(StateError, match=f"^shots must be <= 2\\^53, got {shots}$"):
            NoiseModel(mode, shots, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coincidence_counts_of_every_qubit_count(n):
    counts = CoincidenceCounts((10.0,) + (0.0,) * (2 ** n - 1), 10)
    assert counts.n_qubits == n
    assert estimate_overlap(counts, "binomial").value == 1.0


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
    assert plan_measurements(1, "overlap") == 6
    assert plan_measurements(2, "overlap") == 12
    assert plan_measurements(3, "overlap") == 24
    assert plan_measurements(2, "tomography") == 32
    assert plan_measurements(1, "tomography") == 8
    with pytest.raises(StateError):
        plan_measurements(2, "oracle")


@pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
def test_plan_measurements_qubit_range(n):
    with pytest.raises(StateError, match=f"n_qubits={n} outside supported range 1..{MAX_QUBITS}"):
        plan_measurements(n, "overlap")


def test_povm_probabilities_rejects_non_qubit_dimension():
    rho = DensityMatrix(np.eye(3) / 3)  # unvalidated, so the 3x3 gets through
    with pytest.raises(StateError, match="dimension 3 is not a power of two"):
        povm_probabilities(rho, rho)
