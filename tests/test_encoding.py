import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhsd import encoding, states
from qhsd.clustering import kmeans
from qhsd.encoding import (
    EncodingError,
    _n_qubits_for_length,
    check_encodable,
    encode,
    safe_radius,
)
from qhsd.states import (
    BellKind,
    StateError,
    decode,
    generator_basis,
    hsd_exact,
    make_bell,
    maximally_mixed,
    purity,
)

from oracles import random_mixed, under_a_tracer

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_gram_matrix(n):
    g = generator_basis(n)
    assert len(g) == 4 ** n - 1
    gram = np.real(np.einsum("ijk,lkj->il", g, g))
    assert np.abs(gram - 2.0 * np.eye(len(g))).max() < 1e-12
    for mat in g:
        assert abs(np.trace(mat)) < 1e-12
        assert np.abs(mat - mat.conj().T).max() < 1e-12


def _pauli_labels(n):
    """The Pauli strings of generator_basis(n), in its order."""
    return ["".join(s) for s in itertools.product("IXYZ", repeat=n)][1:]


def test_generator_count_and_ordering():
    labels = _pauli_labels(2)
    assert labels[:4] == ["IX", "IY", "IZ", "XI"]
    assert labels[-1] == "ZZ"
    for n in (1, 2, 3, 4):
        # each generator is its label's Paulis, kron-ed in order, times 1/sqrt(2^(n-1))
        g = generator_basis(n)
        assert len(g) == len(_pauli_labels(n))
        for mat, label in zip(g, _pauli_labels(n)):
            expected = np.array([[1.0]])
            for c in label:
                expected = np.kron(expected, PAULI[c])
            assert np.abs(mat - expected / np.sqrt(2.0 ** (n - 1))).max() < 1e-15
    for n in (0, 5):
        with pytest.raises(StateError, match=f"^n_qubits={n} outside supported range 1..4$"):
            generator_basis(n)


@pytest.mark.parametrize("warm", [False, True])
def test_generator_basis_refuses_non_integer_sizes(warm):
    # the size is taken as an integer before the cache, so a float is refused
    # whatever the cache holds, and a numpy integer shares the int's entry
    states._generator_basis.cache_clear()
    if warm:
        assert generator_basis(np.int64(2)) is generator_basis(2)
    for n in (2.0, np.float64(2.0), 1.5, "2"):
        with pytest.raises(StateError, match="^n_qubits must be an integer, got "):
            generator_basis(n)
    assert generator_basis(np.int64(2)) is generator_basis(2)


def test_single_qubit_basis_is_pauli():
    g = generator_basis(1)
    sx = np.array([[0, 1], [1, 0]])
    assert np.abs(g[0] - sx).max() < 1e-14
    assert np.real(np.trace(g[0] @ g[0])) == pytest.approx(2.0)


def test_encode_origin_and_surface():
    assert hsd_exact(encode(np.zeros(15)), maximally_mixed(4)) < 1e-12
    plus = encode([0.5, 0.0, 0.0])
    expected = np.full((2, 2), 0.5)
    assert np.abs(plus.matrix - expected).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encode_origin_is_maximally_mixed_bit_for_bit(n):
    origin = encode(np.zeros(4 ** n - 1))
    assert origin.matrix.tobytes() == maximally_mixed(2 ** n).matrix.tobytes()


def test_decode_bell_components():
    u = decode(make_bell(BellKind.PHI_PLUS))
    labels = _pauli_labels(2)
    nonzero = {labels[i]: u[i] for i in range(15) if abs(u[i]) > 1e-12}
    r = 1 / np.sqrt(8)
    assert nonzero == pytest.approx({"XX": r, "YY": -r, "ZZ": r}, abs=1e-12)
    assert np.linalg.norm(u) == pytest.approx(np.sqrt(3 / 8), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_round_trips(n):
    rng = np.random.default_rng(10 + n)
    dim = 2 ** n
    for _ in range(1000):
        rho = random_mixed(dim, rng)
        u = decode(rho)
        assert hsd_exact(encode(u), rho) < 1e-9
        assert np.abs(decode(encode(u)) - u).max() < 1e-10
        assert np.linalg.norm(u) <= np.sqrt((dim - 1) / (2 * dim)) + 1e-9  # reached by pure states


@pytest.mark.parametrize("n", [1, 2])
def test_isometry(n):
    rng = np.random.default_rng(20 + n)
    dim = 2 ** n
    r = safe_radius(dim)
    for _ in range(500):
        u = rng.uniform(-1, 1, dim * dim - 1)
        v = rng.uniform(-1, 1, dim * dim - 1)
        u *= r * rng.random() / np.linalg.norm(u)
        v *= r * rng.random() / np.linalg.norm(v)
        d = hsd_exact(encode(u), encode(v))
        assert abs(d - np.sqrt(2) * np.linalg.norm(u - v)) < 1e-9


def test_encoded_purity():
    rng = np.random.default_rng(30)
    for dim in (2, 4):
        for _ in range(100):
            u = rng.uniform(-1, 1, dim * dim - 1)
            u *= safe_radius(dim) * rng.random() / np.linalg.norm(u)
            assert purity(encode(u)) == pytest.approx(1 / dim + 2 * float(u @ u), abs=1e-10)


def test_radii():
    assert safe_radius(2) == pytest.approx(0.5, abs=1e-15)
    assert safe_radius(4) == pytest.approx(1 / np.sqrt(24), abs=1e-15)


def test_radii_refuse_dimension_below_two():
    with pytest.raises(StateError, match="^dim must be >= 2, got 1$"):
        safe_radius(1)


@pytest.mark.parametrize("dim", [True, 2.5, np.float64(4.0), "4", None])
def test_safe_radius_refuses_non_integer_dim(dim):
    with pytest.raises(StateError, match="^dim must be an integer, got "):
        safe_radius(dim)
    assert safe_radius(np.int64(4)) == safe_radius(4)


def test_safe_radius_sufficient_not_necessary():
    rng = np.random.default_rng(31)
    for _ in range(200):
        u = rng.standard_normal(15)
        u *= safe_radius(4) / np.linalg.norm(u)
        assert float(np.linalg.eigvalsh(encode(u).matrix)[0]) >= -1e-12
    # a pure-state direction stays positive well beyond the safe radius
    u = decode(make_bell(BellKind.PHI_PLUS))
    scaled = u * (safe_radius(4) * 1.5) / np.linalg.norm(u)
    encode(scaled)  # must not raise


def test_encode_rejects_outside_state_space():
    u = np.zeros(15)
    u[0] = 0.7  # beyond the outer radius
    with pytest.raises(EncodingError):
        encode(u)


def test_all_hypercube_corners_encode_psd():
    # [-1, 1]^15 scaled uniformly into the safe ball: its corners touch the sphere
    s = safe_radius(4) / np.sqrt(15)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=15))) * s
    mats = np.eye(4) / 4 + np.einsum("ci,ijk->cjk", corners, generator_basis(2))
    eigs = np.linalg.eigvalsh(mats)
    assert eigs[:, 0].min() >= -1e-12


def _seed_n_qubits_for_length(length):
    d = int(round(np.sqrt(length + 1)))
    if d * d - 1 != length or d < 2 or (d & (d - 1)) != 0:
        raise StateError(f"feature length {length} is not D^2 - 1 for a qubit dimension")
    return int(round(np.log2(d)))


def test_n_qubits_for_length_matches_seed_formula():
    for length in range(1101):
        try:
            expected = _seed_n_qubits_for_length(length)
        except StateError:
            with pytest.raises(StateError):
                _n_qubits_for_length(length)
        else:
            assert _n_qubits_for_length(length) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encode_matches_seed_formula(n):
    rng = np.random.default_rng(n)
    g = generator_basis(n)
    d = 2 ** n
    points = rng.uniform(-0.2, 0.2, (20, len(g)))
    points[0] = 0.0
    points[1, ::2] = -0.0
    for u in points:
        expected = np.eye(d, dtype=complex) / d + np.einsum("i,ijk->jk", u, g)
        # bit for bit, signed zeros included, as the one-row batch of encode
        # builds it; most of these rows encode outside the state space
        assert np.array_equal(encoding._matrices(u[None])[0].view(np.uint64), expected.view(np.uint64))


def _seed_encode(u):
    """The matrix of encode as it was before the memo: no cache, no check."""
    u = np.asarray(u, dtype=float)
    n = _n_qubits_for_length(u.shape[0])
    d = 2 ** n
    return np.eye(d, dtype=complex) / d + np.einsum("i,ijk->jk", u, generator_basis(n))


@st.composite
def _vectors(draw, n=None):
    """A 1-4 qubit vector (n qubits when given), inside or outside the state
    space, with some entries set to +0.0 and some to -0.0."""
    if n is None:
        n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal(4 ** n - 1)
    d = 2 ** n
    u *= draw(st.floats(0.0, 1.5)) * np.sqrt((d - 1) / (2 * d)) / np.linalg.norm(u)
    u[rng.random(u.size) < 0.2] = 0.0
    u[rng.random(u.size) < 0.2] = -0.0
    return u.tolist()


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(_vectors(), min_size=1, max_size=6),
    order=st.lists(st.integers(0, 5), min_size=1, max_size=40),
)
def test_encode_memo_matches_seed_formula(pool, order):
    # repeats of a few vectors of mixed sizes, interleaved as k-means calls
    # them; the states are held, so a repeat is a memo hit
    held = []
    for i in order:
        u = pool[i % len(pool)]
        expected = _seed_encode(u)
        if np.linalg.eigvalsh(expected)[0] < -1e-9:
            with pytest.raises(EncodingError):
                encode(u)
            assert np.array(u).tobytes() not in encoding._MEMO
        else:
            held.append(encode(np.array(u)))
            assert held[-1].matrix.tobytes() == expected.tobytes()


@st.composite
def _stacks(draw):
    """1 to 8 rows of one 1-4 qubit length, inside or outside the state
    space, some holding NaN or +-inf."""
    n = draw(st.integers(1, 4))
    d = 2 ** n
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        u = rng.standard_normal(4 ** n - 1)
        u *= draw(st.floats(0.0, 1.5)) * np.sqrt((d - 1) / (2 * d)) / np.linalg.norm(u)
        if draw(st.integers(0, 4)) == 0:
            u[rng.integers(u.size)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rows.append(u)
    return np.array(rows)


def _seed_min_eigenvalue(u):
    """eigvalsh(I/D + sum u_i G_i)[0] as the seed computed it; NaN for a
    non-finite u, whose matrix has no eigendecomposition."""
    if not np.isfinite(u).all():
        return np.nan
    n = _n_qubits_for_length(u.shape[0])
    d = 2 ** n
    m = np.eye(d, dtype=complex) / d + np.einsum("i,ijk->jk", u, generator_basis(n))
    return float(np.linalg.eigvalsh(m)[0])


@settings(max_examples=80, deadline=None)
@given(points=_stacks())
def test_check_encodable_matches_seed_formula(points):
    lam = [_seed_min_eigenvalue(u) for u in points]
    bad = [i for i, x in enumerate(lam) if not x >= -1e-9]  # NaN is bad
    if bad:
        message = f"point row {bad[0]} encodes outside the state space: min eigenvalue {lam[bad[0]]:.3e}"
        with pytest.raises(EncodingError) as got:
            check_encodable(points)
        assert str(got.value) == message
    else:
        check_encodable(points)
    for i, u in enumerate(points):
        if i in bad:
            with pytest.raises(EncodingError, match="^point row 0 encodes outside the state space: "):
                encode(u)
        else:
            encode(u)


def test_encode_refuses_nan():
    for u in ([np.nan, 0.0, 0.0], [0.0] * 14 + [np.nan]):
        with pytest.raises(EncodingError, match="min eigenvalue nan$"):
            encode(u)


def test_encode_returns_shared_read_only_matrix():
    u = np.array([0.1, -0.2, 0.05])
    rho = encode(u)
    assert encode(u.copy()) is rho
    assert not rho.matrix.flags.writeable
    assert encode(-u) is not rho


def test_encode_refuses_an_unencodable_vector_on_every_call():
    u = np.array([0.9, 0.0, 0.0])  # outside the state space
    for _ in range(3):
        with pytest.raises(EncodingError, match="^point row 0 encodes outside the state space: min eigenvalue"):
            encode(u)
        assert u.tobytes() not in encoding._MEMO


def test_encode_of_a_held_state_is_a_memo_hit_with_no_check(monkeypatch):
    u = np.array([0.1, -0.2, 0.05])
    held = encode(u)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    for _ in range(3):
        assert encode(u.copy()) is held
    assert calls == []
    encode(-u)  # a miss is checked
    assert calls == [(1, 2, 2)]


@pytest.mark.parametrize(
    "entry",
    [lambda points: encode(points[0]), check_encodable, lambda points: kmeans(points, 1)],
    ids=["encode", "check_encodable", "kmeans"],
)
def test_complex_features_are_refused(entry):
    # the imaginary part is not dropped with a warning: the input is refused
    before = len(encoding._MEMO)
    with pytest.raises(StateError, match="^expected real features, got dtype complex128$"):
        entry(np.array([[0.1j, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert len(encoding._MEMO) == before


def test_encode_cache_stays_bounded():
    # the memo keeps no state alive: it holds what its callers hold, however
    # many vectors pass through it
    gc.collect()
    before = len(encoding._MEMO)
    xs = np.linspace(-0.1, 0.1, 4096)
    for x in xs:
        encode([x, 0.0, 0.0])
        assert len(encoding._MEMO) <= before
    # a checked batch is stored only while its returned states are held
    stack = xs[:, None] * [0.0, 1.0, 0.0]
    held = check_encodable(stack)
    assert len(encoding._MEMO) == before + len(xs)
    state = weakref.ref(held[0])
    del held
    gc.collect()
    # the entry goes with its state's last reference
    assert state() is None
    assert len(encoding._MEMO) == before
    assert not any(u.tobytes() in encoding._MEMO for u in stack)


def test_encode_memo_drops_states_nothing_holds():
    u = np.array([0.3, 0.0, 0.0])
    held = check_encodable(np.array([u, -u]))
    first = encode(u)
    assert first is held[0]
    del held
    xs = np.linspace(-0.1, 0.1, 4096)
    for x in xs:
        encode([0.0, 0.0, x])
        # while the state is held, encode finds it by its bytes
        assert encode(u.copy()) is first
    # the vectors nothing holds are gone, the checked -u among them
    gc.collect()
    assert np.array([0.0, 0.0, xs[0]]).tobytes() not in encoding._MEMO
    assert (-u).tobytes() not in encoding._MEMO
    state = weakref.ref(first)
    del first
    gc.collect()
    assert state() is None
    assert u.tobytes() not in encoding._MEMO


@pytest.mark.parametrize("u", [
    0.1,
    np.zeros((2, 3)),
    np.zeros((3, 3)),
    np.zeros((1, 15)),
    np.zeros((15, 3)),
])
def test_encode_non_vector_raises_as_before(u):
    # every non-1-D input gets the shape StateError, not whatever numpy raises first
    before = len(encoding._MEMO)
    with pytest.raises(StateError) as got:
        encode(u)
    assert str(got.value) == f"expected a feature vector, got shape {np.shape(u)}"
    assert len(encoding._MEMO) == before


@pytest.mark.parametrize("points", [0.1, np.zeros(3), np.zeros((2, 1, 3))])
def test_check_encodable_non_stack_raises_as_kmeans_does(points):
    # a scalar, a vector and a 3-D stack get kmeans' shape StateError, not
    # numpy's AxisError or IndexError, and store nothing
    before = list(encoding._MEMO.items())
    with pytest.raises(StateError) as got:
        check_encodable(points)
    assert str(got.value) == f"expected a (points, features) array, got shape {np.shape(points)}"
    assert list(encoding._MEMO.items()) == before


@st.composite
def _repeating_stacks(draw):
    """Rows of one 1-4 qubit length that repeat a few vectors, inside or
    outside the state space, with +-0.0 entries."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(_vectors(n), min_size=1, max_size=4))
    order = draw(st.lists(st.integers(0, 3), min_size=1, max_size=12))
    return np.array([pool[i % len(pool)] for i in order])


def _check_batch_memo(points):
    expected = [_seed_encode(u) for u in points]
    before = list(encoding._MEMO.items())
    if any(np.linalg.eigvalsh(m)[0] < -1e-9 for m in expected):
        with pytest.raises(EncodingError):
            check_encodable(points)
        assert list(encoding._MEMO.items()) == before  # a refused batch stores nothing
        return
    states = check_encodable(points)  # held: the memo keeps a state only while it is held
    for u, m, held in zip(points, expected, states):
        rho = encoding._MEMO[u.tobytes()]
        assert rho is held
        assert rho.matrix.tobytes() == m.tobytes()  # bit for bit, signed zeros included
        assert encode(u) is rho


@settings(max_examples=80, deadline=None)
@given(points=_repeating_stacks())
def test_check_encodable_stores_the_seed_formula(points):
    _check_batch_memo(points)


def test_check_encodable_stores_its_bits_under_a_tracer():
    points = np.array([[0.1, -0.0, 0.0], [0.0, 0.2, -0.1], [0.1, -0.0, 0.0], [-0.0, 0.0, 0.0]])
    with under_a_tracer():
        encoding._MEMO.clear()
        _check_batch_memo(points)
        _check_batch_memo(np.vstack([points, [0.9, 0.0, 0.0]]))


def test_check_encodable_builds_no_state_for_a_held_row(monkeypatch):
    # a row whose state the memo holds gets that state back with no
    # DensityMatrix built for it; a new row builds one, shared by its repeats
    built = []
    post_init = states.DensityMatrix.__post_init__

    def counted(rho):
        built.append(rho)
        post_init(rho)

    monkeypatch.setattr(states.DensityMatrix, "__post_init__", counted)
    u, v, w = [0.0123, -0.0, 0.0], [0.0, 0.0456, 0.0], [0.0, 0.0, -0.0789]
    held = check_encodable([u, v])
    assert built == held
    again = check_encodable([v, u, w, w])
    assert again[:2] == held[::-1] and again[2] is again[3]
    assert built == [*held, again[2]]
    assert encode(u) is held[0] and len(built) == 3
