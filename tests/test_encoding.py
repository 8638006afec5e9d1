import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhsd import encoding
from qhsd.encoding import (
    ENCODE_CACHE_SIZE,
    EncodingError,
    _n_qubits_for_length,
    decode,
    encode,
    generator_basis,
    min_eigenvalues,
    safe_radius,
)
from qhsd.states import BellKind, StateError, hsd_exact, make_bell, maximally_mixed, purity

from oracles import random_mixed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_gram_matrix(n):
    basis = generator_basis(n)
    assert len(basis.generators) == 4 ** n - 1
    g = basis.generators
    gram = np.real(np.einsum("ijk,lkj->il", g, g))
    assert np.abs(gram - 2.0 * np.eye(len(g))).max() < 1e-12
    for mat in g:
        assert abs(np.trace(mat)) < 1e-12
        assert np.abs(mat - mat.conj().T).max() < 1e-12


def test_generator_count_and_ordering():
    basis = generator_basis(2)
    assert basis.labels[:4] == ("IX", "IY", "IZ", "XI")
    assert basis.labels[-1] == "ZZ"
    for n in (0, 5):
        with pytest.raises(StateError, match=f"^n_qubits={n} outside supported range 1..4$"):
            generator_basis(n)


def test_single_qubit_basis_is_pauli():
    basis = generator_basis(1)
    sx = np.array([[0, 1], [1, 0]])
    assert np.abs(basis.generators[0] - sx).max() < 1e-14
    assert np.real(np.trace(basis.generators[0] @ basis.generators[0])) == pytest.approx(2.0)


def test_encode_origin_and_surface():
    assert hsd_exact(encode(np.zeros(15)), maximally_mixed(4)) < 1e-12
    plus = encode([0.5, 0.0, 0.0])
    expected = np.full((2, 2), 0.5)
    assert np.abs(plus.matrix - expected).max() < 1e-12


def test_decode_bell_components():
    u = decode(make_bell(BellKind.PHI_PLUS))
    basis = generator_basis(2)
    nonzero = {basis.labels[i]: u[i] for i in range(15) if abs(u[i]) > 1e-12}
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
    with pytest.raises(StateError, match="dim=1 must be >= 2"):
        safe_radius(1)


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
    basis = generator_basis(2)
    mats = np.eye(4) / 4 + np.einsum("ci,ijk->cjk", corners, basis.generators)
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
    basis = generator_basis(n)
    d = 2 ** basis.n_qubits
    points = rng.uniform(-0.2, 0.2, (20, len(basis.generators)))
    points[0] = 0.0
    points[1, ::2] = -0.0
    for u in points:
        expected = np.eye(d, dtype=complex) / d + np.einsum("i,ijk->jk", u, basis.generators)
        # bit for bit, signed zeros included
        assert np.array_equal(encode(u, validate=False).matrix.view(np.uint64), expected.view(np.uint64))
    expected = np.eye(d) / d + np.einsum("ni,ijk->njk", points, basis.generators)
    assert np.array_equal(min_eigenvalues(points), np.linalg.eigvalsh(expected)[:, 0])


def _seed_encode(u, validate=True):
    """encode as it was before the memo: no cache, every call computed."""
    u = np.asarray(u, dtype=float)
    basis = generator_basis(_n_qubits_for_length(u.shape[0]))
    d = 2 ** basis.n_qubits
    m = np.eye(d, dtype=complex) / d + np.einsum("i,ijk->jk", u, basis.generators)
    if validate and np.linalg.eigvalsh(m)[0] < -1e-9:
        raise EncodingError("vector encodes outside the state space")
    return m


@st.composite
def _vectors(draw):
    """A 1-4 qubit vector, inside or outside the state space, with some
    entries set to +0.0 and some to -0.0."""
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
    # repeats of a few vectors of mixed sizes, interleaved as k-means calls them
    for i in order:
        u = pool[i % len(pool)]
        expected = _seed_encode(u, False)
        assert encode(u, validate=False).matrix.tobytes() == expected.tobytes()
        if np.linalg.eigvalsh(expected)[0] < -1e-9:
            with pytest.raises(EncodingError):
                encode(np.array(u))
        else:
            assert encode(np.array(u)).matrix.tobytes() == expected.tobytes()


def test_encode_returns_shared_read_only_matrix():
    u = np.array([0.1, -0.2, 0.05])
    rho = encode(u)
    assert encode(u.copy()) is rho
    assert not rho.matrix.flags.writeable
    assert encode(-u) is not rho


def test_encode_validates_after_unvalidated_hit():
    u = np.array([0.9, 0.0, 0.0])  # outside the state space
    assert encode(u, validate=False).matrix.tobytes() == _seed_encode(u, False).tobytes()
    for _ in range(2):
        with pytest.raises(EncodingError, match="min eigenvalue"):
            encode(u)


def test_encode_cache_stays_bounded():
    for x in np.linspace(-0.1, 0.1, 10 * ENCODE_CACHE_SIZE):
        encode([x, 0.0, 0.0])
        assert encoding._encode_bytes.cache_info().currsize <= ENCODE_CACHE_SIZE
    assert encoding._encode_bytes.cache_info().currsize == ENCODE_CACHE_SIZE


@pytest.mark.parametrize("u", [
    0.1,
    np.zeros((2, 3)),
    np.zeros((3, 3)),
    np.zeros((1, 15)),
    np.zeros((15, 3)),
])
def test_encode_non_vector_raises_as_before(u):
    # every non-1-D input gets the shape StateError, not whatever numpy raises first
    before = encoding._encode_bytes.cache_info().currsize
    with pytest.raises(StateError) as got:
        encode(u)
    assert str(got.value) == f"expected a feature vector, got shape {np.shape(u)}"
    assert encoding._encode_bytes.cache_info().currsize == before
