import numpy as np
import pytest

from qhsd.encoding import encode
from qhsd.states import (
    MAX_QUBITS,
    BellKind,
    DensityMatrix,
    StateError,
    hsd_exact,
    hsd_from_overlaps,
    make_bell,
    make_horodecki,
    make_separable,
    make_werner,
    maximally_mixed,
    overlap_exact,
    pure_state,
    purity,
    state_from_json,
)

from oracles import permute_qubits, random_mixed, tensor


def test_bell_phi_plus_entries():
    m = make_bell(BellKind.PHI_PLUS).matrix
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 0.5
    assert np.abs(m - expected).max() < 1e-14


def test_bell_states_orthonormal():
    kinds = list(BellKind)
    for a in kinds:
        for b in kinds:
            o = overlap_exact(make_bell(a), make_bell(b))
            assert abs(o - (1.0 if a is b else 0.0)) < 1e-12


def test_separable_projector():
    assert np.abs(make_separable("01").matrix - np.diag([0, 1, 0, 0])).max() < 1e-14
    assert hsd_exact(make_separable("00"), make_separable("01")) ** 2 == pytest.approx(2, abs=1e-12)
    assert hsd_exact(make_separable("10"), make_separable("10")) == 0.0


def test_separable_rejects_bad_bits():
    with pytest.raises(StateError):
        make_separable("02")
    with pytest.raises(StateError):
        make_separable("0")


def test_werner_limits_and_purity():
    assert hsd_exact(make_werner(0.0), maximally_mixed(4)) < 1e-12
    assert hsd_exact(make_werner(1.0), make_bell(BellKind.PHI_PLUS)) < 1e-12
    assert purity(make_werner(0.5)) == pytest.approx(0.4375, abs=1e-12)
    with pytest.raises(StateError):
        make_werner(-0.4)
    with pytest.raises(StateError):
        make_werner(1.01)


def test_werner_valid_over_full_range():
    for p in np.linspace(-1 / 3, 1.0, 101):
        DensityMatrix.from_array(make_werner(p).matrix)  # runs invariants


def test_horodecki_limits():
    assert hsd_exact(make_horodecki(1.0), make_bell(BellKind.PHI_MINUS)) < 1e-12
    assert hsd_exact(make_horodecki(0.0), make_separable("01")) < 1e-12
    assert hsd_exact(make_horodecki(0.0), make_werner(0.0)) ** 2 == pytest.approx(0.75, abs=1e-12)
    assert purity(make_horodecki(0.5)) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(StateError):
        make_horodecki(1.2)


def test_horodecki_valid_over_full_range():
    for q in np.linspace(0.0, 1.0, 101):
        DensityMatrix.from_array(make_horodecki(q).matrix)


def test_overlap_basics():
    mm = maximally_mixed(4)
    assert overlap_exact(mm, mm) == pytest.approx(0.25, abs=1e-12)
    rng = np.random.default_rng(1)
    psi = pure_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    assert overlap_exact(psi, psi) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(StateError):
        overlap_exact(mm, maximally_mixed(2))


def test_werner_overlap_closed_form():
    for p in np.linspace(-1 / 3, 1.0, 40):
        w = make_werner(p)
        assert overlap_exact(w, w) == pytest.approx(0.25 + 0.75 * p * p, abs=1e-12)


def test_purity_bounds():
    rng = np.random.default_rng(2)
    for _ in range(200):
        rho = random_mixed(4, rng)
        pu = purity(rho)
        assert 0.25 - 1e-12 <= pu <= 1.0 + 1e-12
        o = overlap_exact(rho, random_mixed(4, rng))
        assert -1e-12 <= o <= 1.0 + 1e-12


def test_hsd_overlap_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = random_mixed(4, rng)
        b = random_mixed(4, rng)
        lhs = hsd_exact(a, b) ** 2
        rhs = purity(a) + purity(b) - 2.0 * overlap_exact(a, b)
        assert abs(lhs - rhs) < 1e-9


def _seed_hsd_exact(a, b):
    d = a.matrix - b.matrix
    return float(np.sqrt(max(0.0, np.real(np.trace(d @ d)))))


def test_hsd_exact_matches_seed_formula():
    rng = np.random.default_rng(11)
    pairs = [(random_mixed(dim, rng), random_mixed(dim, rng)) for dim in (2, 4, 8, 16) * 25]
    pairs += [(make_werner(p), make_werner(q)) for p in (0.0, 0.3, 1.0) for q in (0.0, 0.3, 1.0)]
    for u, v in rng.uniform(-0.3, 0.3, (100, 2, 15)):
        pairs.append((encode(u, validate=False), encode(v, validate=False)))
    for a, b in pairs:
        assert hsd_exact(a, b) == _seed_hsd_exact(a, b)


def test_hsd_metric_properties():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a, b, c = (random_mixed(4, rng) for _ in range(3))
        assert hsd_exact(a, b) == hsd_exact(b, a)
        assert hsd_exact(a, a) == 0.0
        assert hsd_exact(a, c) <= hsd_exact(a, b) + hsd_exact(b, c) + 1e-9


def test_hsd_werner_closed_form_grid():
    grid = np.linspace(0.0, 1.0, 51)
    for p1 in grid:
        for p2 in grid:
            d2 = hsd_exact(make_werner(p1), make_werner(p2)) ** 2
            assert abs(d2 - 0.75 * (p1 - p2) ** 2) <= 1e-10


def test_hsd_from_overlaps():
    assert hsd_from_overlaps(1, 1, 1) == (0.0, 0.0, False)
    value, d2, clamped = hsd_from_overlaps(1, 1, 0)
    assert value == pytest.approx(np.sqrt(2), abs=1e-12) and d2 == 2.0 and not clamped
    value, d2, clamped = hsd_from_overlaps(0.25, 0.25, 0.26)
    assert value == 0.0 and d2 == 0.25 + 0.25 - 2.0 * 0.26 and clamped


@pytest.mark.parametrize("vector, message", [
    ([0, 0], "norm 0.0 is not finite and positive"),
    ([1, np.nan], "norm nan is not finite and positive"),
    ([np.inf, 0], "norm inf is not finite and positive"),
    ([1, 0, 0], "dimension 3 is not a power of two"),
    ([1], "dimension 1 is not a power of two"),
    (np.ones(32), "dimension 32 is not a power of two"),
    ([[1, 0], [0, 1]], r"expected a state vector, got shape \(2, 2\)"),
])
def test_pure_state_refuses_unusable_vectors(vector, message):
    with pytest.raises(StateError, match=message):
        pure_state(vector)


def test_make_bell_takes_a_kind_or_its_value():
    for kind in BellKind:
        assert np.array_equal(make_bell(kind.value).matrix, make_bell(kind).matrix)
    with pytest.raises(StateError, match="unknown bell kind 'phi'"):
        make_bell("phi")


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_pure_state_normalizes_huge_and_tiny_vectors(scale):
    rho = pure_state([scale, 0])
    assert np.array_equal(rho.matrix, np.array([[1, 0], [0, 0]], dtype=complex))


def test_tensor():
    mm2 = maximally_mixed(2)
    assert hsd_exact(tensor(mm2, mm2), maximally_mixed(4)) < 1e-12
    zero = pure_state([1, 0])
    one = pure_state([0, 1])
    assert hsd_exact(tensor(zero, one), make_separable("01")) < 1e-12
    rng = np.random.default_rng(5)
    t = tensor(random_mixed(2, rng), random_mixed(4, rng))
    assert t.dim == 8
    assert abs(np.trace(t.matrix) - 1) < 1e-12


def test_permute_qubits():
    rng = np.random.default_rng(6)
    x = random_mixed(2, rng)
    y = random_mixed(2, rng)
    xy = tensor(x, y)
    assert hsd_exact(permute_qubits(xy, [0, 1]), xy) == 0.0
    assert hsd_exact(permute_qubits(xy, [1, 0]), tensor(y, x)) < 1e-12
    big = random_mixed(16, rng)
    perm = list(rng.permutation(4))
    ev1 = np.sort(np.linalg.eigvalsh(big.matrix))
    ev2 = np.sort(np.linalg.eigvalsh(permute_qubits(big, perm).matrix))
    assert np.abs(ev1 - ev2).max() < 1e-10
    with pytest.raises(StateError):
        permute_qubits(xy, [0, 0])


@pytest.mark.parametrize("dim", [*range(2, 17), 32])
def test_n_qubits_of_unvalidated_matrix(dim):
    rho = DensityMatrix(np.eye(dim) / dim)
    if dim & (dim - 1) or dim > 2 ** MAX_QUBITS:
        with pytest.raises(StateError, match=f"dimension {dim} is not a power of two"):
            rho.n_qubits
    else:
        assert rho.n_qubits == int(round(np.log2(dim)))


def test_invalid_matrices_rejected():
    with pytest.raises(StateError):
        DensityMatrix.from_array(np.eye(4))  # trace 4
    with pytest.raises(StateError):
        DensityMatrix.from_array(np.diag([1.5, -0.5]))  # negative eigenvalue
    m = np.eye(2) / 2
    m[0, 1] = 1e-3
    with pytest.raises(StateError):
        DensityMatrix.from_array(m)  # not Hermitian
    with pytest.raises(StateError):
        DensityMatrix.from_array(np.full((2, 2), np.nan))
    for dim in (0, 1, 3, 6, 32, 2 ** 20):
        with pytest.raises(StateError):
            maximally_mixed(dim)
    with pytest.raises(StateError):
        DensityMatrix.from_array(np.eye(32) / 32)  # more than MAX_QUBITS qubits


def test_state_json_round_trip():
    rng = np.random.default_rng(7)
    rho = random_mixed(4, rng)
    back = state_from_json(
        {"dim": 4, "re": np.real(rho.matrix).tolist(), "im": np.imag(rho.matrix).tolist()}
    )
    assert hsd_exact(rho, back) < 1e-12


def test_state_json_named_forms():
    assert hsd_exact(state_from_json({"named": "werner", "params": {"p": 0.5}}), make_werner(0.5)) == 0.0
    assert (
        hsd_exact(
            state_from_json({"named": "bell", "params": {"kind": "psi-"}}),
            make_bell(BellKind.PSI_MINUS),
        )
        == 0.0
    )
    with pytest.raises(StateError):
        state_from_json({"named": "ghz"})
