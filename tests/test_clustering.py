import gc
import re
import weakref

import numpy as np
import pytest

from qhsd import encoding
from qhsd.clustering import (
    BACKEND_KINDS,
    EuclideanBackend,
    ExactHsdBackend,
    SimulatedHsdBackend,
    assign,
    kmeans,
    make_backend,
    two_gaussian_demo,
    update_centroids,
)
from qhsd.encoding import EncodingError, encode
from qhsd.interferometry import NoiseModel
from qhsd.states import DensityMatrix, StateError, maximally_mixed

from oracles import two_qubit_blobs


def test_assign_point_on_centroid():
    centroids = np.array([[0.1, 0.0, 0.0], [-0.2, 0.1, 0.0]])
    labels, _ = assign(np.array([[-0.2, 0.1, 0.0]]), centroids, EuclideanBackend(), 0)
    assert labels[0] == 1


def test_assign_tie_goes_to_lowest_index():
    centroids = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
    labels, _ = assign(np.array([[0.0, 0.0, 0.0]]), centroids, EuclideanBackend(), 0)
    assert labels[0] == 0


def test_exact_backends_agree_on_random_points():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((1000, 3))
    points *= (0.5 * rng.random(1000) / np.linalg.norm(points, axis=1))[:, None]
    centroids = points[rng.choice(1000, 2, replace=False)]
    l_euc, _ = assign(points, centroids, EuclideanBackend(), 0)
    l_hsd, _ = assign(points, centroids, ExactHsdBackend(), 0)
    assert np.array_equal(l_euc, l_hsd)


def test_backend_distance_values():
    u = np.array([0.1, -0.2, 0.05])
    v = np.array([-0.15, 0.1, 0.2])
    euc = EuclideanBackend().distance_sq(u, v)
    hsd = ExactHsdBackend().distance_sq(u, v)
    assert hsd == pytest.approx(2 * euc, abs=1e-12)


def test_simulated_backend_requires_noise():
    with pytest.raises(StateError, match="needs a stochastic noise mode"):
        make_backend("hsd_simulated", NoiseModel("exact", 10, 0))
    with pytest.raises(StateError):
        SimulatedHsdBackend(NoiseModel("exact", 10, 0))
    for kind in ("medoid", ["euclidean"]):  # an unhashable kind is refused by name too
        with pytest.raises(StateError, match="^unknown backend "):
            make_backend(kind, NoiseModel("binomial", 10, 0))


def test_update_centroids_means():
    points = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.4]])
    out = update_centroids(points, np.array([0, 0, 1]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(out[0], [0.1, 0.0])
    assert np.allclose(out[1], [0.0, 0.4])


def test_update_centroids_empty_cluster_reseeds_farthest():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.9]])
    centroids = np.array([[0.05, 0.0], [0.0, 0.0]])
    out = update_centroids(points, np.array([0, 0, 0]), centroids)
    assert np.allclose(out[1], [0.9, 0.9])
    assert np.array_equal(centroids, [[0.05, 0.0], [0.0, 0.0]])  # input left unchanged


@pytest.mark.parametrize("entry", [
    lambda points, centroids: assign(points, centroids, ExactHsdBackend(), 0),
    lambda points, centroids: update_centroids(points, np.array([0]), centroids),
], ids=["assign", "update_centroids"])
@pytest.mark.parametrize("complex_side", ["points", "centroids"])
def test_complex_features_are_refused_by_assign_and_update(entry, complex_side):
    # a float conversion would drop 0.1j and return distance 0.0 or a zero centroid
    real, imaginary = np.array([[0.0, 0.0, 0.0]]), np.array([[0.1j, 0.0, 0.0]])
    points, centroids = (imaginary, real) if complex_side == "points" else (real, imaginary)
    with pytest.raises(StateError, match="^expected real features, got dtype complex128$"):
        entry(points, centroids)


@pytest.mark.parametrize("backend", [EuclideanBackend(), ExactHsdBackend()], ids=lambda b: b.kind)
@pytest.mark.parametrize("centroids", [np.zeros((2, 2)), np.zeros((2, 8)), np.zeros((0, 3))],
                         ids=["fewer_features", "more_features", "none"])
def test_assign_refuses_centroids_that_do_not_fit_the_points(centroids, backend):
    # no broadcast ValueError, argmin of an empty sequence or encoding error
    message = f"centroids of shape {centroids.shape} do not fit points of shape (3, 3)"
    with pytest.raises(StateError, match="^" + re.escape(message) + "$"):
        assign(np.zeros((3, 3)), centroids, backend, 0)


@pytest.mark.parametrize("labels, centroids, message", [
    ([0, 1], np.zeros((2, 3)), "labels of shape (2,) do not fit points of shape (3, 3)"),
    ([0, 0, 1, 1], np.zeros((2, 3)), "labels of shape (4,) do not fit points of shape (3, 3)"),
    ([[0, 0, 1]], np.zeros((2, 3)), "labels of shape (1, 3) do not fit points of shape (3, 3)"),
    ([0, 0, 1], np.zeros((2, 2)), "centroids of shape (2, 2) do not fit points of shape (3, 3)"),
    ([0, 0, 0], np.zeros((0, 3)), "centroids of shape (0, 3) do not fit points of shape (3, 3)"),
], ids=["fewer_labels", "more_labels", "2d_labels", "fewer_features", "no_centroids"])
def test_update_centroids_refuses_shapes_that_do_not_fit_the_points(labels, centroids, message):
    # a length mismatch was an IndexError, which the CLI maps to no exit code
    with pytest.raises(StateError, match="^" + re.escape(message) + "$"):
        update_centroids(np.zeros((3, 3)), np.array(labels), centroids)


def test_update_centroids_reads_a_list_of_labels_as_an_array():
    # a list made labels == j one bool, which has no .any()
    points, centroids = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.4]]), np.zeros((2, 2))
    out = update_centroids(points, [0, 0, 1], centroids)
    assert np.array_equal(out, update_centroids(points, np.array([0, 0, 1]), centroids))


@pytest.mark.parametrize("labels, message", [
    (np.array([0, 0, 7]), "label 2 is 7,"),
    ([0, -1, 1], "label 1 is -1,"),
    ([0.0, 0.5, 1.0], "label 0 is 0.0,"),
    ([True, False, True], "label 0 is True,"),
    (np.array(["0", "0", "1"]), "label 0 is '0',"),
], ids=["above_k", "negative", "float", "bool", "str"])
def test_update_centroids_refuses_labels_that_are_not_cluster_indices(labels, message):
    # each of these passed: out-of-range labels dropped points from every
    # mean, and bools were read as cluster indices
    message += " not a cluster index in 0..1 of integer dtype"
    with pytest.raises(StateError, match="^" + re.escape(message) + "$"):
        update_centroids(np.zeros((3, 3)), labels, np.zeros((2, 3)))


def test_centroid_means_stay_encodable():
    points = two_gaussian_demo(200, seed=1)
    result = kmeans(points, 2, init_seed=1)
    for step in result.centroid_trace:
        for c in step:
            assert float(np.linalg.eigvalsh(encode(c).matrix)[0]) >= -1e-12


def test_kmeans_k1_is_global_mean():
    points = two_gaussian_demo(100, seed=2)
    result = kmeans(points, 1, init_seed=0)
    assert np.allclose(result.centroids[0], points.mean(axis=0))
    assert result.iterations <= 2


def test_kmeans_rejects_k_above_distinct():
    points = np.zeros((5, 3))
    with pytest.raises(StateError):
        kmeans(points, 2, init_seed=0)


def test_kmeans_deterministic():
    points = two_gaussian_demo(300, seed=3)
    r1 = kmeans(points, 2, init_seed=11)
    r2 = kmeans(points, 2, init_seed=11)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(r1.centroids, r2.centroids)
    assert r1.iterations == r2.iterations


def test_kmeans_cost_non_increasing():
    rng = np.random.default_rng(4)
    points = rng.uniform(-0.25, 0.25, (400, 3))
    costs = []
    labels = None
    # replay Lloyd manually to watch the cost sequence
    from qhsd.clustering import _init_centroids

    centroids = _init_centroids(points, 3, np.random.default_rng(5))
    for it in range(15):
        labels, dists = assign(points, centroids, EuclideanBackend(), it)
        costs.append(dists[np.arange(len(points)), labels].sum())
        centroids = update_centroids(points, labels, centroids)
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_kmeans_fixed_point_stable():
    points = two_gaussian_demo(200, seed=6)
    r1 = kmeans(points, 2, init_seed=7, max_iter=100)
    r2 = kmeans(points, 2, init_seed=7, max_iter=r1.iterations + 1)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.allclose(r1.centroids, r2.centroids)


def test_demo_euclidean_vs_hsd_exact_identical():
    points = two_gaussian_demo(400, seed=10)
    r_euc = kmeans(points, 2, init_seed=12)
    r_hsd = kmeans(points, 2, init_seed=12, backend=ExactHsdBackend())
    assert np.array_equal(r_euc.labels, r_hsd.labels)


def test_demo_simulated_label_agreement():
    points = two_gaussian_demo(60, seed=13)
    r_euc = kmeans(points, 2, init_seed=14)
    backend = SimulatedHsdBackend(NoiseModel("binomial", 100_000, 15))
    r_sim = kmeans(points, 2, init_seed=14, backend=backend)
    agree = max(
        np.mean(r_euc.labels == r_sim.labels), np.mean(r_euc.labels == 1 - r_sim.labels)
    )
    assert agree >= 0.99


@pytest.mark.parametrize("data_seed", [0, 1, 2])
@pytest.mark.parametrize("init_seed", [0, 1, 2])
def test_two_qubit_exact_kmeans_matches_euclidean(data_seed, init_seed):
    # the paper's setting: two-qubit states, 15 features inside safe_radius(4)
    points = two_qubit_blobs(195, seed=data_seed)
    assert points.shape == (195, 15)
    assert np.linalg.norm(points, axis=1).max() <= encoding.safe_radius(4)
    r_euc = kmeans(points, 2, init_seed=init_seed)
    r_hsd = kmeans(points, 2, init_seed=init_seed, backend=ExactHsdBackend())
    assert np.array_equal(r_euc.labels, r_hsd.labels)
    assert r_euc.iterations == r_hsd.iterations


def test_two_qubit_simulated_kmeans_agrees_with_exact():
    # The paper's setting under shot noise.  The streams are keyed by
    # iteration, so boundary labels keep flipping and this run stops at
    # max_iter = 100 rather than converging, until streams are keyed by
    # (point, centroid) alone.
    points = two_qubit_blobs(195, seed=0)
    r_exact = kmeans(points, 2, init_seed=0, backend=ExactHsdBackend())
    backend = SimulatedHsdBackend(NoiseModel("binomial", 100_000, 0))
    r_sim = kmeans(points, 2, init_seed=0, backend=backend)
    agree = max(
        np.mean(r_exact.labels == r_sim.labels), np.mean(r_exact.labels == 1 - r_sim.labels)
    )
    assert agree >= 0.98


def _built_rows(monkeypatch):
    """The row count of every batch encoding._matrices builds from now on."""
    built = []
    matrices = encoding._matrices

    def counting(u):
        built.append(u.shape[0])
        return matrices(u)

    monkeypatch.setattr(encoding, "_matrices", counting)
    return built


def test_encode_memo_holds_the_demo_point_set(monkeypatch):
    # The points are built once per run, in the batch that checks them, and
    # each iteration's centroids once, in one batch, not each point once per
    # iteration.
    points = two_gaussian_demo(1000, seed=0)
    encoding._MEMO.clear()
    built = _built_rows(monkeypatch)
    result = kmeans(points, 2, init_seed=0, backend=ExactHsdBackend())
    assert built[0] == 1000 and set(built[1:]) == {2}
    assert sum(built) <= 1000 + 2 * result.iterations


@pytest.mark.parametrize("backend, max_iter", [
    (ExactHsdBackend(), 100),
    (SimulatedHsdBackend(NoiseModel("binomial", 1000, 0)), 2),
], ids=["hsd_exact", "hsd_simulated"])
def test_kmeans_builds_a_large_point_set_once(monkeypatch, backend, max_iter):
    # Above any fixed memo size: 3000 points are built once per run and each
    # iteration's centroids once, and the memo keeps none of them after it.
    points = two_gaussian_demo(3000, seed=1)
    built = _built_rows(monkeypatch)
    result = kmeans(points, 2, init_seed=0, max_iter=max_iter, backend=backend)
    assert built == [3000] + [2] * result.iterations
    rows = np.vstack([points, *result.centroid_trace])
    assert not any(u.tobytes() in encoding._MEMO for u in rows)


def _built_states(monkeypatch):
    # a weak reference to every DensityMatrix built while the patch holds
    built = []
    post_init = DensityMatrix.__post_init__

    def tracking(self):
        post_init(self)
        built.append(weakref.ref(self))

    monkeypatch.setattr(DensityMatrix, "__post_init__", tracking)
    return built


@pytest.mark.parametrize("backend, max_iter", [
    (ExactHsdBackend(), 100),
    (SimulatedHsdBackend(NoiseModel("binomial", 1000, 0)), 10),
], ids=["hsd_exact", "hsd_simulated"])
def test_kmeans_encodes_each_point_once_and_keeps_no_state(monkeypatch, backend, max_iter):
    # The encoding contract of a run, counted without the encode memo: N
    # points are encoded once per run, whatever the iteration count, plus at
    # most k centroids per iteration, both as _matrices rows and as built
    # states; and no state built in the run is alive once it has returned.
    points = two_gaussian_demo(200, seed=0)
    maximally_mixed(2)  # cached for the process, so built before the run
    rows, states = _built_rows(monkeypatch), _built_states(monkeypatch)
    result = kmeans(points, 2, init_seed=0, max_iter=max_iter, backend=backend)
    assert result.iterations > 1
    assert len(points) <= sum(rows) <= len(points) + 2 * result.iterations
    assert len(states) <= len(points) + 2 * result.iterations
    gc.collect()
    assert not any(ref() is not None for ref in states)


def test_two_gaussian_demo_properties():
    points = two_gaussian_demo(1000, seed=16)
    assert points.shape == (1000, 3)
    assert np.linalg.norm(points, axis=1).max() <= 0.5
    assert np.array_equal(points, two_gaussian_demo(1000, seed=16))


class _CountingBackend(EuclideanBackend):
    calls = 0

    def distance_sq(self, u, v, key=()):
        self.calls += 1
        return super().distance_sq(u, v, key)


@pytest.mark.parametrize("k", [0, -1])
def test_kmeans_rejects_k_below_one(k):
    backend = _CountingBackend()
    with pytest.raises(StateError, match=f"k must be >= 1, got {k}"):
        kmeans(two_gaussian_demo(20), k, backend=backend)
    assert backend.calls == 0


def test_kmeans_rejects_max_iter_below_one():
    backend = _CountingBackend()
    with pytest.raises(StateError, match="^max_iter must be >= 1, got 0$"):
        kmeans(two_gaussian_demo(20), 2, max_iter=0, backend=backend)
    assert backend.calls == 0


@pytest.mark.parametrize("value", [True, 2.5, np.float64(2.0), "2", None])
@pytest.mark.parametrize("name", ["k", "max_iter", "init_seed"])
def test_kmeans_refuses_non_integer_k_and_max_iter(name, value):
    # a bool would otherwise run as 1 and a float reach numpy's TypeError
    backend = _CountingBackend()
    sizes = {"k": 2, "max_iter": 100, name: value}
    with pytest.raises(StateError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        kmeans(two_gaussian_demo(20), backend=backend, **sizes)
    assert backend.calls == 0


@pytest.mark.parametrize("value", [True, 2.5, np.float64(2.0), "2", None])
@pytest.mark.parametrize("name", ["n_points", "seed"])
def test_two_gaussian_demo_refuses_non_integer_size_and_seed(name, value):
    # a bool would otherwise run as 1, and a seed of None draw from OS entropy
    sizes = {"n_points": 10, "seed": 0, name: value}
    with pytest.raises(StateError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        two_gaussian_demo(**sizes)


@pytest.mark.parametrize("call, name, value", [
    (lambda: two_gaussian_demo(-3), "n_points", -3),
    (lambda: two_gaussian_demo(10, seed=-1), "seed", -1),
    (lambda: kmeans(two_gaussian_demo(20), 2, init_seed=-1), "init_seed", -1),
], ids=["n_points", "seed", "init_seed"])
def test_negative_demo_sizes_and_seeds_are_refused_by_name(call, name, value):
    # numpy would otherwise raise a ValueError that names no argument
    with pytest.raises(StateError, match=f"^{name} must be >= 0, got {value}$"):
        call()


def test_kmeans_takes_numpy_integer_sizes():
    points = two_gaussian_demo(20)
    numpy_sizes = kmeans(points, np.int64(2), max_iter=np.int32(100))
    python_sizes = kmeans(points, 2, max_iter=100)
    assert np.array_equal(numpy_sizes.labels, python_sizes.labels)
    assert numpy_sizes.iterations == python_sizes.iterations


@pytest.mark.parametrize("points", [[0.1, 0.2, 0.3], np.zeros((2, 3, 1))])
def test_kmeans_rejects_points_not_2d(points):
    with pytest.raises(StateError, match=r"expected a \(points, features\) array, got shape"):
        kmeans(points, 1)


@pytest.mark.parametrize("kind", BACKEND_KINDS)
@pytest.mark.parametrize("row", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.9, 0.0, 0.0]],
                         ids=["nan", "inf", "outside"])
def test_kmeans_checks_points(monkeypatch, kind, row):
    backend = make_backend(kind, NoiseModel("binomial", 1000, 0))
    calls = []
    distance_sq = type(backend).distance_sq

    def counted(self, u, v, key=()):
        calls.append(key)
        return distance_sq(self, u, v, key)

    monkeypatch.setattr(type(backend), "distance_sq", counted)
    points = np.array([[0.1, 0.0, 0.0], row, [-0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    if not np.isfinite(row).all():
        with pytest.raises(StateError, match=r"^point row 1 is not finite: "):
            kmeans(points, 2, backend=backend)
    elif kind == "euclidean":
        assert kmeans(points, 2, backend=backend).labels.shape == (4,)
        assert calls
        return
    else:
        with pytest.raises(EncodingError, match=r"^point row 1 encodes outside the state space: "):
            kmeans(points, 2, backend=backend)
    assert calls == []


def test_kmeans_refuses_points_whose_distances_overflow():
    # at 1e200 every squared distance between distinct points is inf, so the
    # argmin would tie to centroid 0: the run is refused before any distance,
    # while at 1e150 it keeps the unscaled labels
    geometry = np.array([[1.0, 0.0, 0.0], [0.9, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    labels = kmeans(geometry, 2).labels
    assert labels.tolist() == [1, 1, 0]
    assert kmeans(geometry * 1e150, 2).labels.tolist() == labels.tolist()
    with pytest.raises(StateError, match=r"^point row 0 is too large for k-means: "):
        kmeans(geometry * 1e200, 2)


@pytest.mark.parametrize("scale", [1e-160, 1e-162, 1e-170])
def test_kmeans_refuses_points_whose_distances_underflow(scale):
    # the bounding box's diagonal squares below the smallest normal float, so
    # every squared distance has lost bits, and from about 1e-162 on it is 0.0
    # and the argmin would tie to centroid 0: the run is refused before any
    # distance, while at 1e-150 it keeps the unscaled labels
    geometry = np.array([[1.0, 0.0, 0.0], [0.9, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert kmeans(geometry * 1e-150, 2).labels.tolist() == [1, 1, 0]
    backend = _CountingBackend()
    with pytest.raises(StateError, match=r"^points are too close for k-means: "):
        kmeans(geometry * scale, 2, backend=backend)
    assert backend.calls == 0
    with pytest.raises(StateError, match=r"^points are too close for k-means: "):
        kmeans(geometry * scale, 2, backend=ExactHsdBackend())


@pytest.mark.parametrize("kind", ["hsd_exact", "hsd_simulated"])
def test_hsd_backends_refuse_a_point_outside_the_state_space(kind):
    # outside kmeans nothing has checked the point first, and encode checks it
    backend = make_backend(kind, NoiseModel("binomial", 1000, seed=0))
    for u, v in (([0.9, 0.0, 0.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [0.9, 0.0, 0.0])):
        with pytest.raises(EncodingError, match=r"^point row 0 encodes outside the state space: "):
            backend.distance_sq(np.array(u), np.array(v), (0, 0, 0))
