"""k-means over feature vectors with a pluggable distance backend.

The backends compare points either directly (euclidean), through the exact
Hilbert-Schmidt distance of their encoded density matrices, or through the
simulated interferometric measurement of that distance.  Squared distances
are used for all comparisons; the constant factor between euclidean and
Hilbert-Schmidt distance cannot change an argmin, so the exact backends are
interchangeable by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from qhsd.encoding import check_encodable, encode, feature_array
from qhsd.interferometry import NoiseModel, measure_hsd
from qhsd.states import StateError, check_integer, hsd_exact


class EuclideanBackend:
    kind = "euclidean"

    def distance_sq(self, u: np.ndarray, v: np.ndarray, key: Sequence[int] = ()) -> float:
        d = u - v
        return float(d @ d)


class ExactHsdBackend:
    """Encodes both vectors and computes the exact Hilbert-Schmidt distance."""

    kind = "hsd_exact"

    def distance_sq(self, u: np.ndarray, v: np.ndarray, key: Sequence[int] = ()) -> float:
        return hsd_exact(encode(u), encode(v)) ** 2


class SimulatedHsdBackend:
    """Noisy interferometric distance; substreams are derived from the
    (iteration, point, centroid) key so results are order-independent."""

    kind = "hsd_simulated"

    def __init__(self, noise: NoiseModel):
        if noise.mode == "exact":
            raise StateError("simulated backend needs a stochastic noise mode")
        self.noise = noise

    def distance_sq(self, u: np.ndarray, v: np.ndarray, key: Sequence[int] = ()) -> float:
        return measure_hsd(encode(u), encode(v), self.noise, key).d2


# kind -> the backend built from a NoiseModel; only hsd_simulated reads it
_BACKENDS = {
    "euclidean": lambda noise: EuclideanBackend(),
    "hsd_exact": lambda noise: ExactHsdBackend(),
    "hsd_simulated": SimulatedHsdBackend,
}
BACKEND_KINDS = tuple(_BACKENDS)


def make_backend(kind: str, noise: NoiseModel):
    if kind not in BACKEND_KINDS:  # compared by ==, so an unhashable kind is refused here too
        raise StateError(f"unknown backend {kind!r}")
    return _BACKENDS[kind](noise)


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, n_features)
    labels: np.ndarray
    iterations: int
    cost: float
    centroid_trace: Tuple[np.ndarray, ...]


def _fitting_centroids(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # StateError unless there is a centroid and it has the points' feature count
    if centroids.shape[0] == 0 or centroids.shape[1] != points.shape[1]:
        raise StateError(f"centroids of shape {centroids.shape} do not fit points of shape {points.shape}")
    return centroids


def assign(points: np.ndarray, centroids: np.ndarray, backend, iteration: int):
    """Nearest-centroid labels; ties go to the lowest centroid index.
    Points and centroids are read by encoding.feature_array; centroids that
    are none or have another feature count than the points raise StateError."""
    points = feature_array(points, 2)
    centroids = list(_fitting_centroids(points, feature_array(centroids, 2)))
    dists = np.empty((points.shape[0], len(centroids)))
    for i, point in enumerate(points):
        for j, centroid in enumerate(centroids):
            dists[i, j] = backend.distance_sq(point, centroid, (iteration, i, j))
    labels = np.argmin(dists, axis=1)  # argmin takes the first (lowest) index on ties
    return labels, dists


def update_centroids(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Means of the assigned points.  An empty cluster is re-seeded to the
    point farthest (euclidean) from that cluster's current centroid.
    Points and centroids are read and checked as in assign.  Labels are
    read with np.asarray; labels other than one per point, or not integers
    of 0..k-1 in an integer dtype (bools included), raise StateError."""
    points = feature_array(points, 2)
    centroids = _fitting_centroids(points, feature_array(centroids, 2)).copy()
    labels = np.asarray(labels)
    if labels.shape != points.shape[:1]:
        raise StateError(f"labels of shape {labels.shape} do not fit points of shape {points.shape}")
    k = centroids.shape[0]
    # every label of a non-integer dtype is bad, so no comparison sees strings or objects
    bad = (
        np.flatnonzero((labels < 0) | (labels >= k))
        if np.issubdtype(labels.dtype, np.integer)
        else np.arange(labels.size)
    )
    if bad.size:
        raise StateError(
            f"label {bad[0]} is {labels.tolist()[bad[0]]!r}, not a cluster index in 0..{k - 1} of integer dtype"
        )
    for j in range(k):
        mask = labels == j
        if mask.any():
            centroids[j] = points[mask].mean(axis=0)
        else:
            far = np.argmax(((points - centroids[j]) ** 2).sum(axis=1))
            centroids[j] = points[far]
    return centroids


def _init_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k of the distinct points, drawn without replacement and kept in
    sorted order."""
    distinct = np.unique(points, axis=0)
    if k > distinct.shape[0]:
        raise StateError(f"k={k} exceeds the {distinct.shape[0]} distinct points")
    idx = rng.choice(distinct.shape[0], size=k, replace=False)
    return distinct[np.sort(idx)].copy()


def kmeans(
    points: np.ndarray,
    k: int,
    init_seed: int = 0,
    max_iter: int = 100,
    backend=None,
) -> KMeansResult:
    """Lloyd iteration: assign, then move centroids to cluster means, until
    labels stop changing (for 3 consecutive passes under the noisy
    hsd_simulated backend) or max_iter is reached.

    Before any distance, points that encoding.feature_array refuses (not
    a real 2-D array) or that have a non-finite row raise StateError, and
    under the hsd backends encoding.check_encodable raises EncodingError
    for a row that encodes outside the state space; rows count from 0.
    Points so large that a squared distance, a centroid or the cost could
    overflow raise StateError naming the row with the largest |coordinate|.
    Distinct points whose bounding-box diagonal squares below
    sys.float_info.min raise StateError too: every squared distance between
    them loses bits or flushes to 0.0, and labels would tie to centroid 0.
    check_encodable builds every point's state in one batch, and each
    iteration's centroids are checked and built in one more.  Only
    check_encodable builds the states encode returns, and the run holds
    them, so the assign loop's encode calls find them in encode's memo with
    no second check; they are released when kmeans returns."""
    k = check_integer(k, "k", 1)
    max_iter = check_integer(max_iter, "max_iter", 1)
    if backend is None:
        backend = EuclideanBackend()
    points = feature_array(points, 2)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise StateError(f"point row {bad[0]} is not finite: {points[bad[0]].tolist()}")
    hsd = backend.kind != "euclidean"
    # checked states held so that assign's encode calls find them by their bytes
    point_states = check_encodable(points) if hsd else None
    patience = 3 if backend.kind == "hsd_simulated" else 1
    rng = np.random.default_rng(check_integer(init_seed, "init_seed", 0))
    centroids = _init_centroids(points, k, rng)
    # Every centroid is a point or a mean of points, so no squared distance, centroid
    # sum or cost exceeds n (diagonal^2 + largest |coordinate|) of the points' bounding
    # box; Python floats make an overflow of that bound inf, with no RuntimeWarning.
    lo, hi = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    diagonal = math.hypot(*(h - l for h, l in zip(hi, lo)))
    if not math.isfinite(len(points) * (diagonal * diagonal + max(map(abs, lo + hi), default=0.0))):
        row = int(np.abs(points).max(axis=1).argmax())
        raise StateError(f"point row {row} is too large for k-means: {points[row].tolist()}")
    # Nor does any squared distance exceed diagonal^2, so below the smallest normal
    # float every one has lost bits or flushed to 0.0.
    if diagonal and diagonal * diagonal < sys.float_info.min:
        raise StateError(f"points are too close for k-means: their bounding box's diagonal is {diagonal!r}")
    trace: List[np.ndarray] = [centroids.copy()]
    labels = None
    stable = 0
    for it in range(max_iter):
        centroid_states = check_encodable(centroids) if hsd else None
        new_labels, dists = assign(points, centroids, backend, it)
        cost = float(dists[np.arange(points.shape[0]), new_labels].sum())
        if labels is not None and np.array_equal(labels, new_labels):
            stable += 1
            if stable >= patience:
                break
        else:
            stable = 0
        labels = new_labels
        centroids = update_centroids(points, labels, centroids)
        trace.append(centroids.copy())
    return KMeansResult(centroids, labels, it + 1, cost, tuple(trace))


# The demo's blob centres, their spread, and the radius the points stay within.
DEMO_CENTERS = np.array([[-0.22, -0.15, 0.10], [0.20, 0.18, -0.08]])
DEMO_CENTERS.setflags(write=False)
DEMO_STD = 0.08
DEMO_RADIUS = 0.5


def two_gaussian_demo(n_points: int = 1000, seed: int = 0) -> np.ndarray:
    """Two Gaussian blobs of 3D points, resampled to stay inside the ball of
    radius DEMO_RADIUS.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    half = check_integer(n_points, "n_points", 0) // 2
    sizes = (half, n_points - half)
    out = []
    for c, size in zip(DEMO_CENTERS, sizes):
        pts = np.empty((0, 3))
        while len(pts) < size:
            cand = c + DEMO_STD * rng.standard_normal((size - len(pts), 3))
            pts = np.vstack([pts, cand[np.linalg.norm(cand, axis=1) <= DEMO_RADIUS]])
        out.append(pts)
    return np.vstack(out)
