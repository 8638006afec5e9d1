"""Seeded statistical checks of the simulated draws.

A change that moves the draws on purpose (different stream keys, fewer
overlaps per pair) cannot be checked bit for bit against the old output.
These tests check what such a change must keep instead: the reported
d2_std_error is calibrated against the exact distance, and simulated
k-means at high shot counts labels the demo as the exact backend does.
Every seed is fixed here; a bound that fails is a finding, not a reason to
pick other seeds.
"""

import numpy as np
import pytest

from qhsd.clustering import ExactHsdBackend, SimulatedHsdBackend, kmeans, two_gaussian_demo
from qhsd.encoding import encode, safe_radius
from qhsd.interferometry import NoiseModel, measure_hsd
from qhsd.states import MAX_QUBITS, hsd_exact

from oracles import random_mixed

PAIRS_PER_N = 25
NOISE_SEEDS = range(10)


def _random_pairs():
    """PAIRS_PER_N random mixed pairs at each of n = 1, 2 and 3 qubits."""
    rng = np.random.default_rng(0)
    return [
        [(random_mixed(2 ** n, rng), random_mixed(2 ** n, rng)) for _ in range(PAIRS_PER_N)]
        for n in (1, 2, 3)
    ]


@pytest.mark.parametrize("shots", [1000, 100_000])
@pytest.mark.parametrize("mode", ["binomial", "poisson"])
def test_d2_std_error_is_calibrated(mode, shots):
    # z = (d2 - exact d2) / d2_std_error, pooled over n: 750 draws per case
    z = []
    for pairs in _random_pairs():
        for i, (a, b) in enumerate(pairs):
            exact = hsd_exact(a, b) ** 2
            for seed in NOISE_SEEDS:
                m = measure_hsd(a, b, NoiseModel(mode, shots, seed), (i,))
                z.append((m.d2 - exact) / m.d2_std_error)
    z = np.array(z)
    assert z.size == 3 * PAIRS_PER_N * len(NOISE_SEEDS)
    assert 0.92 <= np.mean(np.abs(z) <= 2.0) <= 0.98
    assert abs(z.mean()) <= 0.1
    assert 0.9 <= z.std() <= 1.1


@pytest.mark.parametrize("init_seed", [0, 1, 2])
def test_simulated_kmeans_labels_the_demo_as_exact(init_seed):
    points = two_gaussian_demo(1000, seed=0)
    exact = kmeans(points, 2, init_seed=init_seed, backend=ExactHsdBackend()).labels
    backend = SimulatedHsdBackend(NoiseModel("binomial", 100_000, 0))
    simulated = kmeans(points, 2, init_seed=init_seed, backend=backend).labels
    agree = max(np.mean(simulated == exact), np.mean(simulated == 1 - exact))  # up to renaming
    assert agree >= 0.999


def _relative_d2_error(n, shots):
    """Summed d2_std_error over summed exact d2, binomial noise, for
    PAIRS_PER_N pairs of n-qubit points at 0.9 safe_radius(2^n) in random
    directions."""
    rng = np.random.default_rng(n)
    radius = 0.9 * safe_radius(2 ** n)
    error = exact = 0.0
    for i in range(PAIRS_PER_N):
        a, b = (encode(radius * x / np.linalg.norm(x)) for x in rng.standard_normal((2, 4 ** n - 1)))
        error += measure_hsd(a, b, NoiseModel("binomial", shots, 0), (i,)).d2_std_error
        exact += hsd_exact(a, b) ** 2
    return error / exact


def test_relative_d2_error_grows_with_the_qubit_count():
    # the interferometer saves POVM settings, not shots: at fixed shots the
    # d2 error relative to the mean d2 grows with n, so a fixed relative
    # error needs more shots as D grows; 4x the shots halve the error
    ratios = [_relative_d2_error(n, 100_000) for n in range(1, MAX_QUBITS + 1)]
    assert all(x < y for x, y in zip(ratios, ratios[1:]))
    for n, ratio in enumerate(ratios, 1):
        assert 0.45 <= _relative_d2_error(n, 400_000) / ratio <= 0.55
