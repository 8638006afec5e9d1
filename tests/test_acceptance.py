"""Acceptance suite.

One test per release criterion, each printing a PASS line on success (run
with `pytest -s tests/test_acceptance.py` to see them).
"""

import numpy as np

from qhsd.clustering import EuclideanBackend, ExactHsdBackend, SimulatedHsdBackend, kmeans, two_gaussian_demo
from qhsd.encoding import encode, safe_radius
from qhsd.interferometry import (
    NoiseModel,
    measure_hsd,
    measure_overlap,
    plan_measurements,
)
from qhsd.states import (
    BellKind,
    decode,
    hsd_exact,
    make_bell,
    make_horodecki,
    make_separable,
    make_werner,
    overlap_exact,
    purity,
)

from oracles import random_mixed


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def _d2_via_overlaps(a, b):
    return purity(a) + purity(b) - 2.0 * overlap_exact(a, b)


def test_criterion_01_bell_table():
    bells = [make_bell(k) for k in BellKind]
    for i, a in enumerate(bells):
        for j, b in enumerate(bells):
            expected = 0.0 if i == j else 2.0
            assert abs(hsd_exact(a, b) ** 2 - expected) <= 1e-9
            assert abs(_d2_via_overlaps(a, b) - expected) <= 1e-9
    _report("1 bell table")


def test_criterion_02_separable_table():
    seps = [make_separable(b) for b in ("00", "11", "01", "10")]
    for i, a in enumerate(seps):
        for j, b in enumerate(seps):
            expected = 0.0 if i == j else 2.0
            assert abs(hsd_exact(a, b) ** 2 - expected) <= 1e-9
    _report("2 separable table")


def test_criterion_03_werner_grid():
    grid = np.linspace(0.0, 1.0, 21)
    for px in grid:
        for py in grid:
            closed = 0.75 * (px - py) ** 2
            a, b = make_werner(px), make_werner(py)
            assert abs(hsd_exact(a, b) ** 2 - closed) <= 1e-9
            assert abs(_d2_via_overlaps(a, b) - closed) <= 1e-9
    _report("3 werner grid")


def test_criterion_04_werner_horodecki_grid():
    grid = np.linspace(0.0, 1.0, 21)
    for p in grid:
        for q in grid:
            a, b = make_werner(p), make_horodecki(q)
            assert abs(hsd_exact(a, b) ** 2 - _d2_via_overlaps(a, b)) <= 1e-9
    a, b = make_werner(1.0), make_horodecki(1.0)
    assert abs(hsd_exact(a, b) ** 2 - 2.0) <= 1e-9
    a, b = make_werner(0.0), make_horodecki(0.0)
    assert abs(hsd_exact(a, b) ** 2 - 0.75) <= 1e-9
    _report("4 werner-horodecki grid")


def test_criterion_05_estimator_fidelity():
    rng = np.random.default_rng(50)
    exact_noise = NoiseModel("exact", 1000, 0)
    for _ in range(1000):
        a, b = random_mixed(4, rng), random_mixed(4, rng)
        est = measure_overlap(a, b, exact_noise)
        assert abs(est.value - overlap_exact(a, b)) <= 1e-9

    a, b = make_werner(0.35), make_werner(0.85)
    exact = overlap_exact(a, b)
    hits = 0
    for seed in range(300):
        est = measure_overlap(a, b, NoiseModel("binomial", 100_000, seed))
        if abs(est.value - exact) <= 3 * est.std_error:
            hits += 1
    assert hits >= 297

    stds = []
    shot_grid = [1000, 10_000, 100_000]
    for shots in shot_grid:
        vals = [
            measure_overlap(a, b, NoiseModel("binomial", shots, seed)).value
            for seed in range(200)
        ]
        stds.append(np.std(vals))
    slope = np.polyfit(np.log(shot_grid), np.log(stds), 1)[0]
    assert abs(slope + 0.5) <= 0.05
    _report("5 estimator fidelity")


def test_criterion_06_error_envelope():
    a = make_bell(BellKind.PHI_PLUS)
    b = make_bell(BellKind.PSI_MINUS)
    within = 0
    for seed in range(300):
        m = measure_hsd(a, b, NoiseModel("binomial", 10_000, seed))
        if abs(m.d2 - 2.0) <= 0.15 * 2.0:
            within += 1
    assert within >= 0.95 * 300
    _report("6 15% error envelope")


def test_criterion_07_measurement_planning():
    assert plan_measurements(2) == {"overlap_povms": 12, "tomography_settings": 32}
    _report("7 measurement planning")


def test_criterion_08_encoding_isometry():
    for dim in (2, 4):
        rng = np.random.default_rng(80 + dim)
        r = safe_radius(dim)
        n_feat = dim * dim - 1
        for _ in range(1000):
            u = rng.standard_normal(n_feat)
            v = rng.standard_normal(n_feat)
            u *= r * rng.random() / np.linalg.norm(u)
            v *= r * rng.random() / np.linalg.norm(v)
            d = hsd_exact(encode(u), encode(v))
            assert abs(d - np.sqrt(2) * np.linalg.norm(u - v)) <= 1e-9
            assert np.abs(decode(encode(u)) - u).max() <= 1e-10
    assert abs(np.linalg.norm(decode(make_bell(BellKind.PHI_PLUS))) - np.sqrt(3 / 8)) <= 1e-12
    _report("8 encoding isometry")


def test_criterion_09_clustering_equivalence():
    points = two_gaussian_demo(1000, seed=90)
    r_euc = kmeans(points, 2, init_seed=91, backend=EuclideanBackend())
    r_hsd = kmeans(points, 2, init_seed=91, backend=ExactHsdBackend())
    assert np.array_equal(r_euc.labels, r_hsd.labels)

    subsample = points[::10]  # 100-point subsample keeps the noisy path fast
    r_sub = kmeans(subsample, 2, init_seed=91, backend=EuclideanBackend())
    backend = SimulatedHsdBackend(NoiseModel("binomial", 100_000, 92))
    r_sim = kmeans(subsample, 2, init_seed=91, backend=backend)
    agreement = max(
        np.mean(r_sub.labels == r_sim.labels), np.mean(r_sub.labels == 1 - r_sim.labels)
    )
    assert agreement >= 0.99
    _report("9 clustering equivalence")


def test_criterion_10_swap_identity():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    assert np.abs(np.eye(4) - 2.0 * make_bell(BellKind.PSI_MINUS).matrix - swap).max() <= 1e-12
    _report("10 swap identity")
