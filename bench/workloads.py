"""The benchmark's workloads: CLI argument lists, inputs and output checks.

Each workload is a list of `qhsd` CLI calls made from the benchmark seed.
A call's outputs are checked against references the benchmark computes
itself, outside the timed region.  One pass runs every call once.  k-means
converges in 2 to 6 iterations depending on the CLI seed, so a k-means pass
takes its inputs in a fixed mix of iteration counts (see `_ClusterWorkload`):
every benchmark seed then gives other inputs but the same amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

SHOTS = 100_000
K = 2
DEMO_POINTS = 1000  # fixed by `qhsd reproduce clusters_demo`
SEED_STRIDE = 1000  # k-means CLI seeds of benchmark seed S lie in [S * 1000, S * 1000 + 1000)
GRID = np.linspace(0.0, 1.0, 21)  # fixed by `qhsd reproduce werner_grid`
EXACT_D2_TOL = 1e-12

# Shot-noise bound on a simulated d2.  With f_II = shots, an overlap estimate
# is 1 + sum_c w_c f_c / shots with weights -2, -2, 4, so its variance is at
# most (4 + 4 + 16) / 4 / shots = 6 / shots; d2 = O11 + O22 - 2 O12 from
# independent streams then has variance at most 36 / shots.  The check
# allows 8 standard deviations.
D2_SIGMA_BOUND = 6.0
D2_SIGMAS = 8.0


def simulated_d2_tolerance(shots: int) -> float:
    return D2_SIGMAS * D2_SIGMA_BOUND / math.sqrt(shots)


@dataclass(frozen=True)
class Call:
    argv: Tuple[str, ...]
    out_dir: str
    cli_seed: int
    points_path: Optional[str] = None  # input CSV when the benchmark wrote one


@dataclass
class Outcome:
    """What the checks found in one call's outputs."""

    distances: int = 0
    agreement: float = 0.0
    bytes_written: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def file_digests(out_dir: str) -> Dict[str, str]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_points_csv(path: str, points: np.ndarray) -> None:
    """Same layout the CLI writes for `reproduce clusters_demo`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "x3"])
        for row in points:
            w.writerow([repr(float(x)) for x in row])


def reference_labels(
    points: np.ndarray, k: int, seed: int, max_iter: int = 100
) -> Tuple[np.ndarray, int]:
    """Labels and iteration count of a Euclidean Lloyd iteration from the
    same seeded start as `qhsd cluster` (k distinct points drawn without
    replacement, in row order), counting iterations as `qhsd` does."""
    rng = np.random.default_rng(seed)
    distinct = np.unique(points, axis=0)
    centroids = distinct[np.sort(rng.choice(distinct.shape[0], size=k, replace=False))]
    labels = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new = d2.argmin(axis=1)
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        centroids = np.array(
            [points[labels == j].mean(axis=0) if (labels == j).any() else centroids[j] for j in range(k)]
        )
    return labels, iterations


class Workload:
    name = ""
    why = ""

    def __init__(self, calls_per_pass: int):
        self.calls_per_pass = calls_per_pass
        self._references: Dict[object, object] = {}  # per-input reference results

    def cli_seeds(self, seed: int) -> List[int]:
        return [seed * self.calls_per_pass + i for i in range(self.calls_per_pass)]

    def prepare(self, work_dir: str, seed: int) -> List[Call]:
        """Write the inputs (outside any timed region) and list the calls."""
        return [self._call(work_dir, s, os.path.join(work_dir, f"out-{s}")) for s in self.cli_seeds(seed)]

    def _call(self, work_dir: str, cli_seed: int, out_dir: str) -> Call:
        raise NotImplementedError

    def check(self, call: Call) -> Outcome:
        out = Outcome(digests=file_digests(call.out_dir))
        out.bytes_written = sum(
            os.path.getsize(os.path.join(call.out_dir, n)) for n in out.digests
        )
        try:
            self._check(call, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            out.problems.append(f"unreadable output: {exc!r}")
        return out

    def _check(self, call: Call, out: Outcome) -> None:
        raise NotImplementedError


class _ClusterWorkload(Workload):
    """Inputs and checks shared by the two k-means workloads.

    `mix` maps an iteration count of the benchmark's Euclidean k-means on a
    call's points to the number of such calls in a pass.  `qhsd` k-means
    takes the same number of iterations with `hsd_exact` and two more with
    `hsd_simulated` (its patience), so the mix fixes a pass's work.  The
    counts follow the shares over CLI seeds 0-2399; a benchmark seed's CLI
    seeds are the first ones in its stride that fill the mix."""

    require_reference_labels = False

    def __init__(self, mix: Dict[int, int], points: int):
        super().__init__(sum(mix.values()))
        self.mix = dict(mix)
        self.points = points

    def make_points(self, cli_seed: int) -> np.ndarray:
        from qhsd.clustering import two_gaussian_demo

        return two_gaussian_demo(n_points=self.points, seed=cli_seed)

    def cli_seeds(self, seed: int) -> List[int]:
        wanted = dict(self.mix)
        seeds = []
        for cli_seed in range(seed * SEED_STRIDE, (seed + 1) * SEED_STRIDE):
            _, iterations = reference_labels(self.make_points(cli_seed), K, cli_seed)
            if wanted.get(iterations, 0) > 0:
                wanted[iterations] -= 1
                seeds.append(cli_seed)
                if not any(wanted.values()):
                    return seeds
        raise RuntimeError(f"{self.name}: seed {seed} does not fill the mix {self.mix}")

    def _points(self, call: Call) -> np.ndarray:
        path = call.points_path or os.path.join(call.out_dir, "points.csv")
        _, rows = _read_csv(path)
        return np.array(rows, dtype=float)

    def _check(self, call: Call, out: Outcome) -> None:
        points = self._points(call)
        header, rows = _read_csv(os.path.join(call.out_dir, "labels.csv"))
        table = np.array(rows, dtype=float).reshape(-1, 2)
        labels = table[:, 1].astype(int)
        with open(os.path.join(call.out_dir, "model.json")) as fh:
            model = json.load(fh)
        n = points.shape[0]
        if header != ["index", "label"] or not np.array_equal(table[:, 0], np.arange(n)):
            out.problems.append("labels.csv does not list every point once, in order")
            return
        if not np.array_equal(labels, table[:, 1]) or labels.min() < 0 or labels.max() >= K:
            out.problems.append(f"labels are not integers in 0..{K - 1}")
            return
        iterations = int(model["iterations"])
        if iterations < 1:
            out.problems.append(f"model.json reports {iterations} iterations")
        centroids = np.array(model["centroids"])
        means = np.array([points[labels == j].mean(axis=0) for j in range(K)])
        if centroids.shape != (K, 3) or not np.allclose(centroids, means, rtol=0, atol=1e-12):
            out.problems.append("centroids are not the means of their labelled points")
        if call.cli_seed not in self._references:
            self._references[call.cli_seed] = reference_labels(points, K, call.cli_seed)[0]
        reference = self._references[call.cli_seed]
        # a noisy run may converge to the same partition under swapped names
        out.agreement = max(
            float(np.mean(np.array(perm)[labels] == reference))
            for perm in itertools.permutations(range(K))
        )
        if self.require_reference_labels and not np.array_equal(labels, reference):
            out.problems.append("labels differ from the euclidean reference")
        out.distances = n * K * iterations


class ClustersExact(_ClusterWorkload):
    name = "clusters_exact"
    why = (
        "reproduce clusters_demo: 1000 points, hsd_exact k-means; time in encode and "
        "hsd_exact from the assign loop, interferometry bypassed"
    )
    require_reference_labels = True

    def _call(self, work_dir, cli_seed, out_dir):
        argv = ("reproduce", "clusters_demo", "--seed", str(cli_seed), "--out-dir", out_dir)
        return Call(argv, out_dir, cli_seed)


class ClustersSimulated(_ClusterWorkload):
    name = "clusters_simulated"
    why = (
        "cluster --backend hsd_simulated on 40 demo points: 1-qubit states, no state repeats, "
        "per-pair interferometry under the k-means loop"
    )

    def _call(self, work_dir, cli_seed, out_dir):
        path = os.path.join(work_dir, f"points-{cli_seed}.csv")
        write_points_csv(path, self.make_points(cli_seed))
        argv = (
            "cluster", path, "--k", str(K), "--backend", "hsd_simulated",
            "--noise", "binomial", "--shots", str(SHOTS),
            "--seed", str(cli_seed), "--out-dir", out_dir,
        )
        return Call(argv, out_dir, cli_seed, points_path=path)


class WernerBinomial(Workload):
    name = "werner_binomial"
    why = (
        "reproduce werner_grid --noise binomial: 441 pairs of 2-qubit states from only 21 "
        "matrices; time in measure_overlap, no encode or k-means"
    )

    def _call(self, work_dir, cli_seed, out_dir):
        argv = (
            "reproduce", "werner_grid", "--noise", "binomial", "--shots", str(SHOTS),
            "--seed", str(cli_seed), "--out-dir", out_dir,
        )
        return Call(argv, out_dir, cli_seed)

    def exact_d2(self, px: float, py: float) -> float:
        from qhsd import states

        if (px, py) not in self._references:
            a, b = states.make_werner(px), states.make_werner(py)
            self._references[px, py] = states.hsd_exact(a, b) ** 2
        return self._references[px, py]

    def _check(self, call: Call, out: Outcome) -> None:
        header, rows = _read_csv(os.path.join(call.out_dir, "werner_grid.csv"))
        if header != ["p_x", "p_y", "d2", "d2_simulated"]:
            out.problems.append(f"unexpected werner_grid.csv header {header}")
            return
        values = np.array(rows, dtype=float)
        expected_grid = np.array([(x, y) for x in GRID for y in GRID])
        if values.shape != (GRID.size ** 2, 4) or not np.array_equal(values[:, :2], expected_grid):
            out.problems.append("werner_grid.csv does not cover the 21x21 grid in order")
            return
        exact = np.array([self.exact_d2(px, py) for px, py in values[:, :2]])
        bad_exact = int((np.abs(values[:, 2] - exact) > EXACT_D2_TOL).sum())
        if bad_exact:
            out.problems.append(f"{bad_exact} exact d2 cells differ from hsd_exact^2")
        within = np.abs(values[:, 3] - exact) <= simulated_d2_tolerance(SHOTS)
        out.agreement = float(within.mean())
        if not within.all():
            out.problems.append(
                f"{int((~within).sum())} simulated d2 cells outside the shot-noise tolerance"
            )
        out.distances = 2 * values.shape[0]


def make_workloads(tiny: bool = False) -> Dict[str, Workload]:
    """The benchmark's workloads; `tiny` gives one small call each, for tests."""
    if tiny:
        found = [
            ClustersExact({2: 1}, points=DEMO_POINTS),
            WernerBinomial(1),
            ClustersSimulated({2: 1}, points=16),
        ]
    else:
        found = [
            ClustersExact({2: 4, 3: 9, 4: 10, 5: 1}, points=DEMO_POINTS),
            WernerBinomial(8),
            ClustersSimulated({2: 11, 3: 8, 4: 5}, points=40),
        ]
    return {w.name: w for w in found}
