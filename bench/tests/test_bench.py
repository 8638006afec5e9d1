"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bench import run
from bench.spans import LAYER_METRICS, Tracer
from bench.workloads import K, SHOTS, make_workloads, simulated_d2_tolerance

cli = run.import_qhsd()
TINY = sorted(make_workloads(tiny=True))

# Span name -> workloads whose CLI calls must reach it.  No workload calls
# overlap_exact, make_horodecki or make_separable; their metrics read 0.
EXPECTED_CALLERS = {
    "cli.main": {"clusters_exact", "werner_binomial", "clusters_simulated"},
    "clustering.kmeans": {"clusters_exact", "clusters_simulated"},
    "clustering.assign": {"clusters_exact", "clusters_simulated"},
    "clustering.update_centroids": {"clusters_exact", "clusters_simulated"},
    "clustering.distance_sq": {"clusters_exact", "clusters_simulated"},
    "clustering.two_gaussian_demo": {"clusters_exact"},
    "encoding.encode": {"clusters_exact", "clusters_simulated"},
    "states.hsd_exact": {"clusters_exact", "werner_binomial"},
    "states.make_werner": {"werner_binomial"},
    "states.make_bell": {"werner_binomial"},
    "states.overlap_exact": set(),
    "states.make_horodecki": set(),
    "states.make_separable": set(),
    "interferometry.measure_hsd": {"werner_binomial", "clusters_simulated"},
    "interferometry.measure_overlap": {"werner_binomial", "clusters_simulated"},
}


def _snapshot():
    """Every attribute of every qhsd module and of the classes they define."""
    snap = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname != "qhsd" and not modname.startswith("qhsd."):
            continue
        snap[modname] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == modname:
                snap[f"{modname}.{attr}"] = dict(vars(obj))
    return snap


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One untraced and one traced tiny pass of each workload."""
    before = _snapshot()
    out = {}
    for name in TINY:
        workload = make_workloads(tiny=True)[name]
        calls = workload.prepare(str(tmp_path_factory.mktemp(name)), seed=3)
        tracer = Tracer()
        plain = run.run_pass(cli, workload, calls)
        traced = run.run_pass(cli, workload, calls, tracer)
        out[name] = (workload, calls, plain, traced, tracer.calls())
    out["snapshots"] = (before, _snapshot())
    return out


@pytest.mark.parametrize("name", TINY)
def test_tiny_workload_passes_its_checks(passes, name):
    _, calls, plain, traced, _ = passes[name]
    for res in (plain, traced):
        assert res.attempted == len(calls) == 1
        assert res.failed == 0, res.problems
        assert res.distances > 0
        assert res.agreements == [1.0]


def test_traced_run_restores_every_attribute(passes):
    before, after = passes["snapshots"]
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys(), key
        changed = [a for a in before[key] if before[key][a] is not after[key][a]]
        assert changed == [], key


@pytest.mark.parametrize("name", TINY)
def test_traced_outputs_match_untraced(passes, name):
    _, _, plain, traced, _ = passes[name]
    assert plain.digests and traced.digests == plain.digests


def test_expected_callers_cover_every_span():
    assert set(EXPECTED_CALLERS) == set(Tracer().names)


@pytest.mark.parametrize("name", TINY)
def test_wrapped_names_count_where_called(passes, name):
    calls = passes[name][4]
    missing = [s for s, where in EXPECTED_CALLERS.items() if name in where and calls[s] == 0]
    assert missing == []


@pytest.mark.parametrize("name", TINY)
def test_layer_counts_match_code_structure(passes, name):
    workload, _, _, traced, _ = passes[name]
    m = traced.layers
    assert set(m) == {n for n, _ in LAYER_METRICS} | {"cli.bytes_written"}
    assert m["cli.bytes_written"] > 0
    if name == "clusters_exact":
        assert m["interferometry.measure_overlap_calls"] == 0
        assert m["interferometry.shots_drawn"] == 0
    else:
        assert m["interferometry.measure_hsd_calls"] > 0
        assert m["interferometry.measure_overlap_calls"] == 3 * m["interferometry.measure_hsd_calls"]
    if name.startswith("clusters"):
        assert m["clustering.distance_sq_calls"] == workload.points * K * m["clustering.iterations"]
        # the mix fixes the work: simulated k-means waits two more iterations
        patience = 2 if name == "clusters_simulated" else 0
        assert m["clustering.iterations"] == sum((n + patience) * c for n, c in workload.mix.items())
        assert m["encoding.encode_calls"] == 2 * m["clustering.distance_sq_calls"]
    if name == "werner_binomial":
        # 441 distances x 3 overlaps x 4 POVM configurations x shots
        assert m["interferometry.shots_drawn"] == 441 * 3 * 4 * SHOTS
        assert m["states.hsd_exact_calls"] == 441


def test_checks_catch_corrupted_grid(passes, tmp_path):
    workload, calls, _, _, _ = passes["werner_binomial"]
    call = calls[0]
    path = os.path.join(call.out_dir, "werner_grid.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, rows = lines[0], [r.split(",") for r in lines[1:]]
    for column, delta in ((2, 1e-9), (3, 2 * simulated_d2_tolerance(SHOTS))):
        bad = [list(r) for r in rows]
        bad[5][column] = repr(float(bad[5][column]) + delta)
        shutil.copytree(call.out_dir, tmp_path / str(column))
        with open(tmp_path / str(column) / "werner_grid.csv", "w") as fh:
            fh.write("\n".join([header] + [",".join(r) for r in bad]) + "\n")
        moved = type(call)(call.argv, str(tmp_path / str(column)), call.cli_seed)
        assert len(workload.check(moved).problems) == 1


def test_checks_catch_relabelled_clusters(passes, tmp_path):
    workload, calls, _, _, _ = passes["clusters_exact"]
    call = calls[0]
    shutil.copytree(call.out_dir, tmp_path / "out")
    path = tmp_path / "out" / "labels.csv"
    lines = path.read_text().splitlines()
    index, label = lines[1].split(",")
    lines[1] = f"{index},{1.0 - float(label)!r}"
    path.write_text("\n".join(lines) + "\n")
    moved = type(call)(call.argv, str(tmp_path / "out"), call.cli_seed)
    assert workload.check(moved).problems


def test_simulated_tolerance_scales_as_inverse_sqrt_shots():
    assert simulated_d2_tolerance(4 * SHOTS) == pytest.approx(simulated_d2_tolerance(SHOTS) / 2)


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = make_workloads()
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    assert all(w["why"] == workloads[w["name"]].why for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "clusters_exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
