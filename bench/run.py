"""Benchmark runner: times `qhsd` CLI workloads in one warmed process.

    python3 -m bench --workload clusters_exact --seed 0 --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics of
`bench.spans`.  Every call's outputs are checked outside the timed region.
Calls and set-up are timed by the CPU time of the process that does the work,
scaled to a reference machine speed (see `calibrate`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (the
environment, output digests, pass times) goes to
`bench/.work/results/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

SETUP_REPEATS = 15
SUBPROCESS_TIMEOUT_S = 60

# A shared host changes speed from one second to the next (other tenants use
# its cores and caches): on a 2-core VM the same call's CPU time moved by up to
# a factor of two between runs.  So `calibrate` runs before every timed call
# and after the last one, and the calls' CPU times are multiplied by
# REFERENCE_CALIBRATION_S / (the mean of those calibrations).  Times are then
# seconds on a machine where `calibrate` takes REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.02
CALIBRATION_ROUNDS = 400

END_TO_END_UNITS = {
    "cpu_s": "s",
    "distances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "label_agreement": "fraction",
}


def layer_units() -> Dict[str, str]:
    """Name -> unit of the metrics a traced run reports."""
    from bench.spans import LAYER_METRICS

    return dict(LAYER_METRICS, **{"cli.bytes_written": "bytes", "trace.overhead_frac": "fraction"})


@dataclass
class PassResult:
    call_cpu_s: List[float] = field(default_factory=list)  # CPU time inside cli.main, per call
    call_wall_s: List[float] = field(default_factory=list)  # wall time of the same, for the record
    calibration_s: List[float] = field(default_factory=list)  # before each call and after the last
    distances: int = 0
    agreements: List[float] = field(default_factory=list)
    bytes_written: int = 0
    digests: Dict[int, Dict[str, str]] = field(default_factory=dict)  # of calls that passed
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


def source_checkout_ok() -> bool:
    return os.path.isfile(os.path.join(SRC, "qhsd", "cli.py"))


def import_qhsd():
    """Import the checkout's qhsd, never an installed copy."""
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import qhsd.cli

    where = os.path.dirname(os.path.abspath(qhsd.cli.__file__))
    if where != os.path.join(SRC, "qhsd"):
        raise RuntimeError(f"imported qhsd from {where}, expected {SRC}/qhsd")
    return qhsd.cli


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """CPU time of fixed work in the style of the workloads, small numpy
    arrays under a Python loop.  It calls no qhsd code, so no change to qhsd
    moves it."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    acc = 0.0
    t0 = time.process_time()
    for _ in range(rounds):
        v = rng.standard_normal(3)
        big = np.kron(m, m)
        acc += float(np.trace(big @ big.T)) + float(np.sqrt(v @ v)) + sum(j * 0.5 for j in range(40))
    return time.process_time() - t0


def scaled(times: List[float], calibration: List[float]) -> List[float]:
    """`times` at the reference speed, from calibrations interleaved with them."""
    factor = REFERENCE_CALIBRATION_S / statistics.fmean(calibration)
    return [t * factor for t in times]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int = SETUP_REPEATS) -> Tuple[List[float], List[float]]:
    """CPU times of fresh interpreters that import qhsd.cli, one at a time,
    scaled and as measured; one untimed start first, so that byte-code
    caches exist as they do for a user."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-c", "import qhsd.cli"]
    times = []
    calibration = []
    for i in range(repeats + 1):
        if i:
            calibration.append(calibrate())
        t0 = children_cpu_s()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        # A blocking wait (Popen.wait(timeout) polls); the timer kills a hung
        # child instead.  The child's usage counts once it has been waited for.
        timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        elapsed = children_cpu_s() - t0
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
        if i:
            times.append(elapsed)
    calibration.append(calibrate())
    return scaled(times, calibration), times


def run_pass(cli, workload, calls, tracer=None) -> PassResult:
    """Run every call once; only `cli.main` is inside the timed region."""
    res = PassResult()
    if tracer is not None:
        tracer.reset()
    for call in calls:
        shutil.rmtree(call.out_dir, ignore_errors=True)
        os.makedirs(call.out_dir)
        res.attempted += 1
        res.calibration_s.append(calibrate())
        sink = io.StringIO()
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                w0, t0 = time.perf_counter(), time.process_time()
                try:
                    code = cli.main(list(call.argv))
                finally:
                    res.call_cpu_s.append(time.process_time() - t0)
                    res.call_wall_s.append(time.perf_counter() - w0)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:  # a crash is a failed call, and the run goes on
            code = None
            sink.write(traceback.format_exc())
        finally:
            if tracer is not None:
                tracer.remove()
        if code != 0:
            res.failed += 1
            res.problems.append(f"seed {call.cli_seed}: exit {code}: {sink.getvalue()[-500:]}")
            continue
        outcome = workload.check(call)
        res.distances += outcome.distances
        res.agreements.append(outcome.agreement)
        res.bytes_written += outcome.bytes_written
        if outcome.problems:
            res.failed += 1
            res.problems.extend(f"seed {call.cli_seed}: {p}" for p in outcome.problems)
        else:
            res.digests[call.cli_seed] = outcome.digests
    res.calibration_s.append(calibrate())
    if tracer is not None:
        res.layers = tracer.metrics()
        res.layers["cli.bytes_written"] = res.bytes_written
    return res


def environment() -> dict:
    lines = 0
    pkg = os.path.join(SRC, "qhsd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    commit = "unknown"  # a checkout without .git has no commit to name
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            ).stdout.strip() or commit
        except OSError:
            pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_qhsd_lines": lines,
    }


def compare_digests(workload: str, seen: Dict[int, Dict[str, str]]) -> Dict[str, int]:
    """Count output files whose sha256 matches the recorded one.  A changed
    digest is information, not a failure."""
    recorded = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(workload, {})
    tally = {"unchanged": 0, "changed": 0, "unrecorded": 0}
    for cli_seed, files in seen.items():
        ref = recorded.get(str(cli_seed), {})
        for name, digest in files.items():
            if name not in ref:
                tally["unrecorded"] += 1
            else:
                tally["unchanged" if ref[name] == digest else "changed"] += 1
    return tally


def measure(cli, workload, calls, seconds: float, trace: bool):
    """Passes until `seconds` are used up; with `trace`, each untraced pass
    is followed by a traced one on the same calls."""
    tracer = None
    if trace:
        from bench.spans import Tracer

        tracer = Tracer()
    plain: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(cli, workload, calls))
        if tracer is not None:
            traced.append(run_pass(cli, workload, calls, tracer))
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step / 2 >= seconds:
            break
    return plain, traced, tracer


def call_medians(passes: List[PassResult]) -> List[float]:
    """Each call's scaled CPU time, median over passes.  One slow pass on
    a shared machine then moves no call's figure."""
    per_pass = [scaled(p.call_cpu_s, p.calibration_s) for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def summarize(plain, traced, setup, trace: bool) -> Dict[str, float]:
    per_call = call_medians(plain)
    if trace:
        out = {}
        for name in traced[0].layers:
            values = [p.layers[name] for p in traced]
            # counts repeat exactly from pass to pass; keep them whole
            out[name] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)
        out["trace.overhead_frac"] = sum(call_medians(traced)) / sum(per_call) - 1.0
        return out
    agreements = [a for p in plain for a in p.agreements]
    return {
        "cpu_s": statistics.fmean(per_call),
        "distances_per_s": statistics.median(p.distances for p in plain) / sum(per_call),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "label_agreement": statistics.fmean(agreements) if agreements else 0.0,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from bench.workloads import make_workloads

    p = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(make_workloads()))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not source_checkout_ok():
        print(f"error: no qhsd sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cli = import_qhsd()
    from bench.workloads import make_workloads

    workload = make_workloads()[args.workload]
    setup, setup_cpu = ([], []) if args.trace else measure_setup()
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        calls = workload.prepare(tmp, args.seed)
        run_pass(cli, workload, calls[:1])  # warm-up: lazy set-up and caches, untimed
        plain, traced, tracer = measure(cli, workload, calls, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.write(os.path.join(WORK, f"spans-{workload.name}.npz"))

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [m for p in passes for m in p.problems]
    first: Dict[int, Dict[str, str]] = {}
    for p in passes:
        for cli_seed, files in p.digests.items():
            if first.setdefault(cli_seed, files) != files:
                failed += 1
                problems.append(f"seed {cli_seed}: output bytes differ between passes")

    values = summarize(plain, traced, setup, bool(args.trace))
    units = layer_units() if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls_per_pass": workload.calls_per_pass,
        "cli_argv": [list(c.argv) for c in calls],
        "environment": environment(),
        "passes": len(plain),
        "call_cpu_s": [p.call_cpu_s for p in plain],
        "calibration_s": [p.calibration_s for p in plain],
        "call_wall_s": [p.call_wall_s for p in plain],
        "traced_call_cpu_s": [p.call_cpu_s for p in traced],
        "setup_samples_s": setup,
        "setup_cpu_s": setup_cpu,
        "failed_frac": failed / attempted,
        "digests": {str(k): v for k, v in sorted(first.items())},
        "digests_vs_recorded": compare_digests(workload.name, first),
        "problems": problems,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {workload.name}: {len(plain)} passes of {workload.calls_per_pass} calls")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("output digests vs recorded " + json.dumps(record["digests_vs_recorded"]))
    print(f"failed_frac {record['failed_frac']:.4f}")
    for m in problems[:10]:
        print("problem: " + m)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0
