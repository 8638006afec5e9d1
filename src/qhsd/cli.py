"""Command-line front end.

Subcommands: distance, overlap, simulate, cluster, reproduce.  All runs are
deterministic given their full flag set including --seed.  Exit codes:
0 success, 2 input/parse error, 3 estimation failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional, Sequence

import numpy as np

from qhsd import clustering, interferometry, states
from qhsd.encoding import EncodingError
from qhsd.interferometry import EstimationError, NoiseModel
from qhsd.states import BellKind, DensityMatrix, StateError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4

_BELL_ALIASES = {
    "phi+": BellKind.PHI_PLUS,
    "phi-": BellKind.PHI_MINUS,
    "psi+": BellKind.PSI_PLUS,
    "psi-": BellKind.PSI_MINUS,
}

BELL_ORDER = ["phi+", "phi-", "psi+", "psi-"]
SEPARABLE_ORDER = ["00", "11", "01", "10"]

REPRODUCE_TARGETS = (
    "bell_table",
    "separable_table",
    "werner_grid",
    "werner_horodecki_grid",
    "clusters_demo",
)


def parse_state_spec(spec: str) -> DensityMatrix:
    """Either a path to a state JSON file or an inline named form such as
    bell:phi+, separable:01, werner:p=0.5, horodecki:q=0.3, mixed:dim=4."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return states.state_from_json(json.load(fh))
    name, _, arg = spec.partition(":")
    if name == "bell":
        if arg not in _BELL_ALIASES:
            raise StateError(f"unknown bell state {arg!r}")
        return states.make_bell(_BELL_ALIASES[arg])
    if name == "separable":
        return states.make_separable(arg)
    if name == "werner":
        return states.make_werner(_named_value(arg, "p"))
    if name == "horodecki":
        return states.make_horodecki(_named_value(arg, "q"))
    if name == "mixed":
        dim = int(_named_value(arg, "dim")) if arg else 4
        return states.maximally_mixed(dim)
    raise StateError(f"cannot parse state spec {spec!r} (not a file, not a named form)")


def _named_value(arg: str, key: str) -> float:
    k, _, v = arg.partition("=")
    if k != key or not v:
        raise StateError(f"expected {key}=<value>, got {arg!r}")
    return float(v)


def _noise_from_args(args) -> NoiseModel:
    return NoiseModel(args.noise, args.shots, args.seed)


def _overlap_dict(est: interferometry.OverlapEstimate) -> dict:
    return {
        "value": est.value,
        "std_error": est.std_error,
        "out_of_range": est.clamped,
        "counts": {**est.counts.named(), "shots_per_config": est.counts.shots_per_config},
    }


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _distance_report(a: DensityMatrix, b: DensityMatrix, mode: str, noise: NoiseModel) -> dict:
    if mode == "exact":
        o11, o22, o12 = states.purity(a), states.purity(b), states.overlap_exact(a, b)
        value, clamped = states.hsd_from_overlaps(o11, o22, o12)
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "exact",
            "hsd": value,
            "d2": o11 + o22 - 2.0 * o12,
            "clamped": clamped,
            "overlaps": {"o11": o11, "o22": o22, "o12": o12},
        }
    m = interferometry.measure_hsd(a, b, noise)
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "simulated",
        "noise": {"mode": noise.mode, "shots": noise.shots, "seed": noise.seed},
        "hsd": m.value,
        "d2": m.d2,
        "d2_std_error": m.d2_std_error,
        "clamped": m.clamped,
        "overlaps": {
            "o11": _overlap_dict(m.overlaps[0]),
            "o22": _overlap_dict(m.overlaps[1]),
            "o12": _overlap_dict(m.overlaps[2]),
        },
    }


def cmd_distance(args) -> int:
    a = parse_state_spec(args.state_a)
    b = parse_state_spec(args.state_b)
    _emit(_distance_report(a, b, args.mode, _noise_from_args(args)), args)
    return EXIT_OK


def cmd_overlap(args) -> int:
    a = parse_state_spec(args.state_a)
    b = parse_state_spec(args.state_b)
    if args.mode == "exact":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "exact",
            "overlap": states.overlap_exact(a, b),
        }
    else:
        noise = _noise_from_args(args)
        est = interferometry.measure_overlap(a, b, noise)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "simulated",
            "noise": {"mode": noise.mode, "shots": noise.shots, "seed": noise.seed},
            "overlap": _overlap_dict(est),
        }
    _emit(payload, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    a = parse_state_spec(args.state_a)
    b = parse_state_spec(args.state_b)
    noise = _noise_from_args(args)
    m = interferometry.measure_hsd(a, b, noise)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "inputs": {
            "state_a": args.state_a,
            "state_b": args.state_b,
            "noise": {"mode": noise.mode, "shots": noise.shots, "seed": noise.seed},
        },
        "measurement_plan": {
            "overlap_povms": interferometry.plan_measurements(a.n_qubits, "overlap"),
            "tomography_settings": interferometry.plan_measurements(a.n_qubits, "tomography"),
        },
        "overlaps": {
            "o11": _overlap_dict(m.overlaps[0]),
            "o22": _overlap_dict(m.overlaps[1]),
            "o12": _overlap_dict(m.overlaps[2]),
        },
        "hsd": m.value,
        "d2": m.d2,
        "d2_std_error": m.d2_std_error,
        "clamped": m.clamped,
    }
    _emit(payload, args)
    return EXIT_OK


def _read_points_csv(path: str) -> np.ndarray:
    rows: List[List[float]] = []
    with open(path, newline="") as fh:
        for raw in csv.reader(fh):
            if not raw:
                continue
            try:
                rows.append([float(x) for x in raw])
            except ValueError:
                if rows:
                    raise StateError(f"non-numeric row in {path}: {raw}")
                continue  # header line
    if not rows:
        raise StateError(f"no numeric rows in {path}")
    return np.array(rows)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (int, float, np.floating)) else x for x in row])


def cmd_cluster(args) -> int:
    points = _read_points_csv(args.points)
    noise = _noise_from_args(args) if args.backend == "hsd_simulated" else None
    backend = clustering.make_backend(args.backend, noise)
    result = clustering.kmeans(
        points, args.k, init_seed=args.seed, max_iter=args.max_iter, backend=backend
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(args.out_dir, "labels.csv"),
        ["index", "label"],
        [(i, int(l)) for i, l in enumerate(result.labels)],
    )
    model = {
        "schema_version": SCHEMA_VERSION,
        "backend": args.backend,
        "k": args.k,
        "seed": args.seed,
        "iterations": result.iterations,
        "cost": result.cost,
        "centroids": result.model.centroids.tolist(),
        "centroid_trace": [c.tolist() for c in result.centroid_trace],
    }
    with open(os.path.join(args.out_dir, "model.json"), "w") as fh:
        fh.write(json.dumps(model, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _simulated_d2(a: DensityMatrix, b: DensityMatrix, noise: NoiseModel, key) -> float:
    return interferometry.measure_hsd(a, b, noise, key).d2


def _state_table(names: List[str], factory, noise: NoiseModel, out_dir: str, stem: str) -> None:
    mats = [factory(n) for n in names]
    rows = []
    for i, a in enumerate(mats):
        row = [names[i]]
        for j, b in enumerate(mats):
            o11, o22, o12 = states.purity(a), states.purity(b), states.overlap_exact(a, b)
            row.append(o11 + o22 - 2.0 * o12)
        rows.append(row)
    _write_csv(os.path.join(out_dir, f"{stem}.csv"), [""] + names, rows)
    if noise.mode != "exact":
        sim_rows = []
        for i, a in enumerate(mats):
            row = [names[i]]
            for j, b in enumerate(mats):
                row.append(_simulated_d2(a, b, noise, (i, j)))
            sim_rows.append(row)
        _write_csv(os.path.join(out_dir, f"{stem}_simulated.csv"), [""] + names, sim_rows)


def cmd_reproduce(args) -> int:
    noise = _noise_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    target = args.target
    if target == "bell_table":
        _state_table(
            BELL_ORDER, lambda n: states.make_bell(_BELL_ALIASES[n]), noise, args.out_dir, "bell_table"
        )
    elif target == "separable_table":
        _state_table(
            SEPARABLE_ORDER, states.make_separable, noise, args.out_dir, "separable_table"
        )
    elif target in ("werner_grid", "werner_horodecki_grid"):
        grid = np.linspace(0.0, 1.0, 21)
        if target == "werner_grid":
            header = ["p_x", "p_y", "d2"]
            make_a, make_b = states.make_werner, states.make_werner
        else:
            header = ["p", "q", "d2"]
            make_a, make_b = states.make_werner, states.make_horodecki
        stochastic = noise.mode != "exact"
        if stochastic:
            header = header + ["d2_simulated"]
        rows = []
        for i, x in enumerate(grid):
            for j, y in enumerate(grid):
                a, b = make_a(x), make_b(y)
                row = [x, y, states.hsd_exact(a, b) ** 2]
                if stochastic:
                    row.append(_simulated_d2(a, b, noise, (i, j)))
                rows.append(row)
        _write_csv(os.path.join(args.out_dir, f"{target}.csv"), header, rows)
    elif target == "clusters_demo":
        points = clustering.two_gaussian_demo(n_points=1000, seed=args.seed)
        _write_csv(os.path.join(args.out_dir, "points.csv"), ["x1", "x2", "x3"], points)
        cluster_args = argparse.Namespace(
            points=os.path.join(args.out_dir, "points.csv"),
            k=2,
            backend="hsd_exact",
            seed=args.seed,
            max_iter=100,
            out_dir=args.out_dir,
            noise=args.noise,
            shots=args.shots,
        )
        cmd_cluster(cluster_args)
    else:
        raise StateError(f"unknown reproduce target {target!r}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    p.add_argument("--shots", type=int, default=10_000, help="trials per POVM configuration")
    p.add_argument(
        "--noise", choices=["exact", "binomial", "poisson"], default="exact",
        help="counting-statistics model",
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhsd",
        description="Hilbert-Schmidt distances between two-qubit states: exact "
        "values, simulated interferometric measurement, and HSD-based k-means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="HSD between two states")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--mode", choices=["exact", "simulated"], default="exact")
    p.add_argument("--out", help="write report JSON here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("overlap", help="first-order overlap Tr(rho_a rho_b)")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--mode", choices=["exact", "simulated"], default="exact")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("simulate", help="full simulation report with per-POVM counts")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cluster", help="k-means over a point-cloud CSV")
    p.add_argument("points")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--backend", choices=list(clustering.BACKEND_KINDS), default="euclidean")
    p.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("reproduce", help="regenerate the reference tables and grids")
    p.add_argument("target", choices=list(REPRODUCE_TARGETS))
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (StateError, EncodingError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
