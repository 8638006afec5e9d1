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
import re
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence

import numpy as np

from qhsd import clustering, interferometry, states
from qhsd.interferometry import EstimationError, NoiseModel
from qhsd.states import BellKind, DensityMatrix, StateError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ESTIMATION = 3
EXIT_IO = 4
# main's exit code for a refused run: the first kind the error is.  An
# EstimationError is also a ValueError, so it comes first.
_EXIT_CODES = ((EstimationError, EXIT_ESTIMATION), (ValueError, EXIT_INPUT), (OSError, EXIT_IO))

BELL_ORDER = [kind.value for kind in BellKind]
SEPARABLE_ORDER = ["00", "11", "01", "10"]

# reproduce's targets: a table's state names and factory, a grid's axis headers
# and second-axis factory (its first axis is Werner).  A factory is named, not
# held, so each call goes through whatever qhsd.states binds that name to.
_TABLES = {"bell_table": (BELL_ORDER, "make_bell"), "separable_table": (SEPARABLE_ORDER, "make_separable")}
_GRIDS = {"werner_grid": (["p_x", "p_y"], "make_werner"), "werner_horodecki_grid": (["p", "q"], "make_horodecki")}
REPRODUCE_TARGETS = (*_TABLES, *_GRIDS, "clusters_demo")

# The named states whose one parameter an inline `name:value` sets; the
# others take `name:key=value`.
_POSITIONAL = ("bell", "separable")


def parse_state_spec(spec: str) -> DensityMatrix:
    """A path to a state JSON file, or an inline shorthand for a named state
    (bell:phi+, separable:01, werner:p=0.5, horodecki:q=0.3, mixed:dim=4,
    mixed), read by the same state_from_json as the file."""
    try:
        if os.path.exists(spec):
            with open(spec, encoding="utf-8-sig") as fh:
                obj = json.load(fh)
        else:
            obj = _inline_json(spec)
        return states.state_from_json(obj)
    except (ValueError, RecursionError) as exc:
        raise StateError(f"state {spec!r}: {exc}") from None
    except OSError as exc:  # an I/O failure (exit 4), not a bad state, named as state errors are
        raise OSError(f"state {spec!r}: {exc}") from None


def _inline_json(spec: str) -> dict:
    """bell:phi+ -> {"named": "bell", "params": {"kind": "phi+"}},
    werner:p=0.5 -> {"named": "werner", "params": {"p": 0.5}}: a `key=value`
    value goes in as the number the CSV cell rule reads (_parse_cell), or as
    its text when that rule reads none."""
    name, _, arg = spec.partition(":")
    if not arg:
        return {"named": name}
    if name in _POSITIONAL:
        return {"named": name, "params": {states.NAMED_STATES[name][0]: arg}}
    key, _, value = arg.partition("=")
    number = _parse_cell(value)
    return {"named": name, "params": {key: value if number is None else number}}


def _overlap_dict(est: interferometry.OverlapEstimate) -> dict:
    return {
        "value": est.value,
        "std_error": est.std_error,
        "out_of_range": est.clamped,
        "counts": {**est.named_counts(), "shots_per_config": est.noise.shots},
    }


def _emit(payload: dict, path: Optional[str]) -> None:
    """Write the payload as a versioned JSON report to path, or to stdout."""
    report = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exact_report(a: DensityMatrix, b: DensityMatrix) -> dict:
    """Exact distance, with d2 assembled from the three overlaps as the
    measurement assembles it."""
    o11, o22, o12 = states.purity(a), states.purity(b), states.overlap_exact(a, b)
    value, d2, clamped = states.hsd_from_overlaps(o11, o22, o12)
    return {
        "hsd": value,
        "d2": d2,
        "clamped": clamped,
        "overlaps": {"o11": o11, "o22": o22, "o12": o12},
    }


def _simulated_report(m: interferometry.HsdMeasurement) -> dict:
    return {
        "hsd": m.value,
        "d2": m.d2,
        "d2_std_error": m.d2_std_error,
        "clamped": m.clamped,
        "overlaps": {k: _overlap_dict(o) for k, o in zip(("o11", "o22", "o12"), m.overlaps)},
    }


def _pair(args, noise: NoiseModel) -> None:
    # args.report, set by build_parser, builds the pair command's payload
    a = parse_state_spec(args.state_a)
    b = parse_state_spec(args.state_b)
    _emit(args.report(a, b, args, noise), args.out)


def cmd_distance(a: DensityMatrix, b: DensityMatrix, args, noise: NoiseModel) -> dict:
    if args.mode == "exact":
        return {"mode": "exact", **_exact_report(a, b)}
    m = interferometry.measure_hsd(a, b, noise)
    return {"mode": "simulated", "noise": asdict(noise), **_simulated_report(m)}


def cmd_overlap(a: DensityMatrix, b: DensityMatrix, args, noise: NoiseModel) -> dict:
    if args.mode == "exact":
        return {"mode": "exact", "overlap": states.overlap_exact(a, b)}
    est = interferometry.measure_overlap(a, b, noise)
    return {"mode": "simulated", "noise": asdict(noise), "overlap": _overlap_dict(est)}


def cmd_simulate(a: DensityMatrix, b: DensityMatrix, args, noise: NoiseModel) -> dict:
    m = interferometry.measure_hsd(a, b, noise)
    return {
        "inputs": {"state_a": args.state_a, "state_b": args.state_b, "noise": asdict(noise)},
        "measurement_plan": interferometry.plan_measurements(a.n_qubits),
        **_simulated_report(m),
    }


def _parse_cell(cell: str, kind=float):
    """kind(cell), a float by default, or None.  float() and int() would also
    read digit underscores, as in 1_0e-2, and non-ASCII digits, as in a
    full-width 1, which no CSV number has."""
    try:
        return None if "_" in cell or not cell.isascii() else kind(cell)
    except ValueError:
        return None


def _integer(text: str) -> int:
    """An integer flag's value, read by the CSV cell rule."""
    n = _parse_cell(text, int)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid integer value: {text!r}")
    return n


def _out_dir(text: str) -> str:
    """An --out-dir value; an empty one names no directory."""
    if not text:
        raise argparse.ArgumentTypeError("empty directory name")
    return text


def _read_points_csv(path: str) -> np.ndarray:
    """Numeric rows of a points CSV.  The first non-blank row is a header
    only when none of its cells is a number; any other row with a
    non-numeric cell is an error."""
    rows: List[List[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for i, raw in enumerate(filter(None, csv.reader(fh))):
                cells = [_parse_cell(x) for x in raw]
                if None not in cells:
                    rows.append(cells)
                elif i or any(c is not None for c in cells):
                    raise StateError(f"non-numeric row in {path}: {raw}")
        except (csv.Error, UnicodeDecodeError) as exc:  # e.g. a field over csv.field_size_limit(), non-UTF-8 bytes
            raise StateError(f"unreadable CSV {path}: {exc}") from None
    if not rows:
        raise StateError(f"no numeric rows in {path}")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise StateError(f"{path} row {i} has {len(row)} columns, row 0 has {width}")
    return np.array(rows)


# The cells _write_csv writes as repr(float(x)), and the characters for which
# csv quotes any other cell.
_NUMBERS = (int, float, np.floating)
_QUOTED = re.compile(r'[,"\r\n]')


def _text_cell(x) -> str:
    """str(x) as csv's excel dialect writes it: quoted, inner quotes doubled,
    when it holds a comma, a quote or a line break."""
    text = str(x)
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Header, then rows, in one write and byte for byte as csv.writer writes
    them: cells joined by commas, each row ending in \\r\\n.  A number cell is
    repr(float(x)), since a numpy float would print as np.float64(...).  (csv
    would also quote a row whose one cell is empty; every table here has two
    columns or more.)  The directory is made here, so a refused run makes none."""
    lines = [
        ",".join([repr(float(x)) if isinstance(x, _NUMBERS) else _text_cell(x) for x in row])
        for row in (header, *rows)
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _cluster(points: np.ndarray, backend, k: int, seed: int, max_iter: int, out_dir: str) -> None:
    """k-means over the points (kmeans checks them); writes labels.csv and model.json."""
    result = clustering.kmeans(points, k, init_seed=seed, max_iter=max_iter, backend=backend)
    _write_csv(
        os.path.join(out_dir, "labels.csv"),
        ["index", "label"],
        enumerate(result.labels.tolist()),
    )
    model = {
        "backend": backend.kind,
        "k": k,
        "seed": seed,
        "iterations": result.iterations,
        "cost": result.cost,
        "centroids": result.centroids.tolist(),
        "centroid_trace": [c.tolist() for c in result.centroid_trace],
    }
    _emit(model, os.path.join(out_dir, "model.json"))


def cmd_cluster(args, noise: NoiseModel) -> None:
    points = _read_points_csv(args.points)
    backend = clustering.make_backend(args.backend, noise)
    _cluster(points, backend, args.k, args.seed, args.max_iter, args.out_dir)


def _pair_tables(mats_a, mats_b, exact_d2, noise: NoiseModel) -> List[List[List[float]]]:
    """d2 of every pair (a, b), one row per a: the table of exact_d2(a, b),
    then under a stochastic noise mode the measured table, stream key (i, j)."""
    tables = [[[exact_d2(a, b) for b in mats_b] for a in mats_a]]
    if noise.mode != "exact":
        tables.append([
            [interferometry.measure_hsd(a, b, noise, (i, j)).d2 for j, b in enumerate(mats_b)]
            for i, a in enumerate(mats_a)
        ])
    return tables


def cmd_reproduce(args, noise: NoiseModel) -> None:
    target = args.target
    path = os.path.join(args.out_dir, target)
    if target in _TABLES:
        names, factory = _TABLES[target]
        mats = [getattr(states, factory)(n) for n in names]
        tables = _pair_tables(mats, mats, lambda a, b: _exact_report(a, b)["d2"], noise)
        for suffix, table in zip(("", "_simulated"), tables):
            rows = [[name] + row for name, row in zip(names, table)]
            _write_csv(f"{path}{suffix}.csv", [""] + names, rows)
    elif target in _GRIDS:
        header, factory = _GRIDS[target]
        grid = np.linspace(0.0, 1.0, 21).tolist()
        mats_a = [states.make_werner(x) for x in grid]
        mats_b = [getattr(states, factory)(y) for y in grid]
        tables = _pair_tables(mats_a, mats_b, lambda a, b: states.hsd_exact(a, b) ** 2, noise)
        rows = [
            [x, y] + [table[i][j] for table in tables]
            for i, x in enumerate(grid)
            for j, y in enumerate(grid)
        ]
        _write_csv(f"{path}.csv", header + ["d2", "d2_simulated"][: len(tables)], rows)
    else:
        points = clustering.two_gaussian_demo(n_points=1000, seed=args.seed)
        _write_csv(os.path.join(args.out_dir, "points.csv"), ["x1", "x2", "x3"], points.tolist())
        _cluster(points, clustering.ExactHsdBackend(), 2, args.seed, 100, args.out_dir)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_integer, default=NoiseModel.seed,
                   help="master RNG seed (default %(default)s)")
    p.add_argument("--shots", type=_integer, default=NoiseModel.shots, help="trials per POVM configuration")
    p.add_argument(
        "--noise", choices=list(interferometry.NOISE_MODES), default=NoiseModel.mode,
        help="counting-statistics model",
    )


class _Parser(argparse.ArgumentParser):
    """Raises a refused flag or argument as a StateError, so that main reports
    it as it reports any bad input: one `error:` line and exit 2.  Subparsers
    take the class of their parent."""

    def error(self, message: str):
        raise StateError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qhsd",
        description="Hilbert-Schmidt distances between two-qubit states: exact "
        "values, simulated interferometric measurement, and HSD-based k-means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, report, help_text in (
        ("distance", cmd_distance, "HSD between two states"),
        ("overlap", cmd_overlap, "first-order overlap Tr(rho_a rho_b)"),
        ("simulate", cmd_simulate, "full simulation report with per-POVM counts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("state_a")
        p.add_argument("state_b")
        if report is not cmd_simulate:  # simulate always measures
            p.add_argument("--mode", choices=["exact", "simulated"], default="exact")
        p.add_argument("--out", help="write report JSON here instead of stdout")
        _add_common(p)
        p.set_defaults(func=_pair, report=report)

    p = sub.add_parser("cluster", help="k-means over a point-cloud CSV")
    p.add_argument("points")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--backend", choices=list(clustering.BACKEND_KINDS), default="euclidean")
    p.add_argument("--max-iter", type=_integer, default=100, dest="max_iter")
    p.add_argument("--out-dir", type=_out_dir, required=True, dest="out_dir")
    _add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("reproduce", help="regenerate the reference tables and grids")
    p.add_argument("target", choices=list(REPRODUCE_TARGETS))
    p.add_argument("--out-dir", type=_out_dir, required=True, dest="out_dir")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args, NoiseModel(args.noise, args.shots, args.seed))
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
