import contextlib
import csv
import io
import json
import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhsd import cli, states
from qhsd.clustering import BACKEND_KINDS
from qhsd.interferometry import NOISE_MODES, NoiseModel, measure_hsd


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_distance_exact_bell(capsys):
    code, out, _ = run(capsys, "distance", "bell:phi+", "bell:phi-")
    assert code == 0
    report = json.loads(out)
    assert report["d2"] == pytest.approx(2.0, abs=1e-9)
    assert report["overlaps"] == pytest.approx({"o11": 1.0, "o22": 1.0, "o12": 0.0}, abs=1e-12)


def test_distance_exact_identical_werner(capsys):
    code, out, _ = run(capsys, "distance", "werner:p=0.5", "werner:p=0.5")
    assert code == 0
    assert json.loads(out)["d2"] == pytest.approx(0.0, abs=1e-12)


def test_distance_werner_vs_horodecki_extremes(capsys):
    code, out, _ = run(capsys, "distance", "werner:p=1", "horodecki:q=1")
    assert code == 0
    assert json.loads(out)["d2"] == pytest.approx(2.0, abs=1e-9)


def test_distance_simulated_deterministic(capsys):
    args = ("distance", "werner:p=0.3", "werner:p=0.8", "--mode", "simulated",
            "--noise", "binomial", "--shots", "2000", "--seed", "5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_overlap_command(capsys):
    code, out, _ = run(capsys, "overlap", "mixed", "mixed")
    assert code == 0
    assert json.loads(out)["overlap"] == pytest.approx(0.25, abs=1e-12)


def test_state_json_file_input(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"named": "bell", "params": {"kind": "psi-"}}))
    code, out, _ = run(capsys, "distance", str(path), "bell:psi-")
    assert code == 0
    assert json.loads(out)["d2"] == pytest.approx(0.0, abs=1e-12)


def test_bad_state_spec_exit_code(capsys):
    code, _, err = run(capsys, "distance", "bell:phi+", "werner:p=7")
    assert code == 2
    assert "error" in err


def test_unparseable_spec_exit_code(capsys):
    code, _, _ = run(capsys, "distance", "bell:phi+", "nonsense")
    assert code == 2


@pytest.mark.parametrize("state", [
    {"named": "werner"},
    {"named": "werner", "params": {"p": None}},
    {"named": "bell", "params": "x"},
    [1, 2],
    {"dim": None, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]},
    {"named": "mixed", "params": {"dim": 3}},
    {"named": "werner", "params": {"p": 0.5, "q": 0.5}},
    {"re": [[float("nan"), 0], [0, 0.5]], "im": [[0, 0], [0, 0]]},
    "mixed:dim=3",
    "mixed:dim=0",
    "mixed:dim=1",
    "mixed:dim=2.5",
    "mixed:p=3",
    "mixed:dim=32",
    "mixed:dim=1048576",
    {"named": "mixed", "params": {"dim": 2 ** 24}},
    {"re": (np.eye(32) / 32).tolist(), "im": np.zeros((32, 32)).tolist()},
    # JSON booleans are not numbers, and a bit string is not an integer
    {"named": "werner", "params": {"p": True}},
    {"named": "horodecki", "params": {"q": False}},
    {"re": [[True, False], [False, False]], "im": [[False, False], [False, False]]},
    {"named": "separable", "params": {"bits": 11}},
    {"re": [[1, 0], [0, 0]]},
    {"re": [["1", 0], [0, 0]], "im": [[0, 0], [0, 0]]},
    {"re": [[1, 0], [0, 0]], "im": [[0]]},
    {"dim": 4, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
    {"re": [[1, 0, 0]], "im": [[0, 0, 0]]},
    {"re": [[True, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
])
def test_malformed_state_exit_code(tmp_path, capsys, state):
    if not isinstance(state, str):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        state = str(path)
    code, out, err = run(capsys, "distance", state, state)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_state_file_that_is_not_json_names_the_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text("x")
    code, out, err = run(capsys, "distance", str(path), "bell:phi+")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: state {str(path)!r}: Expecting value")


@pytest.mark.parametrize("case", ["missing_points", "out_is_directory", "out_dir_below_file", "state_is_directory"])
def test_io_failure_exit_code(tmp_path, capsys, case):
    file = tmp_path / "file"
    file.write_text("")
    argv = {
        "missing_points": ["cluster", str(tmp_path / "missing.csv"), "--k", "2", "--out-dir", str(tmp_path)],
        "out_is_directory": ["distance", "bell:phi+", "bell:phi-", "--out", str(tmp_path)],
        "out_dir_below_file": ["reproduce", "bell_table", "--out-dir", str(file / "sub")],
        "state_is_directory": ["distance", str(tmp_path), "bell:phi+"],
    }[case]
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


# Inline-spec pieces.  Free text has no "/" and no digits, so a fuzzed spec
# never names a file outside the working directory and numbers come only
# from the bounded strategies.  They include the powers of two 2^5..2^24:
# states stop at 16x16, so mixed:dim=16777216 must be refused before its
# matrix is allocated.
_TEXT = st.text(string.ascii_letters + string.punctuation.replace("/", "") + " ", max_size=8)
_NUMBERS = st.one_of(
    st.integers(-300, 300),
    st.floats(-300, 300),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
    st.sampled_from([2 ** k for k in range(5, 25)]),
)
_NAMES = st.sampled_from(["bell", "separable", "werner", "horodecki", "mixed", "ghz", ""])
_KEYS = st.sampled_from(["p", "q", "dim", "kind", "bits", "x"])
_LABELS = st.sampled_from(["phi+", "phi-", "psi+", "psi-", "00", "01", "10", "11"])

_INLINE_SPECS = st.one_of(
    st.builds("mixed:dim={}".format, _NUMBERS),
    st.builds("{}:{}".format, _NAMES, st.one_of(_LABELS, _TEXT)),
    st.builds("{}:{}={}".format, _NAMES, _KEYS, st.one_of(_NUMBERS, _TEXT)),
    st.builds("{}:{}={}{}".format, _NAMES, _KEYS, _NUMBERS, _TEXT),
    _NAMES,
    _TEXT,
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, _TEXT, _LABELS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=12,
)
_MATRICES = st.lists(st.lists(_NUMBERS, min_size=1, max_size=4), min_size=1, max_size=4)
_STATE_OBJECTS = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"named": _NAMES | _JSON},
        optional={"params": st.dictionaries(_KEYS, _NUMBERS | _LABELS | _JSON, max_size=3) | _JSON},
    ),
    st.fixed_dictionaries(
        {"re": _MATRICES | _JSON, "im": _MATRICES | _JSON}, optional={"dim": _NUMBERS | _JSON}
    ),
)


def _main_code(argv):
    """Exit code of cli.main; argparse's own usage exit counts as a code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None)
@given(a=_INLINE_SPECS, b=st.one_of(_INLINE_SPECS, _STATE_OBJECTS))
def test_fuzzed_state_specs_keep_exit_code_contract(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(b, str):
            path = f"{tmp}/state.json"
            with open(path, "w") as fh:
                json.dump(b, fh)
            b = path
        assert _main_code(["distance", a, b]) in {0, 2, 3, 4}


# Counts are float64, exact for integers up to 2^53; larger shot counts are
# refused before numpy sees them (at 2^63 its binomial overflows a C long).
# A negative seed is refused by every subcommand alike, before any work.
@pytest.mark.parametrize("flag, value, bound", [
    *[pytest.param("--shots", v, ">= 1", id=v) for v in ("0", "-5")],
    *[pytest.param("--shots", str(v), "<= 2^53", id=str(v)) for v in (2 ** 53 + 1, 2 ** 63)],
    pytest.param("--shots", "1" + "0" * 400, "<= 2^53", id="10^400"),
    pytest.param("--seed", "-1", ">= 0", id="seed=-1"),
])
@pytest.mark.parametrize("argv", [
    ["overlap", "mixed", "mixed"],
    ["distance", "mixed", "mixed", "--mode", "exact"],
    ["cluster", "POINTS", "--k", "2", "--backend", "euclidean", "--out-dir", "OUT"],
    ["reproduce", "bell_table", "--out-dir", "OUT"],
    ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated", "--noise", "exact"],
    ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated", "--noise", "binomial"],
    ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated", "--noise", "poisson"],
    ["reproduce", "clusters_demo", "--out-dir", "OUT"],
])
def test_bad_shots_exit_code(tmp_path, capsys, argv, flag, value, bound):
    points = tmp_path / "points.csv"
    points.write_text("0.1,0.0,0.0\n0.0,0.1,0.0\n0.0,0.0,0.1\n")
    out_dir = tmp_path / "out"
    argv = [{"POINTS": str(points), "OUT": str(out_dir)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag[2:]} must be {bound}, got {value}\n"
    assert not out_dir.exists()


def test_estimation_failure_exit_code(capsys):
    # one shot per configuration under poisson leaves f_II = 0
    code, out, err = run(capsys, "distance", "bell:phi+", "bell:phi-", "--mode", "simulated",
                         "--noise", "poisson", "--shots", "1", "--seed", "0")
    assert (code, out) == (3, "")
    assert err == "error: f_II = 0: cannot normalize the overlap estimate\n"


@pytest.mark.parametrize("noise", NOISE_MODES)
def test_overlap_simulated(capsys, noise):
    args = ("overlap", "werner:p=0.3", "horodecki:q=0.6", "--mode", "simulated",
            "--noise", noise, "--shots", "100000", "--seed", "4")
    code, out, _ = run(capsys, *args)
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "simulated"
    assert report["noise"] == {"mode": noise, "shots": 100000, "seed": 4}
    est = report["overlap"]
    assert set(est) == {"value", "std_error", "out_of_range", "counts"}
    assert est["counts"]["shots_per_config"] == 100000
    exact = states.overlap_exact(states.make_werner(0.3), states.make_horodecki(0.6))
    if noise == "exact":
        assert est["value"] == pytest.approx(exact, abs=1e-12) and est["std_error"] == 0.0
    else:
        assert abs(est["value"] - exact) <= 5 * est["std_error"]
    assert run(capsys, *args)[1] == out


@pytest.mark.parametrize("argv", [
    ["distance", "bell:phi+", "werner:p=0.4"],
    ["distance", "bell:phi+", "werner:p=0.4", "--mode", "simulated", "--noise", "binomial"],
    ["overlap", "bell:phi+", "werner:p=0.4"],
    ["overlap", "bell:phi+", "werner:p=0.4", "--mode", "simulated", "--noise", "poisson"],
    ["simulate", "bell:phi+", "werner:p=0.4", "--noise", "binomial"],
])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, argv):
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text() == stdout


def test_simulate_report(capsys):
    code, out, _ = run(capsys, "simulate", "bell:phi+", "bell:phi+",
                       "--noise", "binomial", "--shots", "100000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["measurement_plan"] == {"overlap_povms": 12, "tomography_settings": 32}
    assert set(report["overlaps"]) == {"o11", "o22", "o12"}
    o11 = report["overlaps"]["o11"]
    assert set(o11["counts"]) == {"f_II", "f_SI", "f_IS", "f_SS", "shots_per_config"}
    assert abs(report["d2"]) < 0.1


@pytest.mark.parametrize("dim, povms", [
    (2, ["I", "S"]),
    (8, ["III", "IIS", "ISI", "ISS", "SII", "SIS", "SSI", "SSS"]),
])
def test_simulate_report_reports_every_rate(capsys, dim, povms):
    code, out, _ = run(capsys, "simulate", f"mixed:dim={dim}", f"mixed:dim={dim}",
                       "--noise", "binomial", "--shots", "100000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["measurement_plan"]["overlap_povms"] == 3 * len(povms)
    for est in report["overlaps"].values():
        counts = est["counts"]
        assert set(counts) == {f"f_{p}" for p in povms} | {"shots_per_config"}
        # the reported rates alone reproduce the reported overlap
        acc = sum((-2.0) ** p.count("S") * counts[f"f_{p}"] for p in povms[1:])
        assert est["value"] == pytest.approx(1.0 + acc / counts[f"f_{povms[0]}"], abs=1e-12)
        assert est["value"] == pytest.approx(1.0 / dim, abs=0.05)


def test_simulate_exact_matches_distance(capsys):
    _, sim_out, _ = run(capsys, "simulate", "werner:p=0.2", "werner:p=0.9")
    _, dist_out, _ = run(capsys, "distance", "werner:p=0.2", "werner:p=0.9")
    assert json.loads(sim_out)["d2"] == pytest.approx(json.loads(dist_out)["d2"], abs=1e-9)


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_reproduce_bell_table(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "bell_table", "--out-dir", str(tmp_path))
    assert code == 0
    header, rows = _read_table(tmp_path / "bell_table.csv")
    assert header[1:] == ["phi+", "phi-", "psi+", "psi-"]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            expected = 0.0 if i == j else 2.0
            assert float(cell) == pytest.approx(expected, abs=1e-9)


def test_reproduce_separable_table(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "separable_table", "--out-dir", str(tmp_path))
    assert code == 0
    _, rows = _read_table(tmp_path / "separable_table.csv")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            expected = 0.0 if i == j else 2.0
            assert float(cell) == pytest.approx(expected, abs=1e-9)


def test_reproduce_bell_table_simulated(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "bell_table", "--out-dir", str(tmp_path),
                     "--noise", "binomial", "--shots", "20000", "--seed", "1")
    assert code == 0
    _, rows = _read_table(tmp_path / "bell_table_simulated.csv")
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            expected = 0.0 if i == j else 2.0
            assert float(cell) == pytest.approx(expected, abs=0.2)


def test_reproduce_werner_grid(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "werner_grid", "--out-dir", str(tmp_path))
    assert code == 0
    header, rows = _read_table(tmp_path / "werner_grid.csv")
    assert header == ["p_x", "p_y", "d2"]
    assert len(rows) == 21 * 21
    for px, py, d2 in ((float(a), float(b), float(c)) for a, b, c in rows):
        assert d2 == pytest.approx(0.75 * (px - py) ** 2, abs=1e-9)


def test_reproduce_werner_horodecki_grid(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "werner_horodecki_grid", "--out-dir", str(tmp_path))
    assert code == 0
    header, rows = _read_table(tmp_path / "werner_horodecki_grid.csv")
    assert header == ["p", "q", "d2"]
    values = {(float(a), float(b)): float(c) for a, b, c in rows}
    assert values[(0.0, 0.0)] == pytest.approx(0.75, abs=1e-9)
    assert values[(1.0, 1.0)] == pytest.approx(2.0, abs=1e-9)


def test_reproduce_clusters_demo(tmp_path, capsys):
    code, _, _ = run(capsys, "reproduce", "clusters_demo", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "points.csv").exists()
    assert (tmp_path / "labels.csv").exists()
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["k"] == 2 and model["backend"] == "hsd_exact"


def test_cluster_command_deterministic(tmp_path, capsys):
    run(capsys, "reproduce", "clusters_demo", "--out-dir", str(tmp_path / "demo"))
    points = str(tmp_path / "demo" / "points.csv")
    for d in ("a", "b"):
        code, _, _ = run(capsys, "cluster", points, "--k", "2", "--seed", "4",
                         "--out-dir", str(tmp_path / d))
        assert code == 0
    assert (tmp_path / "a" / "labels.csv").read_bytes() == (tmp_path / "b" / "labels.csv").read_bytes()
    assert (tmp_path / "a" / "model.json").read_bytes() == (tmp_path / "b" / "model.json").read_bytes()


def test_cluster_backends_identical_labels(tmp_path, capsys):
    run(capsys, "reproduce", "clusters_demo", "--out-dir", str(tmp_path / "demo"))
    points = str(tmp_path / "demo" / "points.csv")
    run(capsys, "cluster", points, "--k", "2", "--seed", "4", "--backend", "euclidean",
        "--out-dir", str(tmp_path / "euc"))
    run(capsys, "cluster", points, "--k", "2", "--seed", "4", "--backend", "hsd_exact",
        "--out-dir", str(tmp_path / "hsd"))
    assert (tmp_path / "euc" / "labels.csv").read_bytes() == (tmp_path / "hsd" / "labels.csv").read_bytes()


def test_cluster_k1_centroid_is_mean(tmp_path, capsys):
    run(capsys, "reproduce", "clusters_demo", "--out-dir", str(tmp_path / "demo"))
    points_path = tmp_path / "demo" / "points.csv"
    code, _, _ = run(capsys, "cluster", str(points_path), "--k", "1", "--seed", "0",
                     "--out-dir", str(tmp_path / "one"))
    assert code == 0
    model = json.loads((tmp_path / "one" / "model.json").read_text())
    points = np.loadtxt(points_path, delimiter=",", skiprows=1)
    assert np.allclose(model["centroids"][0], points.mean(axis=0))


@pytest.mark.parametrize("row, backend, code", [
    ("nan,0,0", "euclidean", 2),
    ("0,inf,0", "hsd_exact", 2),
    ("0.9,0,0", "hsd_exact", 2),
    ("0.9,0,0", "hsd_simulated", 2),
    ("0.9,0,0", "euclidean", 0),
])
def test_cluster_checks_rows(tmp_path, capsys, row, backend, code):
    path = tmp_path / "points.csv"
    path.write_text(f"x1,x2,x3\n0.1,0,0\n{row}\n-0.1,0,0\n")
    got, _, err = run(capsys, "cluster", str(path), "--k", "2", "--backend", backend,
                      "--noise", "binomial", "--out-dir", str(tmp_path / "out"))
    assert got == code
    if code:
        assert err.startswith("error:") and "row 1 " in err
        assert not (tmp_path / "out").exists()


def test_cluster_skips_blank_lines(tmp_path, capsys):
    rows = ["x1,x2,x3", "0.1,0,0", "0.12,0.01,0", "-0.1,0,0", "-0.12,0,0.01"]
    (tmp_path / "plain.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "blank.csv").write_text("\n\n".join(rows) + "\n\n")
    for name in ("plain", "blank"):
        code, _, _ = run(capsys, "cluster", str(tmp_path / f"{name}.csv"), "--k", "2",
                         "--out-dir", str(tmp_path / name))
        assert code == 0
    for out in ("labels.csv", "model.json"):
        assert (tmp_path / "plain" / out).read_bytes() == (tmp_path / "blank" / out).read_bytes()


@pytest.mark.parametrize("body", ["", "\n\n", "x1,x2,x3\n", "x1,x2,x3\n\n"])
def test_cluster_without_numeric_rows_exit_code(tmp_path, capsys, body):
    path = tmp_path / "points.csv"
    path.write_text(body)
    code, out, err = run(capsys, "cluster", str(path), "--k", "1",
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: no numeric rows in {path}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_cluster_rejects_k_below_one(tmp_path, capsys, k, backend):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2,x3\n0.1,0,0\n-0.1,0,0\n")
    code, _, err = run(capsys, "cluster", str(path), "--k", k, "--backend", backend,
                       "--noise", "binomial", "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err == f"error: k must be >= 1, got {k}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, row, cols", [
    ("0.1,0,0\n0.2,0\n-0.1,0,0\n", 1, 2),
    ("0.1,0,0\n0.2,0,0\n-0.1,0,0,0\n", 2, 4),
    ("x1,x2,x3\n0.1,0,0\n0.2,0,0\n0.3\n", 2, 1),
])
def test_cluster_names_ragged_row(tmp_path, capsys, body, row, cols):
    path = tmp_path / "points.csv"
    path.write_text(body)
    code, _, err = run(capsys, "cluster", str(path), "--k", "2",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err == f"error: {path} row {row} has {cols} columns, row 0 has 3\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, bad", [
    ("0.1,0,x\n0.2,0,0\n-0.1,0,0\n", ["0.1", "0", "x"]),
    ("x1,x2,x3\nlabel,a,b\n0.1,0,0\n-0.1,0,0\n", ["label", "a", "b"]),
], ids=["partly_numeric_first_row", "second_text_row"])
def test_cluster_header_is_one_all_text_first_row(tmp_path, capsys, body, bad):
    path = tmp_path / "points.csv"
    path.write_text(body)
    code, _, err = run(capsys, "cluster", str(path), "--k", "2",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err == f"error: non-numeric row in {path}: {bad}\n"
    assert not (tmp_path / "out").exists()


def test_reproduce_byte_identical(tmp_path, capsys):
    for d in ("x", "y"):
        run(capsys, "reproduce", "werner_grid", "--out-dir", str(tmp_path / d))
    assert (tmp_path / "x" / "werner_grid.csv").read_bytes() == (tmp_path / "y" / "werner_grid.csv").read_bytes()


# Reference for the reproduce grid targets: a separate loop per state table
# and per grid, as the command had before all four shared one pair loop, kept
# as an oracle for the output bytes.

def _oracle_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, (int, float, np.floating)) else x for x in row])


def _oracle_state_table(names, factory, noise, out_dir, stem):
    mats = [factory(n) for n in names]
    rows = []
    for name, a in zip(names, mats):
        row = [name]
        for b in mats:
            o11, o22, o12 = states.purity(a), states.purity(b), states.overlap_exact(a, b)
            row.append(o11 + o22 - 2.0 * o12)
        rows.append(row)
    _oracle_write_csv(os.path.join(out_dir, f"{stem}.csv"), [""] + names, rows)
    if noise.mode != "exact":
        sim_rows = []
        for i, a in enumerate(mats):
            row = [names[i]]
            for j, b in enumerate(mats):
                row.append(measure_hsd(a, b, noise, (i, j)).d2)
            sim_rows.append(row)
        _oracle_write_csv(os.path.join(out_dir, f"{stem}_simulated.csv"), [""] + names, sim_rows)


def _oracle_grid(target, noise, out_dir):
    grid = np.linspace(0.0, 1.0, 21)
    if target == "werner_grid":
        header, make_b = ["p_x", "p_y", "d2"], states.make_werner
    else:
        header, make_b = ["p", "q", "d2"], states.make_horodecki
    stochastic = noise.mode != "exact"
    if stochastic:
        header = header + ["d2_simulated"]
    mats_a = [states.make_werner(x) for x in grid]
    mats_b = [make_b(y) for y in grid]
    rows = []
    for i, (x, a) in enumerate(zip(grid, mats_a)):
        for j, (y, b) in enumerate(zip(grid, mats_b)):
            row = [x, y, states.hsd_exact(a, b) ** 2]
            if stochastic:
                row.append(measure_hsd(a, b, noise, (i, j)).d2)
            rows.append(row)
    _oracle_write_csv(os.path.join(out_dir, f"{target}.csv"), header, rows)


_ORACLES = {
    "bell_table": lambda noise, out: _oracle_state_table(
        ["phi+", "phi-", "psi+", "psi-"], lambda n: states.make_bell(states.BellKind(n)),
        noise, out, "bell_table"),
    "separable_table": lambda noise, out: _oracle_state_table(
        ["00", "11", "01", "10"], states.make_separable, noise, out, "separable_table"),
    "werner_grid": lambda noise, out: _oracle_grid("werner_grid", noise, out),
    "werner_horodecki_grid": lambda noise, out: _oracle_grid("werner_horodecki_grid", noise, out),
}


@pytest.mark.parametrize("noise", NOISE_MODES)
@pytest.mark.parametrize("target", list(_ORACLES))
def test_reproduce_grids_match_seed_loops(tmp_path, capsys, target, noise):
    code, out, err = run(capsys, "reproduce", target, "--out-dir", str(tmp_path / "cli"),
                         "--noise", noise, "--shots", "1000", "--seed", "2")
    assert (code, out, err) == (0, "", "")
    os.mkdir(tmp_path / "oracle")
    _ORACLES[target](NoiseModel(noise, 1000, 2), str(tmp_path / "oracle"))
    written = sorted(os.listdir(tmp_path / "cli"))
    assert written == sorted(os.listdir(tmp_path / "oracle"))
    assert len(written) == (1 if noise == "exact" or target.endswith("_grid") else 2)
    for name in written:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()
