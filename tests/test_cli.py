import contextlib
import csv
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhsd import cli, states
from qhsd.clustering import BACKEND_KINDS
from qhsd.interferometry import NOISE_MODES, NoiseModel, measure_hsd, measure_overlap

from oracles import src_env, write_csv


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


def test_seeds_past_two_to_the_64_are_their_own_streams(capsys):
    args = ("distance", "bell:phi+", "werner:p=0.3", "--mode", "simulated",
            "--noise", "binomial", "--shots", "1000", "--seed")
    reports = []
    for seed in (2 ** 64, 0):
        code, out, _ = run(capsys, *args, str(seed))
        assert code == 0
        report = json.loads(out)
        assert report.pop("noise")["seed"] == seed
        reports.append(report)
    assert reports[0]["overlaps"] != reports[1]["overlaps"]


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


# (inline, named JSON) rows of the README's state-spec table
_README_SPECS = re.findall(
    r"^\| `([^`]+)` +\| `(\{[^`]+\})`",
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
    re.M,
)


@pytest.mark.parametrize("inline, named", _README_SPECS, ids=[inline for inline, _ in _README_SPECS])
def test_readme_inline_spec_builds_its_json_form(inline, named):
    # an inline value is handed over as the number the JSON form holds, so the matrices are bit-equal
    expected = states.state_from_json(json.loads(named)).matrix
    assert cli.parse_state_spec(inline).matrix.tobytes() == expected.tobytes()


def test_readme_lists_every_named_state_inline():
    # also keeps the test above from passing on an empty parametrization if the table's layout changes
    assert sorted({inline.partition(":")[0] for inline, _ in _README_SPECS}) == sorted(states.NAMED_STATES)


def test_state_file_may_start_with_utf8_bom(tmp_path, capsys):
    path = tmp_path / "state.json"
    state = json.dumps({"named": "bell", "params": {"kind": "psi-"}})
    path.write_text("\ufeff" + state, encoding="utf-8")
    code, out, _ = run(capsys, "distance", str(path), "bell:psi-")
    assert code == 0
    assert json.loads(out)["d2"] == 0.0


def test_points_csv_may_start_with_utf8_bom(tmp_path, capsys):
    points = "0.1,0,0\n0.12,0.01,0\n-0.1,0,0\n-0.12,0,0.01\n"
    for name, bom in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / f"{name}.csv").write_text(bom + points, encoding="utf-8")
        code, _, _ = run(capsys, "cluster", str(tmp_path / f"{name}.csv"), "--k", "2",
                         "--out-dir", str(tmp_path / name))
        assert code == 0
    for out in ("labels.csv", "model.json"):
        assert (tmp_path / "plain" / out).read_bytes() == (tmp_path / "bom" / out).read_bytes()


# The exit-code contract: 0 success, 2 input or parse error, 3 estimation
# failure, 4 I/O failure.  Each row is (id, files, argv, exit code, stderr
# message): the files are written into an empty working directory, then argv
# runs there.  A message that ends in "\n" is all of stderr; one that does not
# is the start of its one line.  Every row gets the same four checks, in
# _check_exit_code.  The three largest groups of rows keep the test names and
# case ids they had as tests of their own; every other row is in _CONTRACT.  A
# new refusal is one more row.

# `distance S S` refuses each of these: a JSON state file, or an inline spec
_MALFORMED_STATES = [
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
    # an inline number follows the CSV cell rule: no digit underscores, ASCII digits only
    "werner:p=0.2_5",
    "werner:p=\uff10.\uff15",
    "horodecki:q=\u0660.\u0665",
    "mixed:dim=1_6",
    # a JSON parameter value must be a JSON number, as re/im entries must
    {"named": "werner", "params": {"p": "0.5"}},
    {"named": "mixed", "params": {"dim": "4"}},
    {"dim": "2", "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]},
]
_MALFORMED_STATE_ROWS = [
    (state, {}, ["distance", state, state], 2, f"error: state {state!r}: ") if isinstance(state, str) else
    (f"state{i}", {"state.json": json.dumps(state)}, ["distance", "state.json", "state.json"], 2,
     "error: state 'state.json': ") for i, state in enumerate(_MALFORMED_STATES)]

# Counts are float64, exact for integers up to 2^53; larger shot counts are
# refused before numpy sees them (at 2^63 its binomial overflows a C long).
# A negative seed is refused by every subcommand alike, before any work.
_NOISE_FLAG_ARGV = [
    ["overlap", "mixed", "mixed"],
    ["distance", "mixed", "mixed", "--mode", "exact"],
    ["cluster", "points.csv", "--k", "2", "--backend", "euclidean", "--out-dir", "out"],
    ["reproduce", "bell_table", "--out-dir", "out"],
    ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated", "--noise", "exact"],
    ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated", "--noise", "binomial"],
    ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated", "--noise", "poisson"],
    ["reproduce", "clusters_demo", "--out-dir", "out"],
]
_BAD_NOISE_FLAGS = {
    "0": ("--shots", "0", ">= 1"),
    "-5": ("--shots", "-5", ">= 1"),
    str(2 ** 53 + 1): ("--shots", str(2 ** 53 + 1), "<= 2^53"),
    str(2 ** 63): ("--shots", str(2 ** 63), "<= 2^53"),
    "10^400": ("--shots", "1" + "0" * 400, "<= 2^53"),
    "seed=-1": ("--seed", "-1", ">= 0"),
}
_POINTS = {"points.csv": "0.1,0.0,0.0\n0.0,0.1,0.0\n0.0,0.0,0.1\n"}
_BAD_NOISE_FLAG_ROWS = [
    (f"argv{i}-{key}", _POINTS, argv + [flag, value], 2, f"error: {flag[2:]} must be {bound}, got {value}\n")
    for i, argv in enumerate(_NOISE_FLAG_ARGV) for key, (flag, value, bound) in _BAD_NOISE_FLAGS.items()]

_CLUSTER = ["cluster", "points.csv", "--k", "2", "--out-dir", "out"]
_HEADED = {"points.csv": "x1,x2,x3\n0.1,0,0\n-0.1,0,0\n"}

# argparse keeps the last of a repeated option, so "--k 2 --k 0" runs as k = 0
_K_BELOW_ONE_ROWS = [
    (f"{backend}-{key}", _HEADED, _CLUSTER + [option, value, "--backend", backend, "--noise", "binomial"], 2,
     f"error: {option[2:].replace('-', '_')} must be >= 1, got {value}\n")
    for backend in BACKEND_KINDS for key, option, value in [
        ("0", "--k", "0"), ("-1", "--k", "-1"), ("max_iter-0", "--max-iter", "0"), ("max_iter--1", "--max-iter", "-1"),
    ]]

_SIMULATED = ["distance", "werner:p=0.3", "werner:p=0.7", "--mode", "simulated", "--noise", "binomial"]
_NOT_A_NUMBER = "error: non-numeric row in points.csv: "

_CONTRACT = [
    ("second-state-werner:p=7", {}, ["distance", "bell:phi+", "werner:p=7"], 2,
     "error: state 'werner:p=7': werner weight p=7.0 outside [-1/3, 1]\n"),
    ("second-state-nonsense", {}, ["distance", "bell:phi+", "nonsense"], 2,
     "error: state 'nonsense': unknown named state 'nonsense'\n"),
    *[(f"state-file-key-{key}", {"state.json": json.dumps(state)}, ["distance", "state.json", "mixed"], 2,
       f"error: state 'state.json': state JSON takes no key {key!r}\n") for state, key in [
        ({"named": "mixed", "parms": {"dim": 8}}, "parms"),
        ({"named": "bell", "params": {"kind": "phi+"}, "re": [[1, 0], [0, 0]]}, "re"),
        ({"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]], "params": {}}, "params"),
    ]],
    ("state-file-not-json", {"state.json": "x"}, ["distance", "state.json", "bell:phi+"], 2,
     "error: state 'state.json': Expecting value"),
    # json.load raises RecursionError, not ValueError, past its nesting limit
    ("state-file-too-deep", {"deep.json": "[" * 100000 + "]" * 100000}, ["distance", "deep.json", "mixed"], 2,
     "error: state 'deep.json': maximum recursion depth exceeded"),
    # int() reads all of these; argparse refuses them before any work
    *[(f"flag-{key}", {}, argv + [flag, value], 2, f"error: argument {flag}: invalid integer value: {value!r}\n")
      for key, argv, flag, value in [
        ("shots-underscore", _SIMULATED, "--shots", "1_000"),
        ("shots-arabic-indic", _SIMULATED, "--shots", "\u0661\u0660\u0660\u0660"),
        ("seed-full-width", _SIMULATED, "--seed", "\uff13"),
        ("k-full-width", _CLUSTER, "--k", "\uff12"),
        ("max-iter-underscore", _CLUSTER, "--max-iter", "1_0"),
    ]],
    # one shot per configuration under poisson leaves f_II = 0, and the error
    # names the stream key: the overlap alone for a single pair, (iteration,
    # point, centroid, overlap) in k-means, (i, j, overlap) in a reproduce table
    *[(f"estimation-{key}", _POINTS, argv + ["--noise", "poisson", "--shots", "1", "--seed", "0"], 3,
       f"error: f_II = 0 at stream key {stream}: cannot normalize the overlap estimate\n")
      for key, argv, stream in [
        ("distance", ["distance", "bell:phi+", "bell:phi-", "--mode", "simulated"], "(2,)"),
        ("cluster", _CLUSTER + ["--backend", "hsd_simulated"], "(0, 0, 0, 2)"),
        ("bell_table", ["reproduce", "bell_table", "--out-dir", "out"], "(0, 1, 0)"),
        ("werner_grid", ["reproduce", "werner_grid", "--out-dir", "out"], "(0, 1, 0)"),
    ]],
    ("io-state-is-directory", {}, ["distance", ".", "bell:phi+"], 4,
     "error: state '.': [Errno 21] Is a directory: '.'\n"),
    ("io-out-is-directory", {}, ["distance", "bell:phi+", "bell:phi-", "--out", "."], 4,
     "error: [Errno 21] Is a directory: '.'\n"),
    # an empty --out-dir names no directory: refused while parsing, before any work
    *[(f"out-dir-empty-{argv[0]}", _POINTS, argv + ["--out-dir", ""], 2,
       "error: argument --out-dir: empty directory name\n") for argv in [
        ["cluster", "points.csv", "--k", "2", "--backend", "hsd_exact"],
        ["reproduce", "clusters_demo"],
    ]],
    ("io-missing-points", {}, ["cluster", "missing.csv", "--k", "2", "--out-dir", "out"], 4,
     "error: [Errno 2] No such file or directory: 'missing.csv'\n"),
    ("io-out-dir-below-file", {"file": ""}, ["reproduce", "bell_table", "--out-dir", "file/sub"], 4,
     "error: [Errno 20] Not a directory: 'file/sub'\n"),
    # kmeans checks every row: finite, and encodable under an hsd_* backend
    *[(f"cluster-row-{row}-{backend}", {"points.csv": f"x1,x2,x3\n0.1,0,0\n{row}\n-0.1,0,0\n"},
       _CLUSTER + ["--backend", backend, "--noise", "binomial"], code, message) for row, backend, code, message in [
        ("nan,0,0", "euclidean", 2, "error: point row 1 is not finite: [nan, 0.0, 0.0]\n"),
        ("0,inf,0", "hsd_exact", 2, "error: point row 1 is not finite: [0.0, inf, 0.0]\n"),
        ("0.9,0,0", "hsd_exact", 2,
         "error: point row 1 encodes outside the state space: min eigenvalue -4.000e-01\n"),
        ("0.9,0,0", "hsd_simulated", 2,
         "error: point row 1 encodes outside the state space: min eigenvalue -4.000e-01\n"),
        ("0.9,0,0", "euclidean", 0, ""),
        ("1e200,0,0", "euclidean", 2, "error: point row 1 is too large for k-means: [1e+200, 0.0, 0.0]\n"),
    ]],
    # at 1e-170 every squared distance is 0.0, so every label would tie to centroid 0
    ("cluster-points-too-close", {"points.csv": "1e-170,0,0\n0.9e-170,0,0\n-1e-170,0,0\n"}, _CLUSTER, 2,
     "error: points are too close for k-means: their bounding box's diagonal is 2e-170\n"),
    ("cluster-k-above-the-distinct-points", _HEADED, _CLUSTER + ["--k", "3"], 2,
     "error: k=3 exceeds the 2 distinct points\n"),
    ("cluster-simulated-exact-noise", _HEADED, _CLUSTER + ["--backend", "hsd_simulated"], 2,
     "error: simulated backend needs a stochastic noise mode\n"),
    *[(f"cluster-no-numeric-rows-{key}", {"points.csv": body}, _CLUSTER, 2,
       "error: no numeric rows in points.csv\n") for key, body in [
        ("empty", ""), ("blank", "\n\n"), ("header", "x1,x2,x3\n"), ("header-blank", "x1,x2,x3\n\n"),
    ]],
    *[(f"cluster-{key}", {"points.csv": body}, _CLUSTER, 2, message) for key, body, message in [
        ("ragged-row-1", "0.1,0,0\n0.2,0\n-0.1,0,0\n", "error: points.csv row 1 has 2 columns, row 0 has 3\n"),
        ("ragged-row-2", "0.1,0,0\n0.2,0,0\n-0.1,0,0,0\n", "error: points.csv row 2 has 4 columns, row 0 has 3\n"),
        ("ragged-after-a-header", "x1,x2,x3\n0.1,0,0\n0.2,0,0\n0.3\n",
         "error: points.csv row 2 has 1 columns, row 0 has 3\n"),
        # the header is one all-text first row
        ("partly-numeric-first-row", "0.1,0,x\n0.2,0,0\n-0.1,0,0\n", _NOT_A_NUMBER + "['0.1', '0', 'x']\n"),
        ("second-text-row", "x1,x2,x3\nlabel,a,b\n0.1,0,0\n-0.1,0,0\n", _NOT_A_NUMBER + "['label', 'a', 'b']\n"),
        ("text-row-after-a-blank-line", "x1,x2,x3\n\nlabel,a,b\n0.1,0,0\n-0.1,0,0\n",
         _NOT_A_NUMBER + "['label', 'a', 'b']\n"),
        # float() reads 1_0e-2 and a full-width 1e-1 as 0.1, and Arabic-Indic
        # 1.5 as 1.5; a CSV number has no underscore and is ASCII
        ("underscore-first-row", "1_0e-2,0,0\n0.2,0,0\n-0.1,0,0\n", _NOT_A_NUMBER + "['1_0e-2', '0', '0']\n"),
        ("underscore-after-a-header", "x_1,x_2,x_3\n0.1,0,0\n0.2,0_0,0\n", _NOT_A_NUMBER + "['0.2', '0_0', '0']\n"),
        ("full-width-first-row", "\uff11e-1,0,0\n0.2,0,0\n-0.1,0,0\n", _NOT_A_NUMBER + "['\uff11e-1', '0', '0']\n"),
        ("arabic-indic-after-a-header", "x1,x2,x3\n0.1,0,0\n\u0661.\u0665,0,0\n",
         _NOT_A_NUMBER + "['\u0661.\u0665', '0', '0']\n"),
        ("field-over-the-csv-limit", "0.1,0,0\n0.2,0," + "0" * 200000 + "\n-0.1,0,0\n",
         "error: unreadable CSV points.csv: field larger than field limit (131072)\n"),
        ("not-utf8", b"0.1,0,0\n\xff\xfe,0,0\n",
         "error: unreadable CSV points.csv: 'utf-8' codec can't decode byte 0xff"),
    ]],
]


def _check_exit_code(files, argv, code, message, call):
    """A row's four checks, with call(argv) -> (exit code, stdout, stderr)
    run in an empty working directory: the exit code, an empty stdout, the
    stderr message, and what the run writes.  A refused run writes nothing;
    the one successful row, a cluster run, writes its --out-dir."""
    for name, content in files.items():
        Path(name).write_bytes(content if isinstance(content, bytes) else content.encode())
    got, out, err = call(argv)
    assert (got, out) == (code, "")
    if code == cli.EXIT_OK:
        assert (err, sorted(os.listdir())) == ("", sorted([*files, "out"]))
    else:
        assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(message), err
        assert sorted(os.listdir()) == sorted(files)


def _contract_test(rows):
    @pytest.mark.parametrize("files, argv, code, message", [row[1:] for row in rows], ids=[row[0] for row in rows])
    def test(tmp_path, monkeypatch, capsys, files, argv, code, message):
        monkeypatch.chdir(tmp_path)
        _check_exit_code(files, argv, code, message, lambda argv: run(capsys, *argv))
    return test


test_exit_code_contract = _contract_test(_CONTRACT)
test_malformed_state_exit_code = _contract_test(_MALFORMED_STATE_ROWS)
test_bad_shots_exit_code = _contract_test(_BAD_NOISE_FLAG_ROWS)
test_cluster_rejects_k_below_one = _contract_test(_K_BELOW_ONE_ROWS)


def test_exit_codes_through_the_interpreter(tmp_path, monkeypatch):
    # sys.exit(main()) in a fresh interpreter, with RuntimeWarning an error as
    # pytest.ini makes it: one row per exit code, then --help
    def qhsd(argv):
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qhsd.cli", *argv],
                              env=src_env(), capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    rows = {row[0]: row[1:] for row in _CONTRACT}
    for key in ["cluster-row-0.9,0,0-euclidean", "flag-shots-underscore", "estimation-distance",
                "io-missing-points"]:
        (tmp_path / key).mkdir()
        monkeypatch.chdir(tmp_path / key)
        _check_exit_code(*rows[key], qhsd)
    code, out, err = qhsd(["--help"])
    assert (code, out.startswith("usage: qhsd"), err) == (0, True, "")


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
    """Exit code of cli.main.  A spec that argparse reads as -h prints the
    help and exits through SystemExit(0); that exit counts as a code."""
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


def test_simulate_report_carries_every_std_error(capsys):
    # the errors are computed when read: the report still carries d2's and every overlap's
    code, out, _ = run(capsys, "simulate", "werner:p=0.3", "werner:p=0.7",
                       "--noise", "binomial", "--shots", "1000", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    errors = [report["d2_std_error"]] + [est["std_error"] for est in report["overlaps"].values()]
    assert all(math.isfinite(e) and e > 0 for e in errors), errors


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


def test_simulate_four_qubits_exact(capsys):
    # every overlap's identity configuration is certain, so f_IIII is the shots
    code, out, _ = run(capsys, "simulate", "mixed:dim=16", "mixed:dim=16", "--noise", "exact", "--shots", "1000")
    report = json.loads(out)
    assert (code, report["d2"]) == (0, 0.0)
    assert [est["counts"]["f_IIII"] for est in report["overlaps"].values()] == [1000] * 3


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


def test_cluster_skips_blank_lines(tmp_path, capsys):
    rows = ["x1,x2,x3", "0.1,0,0", "0.12,0.01,0", "-0.1,0,0", "-0.12,0,0.01"]
    (tmp_path / "plain.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "blank.csv").write_text("\n\n".join(rows) + "\n\n")
    # blank lines before the header: the header is still the first row read
    (tmp_path / "leading.csv").write_text("\n\n" + "\n".join(rows) + "\n")
    for name in ("plain", "blank", "leading"):
        code, _, _ = run(capsys, "cluster", str(tmp_path / f"{name}.csv"), "--k", "2",
                         "--out-dir", str(tmp_path / name))
        assert code == 0
    for name in ("blank", "leading"):
        for out in ("labels.csv", "model.json"):
            assert (tmp_path / "plain" / out).read_bytes() == (tmp_path / name / out).read_bytes()


def test_cluster_reads_a_non_ascii_header_as_a_header(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("\u03b1,\u03b2,\u03b3\n0.1,0,0\n-0.1,0,0\n", encoding="utf-8")
    code, _, err = run(capsys, "cluster", str(path), "--k", "2",
                       "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert (tmp_path / "out" / "labels.csv").read_text().count("\n") == 3


def test_reproduce_byte_identical(tmp_path, capsys):
    for d in ("x", "y"):
        run(capsys, "reproduce", "werner_grid", "--out-dir", str(tmp_path / d))
    assert (tmp_path / "x" / "werner_grid.csv").read_bytes() == (tmp_path / "y" / "werner_grid.csv").read_bytes()


# Reference for the reproduce grid targets: a separate loop per state table
# and per grid, as the command had before all four shared one pair loop, kept
# as an oracle for the output bytes.

def _oracle_state_table(names, factory, noise, out_dir, stem):
    mats = [factory(n) for n in names]
    rows = []
    for name, a in zip(names, mats):
        row = [name]
        for b in mats:
            o11, o22, o12 = states.purity(a), states.purity(b), states.overlap_exact(a, b)
            row.append(o11 + o22 - 2.0 * o12)
        rows.append(row)
    write_csv(os.path.join(out_dir, f"{stem}.csv"), [""] + names, rows)
    if noise.mode != "exact":
        sim_rows = []
        for i, a in enumerate(mats):
            row = [names[i]]
            for j, b in enumerate(mats):
                row.append(measure_hsd(a, b, noise, (i, j)).d2)
            sim_rows.append(row)
        write_csv(os.path.join(out_dir, f"{stem}_simulated.csv"), [""] + names, sim_rows)


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
    write_csv(os.path.join(out_dir, f"{target}.csv"), header, rows)


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


# Rows that _write_csv and the per-cell repr formatter it replaced must write
# to the same bytes: Python ints and bools, numpy integers and floats, signed
# zero, non-finite and subnormal floats, and string cells (the state tables'
# header starts with an empty cell; csv quotes a cell holding a comma, a quote,
# \r or \n), as ndarray-derived rows and as tuples, and a block the shape of
# points.csv.
_SPECIAL = np.array([[0.1, -0.0, np.nan], [np.inf, -np.inf, 5e-324], [1e308, -2.5, 0.0]])
_CSV_CASES = {
    "tolist": (["x1", "x2", "x3"], _SPECIAL.tolist()),
    "ndarray": (["x1", "x2", "x3"], _SPECIAL),
    "ndarray_rows": (["x1", "x2", "x3"], list(_SPECIAL)),
    "float32": (["x1", "x2", "x3"], _SPECIAL[:1].astype(np.float32)),
    "labels": (["index", "label"], [(i, int(l)) for i, l in enumerate(np.array([1, 0, 1]))]),
    "ints_bools": (["a", "b", "c"], [(0, True, False), (np.int64(-3), np.int64(7), -0), (2 ** 60, 1, 0)]),
    "numpy_floats": (["a", "b"], [(np.float64(-0.0), np.float64(np.nan)), (np.float64(0.1), np.float64(5e-324))]),
    "bell_table": ([""] + cli.BELL_ORDER, [["phi+", 0.0, 2.0], ["phi-", np.float64(2.0), -0.0]]),
    "strings": (["s", "t"], [("a,b", ""), ('say "hi"', "nan"), ("", float("inf"))]),
    "line_breaks": (["s", "t\n"], [("a\rb", "c\nd"), ("a\r\nb", '"\r')]),
    "points_1000": (["x1", "x2", "x3"], np.random.default_rng(0).standard_normal((1000, 3))),
}


@pytest.mark.parametrize("case", list(_CSV_CASES))
def test_write_csv_matches_per_cell_repr_formatter(tmp_path, case):
    header, rows = _CSV_CASES[case]
    cli._write_csv(str(tmp_path / "cli.csv"), header, rows)
    write_csv(str(tmp_path / "oracle.csv"), header, rows)
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("shots, seed", [(np.array(1000), np.array(3)), (np.int64(1000), np.int64(3))])
def test_noise_model_stores_the_ints_it_checked(shots, seed):
    # a 0-d array is unhashable and a numpy integer is not JSON; both reach the reports
    noise = NoiseModel("binomial", shots, seed)
    assert type(noise.shots) is int and type(noise.seed) is int
    assert hash(noise) == hash(NoiseModel("binomial", 1000, 3))
    est = measure_overlap(states.make_bell("phi+"), states.make_werner(0.5), noise, (0,))
    report = {"noise": asdict(noise), "overlap": cli._overlap_dict(est)}
    assert json.loads(json.dumps(report))["overlap"]["counts"]["shots_per_config"] == 1000
