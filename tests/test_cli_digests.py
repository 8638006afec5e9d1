"""Output bytes of a fixed CLI probe set, pinned as sha256 digests.

Every probe runs in a fresh working directory with relative file names, so
no temporary path reaches an output.  A change that alters any output byte
fails here; when such a change is intended, re-record the digests with

    PYTHONPATH=src python tests/test_cli_digests.py

which lists the probes added, changed or removed against the recorded file,
and say in the change why they moved.  The digests were recorded with
numpy 2.4.6, like bench/digests.json.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from qhsd import cli

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")

_INPUTS = {
    "q1a.json": {"dim": 2, "re": [[0.7, 0.2], [0.2, 0.3]], "im": [[0.0, -0.1], [0.1, 0.0]]},
    "q1b.json": {"re": [[0.4, 0.0], [0.0, 0.6]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
    "q3.json": {
        "re": [[(0.175 if i == 0 else 0.075 if i == 7 else 0.125) * (i == j) for j in range(8)]
               for i in range(8)],
        "im": [[0.0] * 8 for _ in range(8)],
    },
    "bell.json": {"named": "bell", "params": {"kind": "phi-"}},
    "werner.json": {"named": "werner", "params": {"p": 0.4}},
    "points.csv": "x1,x2,x3\n0.1,0,0\n0.12,0.01,0\n0.2,0,0.02\n-0.1,0,0\n-0.12,0.02,0\n-0.15,0,-0.01\n",
}

_PAIRS = [
    ("bell:phi+", "bell:psi-"),
    ("werner:p=0.3", "horodecki:q=0.6"),
    ("separable:01", "mixed"),
    ("q1a.json", "q1b.json"),
    ("bell.json", "werner.json"),
    ("mixed:dim=8", "q3.json"),
]


def _probes():
    probes = []
    for i, (a, b) in enumerate(_PAIRS):
        probes.append(["distance", a, b])
        probes.append(["overlap", a, b])
        for noise in ("exact", "binomial", "poisson"):
            tail = ["--noise", noise, "--shots", "3000", "--seed", str(i)]
            probes.append(["distance", a, b, "--mode", "simulated", *tail])
            probes.append(["overlap", a, b, "--mode", "simulated", *tail])
            probes.append(["simulate", a, b, *tail, "--out", "report.json"])
    for backend in ("euclidean", "hsd_exact", "hsd_simulated"):
        probes.append(["cluster", "points.csv", "--k", "2", "--backend", backend,
                       "--noise", "binomial", "--shots", "500", "--out-dir", "out"])
    # k-means under Poisson noise, where the identity configuration draws its stream
    probes.append(["cluster", "points.csv", "--k", "2", "--backend", "hsd_simulated",
                   "--noise", "poisson", "--shots", "500", "--out-dir", "out"])
    probes.append(["reproduce", "clusters_demo", "--seed", "0", "--out-dir", "out"])
    probes.append(["reproduce", "werner_grid", "--noise", "binomial", "--shots", "1000",
                   "--seed", "0", "--out-dir", "out"])
    return probes


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv, workdir):
    """{"stdout": digest, <written file>: digest} of one CLI call made in an
    empty working directory that holds only the probe inputs."""
    os.makedirs(workdir)
    for name, content in _INPUTS.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
    finally:
        os.chdir(cwd)
    digests = {"stdout": _sha256(out.getvalue().encode())}
    for root, _, files in os.walk(workdir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, workdir)
            if rel not in _INPUTS:
                with open(path, "rb") as fh:
                    digests[rel] = _sha256(fh.read())
    return digests


def _record(tmp):
    return {" ".join(argv): _run(argv, os.path.join(tmp, str(n))) for n, argv in enumerate(_probes())}


def test_cli_output_digests_match_recorded(tmp_path):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    got = _record(str(tmp_path))
    assert list(got) == list(recorded)
    changed = [probe for probe in got if got[probe] != recorded[probe]]
    assert changed == []


def _moved(old, new):
    """Lines naming each probe added, changed or removed from old to new."""
    lines = [f"added: {p}" for p in new if p not in old]
    lines += [f"changed: {p}" for p in new if p in old and new[p] != old[p]]
    lines += [f"removed: {p}" for p in old if p not in new]
    return lines


def test_record_mode_names_moved_probes():
    old = {"a": {"stdout": "1"}, "b": {"stdout": "2"}, "c": {"stdout": "3"}}
    new = {"b": {"stdout": "2"}, "c": {"stdout": "4"}, "d": {"stdout": "5"}}
    assert _moved(old, new) == ["added: d", "changed: c", "removed: a"]
    assert _moved(new, new) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = _record(tmp)
    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            old = json.load(fh)
    with open(DIGESTS, "w") as fh:
        fh.write(json.dumps(digests, indent=1) + "\n")
    for line in _moved(old, digests):
        print(line, file=sys.stderr)
    print(f"{len(digests)} probes recorded in {DIGESTS}", file=sys.stderr)
