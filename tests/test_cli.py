"""Command-line interface: reports, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from maslov import cli

RUN = [sys.executable, "-m", "maslov.cli"]


def invoke(*argv):
    proc = subprocess.run(RUN + list(argv), capture_output=True, text=True)
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def test_census_command():
    proc = invoke("census", "--field", '{"kind":"Fp","p":3}',
                  "--input", '{"n":1}')
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["outputs"]["classes"] == 2
    assert rep["outputs"]["orbit_sizes"] == [12, 12]
    assert rep["pass"] is True


def test_kappa_command():
    inputs = {
        "n": 1,
        "X": [["1"], ["0"]],
        "Y": [["0"], ["1"]],
        "Z": [["2"], ["1"]],
    }
    proc = invoke("kappa", "--input", json.dumps(inputs))
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["outputs"]["t"] == [["2"]]
    assert rep["outputs"]["witt"]["is_zero"] is False


def test_hilbert_command():
    proc = invoke("hilbert", "--input",
                  '{"a": "-1", "b": "-1", "place": "inf"}')
    assert report_of(proc)["outputs"]["symbol"] == -1
    proc = invoke("hilbert", "--input", '{"a": "2", "b": "5", "place": 5}')
    assert report_of(proc)["outputs"]["symbol"] == -1


def test_witt_and_disc_commands():
    job = '{"matrix": [["1","0"],["0","1"]]}'
    rep = report_of(invoke("witt", "--input", job))
    assert rep["outputs"]["witt"]["signature"] == 2
    rep = report_of(invoke("disc", "--input", job))
    assert rep["outputs"]["disc"] == {"s": "-1", "sign": 1}


def test_lagrangians_command():
    rep = report_of(invoke("lagrangians", "--field", '{"kind":"Fp","p":5}',
                           "--input", '{"n":1}'))
    assert rep["outputs"]["count"] == 6


def test_boundary_check_harness():
    proc = invoke("boundary-check", "--field", '{"kind":"Fp","p":5}',
                  "--input", '{"n":2}', "--trials", "25", "--seed", "7")
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["outputs"]["zero"] == 25


def test_reports_are_byte_identical():
    argv = ["boundary-check", "--field", '{"kind":"Fp","p":5}',
            "--input", '{"n":1}', "--trials", "10", "--seed", "99"]
    out1 = invoke(*argv).stdout
    out2 = invoke(*argv).stdout
    assert out1 == out2


def test_seed_changes_nothing_about_verdict_but_inputs_echoed():
    rep = report_of(invoke("disc-defect-check", "--field", '{"kind":"Q"}',
                           "--input", '{"n":1}', "--trials", "5",
                           "--seed", "3"))
    assert rep["seed"] == 3
    assert rep["pass"] is True


def test_compare_command_single_pair():
    # g1 = b_1 u_1, g2 = b_1: generic since t1 + s2 = 1
    inputs = {"g1": [["0", "1"], ["-1", "-1"]], "g2": [["0", "1"], ["-1", "0"]]}
    proc = invoke("compare", "--input", json.dumps(inputs))
    rep = report_of(proc)
    assert proc.returncode == 0
    assert rep["outputs"]["match"] is True


def test_compare_command_non_generic_pair():
    inputs = {"g1": [["1", "1"], ["-1", "0"]], "g2": [["0", "1"], ["-1", "0"]]}
    proc = invoke("compare", "--input", json.dumps(inputs))
    assert proc.returncode == 2
    assert report_of(proc)["error"] == "NonGeneric"


def test_steinberg_check_exhaustive():
    proc = invoke("steinberg-check", "--field", '{"kind":"Fp","p":3}',
                  "--exhaustive")
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["outputs"]["violations"] == 0


def test_parse_error_exit_code():
    proc = invoke("witt", "--input", "{not json")
    assert proc.returncode == 2
    rep = report_of(proc)
    assert rep["error"] == "ParseError"


def test_precondition_error_surfaced():
    # degenerate form for the witt command
    proc = invoke("witt", "--input", '{"matrix": [["1","0"],["0","0"]]}')
    assert proc.returncode == 2
    rep = report_of(proc)
    assert rep["error"] == "DegenerateInput"


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = invoke("hilbert", "--input",
                  '{"a": "1", "b": "3", "place": 2}', "--output", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["outputs"]["symbol"] == 1
    assert out.read_text() == proc.stdout


def test_skew_census_over_prime_fields_is_one_orbit():
    for p in (3, 5):
        proc = invoke("census", "--field",
                      json.dumps({"kind": "Fp", "p": p, "epsilon": -1}),
                      "--input", '{"n":2}')
        assert proc.returncode == 0
        assert report_of(proc)["outputs"]["classes"] == 1


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_reports.json").read_text())


@pytest.mark.parametrize("job", GOLDEN, ids=lambda job: " ".join(
    job["argv"][:3]))
def test_golden_witt_and_kappa_reports(job, capsys):
    # one job per field kind whose diagonal holds a hyperbolic pair; the
    # representative and hasse fields must not change
    assert cli.run(job["argv"]) == 0
    expected = json.dumps(job["report"], sort_keys=True, indent=2) + "\n"
    assert capsys.readouterr().out == expected
