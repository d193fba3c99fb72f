"""Command-line interface: reports, determinism, exit codes."""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from maslov import cli, errors

RUN = [sys.executable, "-m", "maslov.cli"]


def invoke(*argv):
    # a job that hangs fails its test instead of stalling the suite
    proc = subprocess.run(RUN + list(argv), capture_output=True, text=True,
                          timeout=120)
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
    # rank 3 over F_5 is refused before any Lagrangian is enumerated
    started = time.monotonic()
    proc = invoke("census", "--field", '{"kind":"Fp","p":5}',
                  "--input", '{"n":3}')
    assert time.monotonic() - started < 5
    assert proc.returncode == 2
    assert report_of(proc)["error"] == "TooLarge"
    assert report_of(proc)["message"] == (
        "2558556 subspaces exceed the limit 500000")


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


def test_hilbert_refuses_a_field_other_than_q(capsys):
    job = '{"a":2,"b":5,"place":5}'
    for field in ('{"kind":"Q","epsilon":1}', '{"kind":"Q","epsilon":-1}'):
        assert cli.run(["hilbert", "--field", field, "--input", job]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"] == {
            "symbol": -1}
    for field in ('{"kind":"Fp","p":5}', '{"kind":"Fp2","p":3}',
                  '{"kind":"QSqrt","d":-1}', '{"kind":"QSqrt","d":2}'):
        assert cli.run(["hilbert", "--field", field, "--input", job]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "command": "hilbert", "error": "WrongContext",
            "message": "Hilbert symbols need a Q context"}


def test_hilbert_reads_its_scalars_as_every_command_does(capsys):
    # a JSON float is read by its decimal text, as FieldCtx.parse_scalar
    # reads it, so 0.2 is 1/5 and not its binary double
    def symbol(job):
        assert cli.run(["hilbert", "--input", job]) == 0
        return json.loads(capsys.readouterr().out)["outputs"]["symbol"]

    for a in ('0.2', '"0.2"', '"1/5"'):
        assert symbol('{"a":%s,"b":2,"place":5}' % a) == -1
    assert symbol('{"a":1.5,"b":-3,"place":3}') == symbol(
        '{"a":"3/2","b":"-3","place":3}')
    # an infinite float, a fractional place and booleans exit 2
    for job in ('{"a":1e400,"b":2,"place":5}', '{"a":2,"b":-1e400,"place":5}',
                '{"a":"2","b":3,"place":5.5}', '{"a":true,"b":3,"place":5}',
                '{"a":2,"b":3,"place":true}'):
        assert cli.run(["hilbert", "--input", job]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ParseError"


def test_witt_and_disc_commands():
    job = '{"matrix": [["1","0"],["0","1"]]}'
    rep = report_of(invoke("witt", "--input", job))
    assert rep["outputs"]["witt"]["signature"] == 2
    rep = report_of(invoke("disc", "--input", job))
    assert rep["outputs"]["disc"] == {"s": "-1", "sign": 1}
    # 2^61 - 1 and 2^89 - 1 are prime; the product of the entries is never
    # factored
    big, bigger = 2 ** 61 - 1, 2 ** 89 - 1
    job = json.dumps({"matrix": [[str(big), "0"], ["0", str(bigger)]]})
    s = str(-big * bigger)
    for field, disc in (('{"kind":"Q"}', s),
                        ('{"kind":"QSqrt","d":-1}', [s, "0"])):
        proc = invoke("disc", "--field", field, "--input", job)
        assert proc.returncode == 0
        assert report_of(proc)["outputs"]["disc"] == {"s": disc, "sign": 1}
        proc = invoke("witt", "--field", field, "--input", job)
        assert proc.returncode == 0
        witt = report_of(proc)["outputs"]["witt"]
        assert witt["disc"] == {"s": disc, "sign": 1}
        assert witt["in_II"] is False


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


@pytest.mark.parametrize("field", ['{"kind":"Fp2","p":3}',
                                   '{"kind":"QSqrt","d":-1}',
                                   '{"kind":"Fp","p":5,"epsilon":-1}'])
def test_compare_outside_the_symplectic_case_exits_2(field):
    # only NonGeneric draws are resampled; the context is refused first
    proc = invoke("compare", "--field", field, "--trials", "3")
    assert proc.returncode == 2
    assert report_of(proc)["error"] == "WrongContext"


@pytest.mark.parametrize("command", ["compare", "steinberg-check"])
def test_symbol_commands_refuse_a_field_before_any_trial(command, capsys):
    # with no trial to run, the field is still refused
    assert cli.run([command, "--field", '{"kind":"Fp2","p":3}',
                    "--trials", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "WrongContext"


def test_symbol_commands_refuse_nontrivial_involutions(capsys):
    # symbols need x and y fixed by the involution; ε = -1 is fine for
    # steinberg-check, whose quaternion forms are symmetric by themselves.
    # The involution is refused first: before --exhaustive asks for a
    # finite field (QSqrt) or a sweep under the limit (F_{31^2})
    for field in ('{"kind":"Fp2","p":3}', '{"kind":"Fp2","p":31}',
                  '{"kind":"QSqrt","d":-1}', '{"kind":"QSqrt","d":2}',
                  '{"kind":"QSqrt","d":2,"epsilon":-1}'):
        for argv in (("--trials", "4"), ("--exhaustive",)):
            assert cli.run(["steinberg-check", "--field", field, *argv]) == 2
            rep = json.loads(capsys.readouterr().out)
            assert rep["error"] == "WrongContext"
    assert cli.run(["steinberg-check", "--field",
                    '{"kind":"Fp","p":5,"epsilon":-1}', "--trials", "4"]) == 0


def test_outside_lagrangians_and_unitaries_are_checked(capsys):
    # a kappa X that is not isotropic or lacks rank, and a tau g that does
    # not preserve the form, are refused with their own messages
    y = [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]]
    z = [["1", "0"], ["0", "1"], ["1", "0"], ["0", "1"]]
    not_isotropic = [["1", "0"], ["0", "0"], ["0", "1"], ["0", "0"]]
    rank_one = [["1", "2"], ["0", "0"], ["0", "0"], ["0", "0"]]
    eye = [["1", "0"], ["0", "1"]]
    for command, inputs, message in [
            ("kappa", {"n": 2, "X": not_isotropic, "Y": y, "Z": z},
             "subspace is not totally isotropic"),
            ("kappa", {"n": 2, "X": rank_one, "Y": y, "Z": z},
             "basis does not have full column rank"),
            ("tau", {"n": 1, "g": [["2", "0"], ["0", "1"]], "h": eye},
             "matrix does not preserve the form")]:
        assert cli.run([command, "--input", json.dumps(inputs)]) == 2
        rep = json.loads(capsys.readouterr().out)
        assert (rep["error"], rep["message"]) == ("ValidationError", message)


def test_huge_ranks_exit_2_promptly(capsys):
    # no command builds anything of size n before its own checks refuse
    # the rank: each exits 2 with a named error, within a second
    lag = [["1"], ["0"]]
    eye = [["1", "0"], ["0", "1"]]
    commands = ("kappa", "maslov", "kashiwara", "tau", "lagrangians",
                "census", "boundary-check", "disc-defect-check",
                "reduced-check")
    for n in (10**30, 10**5):
        for field in ('{"kind":"Q"}', '{"kind":"Fp","p":3}',
                      '{"kind":"Fp2","p":3,"epsilon":-1}'):
            for command in commands:
                for inputs in ({"n": n}, {"n": n, "X": lag, "Y": lag,
                                          "Z": lag, "g": eye, "h": eye}):
                    started = time.monotonic()
                    code = cli.run([command, "--field", field, "--input",
                                    json.dumps(inputs), "--trials", "1"])
                    assert time.monotonic() - started < 1
                    rep = json.loads(capsys.readouterr().out)
                    assert code == 2
                    assert issubclass(getattr(errors, rep["error"]),
                                      errors.MaslovError)


def test_field_may_be_a_bare_kind(capsys):
    assert cli.run(["witt", "--field", "Q", "--input",
                    '{"matrix":[["1"]]}']) == 0
    assert json.loads(capsys.readouterr().out)["field"] == {"kind": "Q"}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("command, field", [
    ("boundary-check", '{"kind":"Q","epsilon":-1}'),
    ("disc-defect-check", '{"kind":"Fp","p":5,"epsilon":-1}'),
    ("reduced-check", '{"kind":"Fp","p":5,"epsilon":-1}'),
])
def test_odd_rank_orthogonal_sampling_exits_2(command, field, n):
    # with a trivial involution and epsilon = -1 every epsilon-hermitian
    # matrix is alternating, so none of odd size is invertible
    proc = invoke(command, "--field", field, "--input", json.dumps({"n": n}),
                  "--trials", "3")
    assert proc.returncode == 2
    assert report_of(proc)["error"] == "NotFound"


def test_steinberg_check_exhaustive(monkeypatch, capsys):
    proc = invoke("steinberg-check", "--field", '{"kind":"Fp","p":3}',
                  "--exhaustive")
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["outputs"]["violations"] == 0
    # a sweep of exactly the limit runs and a longer one is refused; the
    # limit itself is (31 - 1)^3, so every sweep up to F_31 runs
    assert cli.STEINBERG_LIMIT == 30**3
    monkeypatch.setattr(cli, "STEINBERG_LIMIT", 4**3)
    for p, code in [(5, 0), (7, 2)]:
        assert cli.run(["steinberg-check", "--field",
                        json.dumps({"kind": "Fp", "p": p}),
                        "--exhaustive"]) == code
        rep = json.loads(capsys.readouterr().out)
        assert rep.get("error") == (None if code == 0 else "TooLarge")
    assert rep["message"] == "216 triples exceed the limit 64"


def test_unbounded_work_exits_2_with_too_large():
    # a 121-bit entry whose smaller prime factor has 61 bits, past the
    # Pollard rho budget, and exhaustive sweeps of 36^3 and 1008^3 triples
    big = str((2**61 - 1) * (10**18 + 3))
    matrix = json.dumps({"matrix": [[big, "0"], ["0", "1"]]})
    for argv, message in [
        (("witt", "--input", matrix), "121-bit cofactor"),
        (("disc", "--input", matrix), "121-bit cofactor"),
        (("steinberg-check", "--field", '{"kind":"Fp","p":37}',
          "--exhaustive"), "46656 triples exceed the limit 27000"),
        (("steinberg-check", "--field", '{"kind":"Fp","p":1009}',
          "--exhaustive"), "1024192512 triples exceed the limit 27000"),
        (("boundary-check", "--input", '{"n":40}', "--trials", "1"),
         "rank 40 exceeds the limit 8"),
    ]:
        started = time.monotonic()
        proc = invoke(*argv)
        assert time.monotonic() - started < 5
        assert proc.returncode == 2
        rep = report_of(proc)
        assert rep["error"] == "TooLarge"
        assert message in rep["message"]


def test_sampled_checks_run_up_to_the_rank_limit(capsys):
    # at the default seed one trial at each cap runs (under a second
    # each); one rank more is refused before any sampling.  Other seeds
    # can end below the cap in the Pollard rho TooLarge (over Q at rank 6,
    # seed 1), which this does not cover.  Q(sqrt d) has the cap of Q,
    # F_{p^2} the cap of F_p.
    assert (cli.RANK_LIMIT, cli.FINITE_RANK_LIMIT) == (8, 24)
    q, qi = '{"kind":"Q"}', '{"kind":"QSqrt","d":-1}'
    f5, f9 = '{"kind":"Fp","p":5}', '{"kind":"Fp2","p":3}'
    sampled = ("boundary-check", "disc-defect-check", "reduced-check")
    for commands, field, n, error in [
            (sampled, q, 8, None), (sampled, q, 9, "TooLarge"),
            (sampled, qi, 9, "TooLarge"),
            (sampled, f5, 24, None), (sampled, f5, 25, "TooLarge"),
            (sampled[:1], f9, 24, None), (sampled, f9, 25, "TooLarge")]:
        for command in commands:
            code = cli.run([command, "--field", field, "--input",
                            json.dumps({"n": n}), "--trials", "1"])
            rep = json.loads(capsys.readouterr().out)
            assert (code, rep.get("error")) == (0 if error is None else 2,
                                                error)


def test_parse_error_exit_code():
    # malformed input: exit 2 with a named error and no traceback
    ones = "1" * 5000  # past sys.get_int_max_str_digits() as a JSON int
    for argv, error in [
        (("witt", "--input", '{"matrix":[[%s]]}' % ones), "ParseError"),
        (("witt", "--field", '{"kind":"Fp","p":%s}' % ones, "--input",
          '{"matrix":[["1"]]}'), "ParseError"),
        (("hilbert", "--input", '{"a":%s,"b":2,"place":5}' % ones),
         "ParseError"),
        (("witt", "--input", "{not json"), "ParseError"),
        (("kappa", "--input", '{"n":"abc"}'), "ParseError"),
        (("kappa", "--input", "[1]"), "ParseError"),
        (("witt", "--field", '{"kind":"Fp","p":"5"}', "--input",
          '{"matrix":[["1"]]}'), "ValidationError"),
        (("witt", "--field", '{"kind":"Fp","p":5,"epsilon":1.0}',
          "--input", '{"matrix":[["1"]]}'), "ValidationError"),
        # a float or boolean sign is refused, not formatted or run as +-1
        (("witt", "--field", '{"kind":"Fp","p":5,"epsilon":true}',
          "--input", '{"matrix":[["1"]]}'), "ValidationError"),
        (("witt", "--input", '{"matrix":[["1","2"],["3","4"]],"eps":1.0}'),
         "ValidationError"),
        (("witt", "--input", '{"matrix":[["1","2"],["3","4"]],"eps":-1.0}'),
         "ValidationError"),
        (("disc", "--input", '{"matrix":[["1"]],"eps":true}'),
         "ValidationError"),
        (("hilbert", "--input", '{"a":"2","b":"3","place":"x"}'),
         "ParseError"),
        (("boundary-check", "--field", '{"kind":"Fp","p":5}', "--input",
          '{"n":1}', "--trials", "-3"), "ParseError"),
        (("steinberg-check", "--field", '{"kind":"Fp","p":5}',
          "--trials", "-1"), "ParseError"),
    ]:
        proc = invoke(*argv)
        assert proc.returncode == 2
        assert report_of(proc)["error"] == error
        assert "Traceback" not in proc.stderr


def test_wide_decimal_exponents_exit_2_at_once(capsys):
    # 1e10000000 is as wide as a digit string past the limit: refused
    # before Fraction builds 10^10000000, which alone takes seconds
    for job in (("witt", '{"matrix":[["1e10000000"]]}'),
                ("witt", '{"matrix":[["1e-10000000"]]}'),
                ("hilbert", '{"a":"1e10000000","b":2,"place":5}'),
                ("hilbert", '{"a":2,"b":"-1e-10000000","place":5}')):
        started = time.monotonic()
        assert cli.run([job[0], "--input", job[1]]) == 2
        assert time.monotonic() - started < 1
        assert json.loads(capsys.readouterr().out)["error"] == "ParseError"
    assert cli.run(["witt", "--input", '{"matrix":[["1e4000"]]}']) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["witt"]["representative"] == ["1"]


def test_precondition_error_surfaced():
    # degenerate form for the witt command
    proc = invoke("witt", "--input", '{"matrix": [["1","0"],["0","0"]]}')
    assert proc.returncode == 2
    rep = report_of(proc)
    assert rep["error"] == "DegenerateInput"


def test_one_parser_keeps_no_state_between_jobs(tmp_path, capsys):
    # run reuses one parser; a job after one with every option set, and
    # after argparse rejections, reports as a fresh process does
    field = '{"kind":"Fp","p":5}'
    out = tmp_path / "first.json"
    assert cli.run(["steinberg-check", "--field", field, "--exhaustive",
                    "--trials", "3", "--seed", "5",
                    "--output", str(out)]) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["seed"] == 5
    job = ["steinberg-check", "--field", field]
    fresh = invoke(*job)
    assert fresh.returncode == 0
    assert cli.run(job) == 0
    assert capsys.readouterr().out == fresh.stdout
    assert out.read_text(encoding="utf-8") == first
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.run(["no-such-command"])
        assert exc.value.code == 2
    capsys.readouterr()
    assert cli.run(job) == 0
    assert capsys.readouterr().out == fresh.stdout


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


# Each tests/data/golden_<name>.json pins the byte-exact report and exit
# status (0 where "status" is absent) of its jobs, run as test_golden_<name>:
#   witt_and_kappa: one kappa and witt job per field kind whose diagonal
#     holds a hyperbolic pair (the representative and hasse fields);
#   frame: kappa and maslov with each pair of X, Y, Z not opposite, a tau
#     off the generic locus, and the three sampled checks at ranks 1 and 2;
#   product: kappa, maslov, kashiwara and tau at ranks 1 to 3 over Q,
#     Q(sqrt(2)) and Q(sqrt(-1)) on seeded inputs, and the three sampled
#     checks at rank 3 (the matrix products over Q and Q(sqrt(d)));
#   witt_layer: witt and disc at ranks 1 to 3 over Q, Q(sqrt(2)),
#     Q(sqrt(-1)) and Q(sqrt(-5)), eps = +-1, with degenerate matrices;
#     kashiwara over Q at ranks 1 to 3 with the triples (X, Y, Z), (X, X, X)
#     and (X, Y, X), refused elsewhere; tau with g and h random, g = 1 and
#     g = h = 1 (the signature, hasse, representative and every refusal);
#   census: rank 1 over F_3 to F_13, F_9, F_25 and F_49, rank 2 over F_3
#     and skew F_5 and F_7, eps = +-1 (classes, orbit sizes, totals and the
#     orbit check);
#   symbol: steinberg-check swept over F_3, F_5 and F_7 and sampled over Q;
#     compare on single pairs over Q and F_5 (one not generic) and sampled
#     over Q, F_5 and F_7 (the relation and match counts and the refusal);
#   lagrangian: ranks 1 and 2 over F_3, F_5, F_7, F_9 and F_25 and rank 3
#     over F_3 and F_5 (refused), eps = +-1 (the count, the listed canonical
#     bases, their order and the refusal);
#   cli_jobs: the 123 jobs of round 0 of the cli-jobs benchmark workload
#     (bench/workloads.py) at seeds 1 to 3: kappa, maslov and tau at ranks
#     1 and 2, witt and disc with 20-bit prime factors, hilbert and the
#     malformed jobs, all over Q (the eliminations over Q among them).
GOLDEN_FILES = sorted((Path(__file__).parent / "data").glob("golden_*.json"))


def _golden_job_id(name, argv):
    # census and lagrangian jobs differ only in field and input
    if name in ("census", "lagrangian"):
        return " ".join(argv[2:5:2])
    if name == "symbol":
        return " ".join(a for a in argv if a != "--field")
    if name == "cli_jobs":
        return argv[0]
    return " ".join(argv[:3])


def _golden_test(path):
    name = path.stem[len("golden_"):-len("_reports")]

    @pytest.mark.parametrize(
        "job", json.loads(path.read_text()),
        ids=lambda job: _golden_job_id(name, job["argv"]))
    def test(job, capsys):
        assert cli.run(job["argv"]) == job.get("status", 0)
        expected = json.dumps(job["report"], sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == expected

    test.__name__ = f"test_{path.stem}"
    return test


for _path in GOLDEN_FILES:
    globals()[f"test_{_path.stem}"] = _golden_test(_path)


def file_error(capsys, *argv):
    code = cli.run(["witt", *argv])
    report = json.loads(capsys.readouterr().out)    # one report, no more
    return code, report["error"], report["message"]


def test_missing_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert file_error(capsys, "--input", f"@{path}") == (
        2, "ParseError", f"cannot open {path}: No such file or directory")


def test_input_directory_exits_2(tmp_path, capsys):
    assert file_error(capsys, "--input", f"@{tmp_path}") == (
        2, "ParseError", f"cannot open {tmp_path}: Is a directory")


def test_input_file_not_in_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"matrix": [["é"]]}'.encode("latin-1"))
    code, error, message = file_error(capsys, "--input", f"@{path}")
    assert (code, error) == (2, "ParseError")
    assert message.startswith("bad input JSON: 'utf-8' codec can't decode")


def test_output_directory_is_refused_before_the_job_runs(tmp_path, capsys):
    assert file_error(capsys, "--input", '{"matrix":[["1"]]}', "--output",
                      str(tmp_path)) == (
        2, "ParseError", f"cannot open {tmp_path}: Is a directory")


def test_witt_of_a_large_square_factors_it(capsys):
    # <(2^61 - 1)^2, 1> = <1, 1>: the square is found by an integer root,
    # where Pollard rho alone ran out of its budget after 2 s
    started = time.monotonic()
    assert cli.run(["witt", "--input", '{"matrix":[["53169119831396634870'
                    '03542222693990401","0"],["0","1"]]}']) == 0
    assert time.monotonic() - started < 1
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["witt"]["representative"] == ["1", "1"]


def test_witt_of_a_huge_entry_is_refused_at_once(capsys):
    # Pollard rho charges a step on a wide cofactor by its size: a random
    # odd 1000- or 3000-bit entry exits 2 with TooLarge within 2 s
    for bits in (1000, 3000):
        n = random.Random(f"witt:{bits}").getrandbits(bits)
        matrix = json.dumps({"matrix": [[str(n | 1 << (bits - 1) | 1)]]})
        started = time.monotonic()
        code, error, message = file_error(capsys, "--input", matrix)
        assert time.monotonic() - started < 2
        assert (code, error) == (2, "TooLarge")
        assert "-bit cofactor takes over" in message


def test_witt_of_an_entry_wider_than_factorize_takes_exits_2_at_once(capsys):
    # a cofactor wider than fields.FACTOR_BITS is refused before its
    # primality test, whose first Miller-Rabin power alone takes seconds
    # on this 14 280-bit (4300-digit) entry
    bits = 14280
    n = random.Random(f"witt:{bits}").getrandbits(bits) | 1 << (bits - 1) | 1
    matrix = json.dumps({"matrix": [[str(n)]]})
    started = time.monotonic()
    code, error, message = file_error(capsys, "--input", matrix)
    assert time.monotonic() - started < 1
    assert (code, error) == (2, "TooLarge")
    assert message.endswith(
        "-bit cofactor is wider than the 4500 bits factorize takes")


def test_a_strong_pseudoprime_is_neither_a_field_nor_a_place(capsys):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to every
    # prime base up to 37: as a field order it is refused, and as a witt
    # entry it has the Hasse places of its two factors
    psi12 = "318665857834031151167461"
    code = cli.run([
        "maslov", "--field", '{"kind":"Fp","p":%s}' % psi12, "--input",
        '{"n":1,"X":[["1"],["0"]],"Y":[["0"],["1"]],'
        '"Z":[["1"],["399165290221"]]}'])
    assert (code, json.loads(capsys.readouterr().out)["error"]) == (
        2, "ValidationError")
    assert cli.run(["witt", "--input",
                    json.dumps({"matrix": [[psi12]]})]) == 0
    hasse = json.loads(capsys.readouterr().out)["outputs"]["witt"]["hasse"]
    assert [place["p"] for place in hasse] == [
        "2", "399165290221", "798330580441", "inf"]
