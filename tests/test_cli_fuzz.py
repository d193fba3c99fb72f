"""A seeded fuzz of the command line: about 1000 jobs through cli.run.

Half of the jobs are random-shaped (wrong types, ragged or oversized
matrices, bad fields, huge ranks, negative trial counts); half are
well-shaped jobs over Q, F_3, F_5, F_9 and Q(sqrt(-1)) with eps = +-1.
Every job must exit 0, 1 or 2 with exactly one JSON report on stdout;
exit 1 only when a check ran and failed, exit 2 only with a named
MaslovError.  A failure message carries the job's argv for replay.
"""

import json
import random

import pytest

from maslov import cli, errors
from maslov.fields import FieldCtx
from maslov.lagrange import HyperbolicSpace, Lagrangian
from maslov.sampling import (
    random_hermitian,
    random_invertible,
    random_opposite_triple,
    random_unitary,
)

JOBS = 1000
COMMANDS = sorted(cli.COMMANDS)
FIELDS = [dict(spec, epsilon=eps)
          for spec in ({"kind": "Q"}, {"kind": "Fp", "p": 3},
                       {"kind": "Fp", "p": 5}, {"kind": "Fp2", "p": 3},
                       {"kind": "QSqrt", "d": -1})
          for eps in (1, -1)]
BAD_FIELDS = ['{"kind":"Fp","p":4}', '{"kind":"Fp","p":2}',
              '{"kind":"Fp2"}', '{"kind":"QSqrt","d":4}', '{"kind":"R"}',
              '{"p":5}', '[1]', '{"kind":"Q","epsilon":0}',
              '{"kind":"Q","epsilon":"1"}', '{"kind":"Fp","p":-7}']
SCALARS = [0, 1, -1, "2", "1/2", "1/0", "x", 2.5, None, True, [1, 2],
           ["1", "2", "3"], {"a": 1}, "", 10**30]
KEYS = ("n", "X", "Y", "Z", "g", "h", "o", "matrix", "eps", "a", "b",
        "place", "g1", "g2")


def _random_value(rng):
    pick = rng.randrange(6)
    if pick == 0:
        return rng.choice([-1, 0, 1, 10**5, 10**30, "2", 1.5, None, True])
    if pick == 1:
        return rng.choice(SCALARS)
    # a matrix that may be ragged, oversized or hold bad entries
    rows = rng.randint(0, 7)
    return [[rng.choice(SCALARS[:5]) if rng.random() < 0.8
             else rng.choice(SCALARS)
             for _ in range(rng.randint(0, 7) if rng.random() < 0.3
                            else rows)]
            for _ in range(rows)]


def _random_shaped(rng):
    argv = [rng.choice(COMMANDS), "--field",
            rng.choice(BAD_FIELDS + [json.dumps(f) for f in FIELDS])]
    inputs = {k: _random_value(rng)
              for k in rng.sample(KEYS, rng.randint(0, 5))}
    # half the jobs with no rank get n = 1, so their other keys are read
    if "n" not in inputs and rng.random() < 0.5:
        inputs["n"] = 1
    text = json.dumps(inputs) if rng.random() < 0.9 else rng.choice(
        ["[1]", "{", "null", '"n"', "{\"n\": 1,}"])
    argv += ["--input", text, "--trials", str(rng.choice([-5, -1, 0, 1]))]
    return argv


def _well_shaped(rng):
    spec = rng.choice(FIELDS)
    ctx = FieldCtx(spec["kind"], p=spec.get("p"), d=spec.get("d"),
                   epsilon=spec["epsilon"])
    command = rng.choice(COMMANDS)
    # a rank-2 census or enumeration over F_3, F_5 or F_9 takes at most
    # 0.1 s
    n = rng.choice((1, 2))
    if command in ("kappa", "maslov", "kashiwara", "tau") and (
            ctx.has_trivial_involution and ctx.epsilon == -1):
        n = 2       # alternating forms of odd size are singular
    space = HyperbolicSpace(ctx, n)
    inputs = {"n": n}
    extra = ["--trials", str(rng.randint(0, 2))]
    if command in ("kappa", "maslov", "kashiwara"):
        lags = list(random_opposite_triple(space, rng))
        if rng.random() < 0.3:
            # a non-opposite pair, on another basis of the same span
            i, j = rng.sample(range(3), 2)
            lags[j] = Lagrangian(space, lags[i].basis * random_invertible(
                ctx, n, rng, span=2))
        for key, lag in zip("XYZ", lags):
            inputs[key] = cli.matrix_to_json(ctx, lag.basis)
    elif command == "tau":
        g, h = random_unitary(space, rng), random_unitary(space, rng)
        inputs.update(g=cli.matrix_to_json(ctx, g.mat),
                      h=cli.matrix_to_json(ctx, h.mat))
    elif command in ("witt", "disc"):
        eps = rng.choice((1, -1))
        k = rng.randint(1, 3)
        # the only 1 x 1 alternating matrix is zero
        matrix = ([["0"]] if k == 1 and eps == -1
                  and ctx.has_trivial_involution else cli.matrix_to_json(
                      ctx, random_hermitian(ctx, k, rng, eps).mat))
        inputs = {"eps": eps, "matrix": matrix}
    elif command == "hilbert":
        inputs = {"a": str(rng.choice((-1, 1)) * rng.randint(1, 60)),
                  "b": str(rng.choice((-1, 1)) * rng.randint(1, 60)),
                  "place": rng.choice(["inf", "oo", 2, 3, 5, 7, 11])}
    elif command == "steinberg-check":
        if ctx.is_finite and ctx.order <= 5 and rng.random() < 0.5:
            extra = ["--exhaustive"]
    elif command == "compare" and rng.random() < 0.5:
        for key in ("g1", "g2"):
            m = random_invertible(ctx, 2, rng)
            d = m.det()
            rows = [[v / d for v in m.rows[0]], list(m.rows[1])]
            inputs[key] = [[ctx.scalar_to_json(v) for v in r] for r in rows]
    return [command, "--field", json.dumps(spec), "--input",
            json.dumps(inputs)] + extra


def test_cli_fuzz(capsys):
    rng = random.Random(20261019)
    seen = {0: 0, 1: 0, 2: 0}
    for i in range(JOBS):
        argv = (_random_shaped if i % 2 else _well_shaped)(rng)
        try:
            code = cli.run(argv)
        except Exception as exc:            # a traceback reached the user
            pytest.fail(f"{argv}: {exc!r}")
        out = capsys.readouterr().out
        report = json.loads(out)            # exactly one JSON document
        assert code in seen, argv
        seen[code] += 1
        if code == 2:
            assert issubclass(getattr(errors, report["error"]),
                              errors.MaslovError), argv
        else:
            assert report["pass"] is (code == 0), argv
            assert any(not c["pass"] for c in report["checks"]) is (
                code == 1), argv
    # both halves reach the commands, not only the parser
    assert seen[0] > JOBS // 5 and seen[2] > JOBS // 5
