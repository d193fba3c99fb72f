"""Command-line front end: JSON jobs in, machine-readable reports out.

One job per invocation.  Reports are deterministic byte-for-byte for a
fixed job (including the seed); wall-clock timing goes to stderr only.
One argparse parser, built on the first ``run``, serves every later
``run`` in the process.
Exit status: 0 when every check passes, 1 when a check fails, 2 on
input or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .errors import (
    MaslovError,
    NonGeneric,
    ParseError,
    TooLarge,
    WrongContext,
)
from .fields import INF, FieldCtx, _parse_rational
from .forms import FormMatrix
from .lagrange import (
    HyperbolicSpace,
    Lagrangian,
    UnitaryElement,
    enumerate_lagrangians,
    kappa,
)
from .linalg import Matrix
from .cocycle import (
    _require_symplectic,
    boundary_defect,
    disc_defect,
    kashiwara_class,
    maslov,
    orbit_census,
    reduced_maslov,
    tau,
)
from .sampling import (
    random_based_triple,
    random_opposite_quadruple,
    rng_for,
)
from .symbols import (
    _require_trivial_involution,
    compare_stbg_maslov,
    steinberg_relations_report,
)
from .witt import hilbert_symbol, witt_class

DEFAULT_SEED = 20259
# the most (q - 1)^3 triples `steinberg-check --exhaustive` sweeps; 30^3
# lets every sweep up to F_31 run, at under 2 ms a triple
STEINBERG_LIMIT = 30**3
# the largest rank the sampled checks take in characteristic 0.  At the
# default seed one trial over Q passes at rank 8 in under a second, one at
# ranks 9 to 20 ends in the Pollard rho TooLarge after 3 to 14 s, and rank
# 40 ran past a minute; over Q(sqrt(-1)) ranks 5 to 19 end in that
# TooLarge.  Other seeds reach it lower: one trial over Q at rank 6
# (seed 1) or 7 (seed 2), or over Q(sqrt(-1)) at rank 5 (seed 2), exits 2
# with TooLarge after about 2 s.  So the cap bounds what a job starts, not
# whether it finishes
RANK_LIMIT = 8
# the same over F_p and F_{p^2}, where entries do not grow: one trial of
# each sampled command over F_5 and F_9 takes at most 0.71 s at rank 24
# and 1.34 s at rank 28
FINITE_RANK_LIMIT = 24


def parse_field(text: str):
    """(descriptor, context) of a --field value; a bare kind such as Q
    stands for {"kind": "Q"}."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError:
        spec = {"kind": text}
    except ValueError as exc:
        # JSON, but an int literal past sys.get_int_max_str_digits()
        raise ParseError(f"bad field descriptor: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("field descriptor needs a 'kind'")
    return spec, FieldCtx(spec["kind"], p=spec.get("p"), d=spec.get("d"),
                          epsilon=spec.get("epsilon", 1))


def parse_matrix(ctx, rows) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list)
                                             for r in rows):
        raise ParseError("matrix must be a list of rows")
    return Matrix(ctx, [[ctx.parse_scalar(v) for v in r] for r in rows])


def matrix_to_json(ctx, m: Matrix):
    return [[ctx.scalar_to_json(v) for v in r] for r in m.rows]


def _lagrangian(space, rows) -> Lagrangian:
    return Lagrangian(space, parse_matrix(space.ctx, rows))


def _space(ctx, inputs) -> HyperbolicSpace:
    n = inputs.get("n")
    if n is None:
        raise ParseError("input needs the rank 'n'")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError("the rank 'n' must be an integer")
    return HyperbolicSpace(ctx, n)


def _triple(ctx, inputs):
    space = _space(ctx, inputs)
    return tuple(_lagrangian(space, inputs[k]) for k in ("X", "Y", "Z"))


def _form(ctx, inputs):
    return FormMatrix(ctx, parse_matrix(ctx, inputs["matrix"]),
                      inputs.get("eps", 1))


def _open(path, mode):
    # a file that cannot be opened is bad input, not a crash
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# command implementations; each returns (outputs, checks)


def cmd_kappa(ctx, inputs, args):
    t = kappa(*_triple(ctx, inputs))
    return {
        "t": matrix_to_json(ctx, t.mat),
        "witt": witt_class(t).to_json(),
    }, []


def cmd_maslov(ctx, inputs, args):
    return {"witt": maslov(*_triple(ctx, inputs)).to_json()}, []


def cmd_kashiwara(ctx, inputs, args):
    return {"witt": kashiwara_class(*_triple(ctx, inputs)).to_json()}, []


def cmd_tau(ctx, inputs, args):
    space = _space(ctx, inputs)
    g = UnitaryElement(space, parse_matrix(ctx, inputs["g"]))
    h = UnitaryElement(space, parse_matrix(ctx, inputs["h"]))
    o = _lagrangian(space, inputs["o"]) if "o" in inputs else None
    return {"witt": tau(g, h, o).to_json()}, []


def cmd_witt(ctx, inputs, args):
    return {"witt": witt_class(_form(ctx, inputs)).to_json()}, []


def cmd_disc(ctx, inputs, args):
    return {"disc": witt_class(_form(ctx, inputs)).signed_disc().to_json()}, []


def cmd_hilbert(ctx, inputs, args):
    # the symbol is the rational one: a report must not name another field
    if ctx.kind != "Q":
        raise WrongContext("Hilbert symbols need a Q context")
    try:
        a, b = _parse_rational(inputs["a"]), _parse_rational(inputs["b"])
        place = inputs["place"]
        place = INF if place in (INF, "oo") else int(str(place))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad Hilbert-symbol input: {exc}") from exc
    val = hilbert_symbol(a, b, place)
    return {"symbol": val}, []


def cmd_lagrangians(ctx, inputs, args):
    space = _space(ctx, inputs)
    lags = enumerate_lagrangians(space)
    out = {"count": len(lags)}
    if len(lags) <= 64:
        out["lagrangians"] = [matrix_to_json(ctx, lag.canonical)
                              for lag in lags]
    return out, []


def _count_trials(args, holds, name, count):
    """The report and the one check of the seeded trials i with
    holds(rng_for(seed, i)), their number reported as count."""
    trials = args.trials
    good = sum(holds(rng_for(args.seed, i)) for i in range(trials))
    checks = [{"name": name, "pass": good == trials,
               "detail": f"{good}/{trials}"}]
    return {"trials": trials, count: good}, checks


def _sampled_check(ctx, inputs, args, holds, name, count):
    """_count_trials of holds(space, rng); ranks past the limit of the
    field's characteristic are refused before any sampling."""
    space = _space(ctx, inputs)
    limit = FINITE_RANK_LIMIT if ctx.is_finite else RANK_LIMIT
    if space.n > limit:
        raise TooLarge(f"rank {space.n} exceeds the limit {limit} "
                       "of the sampled checks")
    return _count_trials(args, lambda rng: holds(space, rng), name, count)


def cmd_boundary_check(ctx, inputs, args):
    return _sampled_check(
        ctx, inputs, args,
        lambda space, rng: boundary_defect(
            *random_opposite_quadruple(space, rng)).is_zero(),
        "boundary-defect-zero", "zero")


def cmd_disc_defect_check(ctx, inputs, args):
    return _sampled_check(
        ctx, inputs, args,
        lambda space, rng: disc_defect(
            random_based_triple(space, rng)).is_identity(),
        "disc-defect-identity", "identity")


def cmd_reduced_check(ctx, inputs, args):
    return _sampled_check(
        ctx, inputs, args,
        lambda space, rng: reduced_maslov(
            random_based_triple(space, rng)).in_II(),
        "reduced-in-II", "in_II")


def _det_one_matrices(ctx, rng):
    while True:
        rows = [[ctx.random_element(rng, 3) for _ in range(2)]
                for _ in range(2)]
        m = Matrix(ctx, rows)
        d = m.det()
        if not d:
            continue
        return Matrix(ctx, [[v / d for v in rows[0]], rows[1]])


def cmd_steinberg_check(ctx, inputs, args):
    _require_trivial_involution(ctx)
    if args.exhaustive:
        if not ctx.is_finite:
            raise ParseError("--exhaustive needs a finite field")
        total = (ctx.order - 1) ** 3
        if total > STEINBERG_LIMIT:
            raise TooLarge(
                f"{total} triples exceed the limit {STEINBERG_LIMIT}")
        els = ctx.nonzero_elements()
        triples = [(s, t, r) for s in els for t in els for r in els]
    else:
        triples = []
        for i in range(args.trials):
            rng = rng_for(args.seed, i)
            triples.append(tuple(ctx.random_nonzero(rng) for _ in range(3)))
    report = steinberg_relations_report(ctx, triples)
    checks = [{"name": f"relation-{name}", "pass": True, "detail": f"{cnt}"}
              for name, cnt in report["checks"].items()]
    for v in report["violations"]:
        checks.append({"name": f"violation-{v[0]}", "pass": False,
                       "detail": repr(v[1:])})
    return {"checks_run": report["checks"],
            "violations": len(report["violations"])}, checks


def cmd_compare(ctx, inputs, args):
    if "g1" in inputs:
        g1 = parse_matrix(ctx, inputs["g1"])
        g2 = parse_matrix(ctx, inputs["g2"])
        ok = compare_stbg_maslov(g1, g2)
        return {"match": ok}, [{"name": "stbg-vs-reduced", "pass": ok,
                                "detail": "single pair"}]
    _require_symplectic(ctx)

    def matches(rng):
        # the first generic pair the trial's stream draws
        while True:
            g1 = _det_one_matrices(ctx, rng)
            g2 = _det_one_matrices(ctx, rng)
            try:
                return compare_stbg_maslov(g1, g2)
            except NonGeneric:
                continue

    return _count_trials(args, matches, "stbg-vs-reduced", "match")


def cmd_census(ctx, inputs, args):
    space = _space(ctx, inputs)
    result = orbit_census(space)
    checks = [{"name": "fibers-are-orbits", "pass": result.fibers_are_orbits,
               "detail": f"{len(result.classes)} classes"}]
    return {
        "classes": len(result.classes),
        "orbit_sizes": result.sizes(),
        "total_triples": result.total,
    }, checks


COMMANDS = {
    "kappa": cmd_kappa,
    "maslov": cmd_maslov,
    "kashiwara": cmd_kashiwara,
    "tau": cmd_tau,
    "witt": cmd_witt,
    "disc": cmd_disc,
    "hilbert": cmd_hilbert,
    "lagrangians": cmd_lagrangians,
    "boundary-check": cmd_boundary_check,
    "disc-defect-check": cmd_disc_defect_check,
    "reduced-check": cmd_reduced_check,
    "steinberg-check": cmd_steinberg_check,
    "compare": cmd_compare,
    "census": cmd_census,
}


@functools.cache
def build_parser():
    # parse_args keeps no state in the parser, so one serves every run
    ap = argparse.ArgumentParser(
        prog="maslov",
        description="Exact verification of the Lagrangian triple cocycle, "
                    "its reductions, and the symbol comparison.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--field", default='{"kind":"Q"}',
                    help="field descriptor JSON, e.g. "
                         '{"kind":"Fp","p":5,"epsilon":1}')
    ap.add_argument("--input", default="{}",
                    help="inline JSON input or @path/to/file.json")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--exhaustive", action="store_true")
    ap.add_argument("--output", help="also write the report to this path")
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    output = None
    try:
        if args.output:
            # refused before the job runs, so stdout gets one report
            _open(args.output, "a").close()
            output = args.output
        if args.trials < 0:
            raise ParseError("--trials must be non-negative")
        field, ctx = parse_field(args.field)
        raw = args.input
        try:
            if raw.startswith("@"):
                with _open(raw[1:], "r") as fh:
                    raw = fh.read()
            inputs = json.loads(raw)
        except ValueError as exc:
            # bad JSON, bad UTF-8, or an int literal too long to convert
            raise ParseError(f"bad input JSON: {exc}") from exc
        if not isinstance(inputs, dict):
            raise ParseError("input JSON must be an object")
        outputs, checks = COMMANDS[args.command](ctx, inputs, args)
        ok = all(c["pass"] for c in checks)
        report = {
            "command": args.command,
            "field": field,
            "inputs": inputs,
            "seed": args.seed,
            "outputs": outputs,
            "checks": checks,
            "pass": ok,
        }
        status = 0 if ok else 1
    except MaslovError as exc:
        report = {
            "command": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        status = 2
    except KeyError as exc:
        report = {
            "command": args.command,
            "error": "ParseError",
            "message": f"missing input field {exc}",
        }
        status = 2
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elapsed = time.monotonic() - started
    print(f"[{args.command}] elapsed {elapsed:.3f}s", file=sys.stderr)
    return status


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
