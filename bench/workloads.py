"""The four benchmark workloads.

A workload turns a seed into rounds of items.  Every round has the same
make-up (kinds, ranks, fields and job types), so a run of any length
attempts whole rounds and the share of failed items never depends on the
seed or on the run length.  ``run_item`` makes only the program calls an
item stands for; ``check_round`` then compares the round's outputs with
facts from ``checks``, outside the timed items.

The program sees only the generated inputs: scalars, matrices, random
generators and command lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product

import checks


def rng_for(*keys):
    """A generator seeded from a string of keys; str seeds hash with
    SHA-512, so the stream is the same in every process."""
    return random.Random(":".join(str(k) for k in keys))


def field(M, kind, p=None, d=None, epsilon=1):
    return M.fields.FieldCtx(kind, p=p, d=d, epsilon=epsilon)


def rational_rows(m):
    return [[Fraction(v) for v in row] for row in m.rows]


# ---------------------------------------------------------------------------
# boundary: sample an opposite quadruple, check the cocycle identity


class Boundary:
    """Equal shares of Q, F_5 and Q(sqrt(-1)) per round, as in acceptance
    criterion 3, at ranks 1 and 2.  Criterion 3 also samples Q at rank 3;
    those trials are left out because their time has an unbounded tail
    (see CHANGES.md).  Without them the criterion would give Q's ranks
    equal shares, and the F_5 and rank-1 Q trials would be exactly half
    of each round, putting the median item where fast trials meet slow
    ones.  Q takes rank 2 five times in six instead, so that the median
    falls inside the cluster of rank-1 Q(sqrt(-1)) and rank-2 Q trials."""

    name = "boundary"

    def __init__(self, plan=((("Q", None, None), (1, 2, 2, 2, 2, 2)),
                             (("Fp", 5, None), (1, 2, 1, 2, 1, 2)),
                             (("QSqrt", None, -1), (1, 2, 1, 2, 1, 2)))):
        self.plan = plan

    def setup(self, M, seed):
        spaces = {}
        for k, ((kind, p, d), ranks) in enumerate(self.plan):
            ctx = field(M, kind, p, d)
            for n in set(ranks):
                spaces[(k, n)] = M.lagrange.HyperbolicSpace(ctx, n)
        return spaces

    def make_round(self, M, spaces, seed, r):
        longest = max(len(ranks) for _, ranks in self.plan)
        return [(k, ranks[j], f"{self.name}:{seed}:{r}:{j}:{k}")
                for j in range(longest)
                for k, (_, ranks) in enumerate(self.plan) if j < len(ranks)]

    def run_item(self, M, spaces, item):
        k, n, trial = item
        quad = M.sampling.random_opposite_quadruple(spaces[(k, n)],
                                                    random.Random(trial))
        return True, (quad, M.cocycle.boundary_defect(*quad).is_zero())

    def check_round(self, M, spaces, items, outputs):
        problems = []
        for (k, n, trial), out in zip(items, outputs):
            if out is None:
                continue
            (x, y, z, zp), zero = out
            kappas = [M.lagrange.kappa(*tri) for tri in
                      ((y, z, zp), (x, z, zp), (x, y, zp), (x, y, z))]
            class_zero = ([M.witt.witt_class(t).is_zero() for t in kappas]
                          if n % 2 else None)
            rows = ([rational_rows(t.mat) for t in kappas]
                    if self.plan[k][0][0] == "Q" else None)
            problems += [f"{trial}: {msg}" for msg in checks.
                         check_boundary_item(n, zero, class_zero, rows)]
        return problems


# ---------------------------------------------------------------------------
# census: exhaustive orbit censuses over finite fields


class Census:
    """Rank-1 censuses over several F_p and F_{p^2}, and the rank-2 census
    over F_3: 103 calls per round.  Sorted by time the calls form one
    cluster per field; the counts put the median item in the middle of
    the F_25 calls and the 90th percentile inside the F_49 calls, away
    from the jumps between clusters."""

    name = "census"

    def __init__(self, plan=(("Fp", 3, 1, 16), ("Fp2", 3, 1, 16),
                             ("Fp", 5, 1, 10), ("Fp2", 5, 1, 20),
                             ("Fp", 7, 1, 18), ("Fp2", 7, 1, 20),
                             ("Fp", 11, 1, 1), ("Fp", 13, 1, 1),
                             ("Fp", 3, 2, 1))):
        self.plan = plan

    def setup(self, M, seed):
        return {(kind, p, n): M.lagrange.HyperbolicSpace(field(M, kind, p), n)
                for kind, p, n, _ in self.plan}

    def make_round(self, M, spaces, seed, r):
        items = [(kind, p, n) for kind, p, n, calls in self.plan
                 for _ in range(calls)]
        rng_for(self.name, seed, r).shuffle(items)
        return items

    def run_item(self, M, spaces, item):
        return True, M.cocycle.orbit_census(spaces[item])

    def check_round(self, M, spaces, items, outputs):
        problems = []
        lag_counts = {}
        for key, res in zip(items, outputs):
            if res is None:
                continue
            if key not in lag_counts:
                lag_counts[key] = len(
                    M.lagrange.enumerate_lagrangians(spaces[key]))
            problems += [f"census {key}: {msg}" for msg in
                         checks.check_census_item(
                             *key, lag_counts[key], res.total,
                             list(res.classes.values()),
                             res.fibers_are_orbits)]
        return problems


# ---------------------------------------------------------------------------
# symbols: Steinberg relations and the stbg comparison


class Symbols:
    """The exhaustive relation sweeps over F_p^*, seeded rational triples,
    every generic pair over F_5 and seeded determinant-one pairs over Q,
    in a seeded order."""

    name = "symbols"

    def __init__(self, primes=(3, 5, 7, 11, 13), rational=40, q_pairs=40,
                 pair_prime=5):
        self.primes = primes
        self.rational = rational
        self.q_pairs = q_pairs
        self.pair_prime = pair_prime

    def setup(self, M, seed):
        Matrix = M.linalg.Matrix
        fixed = []
        for p in self.primes:
            ctx = field(M, "Fp", p)
            els = [ctx.from_int(v) for v in range(1, p)]
            fixed += [("rel", f"F{p}", ctx, tri)
                      for tri in product(els, repeat=3)]
        ctx = field(M, "Fp", self.pair_prime)

        def mat(rows):
            return Matrix(ctx, [[ctx.from_int(v) for v in row]
                                for row in rows])

        fixed += [("cmp", f"F{self.pair_prime}", mat(g1), mat(g2))
                  for g1, g2 in checks.generic_pairs_mod_p(self.pair_prime)]
        return {"Q": field(M, "Q"), "fixed": fixed}

    def _det_one(self, rng):
        # as `maslov compare` draws: entries a/b with |a| <= 3, b <= 3,
        # the first row divided by the determinant
        while True:
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(2)] for _ in range(2)]
            d = checks.det(rows)
            if d:
                return [[v / d for v in rows[0]], rows[1]]

    def make_round(self, M, state, seed, r):
        Q = state["Q"]
        rng = rng_for(self.name, seed, r)
        triples = []
        while len(triples) < self.rational:
            vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(3)]
            if all(vals):
                triples.append(tuple(vals))
        items = list(state["fixed"])
        items += [("rel", "Q", Q, tri) for tri in triples]
        for _ in range(self.q_pairs):
            # the item retries on NonGeneric, as `maslov compare` does
            candidates = [tuple(M.linalg.Matrix(Q, self._det_one(rng))
                                for _ in range(2)) for _ in range(24)]
            items.append(("cmpQ", "Q", candidates))
        # interleaved, so that each kind of item is timed across the round
        rng.shuffle(items)
        return items

    def run_item(self, M, state, item):
        if item[0] == "rel":
            _, _, ctx, tri = item
            return True, M.symbols.steinberg_relations_report(ctx, [tri])
        if item[0] == "cmp":
            return True, M.symbols.compare_stbg_maslov(item[2], item[3])
        for g1, g2 in item[2]:
            try:
                return True, M.symbols.compare_stbg_maslov(g1, g2)
            except M.errors.NonGeneric:
                continue
        return False, None

    def check_round(self, M, state, items, outputs):
        problems = []
        reports, verdicts, failed = {}, {}, set()
        q_triples = []
        for item, out in zip(items, outputs):
            kind = "rel" if item[0] == "rel" else "cmp"
            if out is None:            # already counted as failed
                failed.add((kind, item[1]))
            elif kind == "rel":
                reports.setdefault(item[1], []).append(out)
                if item[1] == "Q":
                    q_triples.append(item[3])
            else:
                verdicts.setdefault(item[1], []).append(out)
        p = self.pair_prime
        wants = [(f"F{q}", "rel", checks.relation_counts_fp(q))
                 for q in self.primes]
        wants += [("Q", "rel", checks.relation_counts_q(q_triples)),
                  (f"F{p}", "cmp", p * p * (p - 1) ** 3),
                  ("Q", "cmp", self.q_pairs)]
        for label, kind, want in wants:
            if (kind, label) in failed:  # counts are whole only without fails
                continue
            if kind == "rel":
                problems += checks.check_relation_sweep(
                    label, reports.get(label, []), want)
            else:
                problems += checks.check_comparisons(
                    f"{label} pairs", verdicts.get(label, []), want)
        S, Q = M.symbols, state["Q"]
        for s, t, _ in q_triples:
            cls = S.R_map(S.SymbolSum.symbol(Q, s, t))
            problems += checks.check_quaternion_law(s, t, cls.signature())
        minus_one = Fraction(-1)
        if S.R_map(S.SymbolSum.symbol(Q, minus_one, minus_one)).is_zero():
            problems.append("R({-1, -1}) over Q reads as zero")
        return problems


# ---------------------------------------------------------------------------
# cli-jobs: single-shot jobs through maslov.cli.run


# The malformed jobs of the input-boundary item in ROADMAP.md.  Each passes
# only when it exits 2 with a named MaslovError and no traceback.
MALFORMED = (
    ("kappa", "--input", '{"n":"abc"}'),
    ("kappa", "--input", "[1]"),
    ("witt", "--field", '{"kind":"Fp","p":"5"}', "--input",
     '{"matrix":[["1"]]}'),
    ("hilbert", "--input", '{"a":"2","b":"3","place":"x"}'),
    ("boundary-check", "--field", '{"kind":"Fp","p":5}', "--input",
     '{"n":1}', "--trials", "-3"),
)

# small primes are drawn from [53, 5000), large ones from [2^20, 2^20 + 2^14),
# both without repeats within a round
SMALL_PRIMES = tuple(q for q in range(53, 5000) if checks.is_prime(q))
LARGE_LOW = 1 << 20
LARGE_SPAN = 1 << 14


def jstr(rows):
    return [[str(v) for v in row] for row in rows]


class CliJobs:
    """Per round: 4 kappa, 4 maslov, 4 tau, 6 witt and 6 disc jobs (half
    of the witt and disc jobs with a product of two 20-bit primes in one
    entry), two Hilbert-symbol pairs at each of their 6 places, and the
    5 malformed jobs: 41 jobs."""

    name = "cli-jobs"

    def __init__(self, per_kind=4, witt_disc=6, hilbert_pairs=2):
        self.per_kind = per_kind
        self.witt_disc = witt_disc
        self.hilbert_pairs = hilbert_pairs

    def setup(self, M, seed):
        return None

    # -- input generation (own arithmetic only) -------------------------

    @staticmethod
    def _symmetric(rng, n):
        while True:
            t = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    t[i][j] = t[j][i] = Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 3))
            if checks.det(t):
                return t

    @staticmethod
    def _symplectic_word(rng, n, length=3):
        """A product of u_s, Levi and Weyl generators of Sp_2n(Q)."""
        zero = [[Fraction(0)] * n for _ in range(n)]
        eye = checks.identity(n)
        g = checks.identity(2 * n)
        for _ in range(length):
            pick = rng.randrange(3)
            if pick == 0:
                s = CliJobs._symmetric(rng, n)
                f = checks.block2(eye, s, zero, eye)
            elif pick == 1:
                a = [[Fraction(1 if i == j else
                               (rng.randint(-2, 2) if j > i else 0))
                      for j in range(n)] for i in range(n)]
                f = checks.block2(checks.transpose(checks.inverse(a)), zero,
                                  zero, a)
            else:
                f = checks.block2(zero, eye, [[-x for x in r] for r in eye],
                                  zero)
            g = checks.mat_mul(g, f)
        return g

    @staticmethod
    def _small_prime(rng, used):
        while True:
            q = rng.choice(SMALL_PRIMES)
            if q not in used:
                used.add(q)
                return q

    @staticmethod
    def _large_prime(rng, used):
        while True:
            q = LARGE_LOW + rng.randrange(LARGE_SPAN)
            if q not in used and checks.is_prime(q):
                used.add(q)
                return q

    def _diagonal(self, rng, n, large, used):
        """Entries d_i = sign * prod(primes) / m with known factors."""
        entries = []
        for i in range(n):
            sign = rng.choice((1, -1))
            exps = {}
            if large and i == 0:
                for q in (self._large_prime(rng, used),
                          self._large_prime(rng, used)):
                    exps[q] = 1
            else:
                exps[self._small_prime(rng, used)] = 1
            m = rng.choice((1, 2, 3, 5))
            if m > 1:
                exps[m] = exps.get(m, 0) - 1
            value = Fraction(sign)
            for q, e in exps.items():
                value *= Fraction(q) ** e
            entries.append((value, sign, exps))
        return entries

    def _form_job(self, rng, command, large, used):
        n = rng.choice((2, 3))
        diag = self._diagonal(rng, n, large, used)
        d = [[diag[i][0] if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        # upper unitriangular P: P^T D P mixes every entry, and symmetric
        # elimination recovers D, so entry sizes stay those of D
        p = [[Fraction(1 if i == j else (rng.randint(-3, 3) if j > i else 0))
              for j in range(n)] for i in range(n)]
        mat = checks.mat_mul(checks.mat_mul(checks.transpose(p), d), p)
        expect = {"n": n,
                  "signature": sum(1 if v > 0 else -1 for v, _, _ in diag),
                  "disc": checks.signed_disc_of_diagonal(
                      [(s, e) for _, s, e in diag])}
        return (command, ["--input", json.dumps({"matrix": jstr(mat)})],
                expect)

    def make_round(self, M, state, seed, r):
        rng = rng_for(self.name, seed, r)
        used = set()          # primes already drawn in this round
        jobs = []
        for j in range(self.per_kind):
            n = 1 + j % 2
            t = self._symmetric(rng, n)
            zero = [[Fraction(0)] * n for _ in range(n)]
            eye = checks.identity(n)
            x0, y0 = eye + zero, zero + eye
            jobs.append(("kappa", ["--input", json.dumps(
                {"n": n, "X": jstr(x0), "Y": jstr(y0),
                 "Z": jstr(t + eye)})], {"t": t}))
            t = self._symmetric(rng, n)
            g = self._symplectic_word(rng, n)
            jobs.append(("maslov", ["--input", json.dumps(
                {"n": n, "X": jstr(checks.mat_mul(g, x0)),
                 "Y": jstr(checks.mat_mul(g, y0)),
                 "Z": jstr(checks.mat_mul(g, t + eye))})], {"t": t}))
            g = self._symplectic_word(rng, n)
            h = self._symplectic_word(rng, n)
            gh = checks.mat_mul(g, h)
            sig, rank = checks.signature_rank(checks.kashiwara_gram(
                [x0, [row[:n] for row in g], [row[:n] for row in gh]]))
            jobs.append(("tau", ["--input", json.dumps(
                {"n": n, "g": jstr(g), "h": jstr(h)})],
                {"n": rank, "signature": sig, "disc": None}))
        for j in range(self.witt_disc):
            large = j % 2 == 1
            jobs.append(self._form_job(rng, "witt", large, used))
            jobs.append(self._form_job(rng, "disc", large, used))
        for j in range(self.hilbert_pairs):
            primes = [self._small_prime(rng, used) for _ in range(4)]
            a = rng.choice((1, -1)) * primes[0] * primes[1]
            b = rng.choice((1, -1)) * primes[2] * primes[3]
            for place in ["inf", 2] + primes:
                jobs.append(("hilbert", ["--input", json.dumps(
                    {"a": str(a), "b": str(b), "place": place})],
                    {"pair": (j, a, b)}))
        jobs += [(argv[0], list(argv[1:]), None) for argv in MALFORMED]
        rng.shuffle(jobs)
        return jobs

    # -- running -----------------------------------------------------------

    def run_item(self, M, state, item):
        command, argv, expect = item
        out, err = io.StringIO(), io.StringIO()
        leaked = None
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                status = M.cli.run([command] + argv)
        except SystemExit as exc:      # argparse rejected the command line
            status = exc.code
        except Exception as exc:       # a traceback would reach the user
            status, leaked = None, type(exc).__name__
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        if expect is None:
            error = (report or {}).get("error")
            named = (isinstance(error, str)
                     and isinstance(getattr(M.errors, error, None), type)
                     and issubclass(getattr(M.errors, error),
                                    M.errors.MaslovError))
            return status == 2 and leaked is None and named, report
        return status == 0 and leaked is None and report is not None, report

    def check_round(self, M, state, items, outputs):
        problems = []
        pairs = {}
        for (command, argv, expect), report in zip(items, outputs):
            if expect is None or report is None or "outputs" not in report:
                continue
            got = report["outputs"]
            label = f"{command} {argv[-1][:60]}"
            if command == "kappa":
                if checks.rows_to_fractions(got["t"]) != expect["t"]:
                    problems.append(f"{label}: t = {got['t']}")
            if command in ("kappa", "maslov"):
                t = expect["t"]
                n = len(t)
                sig, _ = checks.signature_rank(t)
                d = checks.det(t) * (-1) ** (n * (n - 1) // 2)
                disc = (checks.squarefree_rational(d), (-1) ** n)
                problems += [f"{label}: {msg}" for msg in
                             checks.check_witt_json(got["witt"], n, sig,
                                                    disc)]
            elif command in ("tau", "witt"):
                problems += [f"{label}: {msg}" for msg in
                             checks.check_witt_json(
                                 got["witt"], expect["n"],
                                 expect["signature"], expect["disc"])]
            elif command == "disc":
                have = (int(Fraction(got["disc"]["s"])), got["disc"]["sign"])
                if have != expect["disc"]:
                    problems.append(f"{label}: disc {have}, want "
                                    f"{expect['disc']}")
            elif command == "hilbert":
                pairs.setdefault(expect["pair"], []).append(got["symbol"])
        for key, values in pairs.items():
            if len(values) == 6:      # a failed job is already counted
                problems += checks.check_hilbert_product(f"hilbert {key}",
                                                         values)
        return problems


WORKLOADS = {w.name: w for w in (Boundary(), Census(), Symbols(),
                                 CliJobs())}
