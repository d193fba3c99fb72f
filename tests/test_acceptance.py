"""Acceptance suite: the eleven verification criteria, at full counts.

Every check is exact (integer or rational arithmetic throughout); the
trial counts below are the contract, not a sampling convenience.  Each
test prints a PASS line so the suite doubles as a readable report under
``pytest -s``.
"""

import itertools
import random
from fractions import Fraction

from maslov.fields import FieldCtx
from maslov.forms import FormMatrix, is_isometric
from maslov.lagrange import HyperbolicSpace, enumerate_lagrangians, kappa
from maslov.cocycle import (
    boundary_defect,
    disc_defect,
    kashiwara_class,
    maslov,
    orbit_census,
    reduced_maslov,
    relation_check,
    tau,
)
from maslov.sampling import (
    random_based_triple,
    random_hermitian_invertible,
    random_opposite_quadruple,
    random_opposite_triple,
    random_unitary,
    rng_for,
)
from maslov.symbols import (
    quaternion_form,
    steinberg_relations_report,
)
from maslov.witt import witt_class
from oracles import _b, _u, local_invariant_tuples, signature_count

SEED = 20259

Q = FieldCtx("Q")
F5 = FieldCtx("Fp", p=5)
F9 = FieldCtx("Fp2", p=3)
QI = FieldCtx("QSqrt", d=-1)


def report(line):
    print(f"PASS {line}")


def test_criterion_01_rank1_lagrangian_counts():
    for p in (3, 5, 7):
        sp = HyperbolicSpace(FieldCtx("Fp", p=p), 1)
        assert len(enumerate_lagrangians(sp)) == p + 1
    report("criterion 1: rank-1 Lagrangian counts are p + 1 for "
           "p in {3, 5, 7}")


def test_criterion_02_orbit_classification():
    res3 = orbit_census(HyperbolicSpace(FieldCtx("Fp", p=3), 1))
    assert res3.fibers_are_orbits
    assert len(res3.classes) == 2
    assert res3.sizes() == [12, 12]
    res5 = orbit_census(HyperbolicSpace(FieldCtx("Fp", p=5), 1))
    assert res5.fibers_are_orbits
    assert len(res5.classes) == 2
    assert res5.total == 120
    report("criterion 2: invariant fibers = unitary orbits over F_3 and "
           "F_5 (rank 1); F_3 census is 2 classes of 12")


def test_criterion_03_cocycle_boundary():
    plans = [
        (Q, (1, 2, 3), 500),
        (F5, (1, 2), 500),
        (QI, (1, 2), 500),
    ]
    for ctx, ranks, count in plans:
        done = 0
        for i in range(count):
            n = ranks[i % len(ranks)]
            sp = HyperbolicSpace(ctx, n)
            quad = random_opposite_quadruple(sp, rng_for(SEED, i))
            assert boundary_defect(*quad).is_zero()
            done += 1
        assert done == count
    report("criterion 3: boundary defect vanished on 500 random "
           "quadruples over each of Q, F_5, Q(sqrt(-1))")


def test_criterion_04_relation_lemma():
    ctxs = [Q, FieldCtx("Fp", p=7), F9, QI]
    done = 0
    trial = 0
    while done < 500:
        ctx = ctxs[done % len(ctxs)]
        rng = rng_for(SEED + 1, trial)
        trial += 1
        n = 1 + (done % 2)
        r = random_hermitian_invertible(ctx, n, rng)
        s = random_hermitian_invertible(ctx, n, rng)
        t_mat = -(r.mat + s.mat)
        if not t_mat.is_invertible():
            continue
        # two-term relation
        assert (witt_class(r) + witt_class(r.neg())).is_zero()
        # four-term relation
        t = FormMatrix(ctx, t_mat, r.eps)
        assert relation_check(r, s, t).is_zero()
        done += 1
    report("criterion 4: [r] + [-r] = 0 and the four-term relation held "
           "for 500 random admissible triples")


def test_criterion_05_kashiwara_agreement_and_tau():
    for i in range(300):
        n = 1 + (i % 2)
        sp = HyperbolicSpace(Q, n)
        x, y, z = random_opposite_triple(sp, rng_for(SEED + 2, i))
        assert kashiwara_class(x, y, z) == maslov(x, y, z)
    for i in range(300):
        n = 1 + (i % 2)
        sp = HyperbolicSpace(Q, n)
        rng = rng_for(SEED + 3, i)
        g = random_unitary(sp, rng, length=2)
        h = random_unitary(sp, rng, length=2)
        k = random_unitary(sp, rng, length=2)
        assert tau(g, h) + tau(g * h, k) == tau(h, k) + tau(g, h * k)
    report("criterion 5: Kashiwara class = cocycle on 300 opposite "
           "triples; tau satisfied the group cocycle identity on 300 "
           "random unitary triples")


def test_criterion_06_reduction():
    kinds = [Q, F5, QI]
    for i in range(300):
        ctx = kinds[i % len(kinds)]
        n = 1 + (i % 2)
        sp = HyperbolicSpace(ctx, n)
        bt = random_based_triple(sp, rng_for(SEED + 4, i))
        assert disc_defect(bt).is_identity()
    for i in range(300):
        ctx = (Q, F5)[i % 2]
        n = 1 + (i % 2)
        sp = HyperbolicSpace(ctx, n)
        bt = random_based_triple(sp, rng_for(SEED + 5, i))
        assert reduced_maslov(bt).in_II()
    report("criterion 6: discriminant defect = identity on 300 based "
           "triples over three field kinds; reduced cocycle always in "
           "the discriminant kernel")


def test_criterion_07_steinberg_relations():
    for p in (3, 5, 7, 11):
        ctx = FieldCtx("Fp", p=p)
        els = ctx.nonzero_elements()
        rep = steinberg_relations_report(
            ctx, list(itertools.product(els, els, els)))
        assert rep["ok"], rep["violations"]
    rng = random.Random(SEED)
    triples = []
    while len(triples) < 200:
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(3)]
        if all(vals):
            triples.append(tuple(vals))
    rep = steinberg_relations_report(Q, triples)
    assert rep["ok"], rep["violations"]
    report("criterion 7: all five symbol relations hold under R, "
           "exhaustively over F_p^* for p in {3, 5, 7, 11} and on 200 "
           "rational tuples")


def test_criterion_08_comparison_theorem():
    # exhaustive generic pairs over F_5; the two routes factor through
    # (r1, r2, t), so heavy values are cached on that key
    ctx = F5
    els = ctx.nonzero_elements()
    allel = ctx.elements()
    from maslov.symbols import compare_stbg_maslov, stbg_parameters

    cache = {}
    checked = 0
    for s1, r1, t1 in itertools.product(allel, els, allel):
        g1 = _u(ctx, s1) * _b(ctx, r1) * _u(ctx, t1)
        for s2, r2 in itertools.product(allel, els):
            if not (t1 + s2):
                continue
            g2 = _u(ctx, s2) * _b(ctx, r2)
            key = stbg_parameters(g1, g2)
            if key not in cache:
                cache[key] = compare_stbg_maslov(g1, g2)
            assert cache[key]
            checked += 1
    assert checked == 4 * 4 * 100  # r1, r2 free; (t1, s2) with t != 0
    rng = random.Random(SEED + 6)
    done = 0
    while done < 200:
        s1, t1, s2, t2 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(4))
        r1, r2 = (Fraction(rng.choice([v for v in range(-4, 5) if v]),
                           rng.randint(1, 3)) for _ in range(2))
        if not (t1 + s2):
            continue
        g1 = _u(Q, s1) * _b(Q, r1) * _u(Q, t1)
        g2 = _u(Q, s2) * _b(Q, r2) * _u(Q, t2)
        from maslov.symbols import compare_stbg_maslov as cmp_q

        assert cmp_q(g1, g2)
        done += 1
    report("criterion 8: R(stbg) = -[<t, r1, r2, r1 r2 t>] = reduced "
           "route on all generic F_5 pairs and 200 rational pairs")


def test_criterion_09_real_signature_law():
    grid = [1, -1, 2, -2, 3, -3, 5, -5, 30, -30]
    for x in grid:
        for y in grid:
            q = quaternion_form(Q, Fraction(x), Fraction(y))
            expected = 4 if (x < 0 and y < 0) else 0
            assert witt_class(q).signature() == expected == signature_count(q)
    report("criterion 9: signature of the quaternion form is 4 exactly "
           "when both entries are negative, on the 10 x 10 grid")


def test_criterion_10_sixteen_local_classes():
    for p in (3, 5):
        assert len(local_invariant_tuples(p)) == 16
    report("criterion 10: exactly 16 realizable p-adic invariant tuples "
           "for p in {3, 5}")


def test_criterion_11_invariant_symmetry_laws():
    kinds = [Q, F5, F9, QI]
    for ctx in kinds:
        for i in range(300):
            n = 1 + (i % 2)
            sp = HyperbolicSpace(ctx, n)
            x, y, z = random_opposite_triple(sp, rng_for(SEED + 7, i))
            base = kappa(x, y, z)
            assert is_isometric(kappa(y, z, x), base)
            assert is_isometric(kappa(x, z, y), base.neg())
    report("criterion 11: cyclic invariance and the negation swap law "
           "held on 300 random triples per field kind")
