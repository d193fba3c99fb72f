"""Steinberg symbols, the reduction map, and the cocycle comparison."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from maslov.errors import NonGeneric, ValidationError, WrongContext, ZeroInput
from maslov.fields import FieldCtx
from maslov.forms import is_isometric
from maslov.linalg import Matrix
from maslov.symbols import (
    R_map,
    SymbolSum,
    _sym_class,
    compare_stbg_maslov,
    generic_decompose,
    quaternion_form,
    reduced_route,
    stbg_parameters,
    steinberg_relations_report,
)
from maslov.witt import (
    WittClass,
    hilbert_symbol,
    relevant_places,
    witt_class,
)
from oracles import (
    _a,
    _b,
    _u,
    checked_reduced_route,
    diagonal_rational,
    local_witt_is_zero,
    signature_count,
    stbg,
)

Q = FieldCtx("Q")
F5 = FieldCtx("Fp", p=5)
F7 = FieldCtx("Fp", p=7)


def frac(x):
    return Fraction(x)


# ---------------------------------------------------------------------------
# the quaternion form and R


def test_quaternion_form_examples():
    q = quaternion_form(Q, frac(1), frac(7))
    assert witt_class(q).is_zero()

    neg = quaternion_form(Q, frac(-1), frac(-1))
    assert witt_class(neg).signature() == 4 == signature_count(neg)
    assert witt_class(neg) == witt_class(
        diagonal_rational(Q, [1, 1, 1, 1]))

    a, b = frac(2), frac(3)
    assert is_isometric(quaternion_form(Q, a, b), quaternion_form(Q, b, a))

    with pytest.raises(ZeroInput):
        quaternion_form(Q, frac(0), frac(1))


def test_quaternion_form_lands_in_II():
    import random

    rng = random.Random(11)
    for _ in range(20):
        x = frac(rng.choice([v for v in range(-10, 11) if v]))
        y = frac(rng.choice([v for v in range(-10, 11) if v]))
        assert witt_class(quaternion_form(Q, x, y)).in_II()


def test_R_map_examples():
    s = SymbolSum.symbol(Q, frac(7), frac(1))
    assert R_map(s).is_zero()

    neg = SymbolSum.symbol(Q, frac(-1), frac(-1))
    assert R_map(neg) == witt_class(
        diagonal_rational(Q, [1, 1, 1, 1]))

    doubled = (SymbolSum.symbol(Q, frac(2), frac(3))
               + SymbolSum.symbol(Q, frac(3), frac(2)))
    single = witt_class(quaternion_form(Q, frac(2), frac(3)))
    assert R_map(doubled) == single + single


def test_sym_class_matches_the_quaternion_form():
    # _sym_class builds the class from the diagonal <1, -x, -y, xy>; the
    # reference is the general path through FormMatrix and diagonalize
    import random

    cases = []
    for p in (3, 5, 7):
        ctx = FieldCtx("Fp", p=p)
        units = ctx.nonzero_elements()
        cases += [(ctx, x, y) for x in units for y in units]
    rng = random.Random(17)
    pool = [frac(v) for v in (1, -1, 2, -2, 3, 4, -4, 6, 9, -12)]
    pool += [Fraction(rng.choice([v for v in range(-60, 61) if v]),
                      rng.randint(1, 20)) for _ in range(30)]
    cases += [(Q, x, y) for x in pool for y in pool[::3]]
    for ctx, x, y in cases:
        got = _sym_class(ctx, x, y)
        want = witt_class(quaternion_form(ctx, x, y))
        assert got == want, (ctx, x, y)
        assert got.signed_disc() == want.signed_disc()
    assert len(cases) > 500


def test_symbols_refuse_contexts_they_do_not_cover():
    # quaternion forms need x and y fixed by the involution, and the
    # comparison needs the symplectic case: both are refused up front
    for ctx in (FieldCtx("Fp2", p=3), FieldCtx("QSqrt", d=-1),
                FieldCtx("QSqrt", d=2)):
        one = ctx.one()
        with pytest.raises(WrongContext):
            steinberg_relations_report(ctx, [(one, one, one)])
        with pytest.raises(WrongContext):
            R_map(SymbolSum.symbol(ctx, one, one))
    for ctx in (FieldCtx("Fp2", p=3), FieldCtx("QSqrt", d=-1),
                FieldCtx("Q", epsilon=-1), FieldCtx("Fp", p=5, epsilon=-1)):
        g1 = Matrix(ctx, [[0, 1], [-1, -1]])
        g2 = Matrix(ctx, [[0, 1], [-1, 0]])
        with pytest.raises(WrongContext):
            compare_stbg_maslov(g1, g2)


def test_symbol_sum_arithmetic():
    s = SymbolSum.symbol(Q, frac(2), frac(3))
    t = SymbolSum.symbol(Q, frac(2), frac(3))
    assert (s - t).items() == []
    assert (s + t).items() == [((frac(2), frac(3)), 2)]
    with pytest.raises(ZeroInput):
        SymbolSum.symbol(Q, frac(0), frac(1))


def test_symbol_sums_refuse_scalars_of_another_field():
    for x, y in ((F5.from_int(2), F5.from_int(3)),
                 (F7.from_int(2), F5.from_int(3))):
        with pytest.raises(ValidationError, match="is not an element of F7"):
            SymbolSum.symbol(F7, x, y)


# ---------------------------------------------------------------------------
# relations


@pytest.mark.parametrize("p", [3, 5, 7])
def test_steinberg_relations_exhaustive(p):
    ctx = FieldCtx("Fp", p=p)
    els = ctx.nonzero_elements()
    report = steinberg_relations_report(
        ctx, list(itertools.product(els, els, els)))
    assert report["ok"], report["violations"]


def test_steinberg_relations_take_ints_and_refuse_other_fields():
    # ints enter as elements of the field; scalars of another field are
    # refused before any relation runs
    as_ints = steinberg_relations_report(F5, [(2, 3, 4), (1, 5, 2)])
    as_scalars = steinberg_relations_report(F5, [
        tuple(map(F5.from_int, triple)) for triple in ((2, 3, 4), (1, 5, 2))])
    assert as_ints == as_scalars and as_ints["checks"]["additivity"] == 1
    with pytest.raises(ValidationError, match="is not an element of F5"):
        steinberg_relations_report(F5, [tuple(map(F7.from_int, (2, 3, 4)))])


def test_steinberg_relations_random_q():
    import random

    rng = random.Random(13)
    triples = []
    while len(triples) < 60:
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(3)]
        if all(vals):
            triples.append(tuple(vals))
    report = steinberg_relations_report(Q, triples)
    assert report["ok"], report["violations"]


def test_negate_product_relation_instance():
    # (s, -st) ~ (s, t) for s = 2, t = 3
    assert is_isometric(quaternion_form(Q, frac(2), frac(-6)),
                        quaternion_form(Q, frac(2), frac(3)))


# ---------------------------------------------------------------------------
# decomposition and the generic cocycle


def test_generic_decompose_examples():
    g = Matrix(Q, [[0, 1], [-1, 0]])
    f = generic_decompose(g)
    assert (f.shape, f.s, f.r, f.t) == ("b", 0, 1, 0)

    g = Matrix(Q, [[1, 0], [1, 1]])
    f = generic_decompose(g)
    assert (f.shape, f.s, f.r, f.t) == ("b", 1, -1, 1)

    g = Matrix(Q, [[2, 0], [0, Fraction(1, 2)]])
    f = generic_decompose(g)
    assert (f.shape, f.r, f.t) == ("a", 2, 0)


def test_generic_decompose_random_round_trip():
    # 200 seeded determinant-one matrices over Q, every fifth one drawn
    # upper triangular (shape "a"): the factors multiply back to the matrix
    import random

    rng = random.Random(17)
    shapes = Counter()
    while sum(shapes.values()) < 200:
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(4)]
        if sum(shapes.values()) % 5 == 4:
            vals[2] = Fraction(0)
        m = Matrix(Q, [vals[:2], vals[2:]])
        d = m.det()
        if not d:
            continue
        m = Matrix(Q, [[v / d for v in m.rows[0]], list(m.rows[1])])
        f = generic_decompose(m)
        shapes[f.shape] += 1
        assert multiplied_back(Q, f) == m
    assert shapes["a"] >= 40 and shapes["b"] >= 100


def test_generic_decompose_multiplies_back_over_f5():
    # every one of the 120 elements of SL_2(F_5)
    els = F5.elements()
    count = 0
    for entries in itertools.product(els, repeat=4):
        m = Matrix(F5, [entries[:2], entries[2:]])
        if m.det() != F5.one():
            continue
        count += 1
        assert multiplied_back(F5, generic_decompose(m)) == m
    assert count == 120


def multiplied_back(ctx, f):
    if f.shape == "b":
        return _u(ctx, f.s) * _b(ctx, f.r) * _u(ctx, f.t)
    assert not f.s
    return _a(ctx, f.r) * _u(ctx, f.t)


def test_decompose_requires_det_one():
    with pytest.raises(ValidationError):
        generic_decompose(Matrix(Q, [[2, 0], [0, 1]]))


def test_stbg_examples():
    one = Q.one()
    g1 = _b(Q, one) * _u(Q, one)
    g2 = _b(Q, one)
    got = stbg(g1, g2)
    expected = (SymbolSum.symbol(Q, frac(1), frac(-1))
                - SymbolSum.symbol(Q, frac(-1), frac(-1)))
    assert got == expected

    # non-generic: t1 + s2 = 0
    with pytest.raises(NonGeneric):
        stbg(_b(Q, one) * _u(Q, one), _u(Q, -one) * _b(Q, one))
    # a-shape factor is non-generic as well
    with pytest.raises(NonGeneric):
        stbg(Matrix(Q, [[2, 0], [0, Fraction(1, 2)]]), g2)

    g1 = _b(Q, -one) * _u(Q, one)
    g2 = _b(Q, -one)
    got = stbg(g1, g2)
    expected = (SymbolSum.symbol(Q, frac(1), frac(-1))
                - SymbolSum.symbol(Q, frac(1), frac(1)))
    assert got == expected


def test_stbg_closed_form():
    # R(stbg) = -<t, r1 r2 t, r1, r2> on sampled generic pairs
    import random

    rng = random.Random(19)
    done = 0
    while done < 30:
        s1, t1, s2, t2 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(4))
        r1, r2 = (Fraction(rng.choice([v for v in range(-4, 5) if v]),
                           rng.randint(1, 3)) for _ in range(2))
        g1 = _u(Q, s1) * _b(Q, r1) * _u(Q, t1)
        g2 = _u(Q, s2) * _b(Q, r2) * _u(Q, t2)
        if not (t1 + s2):
            continue
        done += 1
        t = t1 + s2
        closed = witt_class(diagonal_rational(
            Q, [t, r1 * r2 * t, r1, r2])).neg()
        assert R_map(stbg(g1, g2)) == closed


def test_compare_example_and_random():
    one = Q.one()
    g1 = _b(Q, one) * _u(Q, one)
    g2 = _b(Q, one)
    assert compare_stbg_maslov(g1, g2)
    r1, r2, t = stbg_parameters(g1, g2)
    # both sides have signature -4 here
    val = R_map(stbg(g1, g2))
    assert val.signature() == -4


def test_symbol_sums_keep_negative_multiplicities():
    # a sum keeps the negative terms of either side, as a difference does
    a = SymbolSum.symbol(Q, frac(2), frac(3))
    b = SymbolSum.symbol(Q, frac(-1), frac(-1))
    got = (SymbolSum(Q) - b) + a
    assert dict(got.items()) == {(2, 3): 1, (-1, -1): -1}
    assert got == a - b and (a - b) + b == a
    assert R_map(got) == R_map(a) - R_map(b)


def test_reduced_route_matches_the_checked_construction():
    # the trusted based triple against based_triple_from_witnesses, and both
    # against the closed form -[<t, r1 r2 t, r1, r2>], on every triple of
    # units over F_5 and F_7 and on 200 seeded rational triples
    import random

    rng = random.Random(29)
    units = [Fraction(a, b) for a in range(-9, 10) if a for b in range(1, 5)]
    triples = [(F, *tr) for F in (F5, F7)
               for tr in itertools.product(F.nonzero_elements(), repeat=3)]
    triples += [(Q, *(rng.choice(units) for _ in range(3)))
                for _ in range(200)]
    assert len(triples) == 4 ** 3 + 6 ** 3 + 200
    for ctx, r1, r2, t in triples:
        closed = WittClass(ctx, (t, r1 * r2 * t, r1, r2)).neg()
        got = reduced_route(ctx, r1, r2, t)
        assert got == checked_reduced_route(ctx, r1, r2, t) == closed


def test_compare_exhaustive_f5():
    els = F5.nonzero_elements()
    allel = F5.elements()
    for r1 in els:
        for r2 in els:
            for t1 in allel:
                for s2 in allel:
                    if not (t1 + s2):
                        continue
                    g1 = _b(F5, r1) * _u(F5, t1)
                    g2 = _u(F5, s2) * _b(F5, r2)
                    assert compare_stbg_maslov(g1, g2)


# ---------------------------------------------------------------------------
# Hilbert consistency and the signature law


def test_hilbert_symbol_detects_local_quaternion_class():
    import random

    rng = random.Random(23)
    for _ in range(30):
        x = Fraction(rng.choice([v for v in range(-15, 16) if v]))
        y = Fraction(rng.choice([v for v in range(-15, 16) if v]))
        entries = [frac(1), -x, -y, x * y]
        for place in relevant_places([x, y]):
            split = local_witt_is_zero(entries, place)
            assert split == (hilbert_symbol(x, y, place) == 1)


def test_signature_law_grid():
    grid = [1, -1, 2, -2, 3, -3, 5, -5, 30, -30]
    for x in grid:
        for y in grid:
            q = quaternion_form(Q, frac(x), frac(y))
            expected = 4 if (x < 0 and y < 0) else 0
            assert witt_class(q).signature() == expected == signature_count(q)
