"""Witt classes, the twisted square-class group, Hilbert symbols, transfer."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from maslov.errors import ContextMismatch, DegenerateInput, ZeroInput
from maslov.fields import INF, FieldCtx, rational_is_norm
from maslov.forms import FormMatrix, is_isometric
from maslov.sampling import random_hermitian_invertible, rng_for
from maslov.witt import (
    SHatElement,
    WittClass,
    hilbert_symbol,
    local_invariant_tuples,
    local_witt_is_zero,
    relevant_places,
    trace_transfer,
    witt_class,
)

Q = FieldCtx("Q")
F3 = FieldCtx("Fp", p=3)
F5 = FieldCtx("Fp", p=5)
F9 = FieldCtx("Fp2", p=3)
QI = FieldCtx("QSqrt", d=-1)

HERM_CTXS = [Q, F3, F5, F9, QI]


def wc(ctx, entries):
    return witt_class(FormMatrix.diagonal_rational(ctx, entries))


# ---------------------------------------------------------------------------
# witt_class / witt_is_zero


def test_witt_class_examples():
    assert wc(Q, [1, -1]).is_zero()
    four = wc(Q, [1, 1, 1, 1])
    assert not four.is_zero()
    assert four.signature() == 4

    # oracle: x^2 + 2 y^2 over F_5 is anisotropic (brute force)
    hits = [(x, y) for x in range(5) for y in range(5)
            if (x * x + 2 * y * y) % 5 == 0 and (x, y) != (0, 0)]
    assert hits == []
    assert not wc(F5, [1, 2]).is_zero()


def test_witt_is_zero_examples():
    assert wc(Q, [1, -1, 2, -2]).is_zero()
    assert not wc(Q, [1, 1, 1, 1]).is_zero()
    # -1 = 2^2 mod 5, so <1,1> = <1,-1> is split over F_5
    assert wc(F5, [1, 1]).is_zero()
    # over F_3 the form <1,1> is anisotropic: brute force
    hits = [(x, y) for x in range(3) for y in range(3)
            if (x * x + y * y) % 3 == 0 and (x, y) != (0, 0)]
    assert hits == []
    assert not wc(F3, [1, 1]).is_zero()


def test_degenerate_rejected():
    with pytest.raises(DegenerateInput):
        witt_class(FormMatrix.diagonal_rational(Q, [1, 0]))


def test_witt_sum_examples():
    assert (wc(Q, [1]) + wc(Q, [-1])).is_zero()
    one = wc(Q, [1])
    assert (one + WittClass.zero(Q)) == one
    assert not (wc(F3, [1]) + wc(F3, [1])).is_zero()
    assert (wc(Q, [1]) + wc(Q, [1]).neg()).is_zero()


def test_witt_context_mismatch():
    with pytest.raises(ContextMismatch):
        wc(Q, [1]) + wc(F5, [1])


def test_skew_trivial_group():
    skew = witt_class(FormMatrix(Q, [[0, -1], [1, 0]], -1))
    assert skew.is_zero()


@pytest.mark.parametrize("ctx", HERM_CTXS, ids=repr)
def test_witt_sum_inverse_random(ctx):
    for trial in range(20):
        rng = rng_for(31, trial)
        f = random_hermitian_invertible(ctx, 2, rng, eps=1)
        c = witt_class(f)
        assert (c + c.neg()).is_zero()
        assert (c + WittClass.zero(ctx)) == c


def test_isometric_forms_same_class_and_hyperbolic_padding():
    rng = random.Random(5)
    for _ in range(15):
        entries = [Fraction(rng.choice([1, -1, 2, -3, 5]))
                   for _ in range(2)]
        a = wc(Q, entries)
        padded = wc(Q, entries + [7, -7])
        assert a == padded


# ---------------------------------------------------------------------------
# Hilbert symbols


def test_hilbert_examples():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(1, 17, INF) == 1
    # oracle: 2 x^2 + 5 y^2 = z^2 has no primitive solution mod 125
    sols = [
        (x, y, z)
        for x in range(125) for y in range(125) for z in range(125)
        if (2 * x * x + 5 * y * y - z * z) % 125 == 0
        and not (x % 5 == 0 and y % 5 == 0 and z % 5 == 0)
    ]
    assert sols == []
    assert hilbert_symbol(2, 5, 5) == -1
    rng = random.Random(6)
    for _ in range(20):
        b = Fraction(rng.randint(1, 60))
        for place in (2, 3, 5, INF):
            assert hilbert_symbol(1, b, place) == 1


def test_hilbert_zero_input():
    with pytest.raises(ZeroInput):
        hilbert_symbol(0, 3, 5)


def _solvable_oracle_odd_p(a, b, p):
    # z^2 = a x^2 + b y^2 solvable over Q_p iff there is a primitive
    # solution mod p^3 (entries here have valuation <= 1, odd p)
    mod = p ** 3
    for x in range(mod):
        for y in range(mod):
            z2 = (a * x * x + b * y * y) % mod
            for z in range(mod):
                if (z * z - z2) % mod == 0:
                    if x % p or y % p or z % p:
                        return True
                    break
    return False


@pytest.mark.parametrize("p", [3, 5])
def test_hilbert_against_solvability_oracle(p):
    values = [1, 2, -1, p, -2 * p]
    for a in values:
        for b in values:
            expected = 1 if _solvable_oracle_odd_p(a, b, p) else -1
            assert hilbert_symbol(a, b, p) == expected, (a, b, p)


def test_hilbert_bimultiplicative_symmetric():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (Fraction(rng.choice([x for x in range(-20, 21) if x]))
                   for _ in range(3))
        for place in (2, 3, 5, 7, INF):
            assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
            assert (hilbert_symbol(a * c, b, place)
                    == hilbert_symbol(a, b, place)
                    * hilbert_symbol(c, b, place))


def test_hilbert_product_formula():
    rng = random.Random(8)
    for _ in range(200):
        a = Fraction(rng.choice([x for x in range(-30, 31) if x]),
                     rng.randint(1, 9))
        b = Fraction(rng.choice([x for x in range(-30, 31) if x]),
                     rng.randint(1, 9))
        prod = 1
        for place in relevant_places([a, b]):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1


def test_hilbert_steinberg_relation():
    rng = random.Random(9)
    done = 0
    while done < 40:
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        if a in (0, 1):
            continue
        done += 1
        for place in relevant_places([a, 1 - a]):
            assert hilbert_symbol(a, 1 - a, place) == 1


# ---------------------------------------------------------------------------
# signed discriminant and S^


def test_signed_disc_examples():
    assert wc(Q, [1, -1]).signed_disc().is_identity()
    d = wc(Q, [1, 1]).signed_disc()
    assert d.sign == 1 and d.s.rep == -1
    d1 = wc(Q, [1]).signed_disc()
    assert d1.sign == -1 and d1.s.rep == 1


def test_shat_group_axioms_exhaustive_fp():
    for ctx in (F3, F5):
        u = ctx.from_int(FieldCtx("Fp", p=ctx.p)._least_nonresidue(ctx.p))
        elems = [SHatElement(ctx, s, sg)
                 for s in (ctx.one(), u) for sg in (1, -1)]
        ident = SHatElement.identity(ctx)
        for a in elems:
            assert (a + ident) == a
            assert (a + a.neg()).is_identity()
            for b in elems:
                assert (a + b) == (b + a)
                for c in elems:
                    assert ((a + b) + c) == (a + (b + c))


def test_shat_axioms_random_q():
    rng = random.Random(10)
    elems = [SHatElement(Q, Fraction(rng.choice([x for x in range(-15, 16)
                                                 if x])),
                         rng.choice([1, -1]))
             for _ in range(8)]
    for a in elems:
        assert (a + a.neg()).is_identity()
        for b in elems:
            assert (a + b) == (b + a)
            for c in elems:
                assert ((a + b) + c) == (a + (b + c))


@pytest.mark.parametrize("ctx", HERM_CTXS, ids=repr)
def test_disc_additive(ctx):
    for trial in range(100):
        rng = rng_for(37, trial)
        f1 = random_hermitian_invertible(ctx, 2, rng, eps=1)
        f2 = random_hermitian_invertible(ctx, rng.choice([1, 2]), rng, eps=1)
        a, b = witt_class(f1), witt_class(f2)
        assert (a + b).signed_disc() == a.signed_disc() + b.signed_disc()


@pytest.mark.parametrize("ctx", HERM_CTXS, ids=repr)
def test_exactness_in_II_iff_disc_trivial(ctx):
    for trial in range(100):
        rng = rng_for(41, trial)
        f = random_hermitian_invertible(ctx, rng.choice([1, 2, 3]), rng,
                                        eps=1)
        c = witt_class(f)
        assert c.in_II() == c.signed_disc().is_identity()


def test_in_II_examples():
    assert wc(Q, [1, 1, 1, 1]).in_II()
    assert not wc(Q, [1]).in_II()
    assert not wc(Q, [1, 1]).in_II()


# ---------------------------------------------------------------------------
# trace transfer


def test_trace_transfer_examples():
    one = wc(QI, [1])
    t = trace_transfer(one)
    assert t == wc(Q, [1, 1])
    assert trace_transfer(wc(QI, [1, -1])).is_zero()
    two = trace_transfer(wc(QI, [1, 1]))
    assert two == wc(Q, [1, 1, 1, 1])
    assert two.signature() == 4


def test_trace_transfer_additive():
    for trial in range(20):
        rng = rng_for(43, trial)
        f1 = random_hermitian_invertible(QI, 2, rng, eps=1)
        f2 = random_hermitian_invertible(QI, 1, rng, eps=1)
        a, b = witt_class(f1), witt_class(f2)
        assert trace_transfer(a + b) == trace_transfer(a) + trace_transfer(b)


def test_trace_transfer_detects_nonzero():
    # i-multiples: <1> vs <3> over Q(i); 3 is not a norm, so they differ
    assert wc(QI, [1]) != wc(QI, [3])
    assert wc(QI, [1]) == wc(QI, [5])  # 5 = 1 + 4 is a norm


# ---------------------------------------------------------------------------
# local data


@pytest.mark.parametrize("p", [3, 5])
def test_sixteen_local_invariant_tuples(p):
    assert len(local_invariant_tuples(p)) == 16


def test_local_witt_is_zero():
    assert local_witt_is_zero([1, -1], 3)
    assert local_witt_is_zero([1, -1, 2, -2], INF)
    assert not local_witt_is_zero([1, 1, 1, 1], INF)
    # <1,1,1,1> is locally split at every odd p
    assert local_witt_is_zero([1, 1, 1, 1], 3)
    assert not local_witt_is_zero([1, 1, 1, 1], 2)


def test_squarefree_disc_canonical():
    # equal classes with different representatives share the disc value
    a = wc(Q, [2, 3])
    b = wc(Q, [2, 3, 5, -5])
    assert a == b
    assert a.signed_disc() == b.signed_disc()


def test_relevant_places_factors_large_entries_promptly():
    started = time.perf_counter()
    places = relevant_places([Fraction(998244359987710471), 1])
    assert places == [2, 998244353, 1000000007, INF]
    assert time.perf_counter() - started < 5


# ---------------------------------------------------------------------------
# the Witt key against independent oracles


def _hasse_minkowski_zero(entries):
    return all(local_witt_is_zero(entries, pl)
               for pl in relevant_places(entries))


def _random_rational(rng):
    num = rng.choice([x for x in range(-40, 41) if x])
    return Fraction(num * rng.choice([1, 1, 4, 9]), rng.randint(1, 12))


def _random_pair(rng):
    """Two rational diagonals: unrelated, or the second obtained from the
    first by hyperbolic padding, the move <x, y> -> <x+y, xy(x+y)> and
    reordering."""
    a = [_random_rational(rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        return a, [_random_rational(rng) for _ in range(rng.randint(0, 5))]
    b = list(a)
    if rng.random() < 0.6:
        c = _random_rational(rng)
        b += [c, -c * rng.choice([1, 4, Fraction(1, 9)])]
    if len(b) >= 2 and b[0] + b[1] and rng.random() < 0.7:
        x, y = b[0], b[1]
        b[:2] = [x + y, x * y * (x + y)]
    if rng.random() < 0.3:
        b[-1] *= rng.choice([-1, 2, 3])  # usually a different class
    rng.shuffle(b)
    return a, b


def test_key_matches_hasse_minkowski_over_q():
    rng = random.Random(47)
    outcomes = set()
    for _ in range(400):
        a, b = _random_pair(rng)
        equal = WittClass(Q, a) == WittClass(Q, b)
        assert equal == _hasse_minkowski_zero(a + [-e for e in b]), (a, b)
        outcomes.add(equal)
    assert outcomes == {True, False}


@pytest.mark.parametrize("d", [-7, -5, -3, -2, -1, 2, 3, 5, 6, 10])
def test_key_matches_hasse_minkowski_over_quadratic_fields(d):
    ctx = FieldCtx("QSqrt", d=d)
    rng = random.Random(53 + d)
    outcomes = set()
    for _ in range(60):
        a, b = _random_pair(rng)
        equal = (WittClass(ctx, [ctx.from_rational(e) for e in a])
                 == WittClass(ctx, [ctx.from_rational(e) for e in b]))
        trace = [f for e in a + [-e for e in b] for f in (e, -d * e)]
        assert equal == _hasse_minkowski_zero(trace), (d, a, b)
        outcomes.add(equal)
    assert outcomes == {True, False}
    for _ in range(60):
        q = _random_rational(rng)
        by_symbols = all(hilbert_symbol(d, q, pl) == 1
                         for pl in relevant_places([d, q]))
        assert rational_is_norm(d, q) == by_symbols, (d, q)


def _gl(ctx, n):
    els = ctx.elements()
    for g in itertools.product(els, repeat=n * n):
        m = [g[i * n:(i + 1) * n] for i in range(n)]
        det = m[0][0] if n == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if det:
            yield m


def _orbit(ctx, diag, group):
    # every g^J <diag> g, as a tuple of entries
    n = len(diag)
    inv = ctx.involution
    out = set()
    for g in group:
        out.add(tuple(
            sum((inv(g[k][i]) * diag[k] * g[k][j] for k in range(n)),
                ctx.zero())
            for i in range(n) for j in range(n)))
    return out


@pytest.mark.parametrize("ctx", [F3, F5, F9], ids=repr)
def test_key_matches_brute_force_isometry_over_finite_fields(ctx):
    fixed = [x for x in ctx.nonzero_elements() if ctx.involution(x) == x]
    forms = [(x,) for x in fixed] + list(itertools.product(fixed, repeat=2))
    groups = {n: list(_gl(ctx, n)) for n in (1, 2)}
    orbits = {f: _orbit(ctx, f, groups[len(f)]) for f in forms}

    def matrix(f):
        return f if len(f) == 1 else (f[0], ctx.zero(), ctx.zero(), f[1])

    hyperbolic = orbits[(ctx.one(), -ctx.one())]
    for f in forms:
        cf = WittClass(ctx, f)
        assert cf.is_zero() == (matrix(f) in hyperbolic)
        for g in forms:
            isometric = len(f) == len(g) and matrix(g) in orbits[f]
            assert (cf == WittClass(ctx, g)) == isometric, (f, g)
            assert is_isometric(FormMatrix.diagonal(ctx, f),
                                FormMatrix.diagonal(ctx, g)) == isometric


@pytest.mark.parametrize("ctx", HERM_CTXS, ids=repr)
def test_equal_classes_hash_equal(ctx):
    classes = []
    for trial in range(40):
        rng = rng_for(59, trial)
        f = random_hermitian_invertible(ctx, rng.choice([1, 2, 3]), rng,
                                        eps=1)
        c = witt_class(f)
        classes += [c, c + witt_class(f.direct_sum(f.neg()))]
    for a in classes:
        for b in classes:
            if a == b:
                assert hash(a) == hash(b)
    assert len({hash(c) for c in classes}) > 1


def test_no_product_of_entries_is_factored(monkeypatch):
    import maslov.fields as fields

    big, bigger = 2 ** 61 - 1, 2 ** 89 - 1  # both prime
    factor = fields._factorize_abs

    def guarded(n):
        assert n <= bigger, f"factored a product: {n}"
        return factor(n)

    monkeypatch.setattr(fields, "_factorize_abs", guarded)
    for ctx in (Q, QI):
        def cls(*entries):
            return WittClass(ctx, [ctx.from_rational(e) for e in entries])

        a = cls(big, -bigger)
        b = cls(-bigger, big)
        assert a == b
        assert (a - b).is_zero()
        assert (cls(big) + cls(-big)).is_zero()
        assert cls(big) != cls(bigger)
        assert not (cls(big, bigger) + cls(big)).is_zero()
        assert hash(a) == hash(b)
