"""Witt classes, the twisted square-class group, Hilbert symbols, transfer."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from maslov.errors import (
    ContextMismatch,
    DegenerateInput,
    NotHermitian,
    ValidationError,
    ZeroInput,
    ZeroScalar,
)
from maslov.fields import (
    INF,
    FieldCtx,
    legendre,
    norm_subgroup_class,
    squarefree_part,
)
from maslov.forms import FormMatrix, is_isometric
from maslov.sampling import random_hermitian_invertible, rng_for
from maslov.witt import (
    SHatElement,
    WittClass,
    hilbert_symbol,
    relevant_places,
    trace_transfer,
    witt_class,
)
from oracles import (
    diagonal_rational,
    direct_sum,
    involution,
    local_invariant_tuples,
    local_witt_is_zero,
    signature_count,
)

Q = FieldCtx("Q")
F3 = FieldCtx("Fp", p=3)
F5 = FieldCtx("Fp", p=5)
F7 = FieldCtx("Fp", p=7)
F9 = FieldCtx("Fp2", p=3)
QI = FieldCtx("QSqrt", d=-1)
F25 = FieldCtx("Fp2", p=5)
QR2 = FieldCtx("QSqrt", d=2)

HERM_CTXS = [Q, F3, F5, F9, QI]


def wc(ctx, entries):
    return witt_class(diagonal_rational(ctx, entries))


# ---------------------------------------------------------------------------
# witt_class / witt_is_zero


@pytest.mark.parametrize("ctx,eps", [(Q, 1), (QI, 1), (QI, -1), (F5, 1),
                                     (F9, 1), (Q, -1)], ids=str)
def test_witt_class_builds_what_the_checked_constructor_builds(ctx, eps):
    # witt_class builds its class trusted; the checked constructor accepts
    # the same diagonal and builds a class with equal diagonal, key and
    # hash.  The skew class over Q keeps its empty representative.
    rng = random.Random(f"trusted witt:{ctx!r}:{eps}")
    for n in (1, 2, 3, 4):
        if eps == -1 and ctx.has_trivial_involution and n % 2:
            continue
        for _ in range(6):
            w = witt_class(random_hermitian_invertible(ctx, n, rng, eps))
            checked = WittClass(ctx, w.diag, eps)
            assert ((w.diag, w._key(), hash(w))
                    == (checked.diag, checked._key(), hash(checked)))
            if eps == -1 and ctx.has_trivial_involution:
                assert w.diag == ()


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
    # every kind and sign: <1, 0> (<u, 0> for skew forms), the zero form,
    # and the hyperbolic plane (+) <0>, whose diagonal is zero but whose
    # off-diagonal is not
    for ctx in HERM_CTXS + [F25, QR2]:
        for eps in (1, -1):
            if eps == 1:
                unit = ctx.one()
            elif ctx.has_trivial_involution:
                unit = None  # a 1 x 1 alternating form is zero
            else:
                unit = ctx.generator()  # u^J = -u
            one, zero = ctx.one(), ctx.zero()
            hyp_plus_zero = [[zero, one, zero], [eps * one, zero, zero],
                             [zero, zero, zero]]
            forms = [FormMatrix(ctx, [[zero] * 2] * 2, eps),
                     FormMatrix(ctx, hyp_plus_zero, eps)]
            if unit is not None:
                forms.append(FormMatrix.diagonal(ctx, [unit, zero], eps))
            for t in forms:
                with pytest.raises(DegenerateInput,
                                   match="^Witt class needs a nondegenerate "
                                         "form$"):
                    witt_class(t)


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


@pytest.mark.parametrize("eps", [5, 0, 1.0, True, -1.0], ids=repr)
def test_witt_class_takes_the_int_sign_only(eps):
    with pytest.raises(ValidationError, match=r"^eps must be \+1 or -1$"):
        WittClass(Q, [1, 2], eps)


@pytest.mark.parametrize("ctx", [F9, QI], ids=repr)
def test_witt_class_refuses_an_entry_the_involution_moves(ctx):
    # w over F_9 and sqrt(-1) over Q(sqrt(-1)) are moved; their squares
    # are fixed
    u = ctx.generator()
    with pytest.raises(NotHermitian):
        WittClass(ctx, [u])
    assert WittClass(ctx, [u * u, -(u * u)]).is_zero()


@pytest.mark.parametrize("ctx, entry", [
    (F7, F5.from_int(1)), (Q, F5.from_int(1)), (F5, F9.one()),
    (QI, F5.one())],
    ids=["F5 over F7", "F5 over Q", "F9 over F5", "F5 over Q(sqrt(-1))"])
def test_witt_class_refuses_an_entry_of_another_field(ctx, entry):
    with pytest.raises(ValidationError, match="is not an element of"):
        WittClass(ctx, [entry])


def test_shat_refuses_a_factor_of_another_field():
    with pytest.raises(ValidationError, match="is not an element of F7"):
        SHatElement(F7, (F5.from_int(2),))


@pytest.mark.parametrize("ctx, eps", [
    (Q, 1), (QI, 1), (QR2, 1), (F5, 1), (F9, 1), (QI, -1), (Q, -1)],
    ids=lambda v: repr(v) if isinstance(v, FieldCtx) else f"eps={v:+d}")
def test_sum_and_negation_match_the_checked_constructor(ctx, eps):
    # + and neg build their classes unchecked; on seeded diagonals, with
    # non-squarefree rationals among them, the representative and the key
    # are those the public constructor normalizes the same entries to
    rng = random.Random(41)

    def entry():
        if ctx.is_finite:
            return ctx.from_int(rng.randrange(1, ctx.p))
        q = Fraction(rng.choice([v for v in range(-12, 13) if v]),
                     rng.randint(1, 4))
        return ctx.from_rational(q * rng.choice([1, 1, 4, 9]))

    fixed = [Fraction(12), Fraction(-18, 5), Fraction(49, 4)]
    for trial in range(30):
        xs = [entry() for _ in range(rng.randint(0, 4))]
        ys = [entry() for _ in range(rng.randint(1, 4))]
        if trial < 3 and not ctx.is_finite:
            xs.append(ctx.from_rational(fixed[trial]))
        a, b = WittClass(ctx, xs, eps), WittClass(ctx, ys, eps)
        for got, entries in ((a + b, xs + ys), (a.neg(), [-x for x in xs])):
            checked = WittClass(ctx, entries, eps)
            assert got.diag == checked.diag
            assert got._key() == checked._key()
            assert got == checked and hash(got) == hash(checked)
    # a zero entry is degenerate in every context, the trivial skew
    # Witt groups included
    with pytest.raises(DegenerateInput):
        WittClass(ctx, [ctx.one(), ctx.zero()], eps)


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
    assert d.sign == 1 and d.rep == -1
    d1 = wc(Q, [1]).signed_disc()
    assert d1.sign == -1 and d1.rep == 1


def test_shat_group_axioms_exhaustive_fp():
    for ctx in (F3, F5):
        u = ctx.from_int(FieldCtx("Fp", p=ctx.p)._least_nonresidue(ctx.p))
        elems = [SHatElement(ctx, (s,), sg)
                 for s in (ctx.one(), u) for sg in (1, -1)]
        ident = SHatElement(ctx)
        for a in elems:
            assert (a + ident) == a
            assert (a + a.neg()).is_identity()
            for b in elems:
                assert (a + b) == (b + a)
                for c in elems:
                    assert ((a + b) + c) == (a + (b + c))


def test_shat_axioms_random_q():
    rng = random.Random(10)
    elems = [SHatElement(Q, (Fraction(rng.choice([x for x in range(-15, 16)
                                                  if x])),),
                         rng.choice([1, -1]))
             for _ in range(8)]
    for a in elems:
        assert (a + a.neg()).is_identity()
        for b in elems:
            assert (a + b) == (b + a)
            for c in elems:
                assert ((a + b) + c) == (a + (b + c))


def test_shat_constructor():
    # a norm class is the element of sign +1; the identity has no factors
    two = Fraction(2)
    assert SHatElement(Q, (two,)) == SHatElement(Q, (two,), 1)
    assert SHatElement(Q, (two, two)) == SHatElement(Q)
    assert SHatElement(Q).is_identity()
    assert not SHatElement(Q, (), -1).is_identity()
    for sign in (0, 2, 1.0, -1.0, True):
        with pytest.raises(ValidationError):
            SHatElement(Q, (two,), sign)
    with pytest.raises(ZeroScalar):
        SHatElement(Q, (two, Fraction(0)))


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


SIGNATURE_CTXS = [Q, QR2, FieldCtx("QSqrt", d=3), QI, FieldCtx("QSqrt", d=-5)]


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("ctx", SIGNATURE_CTXS, ids=repr)
def test_signature_matches_counted_signs(ctx, eps):
    # the signature read from the Witt key against the signs of a scalar
    # diagonalization, trace form <a, -d a> over Q(sqrt d)
    for n in (1, 2, 3, 4):
        if eps == -1 and ctx.kind == "Q" and n % 2:
            continue  # every odd alternating matrix is singular
        for trial in range(4):
            t = random_hermitian_invertible(ctx, n, rng_for(97 + n, trial),
                                            eps=eps)
            c = witt_class(t)
            want = signature_count(t)
            assert c.signature() == want
            assert c.to_json()["signature"] == want
    zero = WittClass.zero(ctx, eps)
    assert zero.signature() == 0
    assert zero.to_json()["signature"] == 0


@pytest.mark.parametrize("ctx", [F5, F9], ids=repr)
def test_signature_refused_over_finite_fields(ctx):
    c = wc(ctx, [1, 2])
    with pytest.raises(ValidationError):
        c.signature()
    assert c.to_json()["signature"] is None


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


def _same_norm_class_oracle(ctx, ratio):
    if ctx.kind == "Q":
        return squarefree_part(ratio) == 1
    if ctx.kind == "Fp":
        return legendre(ratio.raw, ctx.p) == 1
    if ctx.kind == "Fp2":
        return ratio == involution(ctx, ratio)
    # Q(sqrt d): the ratio is a rational norm, by Hilbert symbols
    a, b = ratio.raw
    return b == 0 and all(hilbert_symbol(ctx.d, a, pl) == 1
                          for pl in relevant_places([ctx.d, a]))


def _random_factor(ctx, rng, rational=False):
    if not ctx.is_finite and (rational or rng.random() < 0.5):
        return ctx.from_rational(_random_rational(rng))
    return ctx.random_nonzero(rng)


def _random_factor_pair(ctx, rng):
    """Two lists of 1 to 3 factors: q against 1, for a rational q (any
    scalar over a finite field) or over Q(sqrt d) also q sqrt d; unrelated
    lists; or the second obtained from the first by norm factors and
    reordering, sometimes times a further factor."""
    if rng.random() < 0.3:
        q = _random_factor(ctx, rng, rational=True)
        if ctx.kind == "QSqrt" and rng.random() < 0.3:
            q *= ctx.generator()
        return [q], [ctx.one()]
    a = [_random_factor(ctx, rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        return a, [_random_factor(ctx, rng) for _ in range(rng.randint(1, 3))]
    b = list(a)
    y = ctx.random_nonzero(rng)
    b[rng.randrange(len(b))] *= involution(ctx, y) * y
    if len(b) < 3 and rng.random() < 0.5:
        y = ctx.random_nonzero(rng)
        b.append(involution(ctx, y) * y)
    if rng.random() < 0.3:
        b[-1] *= _random_factor(ctx, rng)  # usually a different class
    rng.shuffle(b)
    return a, b


@pytest.mark.parametrize("ctx", [Q, F3, F5, F9, FieldCtx("Fp2", p=5)]
                         + [FieldCtx("QSqrt", d=d)
                            for d in (-7, -5, -3, -2, -1, 2, 3, 5, 6, 10)],
                         ids=repr)
def test_norm_class_matches_oracles(ctx):
    rng = random.Random(f"norm class {ctx!r}")
    outcomes = set()
    for _ in range(150):
        a, b = _random_factor_pair(ctx, rng)
        ratio = ctx.one()
        for x in a:
            ratio *= x
        for y in b:
            ratio /= y
        equal = SHatElement(ctx, a) == SHatElement(ctx, b)
        assert equal == _same_norm_class_oracle(ctx, ratio), (a, b)
        outcomes.add(equal)
    assert outcomes == {True, False}


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
    out = set()
    for g in group:
        out.add(tuple(
            sum((involution(ctx, g[k][i]) * diag[k] * g[k][j]
                 for k in range(n)), ctx.zero())
            for i in range(n) for j in range(n)))
    return out


@pytest.mark.parametrize("ctx", [F3, F5, F9], ids=repr)
def test_key_matches_brute_force_isometry_over_finite_fields(ctx):
    fixed = [x for x in ctx.nonzero_elements() if involution(ctx, x) == x]
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
        classes += [c, c + witt_class(direct_sum(f, f.neg()))]
    discs = [c.signed_disc() for c in classes]
    for values in (classes, discs):
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b)
        assert len({hash(v) for v in values}) > 1
    if ctx == QI:
        # a rational is a norm from Q(i) iff it is positive and every prime
        # = 3 mod 4 has even exponent: the classes of 1..30 are those of
        # 1, 3, 7, 11, 19, 23 and 21
        norms = [norm_subgroup_class(ctx, ctx.from_int(k))
                 for k in range(1, 31)]
        distinct = []
        for x in norms:
            if not any(x == y for y in distinct):
                distinct.append(x)
        assert len(distinct) == 7
        assert len({hash(x) for x in norms}) == 7


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
        assert a.signed_disc() == b.signed_disc()
        assert hash(a.signed_disc()) == hash(b.signed_disc())
        assert not a.in_II()
        assert a.to_json()["disc"] == b.to_json()["disc"]
        da, db = cls(big).signed_disc(), cls(bigger).signed_disc()
        assert da + db == cls(big, bigger).signed_disc()
        assert da - db != (da + db)
