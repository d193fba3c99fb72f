"""Scalar arithmetic, involutions, and norm-subgroup classes."""

import math
import random
import time
from fractions import Fraction

import pytest

from maslov import fields
from maslov.errors import TooLarge, ValidationError, ZeroScalar
from maslov.fields import (
    FieldCtx,
    factorize,
    is_prime,
    norm_subgroup_class,
    squarefree_part,
)
from oracles import (
    PairOracle,
    PrimeFieldOracle,
    involution,
    trial_factorize,
)

ALL_CTXS = [
    FieldCtx("Q"),
    FieldCtx("Fp", p=5),
    FieldCtx("Fp", p=7),
    FieldCtx("Fp2", p=3),
    FieldCtx("Fp2", p=5),
    FieldCtx("QSqrt", d=-1),
    FieldCtx("QSqrt", d=3),
]


def test_context_validation():
    with pytest.raises(ValidationError):
        FieldCtx("Fp", p=4)
    with pytest.raises(ValidationError):
        FieldCtx("Fp", p=2)  # characteristic 2 excluded
    with pytest.raises(ValidationError):
        FieldCtx("QSqrt", d=12)  # not squarefree
    with pytest.raises(ValidationError):
        FieldCtx("QSqrt", d=1)
    for epsilon in (0, 1.0, -1.0, True):
        with pytest.raises(ValidationError):
            FieldCtx("Q", epsilon=epsilon)


def test_involution_examples():
    q = FieldCtx("Q")
    assert involution(q, Fraction(3, 2)) == Fraction(3, 2)

    qi = FieldCtx("QSqrt", d=-1)
    x = qi.parse_scalar(["1", "2"])  # 1 + 2 sqrt(-1)
    assert involution(qi, x) == qi.parse_scalar(["1", "-2"])

    f9 = FieldCtx("Fp2", p=3)
    w = f9.generator()
    # Frobenius is x -> x^p
    assert involution(f9, w) == w * w * w


@pytest.mark.parametrize("ctx", ALL_CTXS, ids=repr)
def test_involution_is_involutive_and_multiplicative(ctx):
    rng = random.Random(101)
    for _ in range(40):
        x = ctx.random_element(rng)
        y = ctx.random_element(rng)
        assert involution(ctx, involution(ctx, x)) == x
        assert (involution(ctx, x * y)
                == involution(ctx, x) * involution(ctx, y))


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(Fraction(-4, 9)) == -1
    assert squarefree_part(Fraction(8, 3)) == 6
    with pytest.raises(ZeroScalar):
        squarefree_part(0)
    # the numerator and the denominator are factored apart: each prime
    # below is found at once, while their product would take Pollard rho
    # past its budget
    m61, m89 = 2**61 - 1, 2**89 - 1
    assert squarefree_part(Fraction(9 * m61, 4 * m89)) == m61 * m89
    assert squarefree_part(Fraction(-m89, 25 * m61)) == -m61 * m89
    assert squarefree_part(Fraction(12 * m61, 5 * m89)) == 15 * m61 * m89
    assert squarefree_part(Fraction(1048583 * 1049011**3, 998244353)) == (
        1048583 * 1049011 * 998244353)


def test_factorize_has_a_rho_budget():
    # factors near 2^20 and 2^30 split well inside the budget
    assert factorize(-1048583 * 1049011) == {1048583: 1, 1049011: 1}
    assert factorize(998244353 * 1000000007 * 12) == {
        2: 2, 3: 1, 998244353: 1, 1000000007: 1}
    # the smaller factor of this 121-bit product is 61 bits: rho would
    # need about 2^30 steps, so the call stops at its budget
    big = (2**61 - 1) * (10**18 + 3)
    with pytest.raises(TooLarge, match="121-bit"):
        factorize(big)
    # a refusal is not cached as a factorization: asking again refuses
    with pytest.raises(TooLarge):
        factorize(big)
    assert fields.RHO_STEPS == 1 << 20
    # 2^4423 - 1, a prime that takes about 3 s to test, is not refused for
    # its width
    assert 4423 < fields.FACTOR_BITS


def test_rho_budget_is_charged_by_cofactor_size():
    # a step on a cofactor of w 128-bit words costs w^2 steps of the
    # budget, so huge cofactors are refused at once: random odd 1000- and
    # 3000-bit numbers took 14 s and 135 s when every step cost one
    for bits in (1000, 3000):
        n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1) | 1
        started = time.monotonic()
        with pytest.raises(TooLarge, match="-bit cofactor takes over"):
            factorize(n)
        assert time.monotonic() - started < 2


def test_factorize_splits_perfect_powers():
    # rho needs about p^(1/2) steps to split p^k; an integer root does not
    m61, q = 2**61 - 1, 1000003
    assert factorize(m61**2) == {m61: 2}
    assert factorize(-m61**3) == {m61: 3}
    assert factorize(m61**2 * q) == {m61: 2, q: 1}
    assert factorize(q**2 * m61) == {q: 2, m61: 1}
    assert factorize((m61 * q)**2 * 2**5) == {2: 5, q: 2, m61: 2}
    # only prime exponents are tried: r^6 is (r^3)^2 and r^15 is (r^5)^3,
    # and the recursion on the root splits the rest
    assert factorize(19997**6 * 20011**4) == {19997: 6, 20011: 4}
    assert factorize(q**15) == {q: 15}
    assert factorize(m61**6 * q**4) == {m61: 6, q: 4}


def _large_primes(rng, count):
    # distinct primes from [2^20, 2^20 + 2^14), the range the cli-jobs
    # benchmark draws its large witt and disc entries from
    out = set()
    while len(out) < count:
        q = (1 << 20) + rng.randrange(1 << 14)
        if trial_factorize(q) == {q: 1}:
            out.add(q)
    return sorted(out)


def test_factorize_matches_trial_division():
    # every prime below 20000 comes off through one gcd with their product,
    # the rest through _factor_large: primes on both sides of 20000, their
    # powers (20011^2 splits as a perfect power), products across the line
    lo, hi = 19997, 20011
    cases = list(range(1, 17 * 17 + 2)) + [17 * 19, 19993 * 19997]
    cases += [lo, hi, lo**2, hi**2, lo**3, hi**3, lo * hi, lo**2 * 19993,
              lo**2 * hi, lo * hi**2, 17**2 * hi**2]
    cases += [2**a * 3**b * 19993 for a in range(4) for b in range(4)]
    rng = random.Random(18)
    big = _large_primes(rng, 12)
    cases += [q1 * q2 for q1, q2 in zip(big[::2], big[1::2])]
    cases += [rng.randrange(1, 10**10) for _ in range(300)]
    for n in cases:
        want = trial_factorize(n)
        assert factorize(n) == want == factorize(-n), n


# psi_12 and psi_13, the least strong pseudoprimes to every prime base up
# to 37 and up to 41 (Sorenson and Webster, Math. Comp. 86, 2017)
PSI12 = 399165290221 * 798330580441
PSI13 = 1287836182261 * 2575672364521
# the strong Lucas pseudoprimes with Selfridge's parameters below 2 * 10^5
# (OEIS A217255)
LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
    75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
    162133, 176399, 176471, 189419, 192509, 197801]


def sieve(n):
    """is_p[k] for k < n, by the sieve of Eratosthenes."""
    is_p = bytearray([1]) * n
    is_p[:2] = b"\0\0"
    for k in range(2, math.isqrt(n - 1) + 1):
        if is_p[k]:
            is_p[k * k::k] = bytes(len(range(k * k, n, k)))
    return is_p


def test_is_prime_agrees_with_a_sieve():
    is_p = sieve(200000)
    assert [n for n in range(200000) if is_prime(n)] == [
        n for n in range(200000) if is_p[n]]


def test_is_prime_refuses_strong_pseudoprimes():
    # psi_12 passes the bases up to 37 and needs base 41; psi_13 passes all
    # thirteen bases and needs the strong Lucas step
    for n in [PSI12, PSI13, 561, 41041, 825265] + LUCAS_PSEUDOPRIMES:
        assert not is_prime(n), n
    for e in (89, 127, 521):
        assert is_prime(2**e - 1), e
    assert factorize(PSI12) == {399165290221: 1, 798330580441: 1}
    with pytest.raises(ValidationError):
        FieldCtx("Fp", p=PSI12)


def test_strong_lucas_step_passes_primes_and_its_pseudoprimes():
    # on odd n from 43 to 2 * 10^5 the Lucas step alone is wrong exactly on
    # the composites of A217255, which the Miller-Rabin bases refuse
    is_p = sieve(200000)
    assert [n for n in range(43, 200000, 2)
            if fields._strong_lucas(n) != is_p[n]] == LUCAS_PSEUDOPRIMES


def test_norm_class_examples():
    q = FieldCtx("Q")
    assert norm_subgroup_class(q, Fraction(18)).rep == 2

    f5 = FieldCtx("Fp", p=5)
    # oracle: the squares mod 5 are {1, 4}, so 3 is a non-residue and the
    # canonical non-residue representative is 2
    squares = {(x * x) % 5 for x in range(1, 5)}
    assert squares == {1, 4}
    assert norm_subgroup_class(f5, f5.from_int(3)).rep == f5.from_int(2)
    assert norm_subgroup_class(f5, f5.from_int(4)).rep == f5.from_int(1)

    qi = FieldCtx("QSqrt", d=-1)
    # oracle: 5 = 1^2 + 2^2 is a norm from Q(i)
    assert any(a * a + b * b == 5 for a in range(4) for b in range(4))
    assert norm_subgroup_class(qi, qi.from_int(5)).is_identity()
    assert not norm_subgroup_class(qi, qi.from_int(3)).is_identity()
    assert not norm_subgroup_class(qi, qi.from_int(-5)).is_identity()


def test_norm_class_zero_rejected():
    q = FieldCtx("Q")
    with pytest.raises(ZeroScalar):
        norm_subgroup_class(q, Fraction(0))


@pytest.mark.parametrize("ctx", ALL_CTXS, ids=repr)
def test_norm_class_multiplicative(ctx):
    rng = random.Random(202)
    for _ in range(25):
        x = ctx.random_nonzero(rng)
        y = ctx.random_nonzero(rng)
        assert (norm_subgroup_class(ctx, x * y)
                == norm_subgroup_class(ctx, x) + norm_subgroup_class(ctx, y))


@pytest.mark.parametrize("ctx", ALL_CTXS, ids=repr)
def test_norm_class_kills_norms(ctx):
    rng = random.Random(303)
    for _ in range(25):
        x = ctx.random_nonzero(rng)
        y = ctx.random_nonzero(rng)
        scaled = x * involution(ctx, y) * y
        assert norm_subgroup_class(ctx, scaled) == norm_subgroup_class(ctx, x)


def test_fp2_norm_classes_are_cosets_of_fp():
    ctx = FieldCtx("Fp2", p=3)
    # the norm subgroup of F_9 over F_3 is exactly F_3^*
    star = [x for x in ctx.nonzero_elements()]
    reps = {norm_subgroup_class(ctx, x).rep for x in star}
    assert len(reps) == 4  # (p^2 - 1)/(p - 1) = p + 1 cosets
    for x in star:
        if x == involution(ctx, x):
            assert norm_subgroup_class(ctx, x).is_identity()


def test_scalar_parsing_round_trip():
    for ctx in ALL_CTXS:
        rng = random.Random(404)
        for _ in range(10):
            x = ctx.random_element(rng)
            assert ctx.parse_scalar(ctx.scalar_to_json(x)) == x


# ---------------------------------------------------------------------------
# Scalars against plain formulas (tests/oracles.py): every operation on
# every pair of elements of the small finite fields, seeded pairs over
# Q(sqrt(d)).


def oracle_for(ctx):
    if ctx.kind == "Fp":
        return PrimeFieldOracle(ctx.p)
    if ctx.kind == "Fp2":
        return PairOracle(ctx.kernel.nu, ctx.p)
    return PairOracle(ctx.d)


def check_against_oracle(ctx, x, y, same):
    o = oracle_for(ctx)
    assert (x + y).raw == o.add(x.raw, y.raw)
    assert (x - y).raw == o.sub(x.raw, y.raw)
    assert (x * y).raw == o.mul(x.raw, y.raw)
    assert (-x).raw == o.neg(x.raw)
    assert involution(ctx, x).raw == o.conj(x.raw)
    assert (x == y) == same and (x != y) != same
    if y:
        assert (x / y).raw == o.div(x.raw, y.raw)
        assert (3 / y).raw == o.div(ctx.from_int(3).raw, y.raw)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    # ints enter on either side
    three = ctx.from_int(3).raw
    assert (3 - x).raw == o.sub(three, x.raw)
    assert (x * 3).raw == (3 * x).raw == o.mul(x.raw, three)


@pytest.mark.parametrize("ctx", [FieldCtx("Fp", p=p) for p in (3, 5, 7)]
                         + [FieldCtx("Fp2", p=p) for p in (3, 5, 7)],
                         ids=repr)
def test_finite_scalars_match_plain_formulas(ctx):
    p = ctx.p
    if ctx.kind == "Fp2":
        assert all(a * a % p != ctx.kernel.nu for a in range(p))
    els = ctx.elements()
    assert len({e.raw for e in els}) == ctx.order
    for i, x in enumerate(els):
        power = x
        for _ in range(p - 1):
            power = power * x
        assert involution(ctx, x) == power  # J is x -> x^p
        if x:
            assert x * (1 / x) == 1
        for j, y in enumerate(els):
            check_against_oracle(ctx, x, y, i == j)


@pytest.mark.parametrize("d", [-1, 2, -5])
def test_quadratic_scalars_match_plain_formulas(d):
    ctx = FieldCtx("QSqrt", d=d)
    rng = random.Random(f"scalars:{d}")
    for _ in range(300):
        x, y = ctx.random_element(rng, 3), ctx.random_element(rng, 3)
        check_against_oracle(ctx, x, y, x.raw == y.raw)
        if x:
            assert x * (1 / x) == 1
        # Fractions enter as rationals
        assert (x + Fraction(1, 2)).raw == (x.raw[0] + Fraction(1, 2),
                                            x.raw[1])


def test_scalars_keep_their_field():
    f5, f7, f9 = FieldCtx("Fp", p=5), FieldCtx("Fp", p=7), FieldCtx("Fp2", p=3)
    qi, q2 = FieldCtx("QSqrt", d=-1), FieldCtx("QSqrt", d=2)
    for x, y in [(f5.one(), f7.one()), (f5.one(), f9.one()),
                 (qi.one(), q2.one())]:
        with pytest.raises(ValidationError):
            x + y
        with pytest.raises(ValidationError):
            x == y
        assert hash(x) != hash(y)
    # contexts that differ only in the sign share their scalars
    assert FieldCtx("Fp", p=5, epsilon=-1).one() + f5.one() == 2
    assert qi.from_int(2) == 2
    assert qi.from_rational(Fraction(1, 2)) == Fraction(1, 2)
    reprs = [repr(x) for x in (f5.from_int(-1), f9.generator() + 2,
                               qi.parse_scalar(["1/2", "-3"]))]
    assert reprs == ["4", "2+1w", "1/2+-3*sqrt(-1)"]
