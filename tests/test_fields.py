"""Scalar arithmetic, involutions, and norm-subgroup classes."""

import random
from fractions import Fraction

import pytest

from maslov.errors import ValidationError, ZeroScalar
from maslov.fields import (
    FieldCtx,
    norm_subgroup_class,
    rational_is_norm,
    squarefree_part,
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
    with pytest.raises(ValidationError):
        FieldCtx("Q", epsilon=0)


def test_involution_examples():
    q = FieldCtx("Q")
    assert q.involution(Fraction(3, 2)) == Fraction(3, 2)

    qi = FieldCtx("QSqrt", d=-1)
    x = qi.parse_scalar(["1", "2"])  # 1 + 2 sqrt(-1)
    assert qi.involution(x) == qi.parse_scalar(["1", "-2"])

    f9 = FieldCtx("Fp2", p=3)
    w = f9.generator()
    # Frobenius is x -> x^p
    assert f9.involution(w) == w * w * w


@pytest.mark.parametrize("ctx", ALL_CTXS, ids=repr)
def test_involution_is_involutive_and_multiplicative(ctx):
    rng = random.Random(101)
    for _ in range(40):
        x = ctx.random_element(rng)
        y = ctx.random_element(rng)
        assert ctx.involution(ctx.involution(x)) == x
        assert (ctx.involution(x * y)
                == ctx.involution(x) * ctx.involution(y))


def test_squarefree_part():
    assert squarefree_part(18) == 2
    assert squarefree_part(Fraction(-4, 9)) == -1
    assert squarefree_part(Fraction(8, 3)) == 6
    with pytest.raises(ZeroScalar):
        squarefree_part(0)


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
    assert norm_subgroup_class(qi, qi.from_int(5)).is_trivial()
    assert rational_is_norm(-1, 5)
    assert not rational_is_norm(-1, 3)
    assert not rational_is_norm(-1, -5)


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
                == norm_subgroup_class(ctx, x) * norm_subgroup_class(ctx, y))


@pytest.mark.parametrize("ctx", ALL_CTXS, ids=repr)
def test_norm_class_kills_norms(ctx):
    rng = random.Random(303)
    for _ in range(25):
        x = ctx.random_nonzero(rng)
        y = ctx.random_nonzero(rng)
        scaled = x * ctx.involution(y) * y
        assert norm_subgroup_class(ctx, scaled) == norm_subgroup_class(ctx, x)


def test_fp2_norm_classes_are_cosets_of_fp():
    ctx = FieldCtx("Fp2", p=3)
    # the norm subgroup of F_9 over F_3 is exactly F_3^*
    star = [x for x in ctx.nonzero_elements()]
    reps = {norm_subgroup_class(ctx, x).rep for x in star}
    assert len(reps) == 4  # (p^2 - 1)/(p - 1) = p + 1 cosets
    for x in star:
        if x == ctx.involution(x):
            assert norm_subgroup_class(ctx, x).is_trivial()


def test_scalar_parsing_round_trip():
    for ctx in ALL_CTXS:
        rng = random.Random(404)
        for _ in range(10):
            x = ctx.random_element(rng)
            assert ctx.parse_scalar(ctx.scalar_to_json(x)) == x
