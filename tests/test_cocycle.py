"""The cocycle, its boundary, the reduction, Kashiwara's form, censuses."""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from maslov import cli, cocycle, sampling
from maslov.errors import (
    ConstraintViolated,
    DimensionMismatch,
    NonGeneric,
    NotFound,
    NotHermitian,
    NotPairwiseOpposite,
    SpaceMismatch,
    TooLarge,
    ValidationError,
    WrongContext,
)
from maslov.fields import FieldCtx
from maslov.forms import FormMatrix, is_isometric
from maslov.lagrange import (
    HyperbolicSpace,
    Lagrangian,
    PairFrame,
    UnitaryElement,
    kappa,
    standardize_pair,
    u_t,
    w_element,
)
from maslov.linalg import Matrix
from maslov.cocycle import (
    BasedTriple,
    based_cochain_f,
    boundary_defect,
    disc_defect,
    kashiwara_class,
    kashiwara_form,
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
from maslov.symbols import compare_stbg_maslov
from maslov.witt import SHatElement, WittClass, witt_class
from oracles import (
    based_triple_from_witnesses,
    block_sum,
    diagonal_rational,
    direct_sum,
    extend_lagrangian,
    extend_witt_class,
    frame_edge_det,
    radical_split,
    triple_census,
    unitary_inverse,
    witnesses,
)

Q = FieldCtx("Q")
F3 = FieldCtx("Fp", p=3)
F5 = FieldCtx("Fp", p=5)
F9 = FieldCtx("Fp2", p=3)
QI = FieldCtx("QSqrt", d=-1)
SKEW_F3, SKEW_Q, SKEW_F5, SKEW_F9, SKEW_QI = (
    FieldCtx(c.kind, p=c.p, d=c.d, epsilon=-1) for c in (F3, Q, F5, F9, QI))


def diag(ctx, entries, eps=1):
    return diagonal_rational(ctx, entries, eps)


# ---------------------------------------------------------------------------
# the cocycle


def test_maslov_examples():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    z1 = u_t(sp, diag(Q, [1]))(y0)
    assert maslov(x0, y0, z1) == witt_class(diag(Q, [1]))

    sp3 = HyperbolicSpace(F3, 1)
    x3, y3 = sp3.standard_pair()
    za = u_t(sp3, diag(F3, [1]))(y3)
    zb = u_t(sp3, diag(F3, [2]))(y3)
    assert maslov(x3, y3, za) != maslov(x3, y3, zb)

    # alternating
    assert maslov(x0, z1, y0) == maslov(x0, y0, z1).neg()


def test_boundary_defect_example():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    z = u_t(sp, diag(Q, [1]))(y0)
    zp = u_t(sp, diag(Q, [3]))(y0)
    assert boundary_defect(x0, y0, z, zp).is_zero()


def test_boundary_defect_rejects_degenerate():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    z = u_t(sp, diag(Q, [1]))(y0)
    with pytest.raises(NotPairwiseOpposite):
        boundary_defect(x0, y0, z, z)


@pytest.mark.parametrize("ctx,n", [(Q, 1), (Q, 2), (F5, 2), (F9, 2),
                                   (QI, 2)], ids=str)
def test_boundary_defect_random(ctx, n):
    sp = HyperbolicSpace(ctx, n)
    for trial in range(25):
        quad = random_opposite_quadruple(sp, rng_for(73, trial))
        assert boundary_defect(*quad).is_zero()


def test_quadruple_sampling_exhaustion_is_not_found(monkeypatch):
    monkeypatch.setattr(sampling, "QUADRUPLE_TRIES", 0)
    with pytest.raises(NotFound):
        random_opposite_quadruple(HyperbolicSpace(Q, 1), rng_for(73, 0))


def test_relation_check_examples():
    r = diag(Q, [1])
    s = diag(Q, [1])
    t = diag(Q, [-2])
    assert relation_check(r, s, t).is_zero()

    with pytest.raises(ConstraintViolated):
        relation_check(diag(Q, [1]), diag(Q, [-1]), diag(Q, [0]))
    with pytest.raises(ConstraintViolated):
        relation_check(diag(Q, [1]), diag(Q, [1]), diag(Q, [1]))


@pytest.mark.parametrize("ctx", [Q, FieldCtx("Fp", p=7), F9, QI], ids=repr)
def test_relation_check_random(ctx):
    done = 0
    trial = 0
    while done < 25:
        rng = rng_for(79, trial)
        trial += 1
        r = random_hermitian_invertible(ctx, 2, rng)
        s = random_hermitian_invertible(ctx, 2, rng)
        t_mat = -(r.mat + s.mat)
        if not t_mat.is_invertible():
            continue
        t = FormMatrix(ctx, t_mat, r.eps)
        assert relation_check(r, s, t).is_zero()
        done += 1


@pytest.mark.parametrize("ctx", [Q, F5, F9, QI, SKEW_F5, SKEW_F9], ids=repr)
def test_the_pair_frame_alone_decides_opposition(ctx):
    # one Lagrangian of a six-way opposite quadruple is replaced by another
    # basis of a second one, so exactly one pair of spans is not opposite;
    # every entry point reports it as NotPairwiseOpposite
    sp = HyperbolicSpace(ctx, 2)
    quad = random_opposite_quadruple(sp, rng_for(61, 0))
    two = ctx.from_int(2)
    messages = {(0, 1): "the Lagrangians are not opposite",
                (0, 2): "third Lagrangian is not opposite the first",
                (1, 2): "third Lagrangian is not opposite the second"}
    for i, j in itertools.combinations(range(4), 2):
        lags = list(quad)
        lags[j] = Lagrangian(sp, lags[i].basis.scale(two))
        with pytest.raises(NotPairwiseOpposite):
            boundary_defect(*lags)
        for v, w in ((lags[i], lags[j]), (lags[j], lags[i])):
            with pytest.raises(NotPairwiseOpposite,
                               match="^the Lagrangians are not opposite$"):
                based_cochain_f(v, w)
        if j == 3:
            continue
        a, b, triple = lags[i], lags[j], lags[:3]
        for call in (lambda: PairFrame(a, b), lambda: standardize_pair(a, b),
                     lambda: BasedTriple(*triple)):
            with pytest.raises(NotPairwiseOpposite):
                call()
        for call in (kappa, maslov):
            with pytest.raises(NotPairwiseOpposite, match=messages[i, j]):
                call(*triple)


@pytest.mark.parametrize("ctx", [Q, F5, F9, QI, SKEW_F5, SKEW_F9], ids=repr)
def test_tau_off_the_generic_locus(ctx):
    # (o, g o, g h o) with one repeated Lagrangian in each position: only
    # the symplectic Kashiwara value is defined there
    sp = HyperbolicSpace(ctx, 2)
    o = sp.standard_pair()[0]
    one = UnitaryElement(sp, Matrix.identity(ctx, 4))
    w = w_element(sp)
    for g, h in ((one, w), (w, unitary_inverse(w)), (w, one)):
        if ctx.has_trivial_involution and ctx.epsilon == 1:
            assert tau(g, h) == kashiwara_class(o, g(o), (g * h)(o))
        else:
            with pytest.raises(NonGeneric):
                tau(g, h)


# ---------------------------------------------------------------------------
# Kashiwara


def test_kashiwara_form_standard_matrix():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    z = u_t(sp, diag(Q, [2]))(y0)
    got = kashiwara_form(x0, y0, z)
    half = Fraction(1, 2)
    expected = Matrix(Q, [[0, -half, 1 * half],
                          [-half, 0, 2 * half],
                          [half, 2 * half, 0]])
    assert got.mat == expected
    # its nondegenerate part represents the invariant class
    assert kashiwara_class(x0, y0, z) == witt_class(diag(Q, [2]))


def test_kashiwara_degenerate_triples():
    sp = HyperbolicSpace(Q, 2)
    x0, y0 = sp.standard_pair()
    assert kashiwara_form(x0, x0, x0).mat.is_zero()
    assert kashiwara_class(x0, x0, x0).is_zero()
    # (X, Y, X): the nondegenerate part is hyperbolic
    form = kashiwara_form(x0, y0, x0)
    nondeg, rad = radical_split(form)
    assert rad == 2
    assert witt_class(nondeg).is_zero()


def test_kashiwara_requires_symplectic():
    sp = HyperbolicSpace(QI, 1)
    x0, y0 = sp.standard_pair()
    with pytest.raises(WrongContext):
        kashiwara_form(x0, y0, x0)


@pytest.mark.parametrize("n", [1, 2])
def test_kashiwara_agreement_random(n):
    sp = HyperbolicSpace(Q, n)
    for trial in range(25):
        x, y, z = random_opposite_triple(sp, rng_for(83, trial))
        assert kashiwara_class(x, y, z) == maslov(x, y, z)


def test_tau_identity_elements():
    sp = HyperbolicSpace(Q, 1)
    idm = u_t(sp, Matrix.zeros(Q, 1, 1))
    assert tau(idm, idm).is_zero()


def test_tau_agrees_with_cocycle_on_generic():
    sp = HyperbolicSpace(Q, 1)
    x0, _ = sp.standard_pair()
    for trial in range(15):
        rng = rng_for(89, trial)
        g = random_unitary(sp, rng)
        h = random_unitary(sp, rng)
        o, go, gho = x0, g(x0), (g * h)(x0)
        try:
            expected = maslov(o, go, gho)
        except NotPairwiseOpposite:
            continue
        assert tau(g, h) == expected


@pytest.mark.parametrize("n", [1, 2])
def test_tau_group_cocycle_identity(n):
    sp = HyperbolicSpace(Q, n)
    for trial in range(20):
        rng = rng_for(97, trial)
        g = random_unitary(sp, rng, length=2)
        h = random_unitary(sp, rng, length=2)
        k = random_unitary(sp, rng, length=2)
        assert tau(g, h) + tau(g * h, k) == tau(h, k) + tau(g, h * k)


def test_tau_unitary_context_generic_only():
    sp = HyperbolicSpace(QI, 1)
    idm = u_t(sp, Matrix.zeros(QI, 1, 1))
    with pytest.raises(NonGeneric):
        tau(idm, idm)
    wel = w_element(sp)
    tqi = u_t(sp, diag(QI, [1]))
    val = tau(wel * tqi, wel * tqi)
    assert val is not None


# ---------------------------------------------------------------------------
# based cochain and the reduction


def test_based_cochain_examples():
    sp = HyperbolicSpace(Q, 1)
    bt = based_triple_from_witnesses(sp, [[1]], [[1]], [[1]], [[1]])
    f01 = based_cochain_f(bt.v0, bt.v1)
    assert f01 == SHatElement(Q, (Fraction(-1),), -1)
    # reversal sums to the identity
    f10 = based_cochain_f(bt.v1, bt.v0)
    assert (f01 + f10).is_identity()

    sp2 = HyperbolicSpace(Q, 2)
    bt2 = based_triple_from_witnesses(
        sp2, Matrix.identity(Q, 2), Matrix.identity(Q, 2),
        Matrix.identity(Q, 2), diag(Q, [1, 1]))
    f01 = based_cochain_f(bt2.v0, bt2.v1)
    assert f01 == SHatElement(Q, (Fraction(-1),), 1)


@pytest.mark.parametrize("ctx,n", [(Q, 1), (Q, 2), (F5, 1), (F5, 2),
                                   (F9, 1), (QI, 1), (QI, 2)], ids=str)
def test_based_cochain_alternating(ctx, n):
    sp = HyperbolicSpace(ctx, n)
    for trial in range(10):
        bt = random_based_triple(sp, rng_for(101, trial))
        for v, w in [(bt.v0, bt.v1), (bt.v1, bt.v2), (bt.v2, bt.v0)]:
            assert (based_cochain_f(v, w)
                    + based_cochain_f(w, v)).is_identity()


def test_disc_defect_standard():
    sp = HyperbolicSpace(Q, 1)
    bt = based_triple_from_witnesses(sp, [[1]], [[1]], [[1]], [[1]])
    assert disc_defect(bt).is_identity()


def test_based_triple_witness_round_trip():
    sp = HyperbolicSpace(Q, 2)
    am = Matrix(Q, [[1, 2], [0, 1]])
    bm = Matrix(Q, [[3, 0], [1, 1]])
    cm = Matrix(Q, [[1, 0], [4, 1]])
    tm = diag(Q, [2, -1])
    bt = based_triple_from_witnesses(sp, am, bm, cm, tm)
    a, b, c, t = witnesses(bt)
    assert (a, b, c) == (am, bm, cm)
    assert t.mat == tm.mat
    # all witnesses are invertible by construction
    assert a.is_invertible() and b.is_invertible() and c.is_invertible()
    # each Lagrangian keeps the basis it was built from
    assert bt.v2.basis == (tm.mat * cm).vstack(cm)


def test_from_witnesses_rejects_a_non_hermitian_block():
    sp = HyperbolicSpace(Q, 2)
    eye = Matrix.identity(Q, 2)
    with pytest.raises(NotHermitian, match="^matrix is not \\+1-hermitian$"):
        based_triple_from_witnesses(sp, eye, eye, eye, [[1, 2], [3, 1]])
    skew = FieldCtx("Q", epsilon=-1)
    with pytest.raises(NotHermitian, match="^matrix is not -1-hermitian$"):
        based_triple_from_witnesses(HyperbolicSpace(skew, 1), [[1]], [[1]],
                                    [[1]], [[1]])


EDGE_CONTEXTS = [(c, n) for c in (Q, F5, F9, QI, FieldCtx("QSqrt", d=2))
                 for n in (1, 2, 3)] + [
    (c, n) for c in (FieldCtx("Fp2", p=5, epsilon=-1), SKEW_QI)
    for n in (1, 2, 3)] + [(SKEW_Q, 2), (FieldCtx("Fp", p=7, epsilon=-1), 2)]


@pytest.mark.parametrize("ctx,n", EDGE_CONTEXTS, ids=str)
def test_edge_cochain_equals_its_frame_reading(ctx, n):
    # one pairing h(w, v) against the base change read in the frame of
    # the pair, on every edge of seeded based triples in both directions;
    # in symplectic contexts the determinant lift, built trusted, against
    # the checked constructor on the same entries
    sp = HyperbolicSpace(ctx, n)
    symplectic = ctx.has_trivial_involution and ctx.epsilon == 1
    for trial in range(8):
        bt = random_based_triple(sp, rng_for(113, trial))
        for v, w in itertools.permutations((bt.v0, bt.v1, bt.v2), 2):
            det = cocycle._edge_det(v, w)
            assert det == frame_edge_det(v, w)
            if symplectic:
                lift = cocycle._edge_det_form(v, w)
                checked = WittClass(ctx, [det] + [ctx.one()] * (n - 1))
                assert ((lift.diag, lift._key(), hash(lift))
                        == (checked.diag, checked._key(), hash(checked)))


def test_based_triple_builds_its_frame_once(monkeypatch):
    built = []
    init = PairFrame.__init__

    def counted(self, x, y):
        built.append((x, y))
        init(self, x, y)

    monkeypatch.setattr(PairFrame, "__init__", counted)
    for ctx, n in ((Q, 2), (F5, 1), (QI, 2), (SKEW_F9, 2)):
        bt = random_based_triple(HyperbolicSpace(ctx, n), rng_for(127, n))
        built.clear()
        assert disc_defect(bt).is_identity()
        based_cochain_f(bt.v2, bt.v0)
        witnesses(bt)
        if ctx.has_trivial_involution and ctx.epsilon == 1:
            assert reduced_maslov(bt).in_II()
        assert built == []
    # the symbol route builds one frame, in its BasedTriple
    assert compare_stbg_maslov(Matrix(Q, [[1, 2], [3, 7]]),
                               Matrix(Q, [[2, 1], [5, 3]]))
    assert len(built) == 1


def test_based_cochain_refuses_an_edge_across_spaces():
    v = HyperbolicSpace(Q, 1).standard_pair()[0]
    for other in (HyperbolicSpace(F5, 1), HyperbolicSpace(Q, 2)):
        w = other.standard_pair()[1]
        for edge in ((v, w), (w, v)):
            with pytest.raises(SpaceMismatch,
                               match="^Lagrangians from different spaces$"):
                based_cochain_f(*edge)


def test_from_witnesses_refusals():
    sp = HyperbolicSpace(Q, 2)
    eye = Matrix.identity(Q, 2)
    singular = Matrix(Q, [[1, 2], [2, 4]])
    for k in range(3):
        blocks = [eye, eye, eye, eye]
        blocks[k] = singular
        with pytest.raises(ValidationError,
                           match="^basis does not have full column rank$"):
            based_triple_from_witnesses(sp, *blocks)
    with pytest.raises(NotPairwiseOpposite,
                       match="^third Lagrangian is not opposite the second$"):
        based_triple_from_witnesses(sp, eye, eye, eye, [[1, 1], [1, 1]])
    for k in range(4):
        blocks = [eye, eye, eye, eye]
        blocks[k] = [[1]]
        with pytest.raises(DimensionMismatch):
            based_triple_from_witnesses(sp, *blocks)


@pytest.mark.parametrize("ctx,n", [
    (Q, 1), (Q, 2), (F5, 1), (F5, 2), (F9, 1), (F9, 2), (QI, 1), (QI, 2),
    # eps = -1: the signed discriminant is read from det(t), not from the
    # emptied or unit-scaled Witt representative
    (SKEW_F3, 2), (SKEW_Q, 2), (SKEW_F9, 1), (SKEW_F9, 2), (SKEW_F9, 3),
    (SKEW_QI, 1), (SKEW_QI, 2)], ids=str)
def test_disc_defect_random(ctx, n):
    sp = HyperbolicSpace(ctx, n)
    for trial in range(12):
        bt = random_based_triple(sp, rng_for(103, trial))
        assert disc_defect(bt).is_identity()


def test_reduced_maslov_standard_instances():
    sp = HyperbolicSpace(Q, 1)
    bt = based_triple_from_witnesses(sp, [[1]], [[1]], [[1]], [[1]])
    val = reduced_maslov(bt)
    assert val.in_II()
    assert val.signature() % 4 == 0

    btm = based_triple_from_witnesses(sp, [[1]], [[1]], [[1]], [[-1]])
    valm = reduced_maslov(btm)
    assert valm.in_II()
    assert valm.signature() % 4 == 0


def test_reduced_maslov_requires_symplectic():
    sp = HyperbolicSpace(QI, 1)
    bt = based_triple_from_witnesses(sp, [[1]], [[1]], [[1]], [[1]])
    with pytest.raises(WrongContext):
        reduced_maslov(bt)


@pytest.mark.parametrize("ctx,n", [(Q, 1), (Q, 2), (F5, 1), (F5, 2)],
                         ids=str)
def test_reduced_maslov_in_II_random(ctx, n):
    sp = HyperbolicSpace(ctx, n)
    for trial in range(15):
        bt = random_based_triple(sp, rng_for(107, trial))
        assert reduced_maslov(bt).in_II()


def test_reduced_maslov_witness_change_is_coboundary():
    from maslov.cocycle import _edge_det_form

    sp = HyperbolicSpace(Q, 1)
    for trial in range(10):
        rng = rng_for(109, trial)
        bt1 = random_based_triple(sp, rng)
        # rebase the same underlying triple with fresh bases
        from maslov.sampling import random_invertible

        def rebase(v):
            return Lagrangian(v.space, v.basis * random_invertible(Q, 1, rng))

        bt2 = BasedTriple(rebase(bt1.v0), rebase(bt1.v1), rebase(bt1.v2))
        # same spans, other bases: a different based triple
        assert bt2.v0 == bt1.v0 and bt2 != bt1

        def cob(bt):
            return (_edge_det_form(bt.v1, bt.v2)
                    - _edge_det_form(bt.v0, bt.v2)
                    + _edge_det_form(bt.v0, bt.v1))

        lhs = reduced_maslov(bt1) - reduced_maslov(bt2)
        rhs = cob(bt2) - cob(bt1)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the paper's laws: stability under block sums, naturality under extension
# of scalars


@pytest.mark.parametrize("ctx,n,m", [
    (ctx, n, m) for ctx in (Q, F5, F9, QI, SKEW_F9,
                            FieldCtx("QSqrt", d=2, epsilon=-1))
    for n, m in ((1, 1), (1, 2), (2, 1))] + [
    (SKEW_Q, 2, 2), (SKEW_F5, 2, 2)], ids=str)
def test_stability_under_block_sums(ctx, n, m):
    # the block sum of triples in H_n and H_m has the invariant k1 + k2
    big = HyperbolicSpace(ctx, n + m)
    for trial in range(5):
        t1 = random_opposite_triple(HyperbolicSpace(ctx, n),
                                    rng_for(131, trial))
        t2 = random_opposite_triple(HyperbolicSpace(ctx, m),
                                    rng_for(137, trial))
        summed = [block_sum(big, a, b) for a, b in zip(t1, t2)]
        assert is_isometric(kappa(*summed),
                            direct_sum(kappa(*t1), kappa(*t2)))
        assert maslov(*summed) == maslov(*t1) + maslov(*t2)


@pytest.mark.parametrize("base,ext", [
    (Q, QI), (Q, FieldCtx("QSqrt", d=2)), (Q, FieldCtx("QSqrt", d=-5)),
    (F3, F9), (F5, FieldCtx("Fp2", p=5))], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_naturality_under_extension_of_scalars(base, ext, n):
    # a triple over Q or F_p read over Q(sqrt d) or F_{p^2} has the image
    # of its Witt class
    small, big = HyperbolicSpace(base, n), HyperbolicSpace(ext, n)
    for trial in range(5):
        triple = random_opposite_triple(small, rng_for(139, trial))
        lifted = [extend_lagrangian(big, lag) for lag in triple]
        assert maslov(*lifted) == extend_witt_class(ext, kappa(*triple))


# ---------------------------------------------------------------------------
# the opposite sign of the hermitian flag


def test_orthogonal_context_cocycle_is_trivial():
    # J = id with a symmetric hyperbolic module: the invariant is an
    # alternating matrix and every cocycle value is declared zero
    orth = FieldCtx("Q", epsilon=-1)
    sp = HyperbolicSpace(orth, 2)
    for trial in range(6):
        rng = rng_for(211, trial)
        x, y, z = random_opposite_triple(sp, rng)
        from maslov.lagrange import kappa

        assert kappa(x, y, z).eps == -1
        assert maslov(x, y, z).is_zero()
        quad = random_opposite_quadruple(sp, rng)
        assert boundary_defect(*quad).is_zero()


@pytest.mark.parametrize("ctx", [FieldCtx("QSqrt", d=-1, epsilon=-1),
                                 FieldCtx("Fp2", p=3, epsilon=-1)], ids=repr)
def test_skew_hermitian_contexts(ctx):
    # hermitian hyperbolic module, skew-hermitian invariant: Witt classes
    # go through the trace-zero-unit scaling
    from maslov.forms import is_isometric
    from maslov.lagrange import kappa

    sp = HyperbolicSpace(ctx, 2)
    for trial in range(6):
        rng = rng_for(223, trial)
        x, y, z = random_opposite_triple(sp, rng)
        base = kappa(x, y, z)
        assert is_isometric(kappa(y, z, x), base)
        assert is_isometric(kappa(x, z, y), base.neg())
        quad = random_opposite_quadruple(sp, rng)
        assert boundary_defect(*quad).is_zero()


# ---------------------------------------------------------------------------
# censuses


def test_census_f3():
    res = orbit_census(HyperbolicSpace(F3, 1))
    assert len(res.classes) == 2
    assert res.sizes() == [12, 12]
    assert res.total == 24
    assert res.fibers_are_orbits
    # rank 3 over F_5 is refused before any Lagrangian is enumerated
    started = time.monotonic()
    with pytest.raises(TooLarge, match="^2558556 subspaces exceed the "
                                       "limit 500000$"):
        orbit_census(HyperbolicSpace(F5, 3))
    assert time.monotonic() - started < 5


def test_census_f5():
    res = orbit_census(HyperbolicSpace(F5, 1))
    assert len(res.classes) == 2
    assert res.total == 120
    assert sum(res.sizes()) == 120
    assert res.fibers_are_orbits


def test_census_orthogonal_empty():
    orth = FieldCtx("Fp", p=3, epsilon=-1)
    res = orbit_census(HyperbolicSpace(orth, 1))
    assert res.total == 0
    assert res.classes == {}


def test_census_f9_hermitian():
    res = orbit_census(HyperbolicSpace(F9, 1))
    # hermitian rank 1: one class of invertible 1 x 1 hermitian forms
    assert len(res.classes) == 1
    assert res.total == 4 * 3 * 2
    assert res.fibers_are_orbits


def test_census_f3_rank2():
    res = orbit_census(HyperbolicSpace(F3, 2))
    assert res.total == 19440
    assert len(res.classes) == 2
    assert res.fibers_are_orbits


def _symmetric_classes(p, n):
    """Invertible symmetric n x n matrices mod p by the square class of
    the determinant (Euler's criterion), the determinant by Leibniz's
    formula."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    signed = [(perm, (-1) ** sum(a > b for a, b in
                                 itertools.combinations(perm, 2)))
              for perm in itertools.permutations(range(n))]
    counts = {}
    for values in itertools.product(range(p), repeat=len(cells)):
        m = {}
        for (i, j), v in zip(cells, values):
            m[i, j] = m[j, i] = v
        det = sum(sign * math.prod(m[i, perm[i]] for i in range(n))
                  for perm, sign in signed) % p
        if det:
            cls = pow(det, (p - 1) // 2, p)
            counts[cls] = counts.get(cls, 0) + 1
    return sorted(counts.values())


def _hermitian_rank2_invertible(p):
    """Invertible hermitian 2 x 2 matrices over F_{p^2} = F_p(w), w^2 = nu
    a non-residue: [[a, z], [z^J, d]] with a, d in F_p and det
    a d - N(z), N(x + y w) = x^2 - nu y^2."""
    nu = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    return sum(1 for a, d, x, y in itertools.product(range(p), repeat=4)
               if (a * d - x * x + nu * y * y) % p)


@pytest.mark.parametrize("ctx, n, lags, opposite, per_class, total", [
    # L = (q + 1)(q^2 + 1) Lagrangians, q^3 symmetric t opposite X
    (FieldCtx("Fp", p=5), 2, 6 * 26, 5 ** 3, _symmetric_classes(5, 2),
     1950000),
    # far more triples than the full-triple census can list
    (FieldCtx("Fp", p=7), 2, 8 * 50, 7 ** 3, _symmetric_classes(7, 2),
     40336800),
    # L = (q + 1)(q^3 + 1), q^4 hermitian t; eps = -1 scales t by a
    # trace-zero unit, which keeps the count
    (F9, 2, 4 * 28, 3 ** 4, [_hermitian_rank2_invertible(3)], 544320),
    (SKEW_F9, 2, 4 * 28, 3 ** 4, [_hermitian_rank2_invertible(3)], 544320),
    # L = (q + 1)(q^2 + 1)(q^3 + 1), q^6 symmetric t
    (F3, 3, 4 * 10 * 28, 3 ** 6, _symmetric_classes(3, 3), 382112640),
    # L = 2 (q + 1)(q^2 + 1) over the split orthogonal module; alternating
    # matrices of odd size are singular, so no triple is opposite
    (FieldCtx("Fp", p=3, epsilon=-1), 3, 2 * 4 * 10, 3 ** 3, [], 0),
], ids=["F5", "F7", "F9", "skew F9", "F3 rank 3", "skew F3 rank 3"])
def test_rank2_census_matches_an_independent_count(ctx, n, lags, opposite,
                                                   per_class, total):
    # each class holds L * H * |{invertible t in its determinant class}|
    # triples; the counts are made here, not read from the census
    res = orbit_census(HyperbolicSpace(ctx, n))
    sizes = [lags * opposite * c for c in per_class]
    assert res.sizes() == sorted(sizes)
    assert res.total == sum(sizes) == total
    assert res.fibers_are_orbits


ORACLE_CONTEXTS = (
    [(FieldCtx("Fp", p=p, epsilon=eps), 1)
     for p in (3, 5, 7, 11, 13) for eps in (1, -1)]
    + [(FieldCtx("Fp2", p=p, epsilon=eps), 1)
       for p in (3, 5, 7) for eps in (1, -1)]
    + [(FieldCtx("Fp", p=p, epsilon=-1), 2) for p in (3, 5, 7)])


@pytest.mark.parametrize("ctx, n", ORACLE_CONTEXTS + [
    pytest.param(F3, 2, marks=pytest.mark.slow)],
    ids=lambda v: repr(v) if isinstance(v, FieldCtx) else f"n={v}")
def test_census_agrees_with_the_full_triple_oracle(ctx, n):
    # the oracle lists every ordered opposite triple and searches orbits
    # of triples; the census works through the stabilizer of one pair
    space = HyperbolicSpace(ctx, n)
    want = triple_census(space)
    got = orbit_census(space)
    assert got.classes == want.classes
    assert got.total == want.total
    assert got.fibers_are_orbits is want.fibers_are_orbits is True


class _UnnormalizedFrame(PairFrame):
    """A frame that skips the normalization h(c, b) = 1 of Y's basis: right
    on the standard pair, wrong on the pairs the generators move it to."""

    __slots__ = ()

    def __init__(self, x, y):
        super().__init__(x, y)
        self.top = x.space.covector(y.basis)


@pytest.mark.parametrize("fault, field, n", [
    ("key", {"kind": "Fp", "p": 3, "epsilon": 1}, 2),
    ("frame", {"kind": "Fp", "p": 3, "epsilon": 1}, 2),
    ("levi", {"kind": "Fp", "p": 3, "epsilon": 1}, 2),
    ("translations", {"kind": "Fp", "p": 3, "epsilon": 1}, 2),
    ("reflection", {"kind": "Fp", "p": 3, "epsilon": -1}, 2),
    ("zeta", {"kind": "Fp", "p": 5, "epsilon": 1}, 1),
    ("zeta", {"kind": "Fp2", "p": 3, "epsilon": 1}, 1),
    ("zeta", {"kind": "Fp", "p": 5, "epsilon": 1}, 2),
], ids=["key", "frame", "levi", "translations", "reflection", "zeta F5",
        "zeta F9", "zeta F5 rank 2"])
def test_planted_census_faults_fail_the_orbit_check(fault, field, n,
                                                    monkeypatch, capsys):
    if fault == "key":
        # a key that also reads the first entry of t is not invariant
        true_key = cocycle.isometry_key
        monkeypatch.setattr(cocycle, "isometry_key", lambda t: (
            true_key(t), t.mat.rows[0][0]))
    elif fault == "frame":
        # the keys at the standard pair and their Levi orbits are right;
        # only the spot-check of the other generators' frames sees it
        monkeypatch.setattr(cocycle, "PairFrame", _UnnormalizedFrame)
    elif fault == "levi":
        # Levi elements from the diagonal of a only: no shears, so the
        # Levi orbits of t split
        true_ell = cocycle.ell_a
        monkeypatch.setattr(cocycle, "ell_a", lambda sp, a: true_ell(
            sp, Matrix.diagonal(sp.ctx, [a.rows[i][i] for i in range(a.n)])))
    elif fault == "translations":
        # one additive generator of the translations fewer
        true_basis = cocycle._hermitian_additive_basis
        monkeypatch.setattr(cocycle, "_hermitian_additive_basis",
                            lambda ctx, n: true_basis(ctx, n)[1:])
    elif fault == "reflection":
        # the full Weyl element for the one of the first coordinate: then
        # the orthogonal generators have determinant 1 and two orbits on
        # the Lagrangians of rank 2; only the transitivity check sees it
        monkeypatch.setattr(cocycle, "w_element",
                            lambda sp, coords: w_element(sp))
    else:
        # zeta^2 generates only the squares, so the Levi orbits of t split;
        # over F_3 the isometries of t have determinant -1 = zeta, which
        # makes up for zeta^2 = 1, so F_3 does not show it
        true_gen = cocycle._unit_generator
        monkeypatch.setattr(cocycle, "_unit_generator",
                            lambda ctx: true_gen(ctx) * true_gen(ctx))
    ctx = FieldCtx(field["kind"], p=field["p"], epsilon=field["epsilon"])
    res = orbit_census(HyperbolicSpace(ctx, n))
    assert res.fibers_are_orbits is False
    assert cli.run(["census", "--field", json.dumps(field),
                    "--input", json.dumps({"n": n})]) == 1
    check, = json.loads(capsys.readouterr().out)["checks"]
    assert (check["name"], check["pass"]) == ("fibers-are-orbits", False)
