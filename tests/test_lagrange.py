"""Hyperbolic modules, opposition, standard elements, and the invariant."""

import itertools

import pytest

from maslov import lagrange
from maslov.errors import (
    NotFound,
    NotHermitian,
    NotPairwiseOpposite,
    SingularInput,
    SpaceMismatch,
    TooLarge,
    ValidationError,
)
from maslov.fields import FieldCtx
from maslov.forms import FormMatrix, is_isometric
from maslov.lagrange import (
    HyperbolicSpace,
    Lagrangian,
    PairFrame,
    UnitaryElement,
    ell_a,
    enumerate_lagrangians,
    is_opposite,
    kappa,
    standardize_pair,
    u_t,
    w_element,
)
from maslov.linalg import Matrix
from maslov.sampling import (
    random_based_triple,
    random_hermitian,
    random_hermitian_invertible,
    random_invertible,
    random_opposite_quadruple,
    random_opposite_triple,
    random_unitary,
    rng_for,
)
from oracles import (
    common_opposite,
    congruence,
    diagonal_rational,
    holonomy,
    radical_split,
    rank,
    subspace_lagrangians,
    unitary_inverse,
)

Q = FieldCtx("Q")
F3 = FieldCtx("Fp", p=3)
F5 = FieldCtx("Fp", p=5)
F9 = FieldCtx("Fp2", p=3)
QI = FieldCtx("QSqrt", d=-1)
SKEW = [FieldCtx("Q", epsilon=-1), FieldCtx("Fp", p=5, epsilon=-1),
        FieldCtx("Fp2", p=3, epsilon=-1), FieldCtx("QSqrt", d=-1, epsilon=-1)]


def diag_form(ctx, entries, eps=1):
    return diagonal_rational(ctx, entries, eps)


@pytest.mark.parametrize("n", [1.5, 2.0, True, "2"], ids=repr)
def test_hyperbolic_space_takes_an_int_rank(n):
    with pytest.raises(ValidationError, match="^rank must be an integer$"):
        HyperbolicSpace(Q, n)


# ---------------------------------------------------------------------------
# standard elements


def test_u_zero_is_identity():
    sp = HyperbolicSpace(Q, 2)
    assert u_t(sp, Matrix.zeros(Q, 2, 2)).mat == Matrix.identity(Q, 4)


def test_u_matrix_shape():
    sp = HyperbolicSpace(Q, 1)
    g = u_t(sp, diag_form(Q, [2]))
    assert g.mat == Matrix(Q, [[1, 2], [0, 1]])
    # unitary for the gram [[0,-1],[1,0]]
    assert sp.gram == Matrix(Q, [[0, -1], [1, 0]])


def test_u_rejects_wrong_symmetry():
    sp = HyperbolicSpace(Q, 2)
    with pytest.raises(NotHermitian):
        u_t(sp, Matrix(Q, [[0, 1], [2, 0]]))


def test_ell_rejects_singular():
    sp = HyperbolicSpace(Q, 2)
    with pytest.raises(SingularInput):
        ell_a(sp, Matrix(Q, [[1, 1], [1, 1]]))


def test_u_additive_and_levi_conjugation():
    sp = HyperbolicSpace(F5, 2)
    for trial in range(20):
        rng = rng_for(51, trial)
        t1 = random_hermitian(F5, 2, rng)
        t2 = random_hermitian(F5, 2, rng)
        assert (u_t(sp, t1) * u_t(sp, t2)).mat == u_t(
            sp, t1.mat + t2.mat).mat
        a = random_invertible(F5, 2, rng)
        lhs = ell_a(sp, a) * u_t(sp, t1) * unitary_inverse(ell_a(sp, a))
        conj = a.jt().inverse() * t1.mat * a.inverse()
        assert lhs.mat == u_t(sp, conj).mat


def test_w_swaps_standard_pair():
    for ctx in (Q, F5, F9, QI):
        sp = HyperbolicSpace(ctx, 2)
        x, y = sp.standard_pair()
        w = w_element(sp)
        assert w(x) == y and w(y) == x


# ---------------------------------------------------------------------------
# opposition


def test_opposite_examples():
    sp = HyperbolicSpace(Q, 2)
    x, y = sp.standard_pair()
    assert is_opposite(x, y)
    assert not is_opposite(x, x)
    # u_t(Y) is opposite Y exactly when t is invertible
    t_inv = diag_form(Q, [1, 2])
    t_sing = FormMatrix(Q, [[1, 0], [0, 0]], 1)
    assert is_opposite(u_t(sp, t_inv)(y), y)
    assert not is_opposite(u_t(sp, t_sing)(y), y)
    assert is_opposite(u_t(sp, t_sing)(y), x)
    # the oracle: x and y are opposite when [x | y] has full rank 2n
    for ctx, n in ((F3, 2), (F9, 1), (FieldCtx("Fp", p=5, epsilon=-1), 2)):
        _agrees_with_juxtaposition(
            enumerate_lagrangians(HyperbolicSpace(ctx, n)))
    for ctx in (Q, QI):
        sp = HyperbolicSpace(ctx, 2)
        x0, y0 = sp.standard_pair()
        for trial in range(10):
            rng = rng_for(79, trial)
            g = random_unitary(sp, rng)
            t = random_hermitian(ctx, 2, rng)
            v = Matrix(ctx, [[ctx.random_element(rng, 3)] for _ in range(2)])
            # v v^J has rank at most 1, so its graph meets Y
            lags = [x0, y0, u_t(sp, t)(y0), u_t(sp, v * v.jt())(y0)]
            _agrees_with_juxtaposition([g(lag) for lag in lags])


def _agrees_with_juxtaposition(lags):
    for x, y in itertools.product(lags, repeat=2):
        full = rank(x.basis.hstack(y.basis)) == 2 * x.space.n
        assert is_opposite(x, y) == full


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rank1_symplectic_count(p):
    sp = HyperbolicSpace(FieldCtx("Fp", p=p), 1)
    assert len(enumerate_lagrangians(sp)) == p + 1


def test_rank1_counts_other_kinds():
    # hermitian over F_9: fixed field F_3 gives 3 + 1 Lagrangians
    assert len(enumerate_lagrangians(HyperbolicSpace(F9, 1))) == 4
    # hyperbolic orthogonal: only the two coordinate lines are isotropic
    orth = FieldCtx("Fp", p=3, epsilon=-1)
    assert len(enumerate_lagrangians(HyperbolicSpace(orth, 1))) == 2


def test_rank2_f3_count():
    sp = HyperbolicSpace(F3, 2)
    lags = enumerate_lagrangians(sp)
    assert len(lags) == 40  # (3 + 1)(3^2 + 1)
    assert len(set(lags)) == 40


@pytest.mark.parametrize("ctx, n", [
    (FieldCtx(kind, p=p, epsilon=eps), n)
    for kind, p, n in [("Fp", p, n) for n in (1, 2) for p in (3, 5, 7, 11, 13)]
    + [("Fp2", 3, 1), ("Fp2", 3, 2), ("Fp", 3, 3)]
    for eps in (1, -1)],
    ids=lambda v: repr(v) if isinstance(v, FieldCtx) else f"n={v}")
def test_enumeration_matches_the_subspace_walk(ctx, n):
    # the graphs over the coordinate Lagrangians give the Lagrangians the
    # walk over all subspaces finds, in its order and on its bases
    space = HyperbolicSpace(ctx, n)
    got = [lag.basis for lag in enumerate_lagrangians(space)]
    assert got == [lag.basis for lag in subspace_lagrangians(space)]


def test_enumeration_infinite_field_rejected():
    with pytest.raises(TooLarge):
        enumerate_lagrangians(HyperbolicSpace(Q, 1))


def test_enumeration_bounds_the_count_before_computing_it(monkeypatch):
    # there are over 2^(n^2) subspaces, so a rank with n^2 at least the
    # bit length of the limit is refused from that bound alone; below it
    # the exact count is reported.  The Gram matrix of a module is built
    # only when needed, so a huge rank is refused at once.
    sp = HyperbolicSpace(F3, 2)
    monkeypatch.setattr(lagrange, "LAGRANGIAN_LIMIT", 15)
    with pytest.raises(TooLarge,
                       match="^over 2\\^4 subspaces exceed the limit 15$"):
        enumerate_lagrangians(sp)
    monkeypatch.setattr(lagrange, "LAGRANGIAN_LIMIT", 16)
    with pytest.raises(TooLarge, match="^130 subspaces exceed the limit 16$"):
        enumerate_lagrangians(sp)
    monkeypatch.undo()
    with pytest.raises(TooLarge, match="^over 2\\^1(0)+ subspaces exceed"):
        enumerate_lagrangians(HyperbolicSpace(F3, 10**30))


# ---------------------------------------------------------------------------
# common opposites


def test_common_opposite_standard():
    sp = HyperbolicSpace(Q, 2)
    x, y = sp.standard_pair()
    cand = common_opposite([x])
    assert is_opposite(cand, x)
    both = common_opposite([x, y])
    assert is_opposite(both, x) and is_opposite(both, y)


def test_common_opposite_exhaustive_f3():
    sp = HyperbolicSpace(F3, 1)
    lags = enumerate_lagrangians(sp)
    assert len(lags) == 4
    # rank 1: distinct Lagrangians are opposite, so removing one leaves
    # exactly that one as the common opposite of the other three
    for i in range(4):
        others = [lag for j, lag in enumerate(lags) if j != i]
        found = common_opposite(others)
        assert found == lags[i]


def test_common_opposite_not_found():
    # hyperbolic orthogonal rank 1 has two Lagrangians; nothing is
    # opposite to both of them
    orth = FieldCtx("Fp", p=3, epsilon=-1)
    sp = HyperbolicSpace(orth, 1)
    lags = enumerate_lagrangians(sp)
    with pytest.raises(NotFound):
        common_opposite(lags)


# ---------------------------------------------------------------------------
# standardization


@pytest.mark.parametrize("ctx", [Q, F5, F9, QI] + SKEW, ids=repr)
def test_standardize_pair_properties(ctx):
    sp = HyperbolicSpace(ctx, 2)
    x0, y0 = sp.standard_pair()
    for trial in range(15):
        rng = rng_for(53, trial)
        g0 = random_unitary(sp, rng)
        x, y = g0(x0), g0(y0)
        g = standardize_pair(x, y)
        assert g(x) == x0
        assert g(y) == y0
        # the oracle: the Gauss-Jordan inverse of the frame [b | c]
        b = x.canonical
        c = y.basis * sp.pairing(y.basis, b).jt().inverse()
        assert g.mat == b.hstack(c).inverse()
        # kappa is the graph block of z once (x, y) is standardized
        t = random_hermitian_invertible(ctx, 2, rng)
        z = (g0 * u_t(sp, t))(y0)
        gz = g(z.basis)
        top, bot = Matrix(ctx, gz.rows[:2]), Matrix(ctx, gz.rows[2:])
        assert kappa(x, y, z).mat == top * bot.inverse()


@pytest.mark.parametrize("ctx", [
    Q, F5, F9, QI, FieldCtx("Fp", p=5, epsilon=-1),
    FieldCtx("QSqrt", d=2, epsilon=-1)], ids=repr)
def test_trusted_results_pass_the_checked_constructors(ctx):
    # products, inverses, the standard elements, the frame's unitary, the
    # samplers' Lagrangians and the forms of closed operations are built
    # unchecked; the checked constructors accept each one and build an
    # equal object
    for n in (1, 2, 3):
        sp = HyperbolicSpace(ctx, n)
        rng = rng_for(97, n)
        pair = sp.standard_pair()
        lags = list(pair)
        units = [w_element(sp), ell_a(sp, random_invertible(ctx, n, rng))]
        sym = random_hermitian(ctx, n, rng, eps=1)
        forms = [sym, sym.neg(), radical_split(sym)[0],
                 congruence(sym, random_invertible(ctx, n, rng))]
        try:
            t = random_hermitian(ctx, n, rng)
            forms += [t, t.neg(), congruence(t, random_invertible(
                ctx, n, rng))]
            units.append(u_t(sp, t))
            units.append(random_unitary(sp, rng))
            pair = random_opposite_quadruple(sp, rng)
            forms += [PairFrame(*pair[:2]).kappa(z) for z in pair[2:]]
            lags += pair
            lags += random_opposite_triple(sp, rng)
            bt = random_based_triple(sp, rng)
            lags += [bt.v0, bt.v1, bt.v2]
            lags.append(common_opposite(lags[:2], rng))
        except NotFound:
            # no nonzero 1 x 1 or invertible 3 x 3 alternating form
            assert ctx.has_trivial_involution and n % 2
        units.append(standardize_pair(*pair[:2]))
        units += [g * h for g in units for h in units[-2:]]
        units += [unitary_inverse(g) for g in units]
        for g in units:
            assert UnitaryElement(sp, g.mat) == g
        lags += [g(x) for g in units[:4] for x in lags[:4]]
        for x in lags:
            assert x.canonical == x.basis.column_space_canonical()
            assert Lagrangian(sp, x.basis) == x
        for f in forms:
            assert FormMatrix(ctx, f.mat, f.eps) == f
    if ctx.is_finite:
        for x in enumerate_lagrangians(HyperbolicSpace(ctx, 1)):
            assert x.canonical == x.basis
            assert Lagrangian(x.space, x.basis) == x


def test_constructors_check_the_shape_first():
    # a square basis or a unitary of the wrong size is refused by name,
    # before any pairing is formed
    sp = HyperbolicSpace(Q, 2)
    with pytest.raises(ValidationError, match="basis must be 2n x n"):
        Lagrangian(sp, Matrix.identity(Q, 4))
    with pytest.raises(ValidationError, match="has the wrong size"):
        UnitaryElement(sp, Matrix.identity(Q, 3))


def test_images_need_the_space_of_the_unitary():
    # g(x) is built unchecked, so a Lagrangian of another space is refused
    # before the product
    x = HyperbolicSpace(FieldCtx("Q", epsilon=-1), 1).standard_pair()[0]
    with pytest.raises(SpaceMismatch):
        w_element(HyperbolicSpace(Q, 1))(x)


def test_standardize_swapped_pair():
    sp = HyperbolicSpace(Q, 2)
    x0, y0 = sp.standard_pair()
    g = standardize_pair(y0, x0)
    assert g(y0) == x0 and g(x0) == y0


def test_standardize_rejects_non_opposite():
    sp = HyperbolicSpace(Q, 1)
    x0, _ = sp.standard_pair()
    with pytest.raises(NotPairwiseOpposite):
        standardize_pair(x0, x0)


# ---------------------------------------------------------------------------
# the invariant


def test_kappa_standard_examples():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    t = diag_form(Q, [2])
    got = kappa(x0, y0, u_t(sp, t)(y0))
    assert got.mat == t.mat

    sp2 = HyperbolicSpace(Q, 2)
    x0, y0 = sp2.standard_pair()
    t2 = FormMatrix(Q, [[1, 2], [2, -1]], 1)
    assert kappa(x0, y0, u_t(sp2, t2)(y0)).mat == t2.mat


def test_kappa_translation_invariance():
    for ctx in (Q, F5, F9, QI):
        sp = HyperbolicSpace(ctx, 2)
        x0, y0 = sp.standard_pair()
        for trial in range(10):
            rng = rng_for(59, trial)
            t = random_hermitian_invertible(ctx, 2, rng)
            g = random_unitary(sp, rng)
            z = u_t(sp, t)(y0)
            moved = kappa(g(x0), g(y0), g(z))
            assert is_isometric(moved, kappa(x0, y0, z))


def test_kappa_rejects_non_opposite():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    with pytest.raises(NotPairwiseOpposite):
        kappa(x0, y0, y0)


@pytest.mark.parametrize("ctx", [Q, F5, F9, QI], ids=repr)
def test_kappa_cyclic_and_swap(ctx):
    sp = HyperbolicSpace(ctx, 2)
    for trial in range(20):
        rng = rng_for(61, trial)
        x, y, z = random_opposite_triple(sp, rng)
        base = kappa(x, y, z)
        assert is_isometric(kappa(y, z, x), base)
        assert is_isometric(kappa(z, x, y), base)
        assert is_isometric(kappa(x, z, y), base.neg())


def test_kappa_boundary_values():
    # the two computed boundary classes: kappa(Z', X, Z) ~ <t' - t> and
    # kappa(Z', Y, Z) ~ <t^{-J} - t'^{-J}>
    for ctx in (Q, F5, QI):
        sp = HyperbolicSpace(ctx, 2)
        x0, y0 = sp.standard_pair()
        for trial in range(10):
            rng = rng_for(67, trial)
            t = random_hermitian_invertible(ctx, 2, rng)
            tp = random_hermitian_invertible(ctx, 2, rng)
            diff = tp.mat - t.mat
            inv_diff = t.mat.inverse().jt() - tp.mat.inverse().jt()
            if not (diff.is_invertible() and inv_diff.is_invertible()):
                continue
            z = u_t(sp, t)(y0)
            zp = u_t(sp, tp)(y0)
            assert is_isometric(kappa(zp, x0, z),
                                FormMatrix(ctx, diff, ctx.epsilon))
            assert is_isometric(kappa(zp, y0, z),
                                FormMatrix(ctx, inv_diff, ctx.epsilon))


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_examples():
    sp = HyperbolicSpace(Q, 1)
    x0, y0 = sp.standard_pair()
    z1 = u_t(sp, diag_form(Q, [1]))(y0)
    assert holonomy(x0, y0, z1) == Matrix(Q, [[0, -1], [1, 0]])
    z2 = u_t(sp, diag_form(Q, [2]))(y0)
    from fractions import Fraction

    assert holonomy(x0, y0, z2) == Matrix(
        Q, [[0, Fraction(-1, 2)], [2, 0]])


def test_holonomy_reverse_composes_to_identity():
    for ctx in (Q, F5, QI):
        sp = HyperbolicSpace(ctx, 2)
        for trial in range(10):
            rng = rng_for(71, trial)
            x, y, z = random_opposite_triple(sp, rng)
            fwd = holonomy(x, y, z)
            rev = -holonomy(x, y, z)
            assert fwd * rev == Matrix.identity(ctx, 4)
            # degree -1 unitary for the graded hyperbolic structure
            assert fwd.jt() * sp.gram * fwd == sp.gram


# ---------------------------------------------------------------------------
# stabilizer symmetry criterion


def _triple_symmetries(p):
    """Permutations of the standard triple {X, Y, u_1(Y)} induced by the
    full symplectic group SL_2(F_p), by brute force."""
    ctx = FieldCtx("Fp", p=p)
    sp = HyperbolicSpace(ctx, 1)
    x0, y0 = sp.standard_pair()
    z = u_t(sp, diagonal_rational(ctx, [1]))(y0)
    triple = [x0, y0, z]
    perms = set()
    els = ctx.elements()
    for a in els:
        for b in els:
            for c in els:
                for d in els:
                    m = Matrix(ctx, [[a, b], [c, d]])
                    if m.det() != ctx.one():
                        continue
                    g = UnitaryElement(sp, m)
                    images = [g(l) for l in triple]
                    if all(any(img == l for l in triple) for img in images):
                        perm = tuple(
                            next(i for i, l in enumerate(triple) if l == img)
                            for img in images)
                        perms.add(perm)
    return perms


def test_sym3_criterion_brute_force():
    # a^J t a = -t with t = (1): solvable iff -1 is a square
    assert not any((a * a) % 3 == 3 - 1 for a in range(1, 3))
    assert any((a * a) % 5 == 5 - 1 for a in range(1, 5))
    perms3 = _triple_symmetries(3)
    perms5 = _triple_symmetries(5)
    cyclic = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    sym3 = cyclic | {(0, 2, 1), (2, 1, 0), (1, 0, 2)}
    assert perms3 == cyclic
    assert perms5 == sym3
