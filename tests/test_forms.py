"""Form predicates, congruence, diagonalization, and isometry."""

import random
from fractions import Fraction

import pytest

from maslov.errors import (
    DegenerateInput,
    NotHermitian,
    ValidationError,
    WrongSymmetry,
)
from maslov.fields import FieldCtx
from maslov.forms import (
    FormMatrix,
    diagonalize,
    is_isometric,
    isometry_key,
)
from maslov.linalg import Matrix
from maslov.sampling import (
    random_hermitian,
    random_hermitian_invertible,
    random_invertible,
    rng_for,
)
from maslov.witt import witt_class
from oracles import (
    congruence,
    diagonal_rational,
    direct_sum,
    kernel_basis,
    radical_split,
    scalar_diagonalize,
    signature_count,
)

Q = FieldCtx("Q")
F5 = FieldCtx("Fp", p=5)
F7 = FieldCtx("Fp", p=7)
F9 = FieldCtx("Fp2", p=3)
QI = FieldCtx("QSqrt", d=-1)

HERM_CTXS = [Q, F5, F9, QI]
DIFF_CTXS = [Q, FieldCtx("Fp", p=3), F5, F9, FieldCtx("Fp2", p=5), QI,
             FieldCtx("QSqrt", d=2)]


def test_symmetry_validation():
    with pytest.raises(NotHermitian):
        FormMatrix(Q, [[0, 1], [2, 0]], 1)
    FormMatrix(Q, [[0, 1], [1, 0]], 1)
    FormMatrix(Q, [[0, -1], [1, 0]], -1)
    # hermitian over Q(i): diagonal must be real, off-diagonal conjugate
    x = QI.parse_scalar(["0", "1"])
    with pytest.raises(NotHermitian):
        FormMatrix(QI, [[x]], 1)
    FormMatrix(QI, [[QI.zero(), x], [-x, QI.zero()]], 1)
    # the sign is the int +-1: a float or a bool is refused before the
    # symmetry test formats it
    for eps in (0, 1.0, -1.0, True):
        with pytest.raises(ValidationError):
            FormMatrix(Q, [[0, 1], [2, 0]], eps)


def test_congruence_examples():
    t = FormMatrix(Q, [[1]], 1)
    g = Matrix(Q, [[2]])
    assert congruence(t, g).mat == Matrix(Q, [[4]])

    skew = FormMatrix(Q, [[0, -1], [1, 0]], -1)
    assert congruence(skew, Matrix.identity(Q, 2)) == skew

    t = diagonal_rational(Q, [-1, 3])
    g = Matrix(Q, [[1, 1], [0, 1]])
    assert congruence(t, g).mat == Matrix(Q, [[-1, -1], [-1, 2]])


def test_diagonalize_examples():
    hyp = FormMatrix(Q, [[0, 1], [1, 0]], 1)
    dg = diagonalize(hyp)
    assert dg.radical_dim == 0
    # the hyperbolic plane is isometric to <1, -1>
    assert is_isometric(FormMatrix.diagonal(Q, dg.diag),
                        diagonal_rational(Q, [1, -1]))

    d = diagonalize(diagonal_rational(Q, [1, 0, 3]))
    assert sorted(d.diag) == [Fraction(1), Fraction(3)]
    assert d.radical_dim == 1

    z = diagonalize(FormMatrix(Q, Matrix.zeros(Q, 2, 2), 1))
    assert z.diag == () and z.radical_dim == 2


def test_diagonalize_rejects_skew():
    with pytest.raises(WrongSymmetry):
        diagonalize(FormMatrix(Q, [[0, -1], [1, 0]], -1))


@pytest.mark.parametrize("ctx", HERM_CTXS, ids=repr)
def test_diagonalize_witness_exact(ctx):
    for trial in range(125):
        rng = rng_for(11, trial)
        t = random_hermitian(ctx, rng.choice([2, 3]), rng, eps=1)
        dg = diagonalize(t)
        n = t.dim
        expect = Matrix.diagonal(
            ctx, list(dg.diag) + [ctx.zero()] * dg.radical_dim)
        assert dg.transform.jt() * t.mat * dg.transform == expect
        assert len(dg.diag) + dg.radical_dim == n
        assert all(e for e in dg.diag)


def _diagonalize_cases(ctx, n, rng):
    """Seeded +1-hermitian forms of size n: random ones, the zero form,
    random ones with a zero diagonal (the repair step) and degenerate
    congruent images g^J (D (+) 0) g."""
    zero = ctx.zero()
    yield FormMatrix(ctx, Matrix.zeros(ctx, n, n), 1)
    for _ in range(6):
        t = random_hermitian(ctx, n, rng, eps=1)
        yield t
        rows = [[zero if i == j else x for j, x in enumerate(r)]
                for i, r in enumerate(t.mat.rows)]
        yield FormMatrix(ctx, rows, 1)
        rank = rng.randrange(n)
        d = [ctx.from_int(rng.choice([1, -1, 2, 3]))
             for _ in range(rank)] + [zero] * (n - rank)
        g = random_invertible(ctx, n, rng)
        yield FormMatrix(ctx, g.jt() * Matrix.diagonal(ctx, d) * g, 1)


@pytest.mark.parametrize("ctx", DIFF_CTXS, ids=repr)
def test_diagonalize_matches_scalar_oracle(ctx):
    rng = random.Random(2026)
    repaired = 0
    for n in range(1, 5):
        for t in _diagonalize_cases(ctx, n, rng):
            got, ref = diagonalize(t), scalar_diagonalize(t)
            assert got.diag == ref.diag
            assert got.radical_dim == ref.radical_dim
            assert got.transform == ref.transform
            if got.diag and not any(t.mat.rows[i][i] for i in range(n)):
                repaired += 1
    assert repaired > 0


def test_diagonalize_witness_catches_planted_faults(monkeypatch):
    for ctx in DIFF_CTXS:
        k = ctx.kernel
        # a wrong product inside the elimination: mul feeds only the
        # elimination, the witness product uses dot
        t = FormMatrix(ctx, [[1, 1], [1, 3]], 1)
        assert diagonalize(t).diag == (ctx.one(), ctx.from_int(2))
        with monkeypatch.context() as m:
            mul = k.mul
            m.setattr(k, "mul", lambda x, y: k.add(mul(x, y), k.one))
            with pytest.raises(ValidationError, match="witness failed"):
                diagonalize(t)
        # a wrong diagonal read off an already diagonal form, where no
        # step is taken and the witness is read as t == D
        t = diagonal_rational(ctx, [1, 2, -3])
        assert diagonalize(t).transform == Matrix.identity(ctx, 3)
        with monkeypatch.context() as m:
            wrap = k.wrap
            m.setattr(k, "wrap", lambda x: wrap(k.add(x, k.one)))
            with pytest.raises(ValidationError, match="witness failed"):
                diagonalize(t)


def test_is_isometric_examples():
    # explicit witness: g^T [[0,1],[1,0]] g = diag(1,-1)
    g = Matrix(Q, [[1, 1], [Fraction(1, 2), Fraction(-1, 2)]])
    hyp = FormMatrix(Q, [[0, 1], [1, 0]], 1)
    assert congruence(hyp, g).mat == Matrix.diagonal(
        Q, [Q.one(), -Q.one()])
    assert is_isometric(hyp, diagonal_rational(Q, [1, -1]))

    # 2 = 3^2 mod 7
    assert is_isometric(diagonal_rational(F7, [1]),
                        diagonal_rational(F7, [2]))

    assert not is_isometric(diagonal_rational(Q, [1, 1]),
                            diagonal_rational(Q, [1, -1]))


def test_is_isometric_rejects_degenerate():
    with pytest.raises(DegenerateInput):
        is_isometric(diagonal_rational(Q, [1, 0]),
                     diagonal_rational(Q, [1, 1]))


@pytest.mark.parametrize("ctx", HERM_CTXS, ids=repr)
def test_is_isometric_congruence_invariance(ctx):
    for trial in range(25):
        rng = rng_for(13, trial)
        t = random_hermitian_invertible(ctx, 2, rng, eps=1)
        g = random_invertible(ctx, 2, rng)
        moved = congruence(t, g)
        assert is_isometric(t, moved)
        assert isometry_key(t) == isometry_key(moved)


def test_is_isometric_equivalence_relation_over_q():
    rng = random.Random(77)
    forms = []
    for _ in range(8):
        entries = [Fraction(rng.choice([1, -1, 2, 3, -6])) for _ in range(2)]
        forms.append(diagonal_rational(Q, entries))
    for a in forms:
        assert is_isometric(a, a)
        for b in forms:
            assert is_isometric(a, b) == is_isometric(b, a)
            for c in forms:
                if is_isometric(a, b) and is_isometric(b, c):
                    assert is_isometric(a, c)


def test_radical_split_examples():
    nd, rad = radical_split(diagonal_rational(Q, [1, 0]))
    assert rad == 1 and nd.dim == 1 and nd.mat.rows[0][0] == 1

    nd, rad = radical_split(FormMatrix(Q, Matrix.zeros(Q, 3, 3), 1))
    assert rad == 3 and nd.dim == 0

    # Gram of the three-term sum pairing on (X, Y, X) for the standard
    # rank-1 opposite pair: kernel is 1-dimensional, rest is hyperbolic
    g = Matrix(Q, [[0, Fraction(-1, 2), 0],
                   [Fraction(-1, 2), 0, Fraction(1, 2)],
                   [0, Fraction(1, 2), 0]])
    # brute-force kernel oracle
    assert len(kernel_basis(g)) == 1
    nd, rad = radical_split(FormMatrix(Q, g, 1))
    assert rad == 1
    assert is_isometric(nd, diagonal_rational(Q, [1, -1]))


def test_radical_split_direct_sum_with_zeros():
    base = diagonal_rational(Q, [2, -3])
    padded = direct_sum(base, FormMatrix(Q, Matrix.zeros(Q, 2, 2), 1))
    _, rad = radical_split(padded)
    assert rad >= 2


def test_signature():
    for t, want in [(diagonal_rational(Q, [1, 1, 1, 1]), 4),
                    (diagonal_rational(Q, [1, -2, 3]), 1),
                    (FormMatrix(Q, [[0, 1], [1, 0]], 1), 0)]:
        assert witt_class(t).signature() == want == signature_count(t)


def test_skew_forms_single_class():
    a = FormMatrix(Q, [[0, -1], [1, 0]], -1)
    b = FormMatrix(Q, [[0, -3], [3, 0]], -1)
    assert is_isometric(a, b)
