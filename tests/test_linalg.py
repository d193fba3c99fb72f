"""Exact matrix operations over each field kind."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from maslov import fields
from maslov.errors import DimensionMismatch, SingularInput, ValidationError
from maslov.fields import FieldCtx, Scalar, is_prime
from maslov.lagrange import HyperbolicSpace
from maslov.linalg import Matrix

from oracles import (
    PairOracle,
    PrimeFieldOracle,
    OperatorOracle,
    STEP_KERNELS,
    field_det,
    field_inverse,
    field_rref,
    involution,
    kernel_basis,
    rank,
    termwise_product,
)

CTXS = [
    FieldCtx("Q"),
    FieldCtx("Fp", p=5),
    FieldCtx("Fp2", p=3),
    FieldCtx("QSqrt", d=-1),
]


def random_matrix(ctx, m, n, rng):
    return Matrix(ctx, [[ctx.random_element(rng, 3) for _ in range(n)]
                        for _ in range(m)])


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_inverse_and_det(ctx):
    rng = random.Random(1)
    found = 0
    while found < 15:
        m = random_matrix(ctx, 3, 3, rng)
        if not m.is_invertible():
            continue
        found += 1
        assert m * m.inverse() == Matrix.identity(ctx, 3)
        assert m.inverse() * m == Matrix.identity(ctx, 3)
        assert m.det() * m.inverse().det() == ctx.one()


def test_singular_inverse_raises():
    ctx = FieldCtx("Q")
    with pytest.raises(SingularInput):
        Matrix(ctx, [[1, 2], [2, 4]]).inverse()


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_rank_and_kernel(ctx):
    rng = random.Random(2)
    for _ in range(15):
        m = random_matrix(ctx, 3, 4, rng)
        k = kernel_basis(m)
        assert rank(m) + len(k) == 4
        for v in k:
            col = Matrix(ctx, [[e] for e in v])
            assert (m * col).is_zero()


@pytest.mark.parametrize("ctx", CTXS, ids=repr)
def test_column_space_canonical_is_span_invariant(ctx):
    rng = random.Random(3)
    for _ in range(15):
        m = random_matrix(ctx, 4, 2, rng)
        if rank(m) != 2:
            continue
        g = random_matrix(ctx, 2, 2, rng)
        if not g.is_invertible():
            continue
        assert (m.column_space_canonical()
                == (m * g).column_space_canonical())


def test_jt_is_antimultiplicative():
    ctx = FieldCtx("QSqrt", d=-1)
    rng = random.Random(4)
    a = random_matrix(ctx, 2, 2, rng)
    b = random_matrix(ctx, 2, 2, rng)
    assert (a * b).jt() == b.jt() * a.jt()


def test_block_assembly():
    ctx = FieldCtx("Q")
    eye = Matrix.identity(ctx, 2)
    zero = Matrix.zeros(ctx, 2, 2)
    h = Matrix.block2(zero, eye.scale(ctx.from_int(-1)), eye, zero)
    assert h.rows[0][2] == -1
    assert h.rows[2][0] == 1
    assert h.det() == 1


# ---------------------------------------------------------------------------
# Matrix kernels against scalar arithmetic: every matrix operation below is
# recomputed entry by entry through scalar operations, which
# tests/test_fields.py checks against plain formulas.

FINITE = [
    FieldCtx("Fp", p=3),
    FieldCtx("Fp", p=5),
    FieldCtx("Fp", p=7),
    FieldCtx("Fp2", p=3),
    FieldCtx("Fp2", p=5),
    FieldCtx("Fp2", p=7),
]


def scalar_rows(ctx, m, n, rng, singular=False):
    rows = [[ctx.random_element(rng) for _ in range(n)] for _ in range(m)]
    if singular:
        # the last row a combination of the others (zero when m = 1)
        c = [ctx.random_element(rng) for _ in range(m - 1)]
        rows[-1] = [sum((ci * r[j] for ci, r in zip(c, rows)), ctx.zero())
                    for j in range(n)]
    return rows


def oracle_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), a[i][0] * 0)
             for j in range(len(b[0]))] for i in range(len(a))]


def oracle_det(a):
    # Leibniz formula: a sum over permutations, with no elimination
    n = len(a)
    total = a[0][0] * 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = a[0][0] * 0 + (-1) ** inversions
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term
    return total


def oracle_inverse(a):
    # adjugate over the determinant
    n = len(a)
    d = oracle_det(a)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != i]
                     for r in range(n) if r != j]
            cof = oracle_det(minor) if minor else a[0][0] * 0 + 1
            out[i][j] = cof * (-1) ** (i + j) / d
    return out


def same(mat, rows):
    return [list(r) for r in mat.rows] == [list(r) for r in rows]


@pytest.mark.parametrize("ctx", FINITE + [FieldCtx("QSqrt", d=-1),
                                         FieldCtx("QSqrt", d=2)], ids=repr)
def test_kernels_match_scalar_arithmetic(ctx):
    rng = random.Random(f"kernel:{ctx.kind}:{ctx.p or ctx.d}")
    size = 4 if ctx.is_finite else 3
    for trial in range(40):
        n = 1 + trial % size
        m = 1 + (trial // size) % size
        singular = trial % 3 == 0
        a_rows = scalar_rows(ctx, n, n, rng, singular)
        b_rows = scalar_rows(ctx, n, m, rng)
        c_rows = scalar_rows(ctx, n, m, rng)
        a, b, c = (Matrix(ctx, r) for r in (a_rows, b_rows, c_rows))
        s = ctx.random_element(rng)
        assert same(a * b, oracle_mul(a_rows, b_rows))
        assert same(b + c, [[x + y for x, y in zip(rb, rc)]
                            for rb, rc in zip(b_rows, c_rows)])
        assert same(b - c, [[x - y for x, y in zip(rb, rc)]
                            for rb, rc in zip(b_rows, c_rows)])
        assert same(-b, [[-x for x in r] for r in b_rows])
        assert same(b.scale(s), [[x * s for x in r] for r in b_rows])
        assert same(b.jt(), [[involution(ctx, b_rows[i][j])
                              for i in range(n)] for j in range(m)])
        d = oracle_det(a_rows)
        assert a.det() == d
        assert a.is_invertible() == bool(d)
        if d:
            assert same(a.inverse(), oracle_inverse(a_rows))
        else:
            with pytest.raises(SingularInput):
                a.inverse()
        for mat, rows in ((a, a_rows), (b, b_rows), (b.jt(), b.jt().rows)):
            red, pivots = mat.rref()
            want, want_pivots = field_rref(OperatorOracle, ctx.zero(), rows)
            assert same(red, want) and pivots == want_pivots


def test_constructor_rejects_entries_of_other_fields():
    f5, f7, f9 = FieldCtx("Fp", p=5), FieldCtx("Fp", p=7), FieldCtx("Fp2", p=3)
    with pytest.raises(ValidationError):
        Matrix(f5, [[f7.from_int(2)]])
    with pytest.raises(ValidationError):
        Matrix(f5, [[f5.one(), f9.generator()]])
    with pytest.raises(ValidationError):
        Matrix(f9, [[f5.one()]])
    with pytest.raises(ValidationError):
        Matrix(FieldCtx("Q"), [[f5.one()]])
    with pytest.raises(ValidationError):
        Matrix(FieldCtx("QSqrt", d=-1), [[FieldCtx("QSqrt", d=2).generator()]])
    # ints and the context's own scalars are accepted
    assert Matrix(f5, [[7, f5.from_int(2)]]) == Matrix(f5, [[2, 2]])
    # equal raw values over different fields are different matrices
    assert Matrix(f5, [[1]]) != Matrix(f7, [[1]])
    assert Matrix(f5, [[1]]) != Matrix(FieldCtx("Q"), [[1]])


@pytest.mark.parametrize("ctx", CTXS + FINITE, ids=repr)
def test_closed_operations_hash_like_public_construction(ctx):
    rng = random.Random(5)
    hashes = set()
    for _ in range(10):
        a = random_matrix(ctx, 3, 3, rng)
        b = random_matrix(ctx, 3, 3, rng)
        built = [a * Matrix.identity(ctx, 3), (a + b) - b, -(-a),
                 a.transpose().transpose(), a.jt().jt(),
                 a.scale(ctx.one()),
                 a.row_block(0, 1).vstack(a.row_block(1, 3)),
                 Matrix.block2(a, b, b, a).row_block(0, 3)
                 .hstack(Matrix.zeros(ctx, 3, 0)) * Matrix(
                     ctx, [[1 if i == j else 0 for j in range(3)]
                           for i in range(6)])]
        public = Matrix(ctx, [list(r) for r in a.rows])
        for mat in built:
            assert mat == public and public == mat
            assert hash(mat) == hash(public)
        hashes.add(hash(public))
    assert len(hashes) > 1


@pytest.mark.parametrize("ctx", [
    FieldCtx("Q"), FieldCtx("Q", epsilon=-1),
    FieldCtx("Fp", p=5), FieldCtx("Fp", p=5, epsilon=-1),
    FieldCtx("Fp2", p=3), FieldCtx("Fp2", p=3, epsilon=-1),
    FieldCtx("QSqrt", d=-1), FieldCtx("QSqrt", d=-1, epsilon=-1),
], ids=repr)
def test_pairing_is_the_gram_product(ctx):
    rng = random.Random(6)
    for n in (1, 2, 3):
        space = HyperbolicSpace(ctx, n)
        for k in (1, n, 2):
            u = random_matrix(ctx, 2 * n, k, rng)
            v = random_matrix(ctx, 2 * n, n, rng)
            assert space.pairing(u, v) == u.jt() * space.gram * v
        with pytest.raises(DimensionMismatch):
            space.pairing(u, random_matrix(ctx, 2 * n + 1, n, rng))


# Matrix products against the term-by-term product of tests/oracles.py, on
# the entries.  Over Q and Q(sqrt(d)) a matrix holds its rows over the lcm
# of its entries' denominators; the entries below have 70-bit numerators
# and pairwise coprime 70-bit prime denominators within a row (or a
# column), so that lcm and the product's content gcd are as large as they
# get.  Half of the trials take small shared denominators instead.

SHAPES = [(k, k, k) for k in range(1, 7)] + [
    (2, 5, 3), (5, 2, 4), (6, 1, 4), (1, 6, 1), (3, 4, 6), (4, 6, 2)]


def prime_denominators(rng, count):
    out = set()
    while len(out) < count:
        q = rng.getrandbits(70) | 1 << 69 | 1
        while not is_prime(q):
            q += 2
        out.add(q)
    return list(out)


def rational_vector(rng, length, wide):
    # Fractions with 70-bit numerators over coprime denominators (wide),
    # or over denominators 1 to 6; some zeros and integers among them
    dens = (prime_denominators(rng, length) if wide
            else [rng.randint(1, 6) for _ in range(length)])
    out = []
    for den in dens:
        pick = rng.random()
        num = rng.randrange(-(1 << 70), 1 << 70)
        out.append(Fraction(0) if pick < 0.1 else Fraction(num) if pick < 0.2
                   else Fraction(num, den))
    return out


def raw_matrix(ctx, rng, m, n, wide, by_columns):
    if ctx.kind == "Q":
        rows = [rational_vector(rng, m if by_columns else n, wide)
                for _ in range(n if by_columns else m)]
    elif ctx.kind == "QSqrt":
        # real and sqrt(d) parts of a row share its denominators
        rows = []
        for _ in range(n if by_columns else m):
            v = rational_vector(rng, 2 * (m if by_columns else n), wide)
            rows.append(list(zip(v[::2], v[1::2])))
    else:
        return tuple(tuple(ctx.random_element(rng).raw for _ in range(n))
                     for _ in range(m))
    return tuple(zip(*rows)) if by_columns else tuple(map(tuple, rows))


def oracle_ops(ctx):
    if ctx.kind == "Q":
        return operator.add, operator.mul, Fraction(0)
    if ctx.kind == "Fp":
        o, zero = PrimeFieldOracle(ctx.p), 0
    elif ctx.kind == "Fp2":
        o, zero = PairOracle(ctx.kernel.nu, ctx.p), (0, 0)
    else:
        o, zero = PairOracle(ctx.d), (Fraction(0), Fraction(0))
    return o.add, o.mul, zero


@pytest.mark.parametrize("ctx", [
    FieldCtx("Q"), FieldCtx("QSqrt", d=-1), FieldCtx("QSqrt", d=2),
    FieldCtx("QSqrt", d=-3), FieldCtx("Fp", p=5), FieldCtx("Fp2", p=3),
], ids=repr)
def test_products_match_the_termwise_product(ctx):
    rng = random.Random(f"matmul:{ctx!r}")
    add, mul, zero = oracle_ops(ctx)
    for trial, (m, k, n) in enumerate(SHAPES * 4):
        wide = trial // len(SHAPES) % 2 == 0
        a_rows = raw_matrix(ctx, rng, m, k, wide, False)
        b_rows = raw_matrix(ctx, rng, k, n, wide, True)
        a, b = (Matrix._of(ctx, *ctx.kernel.lift(r))
                for r in (a_rows, b_rows))
        got = raw_of((a * b).rows)
        assert got == termwise_product(a_rows, b_rows, add, mul, zero)
        assert (len(got), len(got[0])) == (m, n)


# Every kernel's det, inverse and rref against elimination with field
# division (tests/oracles.py): equal determinants, inverses, reduced forms
# and pivots, and SingularInput on the same inputs.  Square matrices of
# sizes 0 to 6 come random, singular (the last row a combination of the
# others) or needing a row swap at every step (an upper triangular matrix
# with its first row moved last); non-square ones go to rref.  Over Q and
# Q(sqrt(d)), which eliminate fraction-free, a fifth of the square matrices
# of size at most 4 have 200-bit numerators and denominators, and in
# Q(sqrt(5)), d = 1 (mod 4), so Z[sqrt(d)] is not the ring of integers and
# the exact division has to stay in Z[sqrt(d)].  Over F_p and F_{p^2} the
# oracle computes on the field's Scalars, with Python's operators.

RATIONAL_CTXS = [FieldCtx("Q")] + [FieldCtx("QSqrt", d=d)
                                   for d in (2, -1, -5, 5)]
ELIMINATION_CTXS = RATIONAL_CTXS + [
    FieldCtx("Fp", p=3), FieldCtx("Fp", p=5), FieldCtx("Fp2", p=3),
    FieldCtx("Fp2", p=5)]
RREF_SHAPES = [(1, 3), (3, 1), (2, 5), (5, 2), (4, 6), (6, 3), (3, 0),
               (0, 0)]


def elimination_inputs(ctx, rng):
    add, mul, zero = oracle_ops(ctx)

    def rational(bits):
        if rng.random() < 0.2:
            return Fraction(0)
        if bits:
            return Fraction(rng.getrandbits(bits) - (1 << bits - 1),
                            rng.getrandbits(bits) | 1)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def entry(bits=0):
        if ctx.is_finite:
            return zero if rng.random() < 0.2 else ctx.random_element(rng).raw
        return rational(bits) if ctx.kind == "Q" else (rational(bits),
                                                       rational(bits))

    def nonzero(bits):
        while (x := entry(bits)) == zero:
            pass
        return x

    square = []
    for trial in range(105):
        n, kind = trial % 7, trial // 7 % 3
        bits = 200 if trial % 5 == 4 and n <= 4 else 0
        a = [[entry(bits) for _ in range(n)] for _ in range(n)]
        if kind == 1 and n:
            coeffs = [entry() for _ in range(n - 1)]
            a[-1] = [functools.reduce(add, (mul(c, r[j]) for c, r
                                            in zip(coeffs, a)), zero)
                     for j in range(n)]
        elif kind == 2 and n:
            a = [[zero if j < i else nonzero(bits) if j == i else entry(bits)
                  for j in range(n)] for i in range(n)]
            a = a[1:] + a[:1]
        square.append(tuple(map(tuple, a)))
    other = [tuple(tuple(entry(200 if i % 2 else 0) for _ in range(n))
                   for _ in range(m)) for i, (m, n) in enumerate(RREF_SHAPES)]
    return square, other


def only(leaf, value):
    if isinstance(value, (tuple, list)):
        return all(only(leaf, v) for v in value)
    return type(value) is leaf


def raw_of(value):
    # an oracle's result with each Scalar replaced by its raw value
    if isinstance(value, (tuple, list)):
        return type(value)(map(raw_of, value))
    return value.raw if isinstance(value, Scalar) else value


@pytest.mark.parametrize("ctx", ELIMINATION_CTXS, ids=repr)
def test_fraction_free_elimination_matches_field_division(ctx):
    k = ctx.kernel
    if ctx.kind == "QSqrt":
        ops, zero, one = PairOracle(ctx.d), k.zero, k.one
    else:
        ops, zero, one = OperatorOracle, ctx.zero(), ctx.one()
    leaf = int if ctx.is_finite else Fraction

    def scalars(a):
        # PairOracle computes on raw pairs
        if ctx.kind == "QSqrt":
            return a
        return tuple(tuple(map(k.wrap, r)) for r in a)

    rng = random.Random(f"bareiss:{ctx!r}")
    square, other = elimination_inputs(ctx, rng)
    singular = 0
    for a in square:
        det = k.det(a)
        assert det == raw_of(field_det(ops, zero, one, scalars(a)))
        assert only(leaf, det)
        if det == k.zero:
            singular += 1
            with pytest.raises(SingularInput):
                field_inverse(ops, zero, one, scalars(a))
            with pytest.raises(SingularInput):
                k.inverse(a)
        else:
            inv = k.inverse(a)
            assert inv == raw_of(field_inverse(ops, zero, one, scalars(a)))
            assert only(leaf, inv)
    for a in square + other:
        red = k.rref(a)
        assert red == raw_of(field_rref(ops, zero, scalars(a)))
        assert only(leaf, red[0])
    # the singular inputs, and the zero rows among the random ones
    assert 30 <= singular < len(square)


@pytest.mark.parametrize("kind", sorted(STEP_KERNELS))
def test_elimination_makes_one_row_step_per_entry_it_clears(kind,
                                                            monkeypatch):
    # a forward pass clears the n(n-1)/2 entries under the diagonal and
    # Gauss-Jordan the n(n-1) off it, one row step (axpy over F_p and
    # F_{p^2}, the Bareiss step over Q and Q(sqrt(d))) each
    make, entry = STEP_KERNELS[kind]
    k = make()
    steps = 0

    def counted(step):
        def wrapper(*args):
            nonlocal steps
            steps += 1
            return step(*args)
        return wrapper

    if kind.startswith("Fp"):
        monkeypatch.setattr(k, "axpy", counted(k.axpy))
    else:
        make_step = k._step
        monkeypatch.setattr(k, "_step",
                            lambda p, prev: counted(make_step(p, prev)))
    rng = random.Random(f"steps:{kind}")
    for n in range(2, 6):
        a = tuple(tuple(entry(rng) for _ in range(n)) for _ in range(n))
        steps = 0
        assert k.det(a) != k.zero
        assert steps == n * (n - 1) // 2
        steps = 0
        k.inverse(a)
        assert steps == n * (n - 1)


# ---------------------------------------------------------------------------
# The representation over Q and Q(sqrt(d)): a matrix is int rows (pairs in
# Z[sqrt(d)]) over one int den, normal: den > 0 and prime to the content, so
# a zero matrix has den 1.  Equality and hashing are then structural.  A
# seeded chain of operations on operands over different dens keeps the
# normal form, every result agrees with the same operation on scalars, and
# two routes to one matrix give equal, equally hashed matrices.

CHAIN_CTXS = [FieldCtx("Q")] + [FieldCtx("QSqrt", d=d) for d in (-1, 2, -3)]
CHAIN_OPS = ("mul", "add", "sub", "scale", "stack", "jt", "inverse", "rref")


def assert_normal(m):
    ints = [x for r in m.raw for e in r
            for x in (e if m.ctx.kind == "QSqrt" else (e,))]
    assert all(type(x) is int for x in ints)
    assert type(m.den) is int and m.den > 0
    assert math.gcd(m.den, *ints) == 1
    assert m.den == 1 or not m.is_zero()


def assert_equal_routes(x, y):
    assert_normal(x)
    assert_normal(y)
    assert x == y and y == x
    assert hash(x) == hash(y)


def chain_operand(ctx, rng, n, den):
    # entries over divisors of den, so that operands' dens differ
    divisors = [q for q in range(1, den + 1) if den % q == 0]

    def rational():
        return Fraction(rng.randint(-6, 6), rng.choice(divisors))

    if ctx.kind == "Q":
        return [[rational() for _ in range(n)] for _ in range(n)]
    return [[ctx.kernel.wrap((rational(), rational())) for _ in range(n)]
            for _ in range(n)]


@pytest.mark.parametrize("ctx", CHAIN_CTXS, ids=repr)
def test_operation_chain_keeps_the_normal_form(ctx):
    rng = random.Random(f"chain:{ctx!r}")
    n = 3
    pool = [(Matrix(ctx, r), r) for r in
            (chain_operand(ctx, rng, n, den) for den in (1, 2, 6, 35, 12))]
    for m, _ in pool:
        assert_normal(m)
    for step in range(48):
        op = CHAIN_OPS[step % len(CHAIN_OPS)]
        (a, ar), (b, br), (c, cr) = rng.sample(pool, 3)
        if op == "mul":
            got, want = a * b, oracle_mul(ar, br)
            assert_equal_routes(got * c, a * (b * c))
        elif op in ("add", "sub"):
            f = operator.add if op == "add" else operator.sub
            got = a + b if op == "add" else a - b
            want = [list(map(f, ra, rb)) for ra, rb in zip(ar, br)]
            assert_equal_routes(got - b if op == "add" else got + b, a)
            assert_equal_routes(a - a, Matrix.zeros(ctx, n, n))
        elif op == "scale":
            s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                         rng.randint(1, 12))
            got, want = a.scale(s), [[x * s for x in r] for r in ar]
            assert_equal_routes(got.scale(1 / s), a)
            assert_equal_routes(a.scale(0), Matrix.zeros(ctx, n, n))
        elif op == "stack":
            wide, tall = a.hstack(b), b.vstack(c)
            assert same(wide, [ra + rb for ra, rb in zip(ar, br)])
            assert same(tall, br + cr)
            assert_equal_routes(tall.row_block(n, 2 * n), c)
            assert_equal_routes(wide.transpose(),
                                a.transpose().vstack(b.transpose()))
            got, want = wide * tall, oracle_mul(
                [ra + rb for ra, rb in zip(ar, br)], br + cr)
        elif op == "jt":
            got = a.jt()
            want = [[involution(ctx, ar[i][j]) for i in range(n)]
                    for j in range(n)]
            assert_equal_routes(got.jt(), a)
        elif op == "inverse":
            if not a.is_invertible():
                continue
            got, want = a.inverse(), oracle_inverse(ar)
            assert_equal_routes(got * a, Matrix.identity(ctx, n))
        else:
            got, pivots = a.rref()
            want, want_pivots = field_rref(OperatorOracle, ctx.zero(), ar)
            assert pivots == want_pivots
        assert same(got, want)
        assert_equal_routes(Matrix(ctx, got.rows), got)
        pool.append((got, [list(r) for r in got.rows]))
    # equal entries if and only if equal matrices, over the whole pool
    for (x, _), (y, _) in itertools.combinations(pool, 2):
        assert (x.rows == y.rows) == (x == y)


@pytest.mark.parametrize("ctx", [FieldCtx("Q"), FieldCtx("QSqrt", d=-1)],
                         ids=repr)
def test_closed_operations_construct_no_fraction(ctx, monkeypatch):
    # products, sums, stacks, inverses and reduced forms compute on the
    # stored int rows; det makes one Fraction per rational coordinate of the
    # scalar it returns: one over Q, two over Q(sqrt(d))
    rng = random.Random(f"no fraction:{ctx!r}")
    while True:
        a, b, c = (Matrix(ctx, chain_operand(ctx, rng, 3, 6)).jt()
                   for _ in range(3))
        if a.is_invertible() and b.is_invertible() and c.is_invertible():
            break
    made = 0

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(fields, "Fraction", Counting)
    product = a * b * c
    assert made == 0
    product.inverse()
    product.hstack(a).vstack(b.hstack(c)).rref()
    (product + a - b).jt().row_block(0, 2)
    assert made == 0
    product.det()
    assert made == (1 if ctx.kind == "Q" else 2)
    product.det()
    assert made == (1 if ctx.kind == "Q" else 2)
