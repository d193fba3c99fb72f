"""Hyperbolic modules, Lagrangian subspaces, and the triple invariant.

The hyperbolic module of rank n over a context with sign eps carries the
(-eps)-hermitian form with Gram matrix [[0, -eps I], [I, 0]] in the
standard basis.  A triple of pairwise opposite Lagrangians is classified
up to the unitary group by an invertible eps-hermitian n x n matrix,
computed here by moving the first two Lagrangians to the standard pair.
"""

from __future__ import annotations

import itertools

from .errors import (
    NotFound,
    NotHermitian,
    NotOpposite,
    NotPairwiseOpposite,
    SingularInput,
    SpaceMismatch,
    TooLarge,
    ValidationError,
)
from .fields import FieldCtx
from .forms import FormMatrix
from .linalg import Matrix


class HyperbolicSpace:
    """The standard hyperbolic module of rank n over a field context."""

    __slots__ = ("ctx", "n", "gram")

    def __init__(self, ctx: FieldCtx, n: int):
        if n < 1:
            raise ValidationError("rank must be positive")
        self.ctx = ctx
        self.n = n
        eye = Matrix.identity(ctx, n)
        zero = Matrix.zeros(ctx, n, n)
        self.gram = Matrix.block2(
            zero, eye.scale(ctx.from_int(-ctx.epsilon)), eye, zero)

    @property
    def dim(self):
        return 2 * self.n

    def __eq__(self, other):
        return (isinstance(other, HyperbolicSpace)
                and self.ctx == other.ctx and self.n == other.n)

    def __hash__(self):
        return hash((self.ctx, self.n))

    def __repr__(self):
        return f"HyperbolicSpace({self.ctx!r}, n={self.n})"

    def pairing(self, u: Matrix, v: Matrix):
        """h(u, v) for column vectors or blocks of columns."""
        return u.jt() * self.gram * v

    def standard_pair(self):
        eye = Matrix.identity(self.ctx, self.n)
        zero = Matrix.zeros(self.ctx, self.n, self.n)
        top = Matrix(self.ctx, list(eye.rows) + list(zero.rows))
        bot = Matrix(self.ctx, list(zero.rows) + list(eye.rows))
        return Lagrangian(self, top), Lagrangian(self, bot)


class Lagrangian:
    """Half-dimensional totally isotropic subspace, held as a column span."""

    __slots__ = ("space", "basis", "canonical")

    def __init__(self, space: HyperbolicSpace, basis: Matrix):
        n = space.n
        if basis.m != 2 * n or basis.n != n:
            raise ValidationError("Lagrangian basis must be 2n x n")
        if not space.pairing(basis, basis).is_zero():
            raise ValidationError("subspace is not totally isotropic")
        canonical = basis.column_space_canonical()
        if canonical.n != n:
            raise ValidationError("basis does not have full column rank")
        self.space = space
        self.basis = basis
        self.canonical = canonical

    def __eq__(self, other):
        if not isinstance(other, Lagrangian):
            return NotImplemented
        if self.space != other.space:
            return False
        # column spans agree iff the juxtaposition keeps rank n
        return self.basis.hstack(other.basis).rank() == self.space.n

    def __hash__(self):
        return hash((self.space, self.canonical))

    def __repr__(self):
        return f"Lagrangian({self.canonical!r})"


class BasedLagrangian:
    """A Lagrangian with a distinguished ordered basis."""

    __slots__ = ("lagrangian", "basis")

    def __init__(self, lagrangian: Lagrangian, basis: Matrix | None = None):
        n = lagrangian.space.n
        if basis is None:
            basis = lagrangian.canonical
        else:
            if (basis.rank() != n
                    or basis.hstack(lagrangian.basis).rank() != n):
                raise ValidationError("basis does not span the Lagrangian")
        self.lagrangian = lagrangian
        self.basis = basis

    @property
    def space(self):
        return self.lagrangian.space

    def __repr__(self):
        return f"BasedLagrangian({self.basis!r})"


class UnitaryElement:
    """An isometry of the hyperbolic module: g^J h g = h exactly."""

    __slots__ = ("space", "mat")

    def __init__(self, space: HyperbolicSpace, mat: Matrix):
        if mat.m != space.dim or mat.n != space.dim:
            raise ValidationError("unitary matrix has the wrong size")
        if mat.jt() * space.gram * mat != space.gram:
            raise ValidationError("matrix does not preserve the form")
        self.space = space
        self.mat = mat

    def __mul__(self, other):
        if isinstance(other, UnitaryElement):
            if other.space != self.space:
                raise SpaceMismatch("composition across spaces")
            return UnitaryElement(self.space, self.mat * other.mat)
        return NotImplemented

    def inverse(self):
        return UnitaryElement(self.space, self.mat.inverse())

    def __call__(self, x):
        if isinstance(x, Lagrangian):
            return Lagrangian(self.space, self.mat * x.basis)
        if isinstance(x, BasedLagrangian):
            lag = Lagrangian(self.space, self.mat * x.basis)
            return BasedLagrangian(lag, self.mat * x.basis)
        if isinstance(x, Matrix):
            return self.mat * x
        raise ValidationError(f"cannot apply a unitary element to {x!r}")

    def __eq__(self, other):
        if not isinstance(other, UnitaryElement):
            return NotImplemented
        return self.space == other.space and self.mat == other.mat

    def __hash__(self):
        return hash((self.space, self.mat))

    def __repr__(self):
        return f"UnitaryElement({self.mat!r})"


# ---------------------------------------------------------------------------
# Standard elements


def u_t(space: HyperbolicSpace, t) -> UnitaryElement:
    """The translation [[1, t], [0, 1]]; t must be eps-hermitian."""
    ctx = space.ctx
    if isinstance(t, FormMatrix):
        if t.eps != ctx.epsilon:
            raise NotHermitian("translation block has the wrong symmetry")
        tm = t.mat
    else:
        tm = t if isinstance(t, Matrix) else Matrix(ctx, t)
        if tm.jt().scale(ctx.from_int(ctx.epsilon)) != tm:
            raise NotHermitian("translation block must be eps-hermitian")
    eye = Matrix.identity(ctx, space.n)
    zero = Matrix.zeros(ctx, space.n, space.n)
    return UnitaryElement(space, Matrix.block2(eye, tm, zero, eye))


def ell_a(space: HyperbolicSpace, a) -> UnitaryElement:
    """The Levi element [[a^{-J}, 0], [0, a]] for invertible a."""
    ctx = space.ctx
    am = a if isinstance(a, Matrix) else Matrix(ctx, a)
    if not am.is_invertible():
        raise SingularInput("Levi parameter must be invertible")
    zero = Matrix.zeros(ctx, space.n, space.n)
    return UnitaryElement(
        space, Matrix.block2(am.jt().inverse(), zero, zero, am))


def w_element(space: HyperbolicSpace) -> UnitaryElement:
    """The Weyl element [[0, 1], [-eps, 0]]; swaps the standard pair."""
    ctx = space.ctx
    eye = Matrix.identity(ctx, space.n)
    zero = Matrix.zeros(ctx, space.n, space.n)
    return UnitaryElement(
        space,
        Matrix.block2(zero, eye, eye.scale(ctx.from_int(-ctx.epsilon)),
                      zero))


# ---------------------------------------------------------------------------
# Opposition and enumeration


def _check_space(*lags):
    space = lags[0].space
    for lx in lags[1:]:
        if lx.space != space:
            raise SpaceMismatch("Lagrangians from different spaces")
    return space


def is_opposite(x: Lagrangian, y: Lagrangian) -> bool:
    _check_space(x, y)
    return x.basis.hstack(y.basis).is_invertible()


def check_pairwise_opposite(*lags):
    _check_space(*lags)
    for a, b in itertools.combinations(lags, 2):
        if not is_opposite(a, b):
            raise NotPairwiseOpposite("Lagrangians are not pairwise opposite")


def subspaces(ctx: FieldCtx, ambient: int, k: int):
    """All k-dimensional subspaces of ctx^ambient over a finite field,
    yielded as ambient x k basis matrices in reduced echelon position."""
    if not ctx.is_finite:
        raise TooLarge("cannot enumerate subspaces of an infinite field")
    elements = ctx.elements()
    zero, one = ctx.zero(), ctx.one()
    for pivots in itertools.combinations(range(ambient), k):
        free_pos = [
            (r, c)
            for r in range(k)
            for c in range(ambient)
            if c > pivots[r] and c not in pivots
        ]
        for fill in itertools.product(elements, repeat=len(free_pos)):
            rows = [[zero] * ambient for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), v in zip(free_pos, fill):
                rows[r][c] = v
            yield Matrix(ctx, rows).transpose()


def gaussian_binomial(m: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def enumerate_lagrangians(space: HyperbolicSpace, limit: int = 500000):
    """Complete duplicate-free list of the Lagrangians of a finite module."""
    ctx = space.ctx
    if not ctx.is_finite:
        raise TooLarge("Lagrangian enumeration needs a finite field")
    total = gaussian_binomial(space.dim, space.n, ctx.order)
    if total > limit:
        raise TooLarge(f"{total} subspaces exceed the limit {limit}")
    out = []
    for basis in subspaces(ctx, space.dim, space.n):
        if space.pairing(basis, basis).is_zero():
            out.append(Lagrangian(space, basis))
    return out


def common_opposite(lags, rng=None, max_tries: int = 4000) -> Lagrangian:
    """A Lagrangian opposite to every member of the finite collection.

    Over a small finite field the scan is exhaustive; large finite fields
    and infinite fields sample candidates spanning [t; 1] for
    eps-hermitian t (over Q from a growing integer range), which halts
    with probability 1 whenever a graph-type common opposite exists.
    """
    if not lags:
        raise ValidationError("need at least one Lagrangian")
    space = _check_space(*lags)
    ctx = space.ctx
    if ctx.is_finite:
        try:
            candidates = enumerate_lagrangians(space, limit=20000)
        except TooLarge:
            candidates = None
        if candidates is not None:
            for cand in candidates:
                if all(is_opposite(cand, lx) for lx in lags):
                    return cand
            raise NotFound("no common opposite exists")
    import random as _random

    rng = rng if rng is not None else _random.Random(7)
    n = space.n
    eye = Matrix.identity(ctx, n)
    span = 1
    for trial in range(max_tries):
        if trial and trial % 200 == 0:
            span += 1
        raw = Matrix(ctx, [[ctx.random_element(rng, span) for _ in range(n)]
                           for _ in range(n)])
        t = raw + raw.jt().scale(ctx.from_int(ctx.epsilon))
        cand_basis = Matrix(ctx, list(t.rows) + list(eye.rows))
        try:
            cand = Lagrangian(space, cand_basis)
        except ValidationError:
            continue
        if all(is_opposite(cand, lx) for lx in lags):
            return cand
    raise NotFound("sampling failed to find a common opposite")


# ---------------------------------------------------------------------------
# Standardization and the invariant


def standardize_pair(x: Lagrangian, y: Lagrangian) -> UnitaryElement:
    """A unitary g with g(x) = standard X and g(y) = standard Y.

    Built from a basis b of x and the h-dual basis c of y, so that the
    juxtaposition [b | c] has Gram matrix equal to the standard one.
    """
    space = _check_space(x, y)
    b = x.canonical
    s = space.pairing(y.basis, b)
    if not s.is_invertible():
        raise NotOpposite("the Lagrangians are not opposite")
    c = y.basis * s.jt().inverse()
    return UnitaryElement(space, b.hstack(c).inverse())


def kappa(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> FormMatrix:
    """The classifying invariant of a pairwise opposite triple.

    After moving (x, y) to the standard pair, z becomes the graph of an
    invertible eps-hermitian matrix t, returned here; its congruence
    class is independent of all basis choices.
    """
    space = _check_space(x, y, z)
    n = space.n
    try:
        g = standardize_pair(x, y)
    except NotOpposite as exc:
        raise NotPairwiseOpposite(str(exc)) from exc
    w = g.mat * z.basis
    bot = w.row_block(n, 2 * n)
    if not bot.is_invertible():
        raise NotPairwiseOpposite("third Lagrangian is not opposite the first")
    t = w.row_block(0, n) * bot.inverse()
    if not t.is_invertible():
        raise NotPairwiseOpposite(
            "third Lagrangian is not opposite the second")
    return FormMatrix(space.ctx, t, space.ctx.epsilon)


def holonomy(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> Matrix:
    """Matrix of the closed length-3 path around the triple, written in the
    graded frame fixed by standardize_pair(x, y): [[0, -t^{-1}], [t, 0]]."""
    t = kappa(x, y, z).mat
    ctx = x.space.ctx
    n = x.space.n
    zero = Matrix.zeros(ctx, n, n)
    return Matrix.block2(zero, -t.inverse(), t, zero)


def holonomy_reverse(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> Matrix:
    """Matrix of the reversed path in the same frame; the product with
    holonomy(x, y, z) is the identity."""
    t = kappa(x, y, z).mat
    ctx = x.space.ctx
    n = x.space.n
    zero = Matrix.zeros(ctx, n, n)
    return Matrix.block2(zero, t.inverse(), -t, zero)
