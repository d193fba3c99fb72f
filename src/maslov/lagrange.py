"""Hyperbolic modules, Lagrangian subspaces, and the triple invariant.

The hyperbolic module of rank n over a context with sign eps carries the
(-eps)-hermitian form with Gram matrix [[0, -eps I], [I, 0]] in the
standard basis.  A triple of pairwise opposite Lagrangians is classified
up to the unitary group by an invertible eps-hermitian n x n matrix,
computed here by moving the first two Lagrangians to the standard pair.

The constructors of Lagrangian and UnitaryElement check their input;
closed operations, whose results hold by construction, use ``_of``.
"""

from __future__ import annotations

import itertools

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPairwiseOpposite,
    SingularInput,
    SpaceMismatch,
    TooLarge,
    ValidationError,
)
from .fields import FieldCtx
from .forms import FormMatrix
from .linalg import Matrix

# the most subspaces enumerate_lagrangians counts before it refuses
LAGRANGIAN_LIMIT = 500000


class HyperbolicSpace:
    """The standard hyperbolic module of rank n over a field context."""

    __slots__ = ("ctx", "n", "_gram")

    def __init__(self, ctx: FieldCtx, n: int):
        if type(n) is not int:
            raise ValidationError("rank must be an integer")
        if n < 1:
            raise ValidationError("rank must be positive")
        self.ctx = ctx
        self.n = n
        self._gram = None

    @property
    def gram(self):
        """[[0, -eps I], [I, 0]], built on first use: a module of huge rank
        is refused by its commands' own checks before it is needed."""
        if self._gram is None:
            self._gram = self.covector(Matrix.identity(self.ctx, self.dim))
        return self._gram

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

    def covector(self, u: Matrix):
        """u^J G, the rows of h(u, .): the column shuffle
        [u_2^J | -eps u_1^J] of the halves of u.  This is the one place
        that writes out the block layout of G."""
        n = self.n
        if u.m != 2 * n:
            raise DimensionMismatch("pairing needs vectors of length 2n")
        right = u.row_block(0, n).jt()
        if self.ctx.epsilon == 1:
            right = -right
        return u.row_block(n, 2 * n).jt().hstack(right)

    def pairing(self, u: Matrix, v: Matrix):
        """h(u, v) = u^J G v for column vectors or blocks of columns."""
        return self.covector(u) * v

    def standard_pair(self):
        eye = Matrix.identity(self.ctx, self.n)
        zero = Matrix.zeros(self.ctx, self.n, self.n)
        return (Lagrangian._of(self, eye.vstack(zero)),
                Lagrangian._of(self, zero.vstack(eye)))


class Lagrangian:
    """Half-dimensional totally isotropic subspace, held as a column span."""

    __slots__ = ("space", "basis", "_canonical")

    def __init__(self, space: HyperbolicSpace, basis: Matrix):
        n = space.n
        if basis.m != 2 * n or basis.n != n:
            raise ValidationError("Lagrangian basis must be 2n x n")
        if not space.pairing(basis, basis).is_zero():
            raise ValidationError("subspace is not totally isotropic")
        self.space, self.basis, self._canonical = space, basis, None
        if self.canonical.n != n:
            raise ValidationError("basis does not have full column rank")

    @classmethod
    def _of(cls, space, basis):
        out = cls.__new__(cls)
        out.space, out.basis, out._canonical = space, basis, None
        return out

    @property
    def canonical(self):
        """The reduced column echelon basis, computed once."""
        if self._canonical is None:
            self._canonical = self.basis.column_space_canonical()
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, Lagrangian):
            return NotImplemented
        return self.space == other.space and self.canonical == other.canonical

    def __hash__(self):
        return hash((self.space, self.canonical))

    def __repr__(self):
        return f"Lagrangian({self.canonical!r})"


class UnitaryElement:
    """An isometry of the hyperbolic module: g^J h g = h exactly."""

    __slots__ = ("space", "mat")

    def __init__(self, space: HyperbolicSpace, mat: Matrix):
        if mat.m != space.dim or mat.n != space.dim:
            raise ValidationError("unitary matrix has the wrong size")
        if space.pairing(mat, mat) != space.gram:
            raise ValidationError("matrix does not preserve the form")
        self.space = space
        self.mat = mat

    @classmethod
    def _of(cls, space, mat):
        out = cls.__new__(cls)
        out.space, out.mat = space, mat
        return out

    def __mul__(self, other):
        if isinstance(other, UnitaryElement):
            if other.space != self.space:
                raise SpaceMismatch("composition across spaces")
            return UnitaryElement._of(self.space, self.mat * other.mat)
        return NotImplemented

    def __call__(self, x):
        if isinstance(x, Lagrangian):
            if x.space != self.space:
                raise SpaceMismatch("Lagrangian from another space")
            return Lagrangian._of(self.space, self.mat * x.basis)
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
    if not isinstance(t, FormMatrix):
        t = FormMatrix(ctx, t, ctx.epsilon)
    elif t.eps != ctx.epsilon:
        raise NotHermitian("translation block has the wrong symmetry")
    eye = Matrix.identity(ctx, space.n)
    zero = Matrix.zeros(ctx, space.n, space.n)
    return UnitaryElement._of(space, Matrix.block2(eye, t.mat, zero, eye))


def ell_a(space: HyperbolicSpace, a) -> UnitaryElement:
    """The Levi element [[a^{-J}, 0], [0, a]] for invertible a."""
    ctx = space.ctx
    am = a if isinstance(a, Matrix) else Matrix(ctx, a)
    try:
        a_inv_j = am.jt().inverse()
    except SingularInput as exc:
        raise SingularInput("Levi parameter must be invertible") from exc
    zero = Matrix.zeros(ctx, space.n, space.n)
    return UnitaryElement._of(space, Matrix.block2(a_inv_j, zero, zero, am))


def w_element(space: HyperbolicSpace, coords=None) -> UnitaryElement:
    """The Weyl element on the coordinates coords, all by default: e_i ->
    -eps f_i and f_i -> e_i for i in coords.  On all of them it is
    [[0, 1], [-eps, 0]] = -eps G and swaps the standard pair."""
    ctx, n = space.ctx, space.n
    on = range(n) if coords is None else coords
    s = Matrix.diagonal(ctx, [int(i in on) for i in range(n)])
    rest = Matrix.identity(ctx, n) - s
    return UnitaryElement._of(space,
                              Matrix.block2(rest, s, s * -ctx.epsilon, rest))


# ---------------------------------------------------------------------------
# Opposition and enumeration


def _check_space(*lags):
    space = lags[0].space
    for lx in lags[1:]:
        if lx.space != space:
            raise SpaceMismatch("Lagrangians from different spaces")
    return space


def is_opposite(x: Lagrangian, y: Lagrangian) -> bool:
    """x and y meet in 0.  Each Lagrangian is its own orthogonal, so this
    holds exactly when the pairing h(y, x) is nondegenerate."""
    space = _check_space(x, y)
    return space.pairing(y.basis, x.basis).is_invertible()


def gaussian_binomial(m: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def _hermitian_additive_basis(ctx, n):
    """The nonzero e + eps e^J, e = v E_ij, i <= j, v = 1 or a unit with
    v^J = -v: over the prime field, a basis of the eps-hermitian n x n
    block."""
    values = [ctx.one()]
    if not ctx.has_trivial_involution:
        values.append(ctx.generator())
    units = [Matrix(ctx, [[v if (r, c) == (i, j) else ctx.zero()
                           for c in range(n)] for r in range(n)])
             for i in range(n) for j in range(i, n) for v in values]
    eps = ctx.from_int(ctx.epsilon)
    return [m for m in (e + e.jt().scale(eps) for e in units)
            if not m.is_zero()]


def enumerate_lagrangians(space: HyperbolicSpace):
    """Complete duplicate-free list of the Lagrangians of a finite module,
    sorted by pivot rows and then entries of their canonical bases.

    Each is opposite a coordinate Lagrangian w_S X (Arnold's lemma), so it
    is w_S [t; 1] for a set S of coordinates and an eps-hermitian t."""
    ctx, n, limit = space.ctx, space.n, LAGRANGIAN_LIMIT
    if not ctx.is_finite:
        raise TooLarge("Lagrangian enumeration needs a finite field")
    # there are at least q^(n^2) > 2^(n^2) subspaces: refuse a rank whose
    # exact count would itself be too large to compute
    if n * n >= limit.bit_length():
        raise TooLarge(f"over 2^{n * n} subspaces exceed the limit {limit}")
    total = gaussian_binomial(space.dim, n, ctx.order)
    if total > limit:
        raise TooLarge(f"{total} subspaces exceed the limit {limit}")
    basis = _hermitian_additive_basis(ctx, n)
    graphs = [sum(map(Matrix.scale, basis, coefs), Matrix.zeros(ctx, n, n))
              .vstack(Matrix.identity(ctx, n))
              for coefs in itertools.product(range(ctx.p),
                                             repeat=len(basis))]
    weyl = [w_element(space, coords).mat for k in range(n + 1)
            for coords in itertools.combinations(range(n), k)]
    found = {(w * g).column_space_canonical() for w in weyl for g in graphs}
    return [Lagrangian._of(space, c) for c in sorted(found, key=lambda c: (
        [col.index(ctx.kernel.one) for col in zip(*c.raw)],
        c.transpose().raw))]


# ---------------------------------------------------------------------------
# Standardization and the invariant


class PairFrame:
    """Coordinates relative to an opposite pair (x, y); building one
    decides whether x and y are opposite, and kappa decides the third.

    With b the canonical basis of x and c the basis of y h-dual to it
    (h(c, b) = 1), the frame F = [b | c] has the standard Gram matrix G.
    So F^{-1} needs no elimination: its row blocks are the coordinate
    maps top = h(c, .) = c^J G and bot = -eps h(b, .) = -eps b^J G.
    """

    __slots__ = ("space", "top", "bot")

    def __init__(self, x: Lagrangian, y: Lagrangian):
        space = _check_space(x, y)
        b = x.canonical
        try:
            c = y.basis * space.pairing(y.basis, b).jt().inverse()
        except SingularInput as exc:
            raise NotPairwiseOpposite(
                "the Lagrangians are not opposite") from exc
        self.space = space
        self.top = space.covector(c)
        self.bot = space.covector(-b if space.ctx.epsilon == 1 else b)

    def kappa(self, z: Lagrangian) -> FormMatrix:
        """The invariant t of (x, y, z): z in this frame is the graph of t."""
        if z.space != self.space:
            raise SpaceMismatch("Lagrangians from different spaces")
        try:
            inv = (self.bot * z.basis).inverse()
        except SingularInput as exc:
            raise NotPairwiseOpposite(
                "third Lagrangian is not opposite the first") from exc
        # the determinant is cached on t, so isometry_key reuses it
        t = self.top * z.basis * inv
        if not t.is_invertible():
            raise NotPairwiseOpposite(
                "third Lagrangian is not opposite the second")
        return FormMatrix._of(self.space.ctx, t, self.space.ctx.epsilon)


def standardize_pair(x: Lagrangian, y: Lagrangian) -> UnitaryElement:
    """A unitary g with g(x) = standard X and g(y) = standard Y: the
    inverse of the frame of the pair."""
    frame = PairFrame(x, y)
    return UnitaryElement._of(frame.space, frame.top.vstack(frame.bot))


def kappa(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> FormMatrix:
    """The classifying invariant of a pairwise opposite triple.

    After moving (x, y) to the standard pair, z becomes the graph of an
    invertible eps-hermitian matrix t, returned here; its congruence
    class is independent of all basis choices.
    """
    return PairFrame(x, y).kappa(z)
