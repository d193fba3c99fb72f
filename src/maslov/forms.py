"""Hermitian form matrices: congruence, diagonalization, isometry.

A FormMatrix is a square matrix t with the symmetry t = eps * t^J.  Two
nondegenerate forms are isometric exactly when they have the same
dimension and the same Witt class (Witt cancellation, char != 2), so
isometry reads the one Witt key per field kind kept in ``witt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    NotHermitian,
    SingularTransform,
    ValidationError,
    WrongSymmetry,
)
# legendre stays importable from here: bench/test_bench.py checks that the
# span tracer patches every module that imported it
from .fields import FieldCtx, legendre  # noqa: F401
from .linalg import Matrix


class FormMatrix:
    """Square matrix with a claimed eps-hermitian symmetry."""

    __slots__ = ("ctx", "mat", "eps")

    def __init__(self, ctx: FieldCtx, mat, eps: int):
        if isinstance(mat, Matrix):
            m = mat
        else:
            m = Matrix(ctx, mat)
        if m.m != m.n:
            raise DimensionMismatch("form matrix must be square")
        if eps not in (1, -1):
            raise ValidationError("eps must be +1 or -1")
        if m.jt().scale(ctx.from_int(eps)) != m:
            raise NotHermitian(f"matrix is not {eps:+d}-hermitian")
        self.ctx = ctx
        self.mat = m
        self.eps = eps

    @staticmethod
    def diagonal(ctx, entries, eps=1):
        return FormMatrix(ctx, Matrix.diagonal(ctx, list(entries)), eps)

    @staticmethod
    def diagonal_rational(ctx, entries, eps=1):
        return FormMatrix.diagonal(
            ctx, [ctx.from_rational(e) for e in entries], eps)

    @property
    def dim(self):
        return self.mat.n

    def is_nondegenerate(self):
        return bool(self.mat.det())

    def det(self):
        return self.mat.det()

    def direct_sum(self, other):
        if self.ctx != other.ctx or self.eps != other.eps:
            raise ValidationError("direct sum needs matching contexts")
        z1 = Matrix.zeros(self.ctx, self.dim, other.dim)
        z2 = Matrix.zeros(self.ctx, other.dim, self.dim)
        return FormMatrix(
            self.ctx, Matrix.block2(self.mat, z1, z2, other.mat), self.eps)

    def neg(self):
        return FormMatrix(self.ctx, -self.mat, self.eps)

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (self.ctx, self.eps, self.mat) == (other.ctx, other.eps,
                                                  other.mat)

    def __hash__(self):
        return hash((self.ctx, self.eps, self.mat))

    def __repr__(self):
        return f"FormMatrix(eps={self.eps:+d}, {self.mat!r})"


def congruence(t: FormMatrix, g: Matrix) -> FormMatrix:
    """The congruent form g^J t g; preserves the hermitian symmetry."""
    if g.m != t.dim or g.n != t.dim:
        raise DimensionMismatch("transform size does not match the form")
    if not g.is_invertible():
        raise SingularTransform("congruence transform must be invertible")
    return FormMatrix(t.ctx, g.jt() * t.mat * g, t.eps)


@dataclass(frozen=True)
class Diagonalization:
    diag: tuple            # nonzero diagonal entries, length = rank
    radical_dim: int
    transform: Matrix      # invertible g with g^J t g = diag (+) 0


def diagonalize(t: FormMatrix) -> Diagonalization:
    """Exact congruence diagonalization of a (+1)-hermitian form.

    Symmetric Gaussian elimination with the usual char != 2 repair: when
    the remaining diagonal vanishes, a suitable column+row addition makes
    a pivot equal to 2.
    """
    if t.eps != 1:
        raise WrongSymmetry("only +1-hermitian forms are diagonalized")
    ctx = t.ctx
    n = t.dim
    a = [list(row) for row in t.mat.rows]
    g = [list(row) for row in Matrix.identity(ctx, n).rows]
    inv = ctx.involution

    def col_addmul(dest, src, lam):
        # congruence by E = I + e_{src,dest} lam: col_dest += col_src*lam,
        # row_dest += lam^J * row_src
        for i in range(n):
            a[i][dest] = a[i][dest] + a[i][src] * lam
        lj = inv(lam)
        for j in range(n):
            a[dest][j] = a[dest][j] + lj * a[src][j]
        for i in range(n):
            g[i][dest] = g[i][dest] + g[i][src] * lam

    def swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        a[i], a[j] = a[j], a[i]
        for r in g:
            r[i], r[j] = r[j], r[i]

    rank = n
    for k in range(n):
        piv = None
        for j in range(k, n):
            if a[j][j]:
                piv = j
                break
        if piv is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                rank = k
                break
            i, j = off
            # makes a[i][i] = 2 exactly (char != 2)
            col_addmul(i, j, ctx.one() / a[i][j])
            piv = i
        if piv != k:
            swap(piv, k)
        d = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                col_addmul(j, k, -(a[k][j] / d))

    diag = tuple(a[i][i] for i in range(rank))
    gm = Matrix(ctx, g)
    expected = Matrix.diagonal(ctx, list(diag) + [ctx.zero()] * (n - rank))
    if gm.jt() * t.mat * gm != expected:
        raise ValidationError("diagonalization witness failed")  # safety net
    return Diagonalization(diag, n - rank, gm)


def radical_split(t: FormMatrix):
    """The form induced on a complement of the radical, plus radical dim."""
    dg = diagonalize(t)
    nondeg = FormMatrix.diagonal(t.ctx, dg.diag, 1)
    return nondeg, dg.radical_dim


def signature(t: FormMatrix) -> int:
    """Signature of a symmetric form over Q (or of trf over Q(sqrt d))."""
    if t.ctx.kind != "Q":
        raise ValidationError("signature is only defined over Q")
    dg = diagonalize(t)
    return sum(1 if e > 0 else -1 for e in dg.diag)


def _scale_to_hermitian(t: FormMatrix) -> FormMatrix:
    """Replace a skew-hermitian form (J != id) by an equivalent hermitian
    one, multiplying by a trace-zero unit."""
    u = t.ctx.generator()  # u^J = -u
    return FormMatrix(t.ctx, t.mat.scale(u), 1)


def hasse_invariant(entries, place) -> int:
    """Hasse invariant prod_{i<j} (a_i, a_j)_place of a rational diagonal
    form."""
    from .witt import hilbert_symbol

    entries = [Fraction(e) for e in entries]
    out = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            out *= hilbert_symbol(entries[i], entries[j], place)
    return out


def isometry_key(t: FormMatrix):
    """Hashable complete isometry invariant of a nondegenerate form: its
    dimension and Witt key."""
    from .witt import _witt_key

    ctx, eps, dim = t.ctx, t.eps, t.dim
    det = t.det()
    if not det:
        raise DegenerateInput("isometry key of a degenerate form")
    if ctx.is_finite or (eps == -1 and ctx.has_trivial_involution):
        # these keys read only the dimension and the determinant, which
        # <det, 1, ..., 1> shares with t
        entries = (det,) + (ctx.one(),) * (dim - 1)
    else:
        entries = diagonalize(t if eps == 1 else _scale_to_hermitian(t)).diag
    return dim, _witt_key(ctx, eps, entries)


def is_isometric(t1: FormMatrix, t2: FormMatrix) -> bool:
    """Decide existence of g with g^J t1 g = t2, by the isometry key."""
    if t1.ctx != t2.ctx or t1.eps != t2.eps:
        raise ValidationError("forms live over different contexts")
    return isometry_key(t1) == isometry_key(t2)
