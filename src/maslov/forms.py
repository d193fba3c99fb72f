"""Hermitian form matrices: congruence, diagonalization, isometry.

A FormMatrix is a square matrix t with the symmetry t = eps * t^J.  Two
nondegenerate forms are isometric exactly when they have the same
dimension and the same Witt class (Witt cancellation, char != 2), so
isometry reads the one Witt key per field kind kept in ``witt``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    NotHermitian,
    ValidationError,
    WrongSymmetry,
)
from .fields import FieldCtx, check_sign
# legendre stays importable from here: bench/test_bench.py checks that the
# span tracer patches every module that imported it
from .fields import legendre  # noqa: F401
from .linalg import Matrix


class FormMatrix:
    """Square matrix with a claimed eps-hermitian symmetry."""

    __slots__ = ("ctx", "mat", "eps")

    def __init__(self, ctx: FieldCtx, mat, eps: int):
        m = mat if isinstance(mat, Matrix) else Matrix(ctx, mat)
        if m.m != m.n:
            raise DimensionMismatch("form matrix must be square")
        check_sign(eps, "eps")
        herm = m.jt()
        if (herm if eps == 1 else -herm) != m:
            raise NotHermitian(f"matrix is not {eps:+d}-hermitian")
        self.ctx = ctx
        self.mat = m
        self.eps = eps

    @classmethod
    def _of(cls, ctx, mat, eps):
        """Trusted constructor for forms hermitian by construction."""
        out = cls.__new__(cls)
        out.ctx, out.mat, out.eps = ctx, mat, eps
        return out

    @staticmethod
    def diagonal(ctx, entries, eps=1):
        return FormMatrix(ctx, Matrix.diagonal(ctx, entries), eps)

    @property
    def dim(self):
        return self.mat.n

    def neg(self):
        return FormMatrix._of(self.ctx, -self.mat, self.eps)

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (self.ctx, self.eps, self.mat) == (other.ctx, other.eps,
                                                  other.mat)

    def __hash__(self):
        return hash((self.ctx, self.eps, self.mat))

    def __repr__(self):
        return f"FormMatrix(eps={self.eps:+d}, {self.mat!r})"


class Diagonalization(NamedTuple):
    diag: tuple            # nonzero diagonal entries, length = rank
    radical_dim: int
    transform: Matrix      # invertible g with g^J t g = diag (+) 0


def diagonalize(t: FormMatrix) -> Diagonalization:
    """Exact congruence diagonalization of a (+1)-hermitian form.

    Symmetric Gaussian elimination by row operations on [t | I], on the
    raw values of t's entries.  One row update clears each entry under
    a pivot and leaves the Schur complement, hermitian, in the trailing
    block; the right block carries the rows of g^J.  When the remaining
    diagonal vanishes, the usual char != 2 repair, a column+row addition,
    makes a pivot equal to 2.  It and the symmetric swap are the only
    column operations, on the trailing rows.  The first step that moves g
    appends I; while none has, the witness g^J t g = D (+) 0 is read as
    t == D.
    """
    if t.eps != 1:
        raise WrongSymmetry("only +1-hermitian forms are diagonalized")
    ctx, k, n = t.ctx, t.ctx.kernel, t.dim
    zero, add, sub, mul, scale = k.zero, k.add, k.sub, k.mul, k.scale
    a = [list(row) for row in k.entries(t.mat.raw, t.mat.den)]
    rank, wide = n, False
    for c in range(n):
        piv, off = c, None
        while piv < n and a[piv][piv] == zero:
            piv += 1
        if piv == n:
            off = next(((i, j) for i in range(c, n) for j in range(i + 1, n)
                        if a[i][j] != zero), None)
            if off is None:
                rank = c
                break
            piv = off[0]
        if not wide and (off or piv != c
                         or any(r[c] != zero for r in a[c + 1:])):
            wide = True
            for i, r in enumerate(a):
                r += [zero] * n
                r[n + i] = k.one
        if off:
            # congruence by I + e_ji lam: col_i += col_j lam, then
            # row_i += lam^J row_j; makes a[i][i] = 2 exactly (char != 2)
            i, j = off
            lam = k.inv(a[i][j])
            for r in a[c:]:
                r[i] = add(r[i], mul(r[j], lam))
            a[i][c:] = map(add, a[i][c:], scale(a[j][c:], k.conj(lam)))
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            for r in a[c:]:
                r[c], r[piv] = r[piv], r[c]
        # column c of the rows below is never read again: each update
        # starts right of it
        pivot, head, inv = a[c][c], a[c][c + 1:], None
        for i in range(c + 1, n):
            f = a[i][c]
            if f != zero:
                inv = inv or k.inv(pivot)
                a[i][c + 1:] = map(sub, a[i][c + 1:],
                                   scale(head, mul(f, inv)))

    diag = tuple(k.wrap(a[i][i]) for i in range(rank))
    d = Matrix.diagonal(ctx, diag + (k.wrap(zero),) * (n - rank))
    if not wide:
        gm, witness = Matrix.identity(ctx, n), t.mat
    else:
        gj = Matrix._of(ctx, *k.lift(tuple(tuple(r[n:]) for r in a)))
        gm = gj.jt()
        witness = gj * t.mat * gm
    # a singular g proves nothing; a full-rank D already forces g invertible
    if witness != d or (rank < n and not gm.is_invertible()):
        raise ValidationError("diagonalization witness failed")  # safety net
    return Diagonalization(diag, n - rank, gm)


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
    from .witt import _witt_key, witt_class

    ctx, dim = t.ctx, t.dim
    if not ctx.is_finite:
        return dim, witt_class(t)._key()
    det = t.mat.det()
    if not det:
        raise DegenerateInput("isometry key of a degenerate form")
    # the finite keys read only the dimension and the determinant, which
    # <det, 1, ..., 1> shares with t
    return dim, _witt_key(ctx, t.eps, (det,) + (ctx.one(),) * (dim - 1))


def is_isometric(t1: FormMatrix, t2: FormMatrix) -> bool:
    """Decide existence of g with g^J t1 g = t2, by the isometry key."""
    if t1.ctx != t2.ctx or t1.eps != t2.eps:
        raise ValidationError("forms live over different contexts")
    return isometry_key(t1) == isometry_key(t2)
