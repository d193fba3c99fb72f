"""Dense exact matrices over a FieldCtx.

Everything is immutable; all eliminations use exact field division, so
ranks, kernels and inverses are never approximate.  A matrix holds the
raw values of its context's arithmetic kernel (``FieldCtx.kernel``) and
computes on them; scalars appear only at the boundary (``Matrix(ctx,
rows)``, ``rows`` and ``det``).
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularInput, ValidationError
from .fields import FieldCtx


def _gauss_jordan(k, a):
    """Bring the list of raw rows a to reduced row echelon form in place,
    with kernel k; returns the pivot columns."""
    m = len(a)
    n = len(a[0]) if a else 0
    zero = k.zero
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = k.scale(a[r], k.inv(a[r][c]))
        for i in range(m):
            if i != r and a[i][c] != zero:
                a[i] = k.axpy(a[i], a[i][c], a[r])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


class Matrix:
    __slots__ = ("ctx", "raw", "m", "n", "_det")

    def __init__(self, ctx: FieldCtx, rows):
        raw = tuple(tuple(map(ctx.kernel.unwrap, r)) for r in rows)
        if raw and any(len(r) != len(raw[0]) for r in raw):
            raise ValidationError("ragged matrix")
        self.ctx, self.raw, self._det = ctx, raw, None
        self.m, self.n = len(raw), len(raw[0]) if raw else 0

    @classmethod
    def _of(cls, ctx, raw):
        """Trusted constructor for closed operations: raw is a tuple of
        equal-length rows of ctx's raw values, taken as it is."""
        out = cls.__new__(cls)
        out.ctx, out.raw, out._det = ctx, raw, None
        out.m, out.n = len(raw), len(raw[0]) if raw else 0
        return out

    @property
    def rows(self):
        """The entries as scalars, row by row."""
        wrap = self.ctx.kernel.wrap
        return tuple(tuple(map(wrap, r)) for r in self.raw)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(ctx, n):
        return Matrix._diagonal(ctx, (ctx.kernel.one,) * n)

    @staticmethod
    def zeros(ctx, m, n):
        return Matrix._of(ctx, ((ctx.kernel.zero,) * n,) * m)

    @staticmethod
    def diagonal(ctx, entries):
        return Matrix._diagonal(ctx, tuple(map(ctx.kernel.unwrap, entries)))

    @classmethod
    def _diagonal(cls, ctx, raw):
        """The diagonal matrix of the raw values raw."""
        z, n = (ctx.kernel.zero,), len(raw)
        return cls._of(ctx, tuple(z * i + (e,) + z * (n - 1 - i)
                                  for i, e in enumerate(raw)))

    @staticmethod
    def block2(a, b, c, d):
        """Assemble [[a, b], [c, d]] from four compatible blocks."""
        if a.m != b.m or c.m != d.m or a.n != c.n or b.n != d.n:
            raise DimensionMismatch("incompatible blocks")
        return a.hstack(b).vstack(c.hstack(d))

    def hstack(self, other):
        if self.m != other.m:
            raise DimensionMismatch("hstack rows differ")
        return Matrix._of(self.ctx, tuple(ra + rb for ra, rb
                                          in zip(self.raw, other.raw)))

    def vstack(self, other):
        if self.n != other.n:
            raise DimensionMismatch("vstack columns differ")
        return Matrix._of(self.ctx, self.raw + other.raw)

    def row_block(self, i, j):
        """Rows i to j - 1."""
        return Matrix._of(self.ctx, self.raw[i:j])

    # -- arithmetic -----------------------------------------------------

    def _entrywise(self, op, other):
        if self.m != other.m or self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        return Matrix._of(self.ctx, tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(self.raw, other.raw)))

    def __add__(self, other):
        return self._entrywise(self.ctx.kernel.add, other)

    def __sub__(self, other):
        return self._entrywise(self.ctx.kernel.sub, other)

    def __neg__(self):
        neg = self.ctx.kernel.neg
        return Matrix._of(self.ctx, tuple(tuple(map(neg, r))
                                          for r in self.raw))

    def scale(self, c):
        k = self.ctx.kernel
        c = k.unwrap(c)
        return Matrix._of(self.ctx, tuple(tuple(k.scale(r, c))
                                          for r in self.raw))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.n != other.m:
            raise DimensionMismatch(
                f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        return Matrix._of(self.ctx,
                          self.ctx.kernel.matmul(self.raw, other.raw))

    def transpose(self):
        return Matrix._of(self.ctx, tuple(zip(*self.raw)))

    def jt(self):
        """Conjugate transpose: transpose with the involution applied."""
        conj = self.ctx.kernel.conj
        return Matrix._of(self.ctx, tuple(tuple(map(conj, r))
                                          for r in zip(*self.raw)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.raw == other.raw and (self.ctx is other.ctx
                                          or self.ctx == other.ctx)

    def __hash__(self):
        return hash(self.raw)

    def is_zero(self):
        return self.raw == ((self.ctx.kernel.zero,) * self.n,) * self.m

    def __repr__(self):
        body = "; ".join(" ".join(repr(a) for a in r) for r in self.rows)
        return f"[{body}]"

    # -- eliminations ---------------------------------------------------

    def det(self):
        """The determinant, computed once per matrix."""
        if self._det is None:
            self._det = self.ctx.kernel.wrap(self._eliminate_det())
        return self._det

    def _eliminate_det(self):
        if self.m != self.n:
            raise DimensionMismatch("determinant of a non-square matrix")
        k = self.ctx.kernel
        zero = k.zero
        n = self.n
        a = list(self.raw)
        det = k.one
        for c in range(n):
            piv = None
            for i in range(c, n):
                if a[i][c] != zero:
                    piv = i
                    break
            if piv is None:
                return zero
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                det = k.neg(det)
            det = k.mul(det, a[c][c])
            inv = k.inv(a[c][c])
            for i in range(c + 1, n):
                if a[i][c] != zero:
                    a[i] = k.axpy(a[i], k.mul(a[i][c], inv), a[c])
        return det

    def is_invertible(self):
        return self.m == self.n and bool(self.det())

    def inverse(self):
        if self.m != self.n:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.n
        k = self.ctx.kernel
        eye = Matrix.identity(self.ctx, n).raw
        a = [r + e for r, e in zip(self.raw, eye)]
        # [A | I] has rank n; A is invertible iff its pivots are A's columns
        if n and _gauss_jordan(k, a)[-1] >= n:
            raise SingularInput("matrix is singular")
        return Matrix._of(self.ctx, tuple(tuple(r[n:]) for r in a))

    def rref(self):
        """Reduced row echelon form together with the pivot columns."""
        a = list(self.raw)
        pivots = _gauss_jordan(self.ctx.kernel, a)
        return Matrix._of(self.ctx, tuple(map(tuple, a))), pivots

    def column_space_canonical(self):
        """Canonical basis of the column space (reduced column echelon)."""
        red, pivots = self.transpose().rref()
        return red.row_block(0, len(pivots)).transpose()
