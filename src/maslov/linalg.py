"""Dense exact matrices over a FieldCtx.

Everything is immutable and exact.  A matrix holds the raw values of its
context's arithmetic kernel (``FieldCtx.kernel``) and computes on them;
scalars appear only at the boundary (``Matrix(ctx, rows)``, ``rows`` and
``det``).  Each kernel does its own products and eliminations: F_p and
F_{p^2} eliminate with field division, Q and Q(sqrt(d)) fraction-free on
integer rows, forming each Fraction once at the end.
"""

from __future__ import annotations

from .errors import DimensionMismatch, ValidationError
from .fields import FieldCtx


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
            if self.m != self.n:
                raise DimensionMismatch("determinant of a non-square matrix")
            k = self.ctx.kernel
            self._det = k.wrap(k.det(self.raw))
        return self._det

    def is_invertible(self):
        return self.m == self.n and bool(self.det())

    def inverse(self):
        """The inverse; SingularInput if there is none."""
        if self.m != self.n:
            raise DimensionMismatch("inverse of a non-square matrix")
        return Matrix._of(self.ctx, self.ctx.kernel.inverse(self.raw))

    def rref(self):
        """Reduced row echelon form together with the pivot columns."""
        raw, pivots = self.ctx.kernel.rref(self.raw)
        return Matrix._of(self.ctx, raw), pivots

    def column_space_canonical(self):
        """Canonical basis of the column space (reduced column echelon)."""
        red, pivots = self.transpose().rref()
        return red.row_block(0, len(pivots)).transpose()
