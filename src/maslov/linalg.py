"""Dense exact matrices over a FieldCtx.

Everything is immutable and exact.  A matrix holds rows of its context's
kernel's ring values over one int denominator (``FieldCtx.kernel``):
over F_p and F_{p^2} the field's raw values over 1, over Q int rows and
over Q(sqrt(d)) rows of int pairs in Z[sqrt(d)], over a den > 0 prime to
their content, so that equal matrices hold equal rows and dens.  A
product is one ring product and one content gcd; sums and stacks bring
two dens to their lcm first.  Scalars appear only at the boundary
(``Matrix(ctx, rows)``, ``rows`` and ``det``).  ``det``, ``inverse`` and
``rref`` are written once for every kernel (``fields._Kernel``) over its
one elimination: with field division over F_p and F_{p^2}, fraction-free
on the stored rows over Q and Q(sqrt(d)).
"""

from __future__ import annotations

import math

from .errors import DimensionMismatch, ValidationError
from .fields import FieldCtx


class Matrix:
    __slots__ = ("ctx", "raw", "den", "m", "n", "_det")

    def __init__(self, ctx: FieldCtx, rows):
        k = ctx.kernel
        entries = tuple(tuple(map(k.unwrap, r)) for r in rows)
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValidationError("ragged matrix")
        raw, self.den = k.lift(entries)
        self.ctx, self.raw, self._det = ctx, raw, None
        self.m, self.n = len(raw), len(raw[0]) if raw else 0

    @classmethod
    def _of(cls, ctx, raw, den):
        """Trusted constructor for closed operations: raw is a tuple of
        equal-length rows of ctx's ring values over den, the pair in the
        kernel's normal form, taken as it is."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.raw = raw
        out.den = den
        out._det = None
        out.m = len(raw)
        out.n = len(raw[0]) if raw else 0
        return out

    @property
    def rows(self):
        """The entries as scalars, row by row."""
        k = self.ctx.kernel
        return tuple(tuple(map(k.wrap, r))
                     for r in k.entries(self.raw, self.den))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(ctx, n):
        return Matrix._diagonal(ctx, (ctx.kernel.ring[1],) * n, 1)

    @staticmethod
    def zeros(ctx, m, n):
        return Matrix._of(ctx, ((ctx.kernel.ring[0],) * n,) * m, 1)

    @staticmethod
    def diagonal(ctx, entries):
        k = ctx.kernel
        (raw,), den = k.lift((tuple(map(k.unwrap, entries)),))
        return Matrix._diagonal(ctx, raw, den)

    @classmethod
    def _diagonal(cls, ctx, raw, den):
        """The diagonal matrix of the ring values raw over den."""
        z, n = (ctx.kernel.ring[0],), len(raw)
        return cls._of(ctx, tuple(z * i + (e,) + z * (n - 1 - i)
                                  for i, e in enumerate(raw)), den)

    @staticmethod
    def block2(a, b, c, d):
        """Assemble [[a, b], [c, d]] from four compatible blocks."""
        if a.m != b.m or c.m != d.m or a.n != c.n or b.n != d.n:
            raise DimensionMismatch("incompatible blocks")
        return a.hstack(b).vstack(c.hstack(d))

    # A closed operation whose result can have a content gcd with its den
    # (a product, sum, difference, scaling or block of rows) reduces it with
    # the kernel's normal unless den is 1; transposes, jt, negation and
    # stacks keep the normal form.

    def _rescaled(self, other):
        # the rows of self and other over the lcm of their different dens
        rescale, den = self.ctx.kernel.rescale, math.lcm(self.den, other.den)
        return (rescale(self.raw, den // self.den),
                rescale(other.raw, den // other.den), den)

    def hstack(self, other):
        if self.m != other.m:
            raise DimensionMismatch("hstack rows differ")
        a, b, den = self.raw, other.raw, self.den
        if den != other.den:
            a, b, den = self._rescaled(other)
        return Matrix._of(self.ctx, tuple(ra + rb for ra, rb in zip(a, b)),
                          den)

    def vstack(self, other):
        if self.n != other.n:
            raise DimensionMismatch("vstack columns differ")
        a, b, den = self.raw, other.raw, self.den
        if den != other.den:
            a, b, den = self._rescaled(other)
        return Matrix._of(self.ctx, a + b, den)

    def row_block(self, i, j):
        """Rows i to j - 1."""
        raw, den = self.raw[i:j], self.den
        if den != 1:
            raw, den = self.ctx.kernel.normal(raw, den)
        return Matrix._of(self.ctx, raw, den)

    # -- arithmetic -----------------------------------------------------

    def _entrywise(self, op, other):
        if self.m != other.m or self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        a, b, den = self.raw, other.raw, self.den
        if den != other.den:
            a, b, den = self._rescaled(other)
        raw = tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))
        if den != 1:
            raw, den = self.ctx.kernel.normal(raw, den)
        return Matrix._of(self.ctx, raw, den)

    def __add__(self, other):
        return self._entrywise(self.ctx.kernel.add, other)

    def __sub__(self, other):
        return self._entrywise(self.ctx.kernel.sub, other)

    def __neg__(self):
        neg = self.ctx.kernel.neg
        return Matrix._of(self.ctx, tuple(tuple(map(neg, r))
                                          for r in self.raw), self.den)

    def scale(self, c):
        k = self.ctx.kernel
        ((c,),), den = k.lift(((k.unwrap(c),),))
        raw = tuple(tuple(k.scale(r, c)) for r in self.raw)
        den *= self.den
        if den != 1:
            raw, den = k.normal(raw, den)
        return Matrix._of(self.ctx, raw, den)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.n != other.m:
            raise DimensionMismatch(
                f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        k, den = self.ctx.kernel, self.den * other.den
        raw = k.matmul(self.raw, other.raw)
        if den != 1:
            raw, den = k.normal(raw, den)
        return Matrix._of(self.ctx, raw, den)

    def transpose(self):
        return Matrix._of(self.ctx, tuple(zip(*self.raw)), self.den)

    def jt(self):
        """Conjugate transpose: transpose with the involution applied."""
        conj = self.ctx.kernel.conj
        return Matrix._of(self.ctx, tuple(tuple(map(conj, r))
                                          for r in zip(*self.raw)), self.den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.raw == other.raw and self.den == other.den
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self):
        return hash(self.raw)

    def is_zero(self):
        return self.raw == ((self.ctx.kernel.ring[0],) * self.n,) * self.m

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
            self._det = k.wrap(k.det_over(self.raw, self.den))
        return self._det

    def is_invertible(self):
        return self.m == self.n and bool(self.det())

    def inverse(self):
        """The inverse; SingularInput if there is none."""
        if self.m != self.n:
            raise DimensionMismatch("inverse of a non-square matrix")
        return Matrix._of(self.ctx,
                          *self.ctx.kernel.inverse_over(self.raw, self.den))

    def rref(self):
        """Reduced row echelon form together with the pivot columns."""
        red, pivots = self.ctx.kernel.rref_over(self.raw, self.den)
        return Matrix._of(self.ctx, *red), pivots

    def column_space_canonical(self):
        """Canonical basis of the column space (reduced column echelon)."""
        red, pivots = self.transpose().rref()
        return red.row_block(0, len(pivots)).transpose()
