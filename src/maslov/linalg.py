"""Dense exact matrices over a FieldCtx.

Everything is immutable; all eliminations use exact field division, so
ranks, kernels and inverses are never approximate.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularInput, ValidationError
from .fields import FieldCtx


def _gauss_jordan(ctx, a):
    """Bring the list of row lists a to reduced row echelon form in place;
    returns the pivot columns."""
    m = len(a)
    n = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ctx.one() / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


class Matrix:
    __slots__ = ("ctx", "rows", "m", "n")

    def __init__(self, ctx: FieldCtx, rows):
        rows = tuple(
            tuple(ctx.from_int(a) if isinstance(a, int) else a for a in r)
            for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValidationError("ragged matrix")
        self.ctx = ctx
        self.rows = rows
        self.m = len(rows)
        self.n = len(rows[0]) if rows else 0

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(ctx, n):
        one, zero = ctx.one(), ctx.zero()
        return Matrix(ctx, [[one if i == j else zero for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def zeros(ctx, m, n):
        zero = ctx.zero()
        return Matrix(ctx, [[zero] * n for _ in range(m)])

    @staticmethod
    def diagonal(ctx, entries):
        entries = list(entries)
        zero = ctx.zero()
        n = len(entries)
        return Matrix(ctx, [[entries[i] if i == j else zero
                             for j in range(n)] for i in range(n)])

    @staticmethod
    def block2(a, b, c, d):
        """Assemble [[a, b], [c, d]] from four compatible blocks."""
        ctx = a.ctx
        if a.m != b.m or c.m != d.m or a.n != c.n or b.n != d.n:
            raise DimensionMismatch("incompatible blocks")
        rows = [ra + rb for ra, rb in zip(a.rows, b.rows)]
        rows += [rc + rd for rc, rd in zip(c.rows, d.rows)]
        return Matrix(ctx, rows)

    def hstack(self, other):
        if self.m != other.m:
            raise DimensionMismatch("hstack rows differ")
        return Matrix(self.ctx, [ra + rb for ra, rb
                                 in zip(self.rows, other.rows)])

    # -- slicing --------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if self.m != other.m or self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        return Matrix(self.ctx, [[a + b for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.m != other.m or self.n != other.n:
            raise DimensionMismatch("matrix sizes differ")
        return Matrix(self.ctx, [[a - b for a, b in zip(ra, rb)]
                                 for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.ctx, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        return Matrix(self.ctx, [[a * c for a in r] for r in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.n != other.m:
            raise DimensionMismatch(
                f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        bt = list(zip(*other.rows))
        out = []
        for ra in self.rows:
            row = []
            for cb in bt:
                acc = ra[0] * cb[0]
                for a, b in zip(ra[1:], cb[1:]):
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Matrix(self.ctx, out)

    def transpose(self):
        return Matrix(self.ctx, list(zip(*self.rows)))

    def jt(self):
        """Conjugate transpose: transpose with the involution applied."""
        inv = self.ctx.involution
        return Matrix(self.ctx, [[inv(a) for a in r]
                                 for r in zip(*self.rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def __repr__(self):
        body = "; ".join(" ".join(repr(a) for a in r) for r in self.rows)
        return f"[{body}]"

    # -- eliminations ---------------------------------------------------

    def det(self):
        if self.m != self.n:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.n
        if n == 0:
            return self.ctx.one()
        a = [list(r) for r in self.rows]
        det = self.ctx.one()
        for k in range(n):
            piv = None
            for i in range(k, n):
                if a[i][k]:
                    piv = i
                    break
            if piv is None:
                return self.ctx.zero()
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det = det * a[k][k]
            inv = self.ctx.one() / a[k][k]
            for i in range(k + 1, n):
                if a[i][k]:
                    f = a[i][k] * inv
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return det

    def is_invertible(self):
        return self.m == self.n and bool(self.det())

    def inverse(self):
        if self.m != self.n:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.n
        one, zero = self.ctx.one(), self.ctx.zero()
        a = [list(r) + [one if i == j else zero for j in range(n)]
             for i, r in enumerate(self.rows)]
        # [A | I] has rank n; A is invertible iff its pivots are A's columns
        if n and _gauss_jordan(self.ctx, a)[-1] >= n:
            raise SingularInput("matrix is singular")
        return Matrix(self.ctx, [r[n:] for r in a])

    def rref(self):
        """Reduced row echelon form together with the pivot columns."""
        a = [list(r) for r in self.rows]
        pivots = _gauss_jordan(self.ctx, a)
        return Matrix(self.ctx, a), pivots

    def rank(self):
        return len(self.rref()[1])

    def column_space_canonical(self):
        """Canonical basis of the column space (reduced column echelon)."""
        red, pivots = self.transpose().rref()
        basis_rows = red.rows[: len(pivots)]
        return Matrix(self.ctx, basis_rows).transpose()

    def kernel(self):
        """Basis of the right kernel, as a list of column vectors."""
        red, pivots = self.rref()
        free = [j for j in range(self.n) if j not in pivots]
        basis = []
        for f in free:
            v = [self.ctx.zero()] * self.n
            v[f] = self.ctx.one()
            for r, c in enumerate(pivots):
                v[c] = -red.rows[r][f]
            basis.append(v)
        return basis
