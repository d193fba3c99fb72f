"""Exact scalar arithmetic for the supported fields with involution.

Four kinds of base field are supported, each with its involution J:

  * Q       -- the rationals, J = id
  * Fp      -- a prime field of odd order p, J = id
  * Fp2     -- the field of order p^2, J = Frobenius x -> x^p
  * QSqrt   -- a quadratic extension Q(sqrt(d)), J the conjugation

Characteristic 2 is excluded by construction.  Scalars are immutable and
hashable; arithmetic is exact everywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError, TooLarge, ValidationError, ZeroScalar

INF = "inf"  # the real place, used by Hilbert-symbol code


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {p: exponent}; n must be nonzero."""
    if n == 0:
        raise ZeroScalar("cannot factor 0")
    return dict(_factorize_abs(abs(n)))


@lru_cache(maxsize=65536)
def _factorize_abs(n: int):
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 17
    while f * f <= n and f < 20000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        for p in _factor_large(n, [RHO_STEPS]):
            out[p] = out.get(p, 0) + 1
    return tuple(sorted(out.items()))


# Pollard rho steps one factorize call may take before it gives up
RHO_STEPS = 1 << 20
_RHO_BATCH = 64


def _factor_large(n: int, budget: list) -> list:
    # Pollard rho (Floyd) for cofactors the trial division above left
    # behind, with one gcd per batch of steps; budget[0] is the number of
    # steps left to the whole factorize call.
    if n == 1:
        return []
    if is_prime(n):
        return [n]
    import random as _random

    rng = _random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            if budget[0] <= 0:
                raise TooLarge(f"factoring a {n.bit_length()}-bit cofactor "
                               f"takes over {RHO_STEPS} Pollard rho steps")
            budget[0] -= _RHO_BATCH
            q = 1
            for _ in range(_RHO_BATCH):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * (x - y) % n
            d = math.gcd(q, n)
        # d = n: the batch met every factor at once; try another c
        if d != n:
            return sorted(_factor_large(d, budget)
                          + _factor_large(n // d, budget))


def squarefree_part(q) -> int:
    """Signed squarefree integer representing q modulo nonzero squares."""
    q = Fraction(q)
    if q == 0:
        raise ZeroScalar("0 has no square class")
    n = q.numerator * q.denominator
    sign = 1 if n > 0 else -1
    out = sign
    for p, e in factorize(n).items():
        if e % 2:
            out *= p
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p and a prime to p."""
    a %= p
    if a == 0:
        raise ZeroScalar("Legendre symbol needs a unit")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


class FpElt:
    """Residue in the prime field F_p, stored in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if isinstance(other, FpElt):
            if other.p != self.p:
                raise ValidationError("mixed prime fields")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElt(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElt(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElt(self.p, w - self.v)

    def __mul__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElt(self.p, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElt(self.p, self.v * pow(w, self.p - 2, self.p))

    def __rtruediv__(self, other):
        w = self._lift(other)
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElt(self.p, w * pow(self.v, self.p - 2, self.p))

    def __neg__(self):
        return FpElt(self.p, -self.v)

    def __eq__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return self.v == w

    def __hash__(self):
        return hash(("Fp", self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class Fp2Elt:
    """Element a + b*w of F_{p^2}, where w^2 = nu is a fixed non-residue."""

    __slots__ = ("p", "nu", "a", "b")

    def __init__(self, p, nu, a, b):
        self.p = p
        self.nu = nu
        self.a = a % p
        self.b = b % p

    def _lift(self, other):
        if isinstance(other, Fp2Elt):
            if other.p != self.p:
                raise ValidationError("mixed fields")
            return other
        if isinstance(other, int):
            return Fp2Elt(self.p, self.nu, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Elt(self.p, self.nu, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Elt(self.p, self.nu, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp2Elt(
            self.p,
            self.nu,
            self.a * o.a + self.b * o.b * self.nu,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = (self.a * self.a - self.nu * self.b * self.b) % self.p
        if n == 0:
            raise ZeroDivisionError("division by zero in F_{p^2}")
        ninv = pow(n, self.p - 2, self.p)
        return Fp2Elt(self.p, self.nu, self.a * ninv, -self.b * ninv)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o * self.inverse()

    def __neg__(self):
        return Fp2Elt(self.p, self.nu, -self.a, -self.b)

    def conj(self):
        # Frobenius x -> x^p; since w^p = -w this is b -> -b.
        return Fp2Elt(self.p, self.nu, self.a, -self.b)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(("Fp2", self.p, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}w"


class QuadElt:
    """Element a + b*sqrt(d) of Q(sqrt(d)) with exact rational parts."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d, a, b):
        self.d = d
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _lift(self, other):
        if isinstance(other, QuadElt):
            if other.d != self.d:
                raise ValidationError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElt(self.d, other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElt(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElt(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElt(
            self.d,
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.d * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadElt(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o * self.inverse()

    def __neg__(self):
        return QuadElt(self.d, -self.a, -self.b)

    def conj(self):
        return QuadElt(self.d, self.a, -self.b)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(("QuadExt", self.d, self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}*sqrt({self.d})"


# ---------------------------------------------------------------------------
# Arithmetic kernels: one per context, on the raw values matrices hold.
# Each has zero, one, wrap (raw -> scalar), unwrap (scalar or int -> raw;
# entries of another field raise), conj, neg, add, sub, mul, inv and, on
# rows u and v of raw values, dot(u, v), axpy(u, f, v) = u - f v and
# scale(u, c) = u c.


class _FpKernel:
    """F_p on ints in [0, p); a dot product reduces once."""

    zero, one = 0, 1

    def __init__(self, p):
        self.p = p
        self.wrap = lambda a: FpElt(p, a)
        self.conj = lambda a: a
        self.neg = lambda a: -a % p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.mul = lambda a, b: a * b % p
        self.inv = lambda a: pow(a, -1, p)
        self.dot = lambda u, v: sum(map(operator.mul, u, v)) % p
        self.axpy = lambda u, f, v: [(a - f * b) % p for a, b in zip(u, v)]
        self.scale = lambda u, c: [a * c % p for a in u]

    def unwrap(self, x):
        if type(x) is FpElt and x.p == self.p:
            return x.v
        if isinstance(x, int):
            return x % self.p
        raise ValidationError(f"entry {x!r} is not in F_{self.p}")


class _Fp2Kernel:
    """F_{p^2} on int pairs (a, b) for a + b w, w^2 = nu, reduced mod p."""

    zero, one = (0, 0), (1, 0)

    def __init__(self, p, nu):
        self.p, self.nu = p, nu
        self.wrap = lambda v: Fp2Elt(p, nu, *v)
        self.conj = lambda v: (v[0], -v[1] % p)
        self.neg = lambda v: (-v[0] % p, -v[1] % p)
        self.add = lambda u, v: ((u[0] + v[0]) % p, (u[1] + v[1]) % p)
        self.sub = lambda u, v: ((u[0] - v[0]) % p, (u[1] - v[1]) % p)
        self.mul = lambda u, v: self.scale((u,), v)[0]

    def unwrap(self, x):
        if type(x) is Fp2Elt and x.p == self.p:
            return (x.a, x.b)
        if isinstance(x, int):
            return (x % self.p, 0)
        raise ValidationError(f"entry {x!r} is not in F_{self.p}^2")

    def inv(self, v):
        (a, b), p = v, self.p
        n = pow((a * a - self.nu * b * b) % p, -1, p)
        return (a * n % p, -b * n % p)

    def dot(self, u, v):
        re = im = ww = 0
        for (a, b), (c, d) in zip(u, v):
            re += a * c
            ww += b * d
            im += a * d + b * c
        return ((re + self.nu * ww) % self.p, im % self.p)

    def axpy(self, u, f, v):
        (c, d), p = f, self.p
        dn = d * self.nu
        return [((a - c * e - dn * g) % p, (b - c * g - d * e) % p)
                for (a, b), (e, g) in zip(u, v)]

    def scale(self, u, f):
        (c, d), p = f, self.p
        dn = d * self.nu
        return [((a * c + b * dn) % p, (a * d + b * c) % p) for a, b in u]


class _ScalarKernel:
    """Q and Q(sqrt(d)): the raw value is the scalar itself, so matrix
    loops do exactly what they did on scalars."""

    neg, add, sub, mul = operator.neg, operator.add, operator.sub, operator.mul

    def __init__(self, ctx):
        self.ctx = ctx
        self.zero, self.one = ctx.from_rational(0), ctx.from_rational(1)
        self.wrap, self.conj = (lambda a: a), ctx.involution
        self.inv = lambda a: self.one / a
        self.axpy = lambda u, f, v: [a - f * b for a, b in zip(u, v)]
        self.scale = lambda u, c: [a * c for a in u]

    def unwrap(self, x):
        if type(x) is type(self.one) and getattr(x, "d", None) == self.ctx.d:
            return x
        if isinstance(x, (int, Fraction)):
            return self.ctx.from_rational(x)
        raise ValidationError(f"{x!r} is not an element of {self.ctx!r}")

    @staticmethod
    def dot(u, v):
        return sum(map(operator.mul, u[1:], v[1:]), u[0] * v[0])


class FieldCtx:
    """A supported exact field with involution and the hermitian sign.

    ``epsilon`` is the sign of the forms classified downstream: the
    hyperbolic module built on this context carries a (-epsilon)-hermitian
    form and the triple invariant lands in epsilon-hermitian matrices.
    """

    def __init__(self, kind: str, p: int | None = None, d: int | None = None,
                 epsilon: int = 1):
        if not isinstance(epsilon, int) or epsilon not in (1, -1):
            raise ValidationError("epsilon must be +1 or -1")
        if not all(v is None or isinstance(v, int) for v in (p, d)):
            raise ValidationError("p and d must be integers")
        self.kind = kind
        self.p = p
        self.d = d
        self.epsilon = epsilon
        if kind == "Q":
            self.kernel = _ScalarKernel(self)
        elif kind == "Fp":
            if p is None or not is_prime(p) or p == 2:
                raise ValidationError("Fp needs an odd prime p")
            self.kernel = _FpKernel(p)
        elif kind == "Fp2":
            if p is None or not is_prime(p) or p == 2:
                raise ValidationError("Fp2 needs an odd prime p")
            self.nu = self._least_nonresidue(p)
            self.kernel = _Fp2Kernel(p, self.nu)
        elif kind == "QSqrt":
            if d is None or d == 0 or d == 1:
                raise ValidationError("QSqrt needs a squarefree d != 0, 1")
            if any(e > 1 for e in factorize(d).values()):
                raise ValidationError("d must be squarefree")
            self.kernel = _ScalarKernel(self)
        else:
            raise ValidationError(f"unknown field kind {kind!r}")

    @staticmethod
    def _least_nonresidue(p: int) -> int:
        for u in range(2, p):
            if legendre(u, p) == -1:
                return u
        raise ValidationError("no non-residue found")  # unreachable for odd p

    # -- structural ----------------------------------------------------

    @property
    def has_trivial_involution(self) -> bool:
        return self.kind in ("Q", "Fp")

    @property
    def is_finite(self) -> bool:
        return self.kind in ("Fp", "Fp2")

    @property
    def order(self) -> int:
        if self.kind == "Fp":
            return self.p
        if self.kind == "Fp2":
            return self.p * self.p
        raise ValidationError("infinite field has no order")

    def _key(self):
        return (self.kind, self.p, self.d, self.epsilon)

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.kind == "Q":
            body = "Q"
        elif self.kind == "Fp":
            body = f"F{self.p}"
        elif self.kind == "Fp2":
            body = f"F{self.p}^2"
        else:
            body = f"Q(sqrt({self.d}))"
        return f"FieldCtx({body}, eps={self.epsilon:+d})"

    # -- elements ------------------------------------------------------

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        return self.kernel.wrap(self.kernel.unwrap(n))

    def from_rational(self, q):
        q = Fraction(q)
        if self.kind == "Q":
            return q
        if self.kind == "QSqrt":
            return QuadElt(self.d, q, 0)
        if q.denominator == 1:
            return self.from_int(q.numerator)
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def generator(self):
        """sqrt(d) resp. w; only for the quadratic kinds."""
        if self.kind == "Fp2":
            return Fp2Elt(self.p, self.nu, 0, 1)
        if self.kind == "QSqrt":
            return QuadElt(self.d, 0, 1)
        raise ValidationError("base field has no quadratic generator")

    def involution(self, x):
        return x if self.has_trivial_involution else x.conj()

    def fixed_rational(self, x) -> Fraction:
        """The J-fixed scalar x as an exact rational (Fp maps to a lift)."""
        if self.kind == "Q":
            return Fraction(x)
        if self.kind == "QSqrt":
            if x.b != 0:
                raise ValidationError("scalar is not in the fixed field")
            return x.a
        raise ValidationError("no canonical rational lift for finite fields")

    def elements(self):
        if not self.is_finite:
            raise ValidationError("cannot enumerate an infinite field")
        raws = range(self.p)
        if self.kind == "Fp2":
            raws = itertools.product(raws, repeat=2)
        return [self.kernel.wrap(v) for v in raws]

    def nonzero_elements(self):
        return [x for x in self.elements() if x]

    # -- randomness (seeded by the caller) -----------------------------

    def random_element(self, rng, span: int = 5):
        if self.kind == "Q":
            return Fraction(rng.randint(-span, span), rng.randint(1, 3))
        if self.kind == "Fp":
            return FpElt(self.p, rng.randrange(self.p))
        if self.kind == "Fp2":
            return Fp2Elt(self.p, self.nu, rng.randrange(self.p),
                          rng.randrange(self.p))
        return QuadElt(
            self.d,
            Fraction(rng.randint(-span, span), rng.randint(1, 3)),
            Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        )

    def random_nonzero(self, rng, span: int = 5):
        while True:
            x = self.random_element(rng, span)
            if x:
                return x

    # -- parsing and serialization --------------------------------------

    def parse_scalar(self, v):
        try:
            if isinstance(v, (list, tuple)):
                if len(v) != 2:
                    raise ParseError(f"scalar pair must have 2 entries: {v!r}")
                a, b = Fraction(str(v[0])), Fraction(str(v[1]))
                if self.kind == "Fp2":
                    if a.denominator != 1 or b.denominator != 1:
                        raise ParseError("F_{p^2} components must be integers")
                    return Fp2Elt(self.p, self.nu, a.numerator, b.numerator)
                if self.kind == "QSqrt":
                    return QuadElt(self.d, a, b)
                raise ParseError(f"pair scalar invalid for field {self.kind}")
            return self.from_rational(Fraction(str(v)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {v!r}: {exc}") from exc

    def scalar_to_json(self, x):
        if self.kind == "Q":
            return str(x)
        if self.kind == "Fp":
            return str(x.v)
        return [str(x.a), str(x.b)]


def norm_subgroup_class(ctx: FieldCtx, x):
    """The class of x modulo the norm subgroup {y^J y}, as a
    ``witt.NormClassRep``."""
    from .witt import NormClassRep

    return NormClassRep(ctx, (x,))
