"""Exact scalar arithmetic for the supported fields with involution.

Four kinds of base field are supported, each with its involution J:

  * Q       -- the rationals, J = id
  * Fp      -- a prime field of odd order p, J = id
  * Fp2     -- the field of order p^2, J = Frobenius x -> x^p
  * QSqrt   -- a quadratic extension Q(sqrt(d)), J the conjugation

Characteristic 2 is excluded by construction.  Each field has one
arithmetic kernel on raw values; its scalars are Fractions over Q and
``Scalar`` objects over the other kinds, immutable, hashable and exact.
Matrices hold the kernel's ring values, over Q and Q(sqrt(d)) integers
over one denominator.  Two eliminations serve the four kernels, field
division over F_p and F_{p^2} and one fraction-free loop over Q and
Q(sqrt(d)), and ``_Kernel`` builds det, inverse and rref on them once.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
import weakref
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ParseError,
    SingularInput,
    TooLarge,
    ValidationError,
    ZeroScalar,
)

INF = "inf"  # the real place, used by Hilbert-symbol code


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, Math. Comp. 86, 2017): below it those bases decide primality
_MR_EXACT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, exact for n < psi_13
    (about 3.3e24); from psi_13 on a strong Lucas test is added, making it
    the Baillie-PSW test, which has no known pseudoprime."""
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
    return n < _MR_EXACT or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4.  With n + 1 = k 2^s, k odd, n passes when U_k = 0
    or V_(k 2^r) = 0 for some r < s, all mod n."""
    if math.isqrt(n) ** 2 == n:
        return False                # no D has (D/n) = -1
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False
        d = -d - 2 if d > 0 else 2 - d
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k, s = k // 2, s + 1

    def half(x):
        x %= n
        return (x + n if x & 1 else x) // 2

    # U_m, V_m and Q^m from m = 1 along the bits of k: m -> 2m by
    # U_2m = U_m V_m, V_2m = V_m^2 - 2 Q^m, and m -> m + 1 by
    # U_(m+1) = (U_m + V_m)/2, V_(m+1) = (D U_m + V_m)/2
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v, qm = half(u + v), half(d * u + v), qm * q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
    return False


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {p: exponent}; n must be nonzero."""
    if n == 0:
        raise ZeroScalar("cannot factor 0")
    return dict(_factorize_abs(abs(n)))


@lru_cache(maxsize=None)
def _small_primes():
    """The primes from 17 to 20000 and their product, sieved on first use."""
    sieve = bytearray([1]) * 20000
    for i in range(2, math.isqrt(20000) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, 20000, i)))
    primes = list(itertools.compress(range(17, 20000), sieve[17:]))
    return primes, math.prod(primes)


@lru_cache(maxsize=65536)
def _factorize_abs(n: int):
    out: dict = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n >= 17 * 17:
        # one gcd with the product of the primes from 17 on finds every
        # small prime factor (Bernstein's smooth-part trick); g is
        # squarefree, so what is left of it once p^2 > g is 1 or a prime
        primes, product = _small_primes()
        g = math.gcd(n, product)
        for p in primes:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
        if g > 1:
            while n % g == 0:
                out[g] = out.get(g, 0) + 1
                n //= g
    if n > 1:
        for p in _factor_large(n, [RHO_STEPS]):
            out[p] = out.get(p, 0) + 1
    return tuple(sorted(out.items()))


# Pollard rho steps one factorize call may take before it gives up; a step
# on a cofactor of w 128-bit words costs w^2 steps
RHO_STEPS = 1 << 20
# the widest cofactor factorize takes, and the widest field order p and
# Hilbert-symbol place an input may give; a wider one is refused before its
# primality test, whose Miller-Rabin powers alone would take seconds
FACTOR_BITS = 4500
_RHO_BATCH = 64


def _kth_root(n: int, k: int) -> int:
    # floor(n^(1/k)) by Newton's method, descending from 2^ceil(bits / k)
    y = 1 << -(-n.bit_length() // k)
    x = y + 1
    while y < x:
        x, y = y, ((k - 1) * y + n // y ** (k - 1)) // k
    return x


def _factor_large(n: int, budget: list) -> list:
    # Pollard rho (Floyd) for cofactors the small primes above left
    # behind, with one gcd per batch of steps; budget[0] is the number of
    # steps left to the whole factorize call.
    if n == 1:
        return []
    if n.bit_length() > FACTOR_BITS:
        raise TooLarge(f"a {n.bit_length()}-bit cofactor is wider than the "
                       f"{FACTOR_BITS} bits factorize takes")
    if is_prime(n):
        return [n]
    # the gcd with the small primes left no prime below 20000 > 2^14, so
    # n = r^k has k <= bits / 14; rho would need about r^(1/2) steps to
    # split it.  A prime k is enough: r^(ab) = (r^a)^b, and the recursion
    # on r splits the rest
    for k in filter(is_prime, range(2, n.bit_length() // 14 + 1)):
        r = math.isqrt(n) if k == 2 else _kth_root(n, k)
        if r ** k == n:
            return sorted(_factor_large(r, budget) * k)
    import random as _random

    rng = _random.Random(n)
    cost = _RHO_BATCH * ((n.bit_length() + 127) // 128) ** 2
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            if budget[0] <= 0:
                raise TooLarge(f"factoring a {n.bit_length()}-bit cofactor "
                               f"takes over {RHO_STEPS} Pollard rho steps")
            budget[0] -= cost
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


def square_class(q):
    """(sign, primes of odd exponent) of a nonzero rational, read from the
    cached factorizations of its numerator and denominator."""
    q = Fraction(q)
    if q == 0:
        raise ZeroScalar("0 has no square class")
    odd = set()
    for n in (q.numerator, q.denominator):
        odd.update(p for p, e in factorize(n).items() if e % 2)
    return (1 if q > 0 else -1), frozenset(odd)


def squarefree_part(q) -> int:
    """Signed squarefree integer representing q modulo nonzero squares."""
    sign, odd = square_class(q)
    return sign * math.prod(odd)


def check_sign(s, name: str) -> None:
    """Refuse the sign s, called name, unless it is the int +1 or -1."""
    if type(s) is not int or s not in (1, -1):
        raise ValidationError(f"{name} must be +1 or -1")


# a decimal exponent as Fraction reads one: the mantissa, the exponent
_EXPONENT = re.compile(r"\s*[-+]?([\d_.]*)e([-+]?[\d_]+)\s*", re.I)


def _parse_rational(v) -> Fraction:
    """The rational the decimal text of v names, as Fraction reads it
    ("-3/4", "0.2", "15e-1").  A mantissa and decimal exponent together
    wider than sys.get_int_max_str_digits() digits raise ParseError, before
    Fraction builds the power of ten, as a digit string that wide is
    refused; other bad text raises ValueError."""
    text = str(v)
    m = _EXPONENT.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    if m and limit and sum(map(str.isdigit, m[1])) + abs(int(m[2])) > limit:
        raise ParseError(f"bad scalar {text!r}: wider than {limit} digits")
    return Fraction(text)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p and a prime to p."""
    a %= p
    if a == 0:
        raise ZeroScalar("Legendre symbol needs a unit")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _dunder(op, reflected=False):
    # the Scalar operator computing the kernel's op on the raw values
    def method(self, other):
        x = self._lift(other)
        if x is NotImplemented:
            return NotImplemented
        f = getattr(self.k, op)
        return Scalar(self.k, f(x, self.raw) if reflected else f(self.raw, x))
    return method


class Scalar:
    """An element of F_p, F_{p^2} or Q(sqrt(d)), held as a raw value of its
    field's kernel (``FieldCtx.kernel``); every operation is the kernel's.

    Ints, and over Q(sqrt(d)) Fractions, enter arithmetic as elements of
    the field; a scalar of another field raises ValidationError.  Over Q
    the scalars are Fractions themselves.
    """

    __slots__ = ("k", "raw")

    def __init__(self, k, raw):
        self.k, self.raw = k, raw

    def _lift(self, x):
        if type(x) is Scalar and x.k is self.k:
            return x.raw
        # NotImplemented lets Python try the other operand
        if isinstance(x, Scalar) or isinstance(x, self.k.rationals):
            return self.k.unwrap(x)
        return NotImplemented

    __add__ = __radd__ = _dunder("add")
    __sub__, __rsub__ = _dunder("sub"), _dunder("sub", True)
    __mul__ = __rmul__ = _dunder("mul")
    __truediv__, __rtruediv__ = _dunder("div"), _dunder("div", True)

    def __neg__(self):
        return Scalar(self.k, self.k.neg(self.raw))

    def __eq__(self, other):
        x = self._lift(other)
        return x if x is NotImplemented else self.raw == x

    def __hash__(self):
        return hash((self.k, self.raw))

    def __bool__(self):
        return self.raw != self.k.zero

    def __repr__(self):
        return self.k.show(self.raw)


# ---------------------------------------------------------------------------
# Arithmetic kernels: one per field, on the raw values scalars hold and on
# the matrices built from them.  Each has name (the field in FieldCtx's
# repr), zero, one, wrap (raw -> scalar), unwrap (scalar or int -> raw;
# elements of another field raise), conj, neg, add, sub, mul, inv and
# scale(u, c) = u c on a row u.  A matrix is held as a pair (rows, den): a
# tuple of rows of the kernel's ring values over one int den.  Over F_p and
# F_{p^2} the ring is the field (ints mod p, int pairs) and den is 1; over Q
# it is Z and over Q(sqrt(d)) Z[sqrt(d)] (int pairs), with den > 0 and prime
# to the content of the rows (a zero matrix has den 1), so that equal
# matrices have equal pairs.  conj, neg, add, sub and scale also take ring
# values; ring is the ring's (zero, one), lift(a) maps a tuple of tuples of
# raw values to the pair, entries(rows, den) maps it back (one Fraction per
# rational an entry holds), matmul(a, b) is the product of two tuples of
# ring rows, and over Q and Q(sqrt(d)) normal(rows, den) brings rows over
# den to the normal form and rescale(rows, s) multiplies them by the int s.
# det_over, inverse_over (raising SingularInput) and rref_over are written
# once, in _Kernel.  The kernels behind ``Scalar`` add div and show (raw ->
# repr), the quadratic ones gen.


class _Kernel:
    """det, inverse and rref of a matrix (a, den), for every kernel, from
    three methods of its own:

      * _eliminate(a, width, below), ``_FiniteKernel``'s or
        ``_BareissKernel``'s, eliminates the ring rows a on their first
        width columns: Gauss-Jordan, or with below only the rows under each
        pivot (a forward pass).  It returns (rows, pivots, p, sign): the
        eliminated rows, their pivot columns, the p that Gauss-Jordan
        leaves in every pivot column, and the sign of the row swaps; after
        a forward pass a square a of full rank has determinant sign p;
      * _divide(rows, p, s) is the matrix rows s / p, normal;
      * _quotient(p, q) is the raw value p / q, q an int.

    det, inverse and rref do the same on rows of raw values, in and out.
    The kernels whose scalars are ``Scalar`` share the rest: ``embed`` maps
    the rationals of type ``rationals`` to raw values."""

    rationals = (int,)

    def det_over(self, a, den):
        n = len(a)
        _, pivots, p, sign = self._eliminate(a, n, True)
        return (self.zero if len(pivots) < n
                else self._quotient(p, sign * den ** n))

    def inverse_over(self, a, den):
        # [A | I], eliminated on A's columns, becomes p [I | A^-1], and
        # (a / den)^-1 = den a^-1
        n, (zero, one) = len(a), self.ring
        z = (zero,)
        rows, pivots, p, _ = self._eliminate(
            [r + z * i + (one,) + z * (n - 1 - i)
             for i, r in enumerate(a)], n, False)
        if len(pivots) < n:
            raise SingularInput("matrix is singular")
        return self._divide([r[n:] for r in rows], p, den)

    def rref_over(self, a, den):
        # the rows of a / den have the reduced form of a
        rows, pivots, p, _ = self._eliminate(a, len(a[0]) if a else 0, False)
        return self._divide(rows, p, 1), pivots

    def det(self, a):
        return self.det_over(*self.lift(a))

    def inverse(self, a):
        return self.entries(*self.inverse_over(*self.lift(a)))

    def rref(self, a):
        red, pivots = self.rref_over(*self.lift(a))
        return self.entries(*red), pivots

    def wrap(self, raw):
        return Scalar(self, raw)

    def div(self, a, b):
        if b == self.zero:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        return self.mul(a, self.inv(b))

    def unwrap(self, x):
        if type(x) is Scalar and x.k is self:
            return x.raw
        if isinstance(x, self.rationals):
            return self.embed(x)
        raise ValidationError(f"{x!r} is not an element of {self.name}")

    def show(self, v):
        # a + b gen for the quadratic kinds, gen printed as ``gen_name``
        a, b = v
        return f"{a}" if b == 0 else f"{a}+{b}{self.gen_name}"


class _FiniteKernel(_Kernel):
    """What F_p and F_{p^2} share: matrices of raw values over den 1, and
    elimination with field division, one inverse per pivot, on rows through
    axpy(u, f, v) = u - f v and scale."""

    @staticmethod
    def lift(a):
        return a, 1

    @staticmethod
    def entries(a, den):
        return a

    def _eliminate(self, a, width, below):
        # field division: each pivot row is scaled to one in its pivot
        # column, so p is one, except in a forward pass, where p is the
        # product of the pivots
        a, zero, one = list(a), self.zero, self.one
        m = len(a)
        pivots, p, sign = [], one, 1
        for c in range(width):
            r = len(pivots)
            for i in range(r, m):
                if a[i][c] != zero:
                    break
            else:
                continue
            if i != r:
                a[r], a[i] = a[i], a[r]
                sign = -sign
            row = a[r]
            lead = row[c]
            if lead != one:
                if below:
                    p = self.mul(p, lead)
                # a forward pass never uses its last pivot row
                if not below or r + 1 < m:
                    row = a[r] = self.scale(row, self.inv(lead))
            for i in range(r + 1 if below else 0, m):
                if i != r and a[i][c] != zero:
                    a[i] = self.axpy(a[i], a[i][c], row)
            pivots.append(c)
            if r + 1 == m:
                break
        return a, pivots, p, sign

    @staticmethod
    def _divide(rows, p, s):
        # p and s are one
        return tuple(map(tuple, rows)), 1

    def _quotient(self, p, q):
        # q is the sign
        return p if q == 1 else self.neg(p)


class _FpKernel(_FiniteKernel):
    """F_p on ints in [0, p); a dot product reduces once."""

    zero, one = 0, 1
    ring = zero, one

    def __init__(self, p):
        self.p, self.name, self.show = p, f"F{p}", str
        self.embed = lambda n: n % p
        self.conj = lambda a: a
        self.neg = lambda a: -a % p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.mul = lambda a, b: a * b % p
        self.inv = lambda a: pow(a, -1, p)
        self.axpy = lambda u, f, v: [(a - f * b) % p for a, b in zip(u, v)]
        self.scale = lambda u, c: [a * c % p for a in u]

    def matmul(self, x, y):
        cols, p, mul = tuple(zip(*y)), self.p, operator.mul
        return tuple(tuple([sum(map(mul, u, v)) % p for v in cols])
                     for u in x)


class _Fp2Kernel(_FiniteKernel):
    """F_{p^2} on int pairs (a, b) for a + b w, w^2 = nu, reduced mod p;
    nu is the least non-residue mod p."""

    zero, one, gen = (0, 0), (1, 0), (0, 1)
    ring = zero, one

    def __init__(self, p):
        self.p, self.name, self.gen_name = p, f"F{p}^2", "w"
        self.nu = FieldCtx._least_nonresidue(p)
        self.embed = lambda n: (n % p, 0)
        # Frobenius x -> x^p; since w^p = -w this is b -> -b
        self.conj = lambda v: (v[0], -v[1] % p)
        self.neg = lambda v: (-v[0] % p, -v[1] % p)
        self.add = lambda u, v: ((u[0] + v[0]) % p, (u[1] + v[1]) % p)
        self.sub = lambda u, v: ((u[0] - v[0]) % p, (u[1] - v[1]) % p)

    def mul(self, u, v):
        (a, b), (c, d), p = u, v, self.p
        return ((a * c + self.nu * b * d) % p, (a * d + b * c) % p)

    def inv(self, v):
        (a, b), p = v, self.p
        n = pow((a * a - self.nu * b * b) % p, -1, p)
        return (a * n % p, -b * n % p)

    def matmul(self, x, y):
        cols, p, nu, out = tuple(zip(*y)), self.p, self.nu, []
        for u in x:
            row = []
            for v in cols:
                re = im = ww = 0
                for (a, b), (c, d) in zip(u, v):
                    re += a * c
                    ww += b * d
                    im += a * d + b * c
                row.append(((re + nu * ww) % p, im % p))
            out.append(tuple(row))
        return tuple(out)

    def axpy(self, u, f, v):
        (c, d), p = f, self.p
        dn = d * self.nu
        return [((a - c * e - dn * g) % p, (b - c * g - d * e) % p)
                for (a, b), (e, g) in zip(u, v)]

    def scale(self, u, f):
        (c, d), p = f, self.p
        dn = d * self.nu
        return [((a * c + b * dn) % p, (a * d + b * c) % p) for a, b in u]


_F0, _F1 = Fraction(0), Fraction(1)


class _BareissKernel(_Kernel):
    """What Q and Q(sqrt(d)) share: fraction-free elimination (E. H.
    Bareiss, Math. Comp. 22, 1968; H. Cohen, GTM 138, Alg. 2.2.6) on a
    matrix's ring rows in Z or Z[sqrt(d)], read as they are stored, over one
    method of the kernel:

      * _step(p, prev) -> the row step (x, f, y) -> (p x - f y) / prev for
        the pivot p, exact in the ring, its per-pivot constants computed
        once.

    The entries stay ring elements, minors of the rows, until the one
    division by the last pivot that _divide makes at the end."""

    def _eliminate(self, a, width, below):
        # every pivot row ends with the last pivot p in its pivot column
        a = list(a)
        zero, prev = self.ring
        m = len(a)
        pivots, sign = [], 1
        for c in range(width):
            r = len(pivots)
            piv = next((i for i in range(r, m) if a[i][c] != zero), None)
            if piv is None:
                continue
            if piv != r:
                a[r], a[piv] = a[piv], a[r]
                sign = -sign
            row = a[r]
            p = row[c]
            # a forward pass has no row under its last pivot
            if not below or r + 1 < m:
                step = self._step(p, prev)
                for i in range(r + 1 if below else 0, m):
                    if i != r:
                        a[i] = step(a[i], a[i][c], row)
            prev = p
            pivots.append(c)
            if r + 1 == m:
                break
        return a, pivots, prev, sign


class _QuadKernel(_BareissKernel):
    """Q(sqrt(d)) on Fraction pairs (a, b) for a + b sqrt(d); a matrix is
    rows of int pairs, elements of Z[sqrt(d)], over one int den."""

    rationals = (int, Fraction)
    zero, one, gen = (_F0, _F0), (_F1, _F0), (_F0, _F1)
    ring = (0, 0), (1, 0)

    def __init__(self, d):
        self.d, self.name = d, f"Q(sqrt({d}))"
        self.gen_name = f"*sqrt({d})"
        self.embed = lambda q: (Fraction(q), _F0)
        self.conj = lambda v: (v[0], -v[1])
        self.neg = lambda v: (-v[0], -v[1])
        self.add = lambda u, v: (u[0] + v[0], u[1] + v[1])
        self.sub = lambda u, v: (u[0] - v[0], u[1] - v[1])

    def mul(self, u, v):
        (a, b), (c, e) = u, v
        return (a * c + self.d * b * e, a * e + b * c)

    def inv(self, v):
        a, b = v
        n = a * a - self.d * b * b
        return (a / n, -b / n)

    @staticmethod
    def lift(a):
        # over the lcm of the denominators of both parts of every entry,
        # which leaves the content prime to it
        den = math.lcm(*[x.denominator for r in a for e in r for x in e])
        return tuple(tuple([(x.numerator * (den // x.denominator),
                             y.numerator * (den // y.denominator))
                            for x, y in r]) for r in a), den

    @staticmethod
    def entries(a, den):
        return tuple(tuple([(Fraction(x, den), Fraction(y, den))
                            for x, y in r]) for r in a)

    @staticmethod
    def normal(a, den):
        g = math.gcd(den, *[x for r in a for e in r for x in e])
        if den < 0:
            g = -g
        if g == 1:
            return a, den
        return (tuple(tuple([(x // g, y // g) for x, y in r]) for r in a),
                den // g)

    @staticmethod
    def rescale(a, s):
        return tuple(tuple([(x * s, y * s) for x, y in r]) for r in a)

    def matmul(self, x, y):
        # for x = x0 + x1 sqrt(d) and y likewise, an entry is two int dot
        # products: a row of [x0 | x1] times a column of
        # [[y0, y1], [d y1, y0]]
        d, mul, cols, out = self.d, operator.mul, [], []
        for c in zip(*y):
            re, im = [a for a, _ in c], [b for _, b in c]
            cols.append((re + [d * b for b in im], im + re))
        for r in x:
            u = [a for a, _ in r] + [b for _, b in r]
            out.append(tuple([(sum(map(mul, u, re)), sum(map(mul, u, im)))
                              for re, im in cols]))
        return tuple(out)

    def _step(self, p, prev):
        # in Z[sqrt(d)]: times the conjugate of prev, then by its int norm
        (pa, pb), (qa, qb), d = p, prev, self.d
        pivot = pa, pb, d * pb, qa, qb, d * qb, qa * qa - d * qb * qb, d

        def step(x, f, y):
            # the pivot's constants as fast locals
            pa, pb, dpb, qa, qb, dqb, norm, d = pivot
            fa, fb = f
            dfb, out = d * fb, []
            for (xa, xb), (ya, yb) in zip(x, y):
                za = pa * xa + dpb * xb - fa * ya - dfb * yb
                zb = pa * xb + pb * xa - fa * yb - fb * ya
                out.append(((za * qa - zb * dqb) // norm,
                            (zb * qa - za * qb) // norm))
            return out
        return step

    def _divide(self, rows, p, s):
        # x s / p = x s conj(p) / N(p)
        (pa, pb), d = p, self.d
        ca, cb = pa * s, -pb * s
        dcb = d * cb
        return self.normal(tuple(tuple([(xa * ca + xb * dcb, xb * ca + xa * cb)
                                        for xa, xb in r]) for r in rows),
                           pa * pa - d * pb * pb)

    @staticmethod
    def _quotient(p, q):
        return (Fraction(p[0], q), Fraction(p[1], q))

    def scale(self, u, f):
        c, e = f
        ed = e * self.d
        return [(a * c + b * ed, a * e + b * c) for a, b in u]


class _ScalarKernel(_BareissKernel):
    """Q on Fractions: the raw value is the scalar itself; a matrix is int
    rows over one int den."""

    name, zero, one, ring = "Q", _F0, _F1, (0, 1)
    neg, add, sub, mul = operator.neg, operator.add, operator.sub, operator.mul

    def __init__(self):
        self.wrap = self.conj = lambda a: a
        self.inv = lambda a: 1 / a
        self.scale = lambda u, c: [a * c for a in u]

    @staticmethod
    def unwrap(x):
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise ValidationError(f"{x!r} is not an element of Q")

    @staticmethod
    def lift(a):
        # over the lcm of the denominators, which leaves the content prime
        # to it
        den = math.lcm(*[x.denominator for r in a for x in r])
        return tuple(tuple([x.numerator * (den // x.denominator) for x in r])
                     for r in a), den

    @staticmethod
    def entries(a, den):
        return tuple(tuple([Fraction(x, den) for x in r]) for r in a)

    @staticmethod
    def normal(a, den):
        g = math.gcd(den, *[x for r in a for x in r])
        if den < 0:
            g = -g
        if g == 1:
            return a, den
        return tuple(tuple([x // g for x in r]) for r in a), den // g

    @staticmethod
    def rescale(a, s):
        return tuple(tuple([x * s for x in r]) for r in a)

    @staticmethod
    def matmul(x, y):
        mul, cols = operator.mul, tuple(zip(*y))
        return tuple(tuple([sum(map(mul, u, v)) for v in cols]) for u in x)

    @staticmethod
    def _step(p, prev):
        return lambda x, f, y: [(p * a - f * b) // prev for a, b in zip(x, y)]

    def _divide(self, rows, p, s):
        return self.normal(self.rescale(rows, s), p)

    @staticmethod
    def _quotient(p, q):
        return Fraction(p, q)


_KERNELS = weakref.WeakValueDictionary()


def _kernel(make, *args):
    """The one kernel make(*args), shared by every context over its field
    while any of them or of its scalars lives: a same-field test is ``is``."""
    k = _KERNELS.get((make,) + args)
    if k is None:
        k = _KERNELS[(make,) + args] = make(*args)
    return k


class FieldCtx:
    """A supported exact field with involution and the hermitian sign.

    ``epsilon`` is the sign of the forms classified downstream: the
    hyperbolic module built on this context carries a (-epsilon)-hermitian
    form and the triple invariant lands in epsilon-hermitian matrices.
    """

    def __init__(self, kind: str, p: int | None = None, d: int | None = None,
                 epsilon: int = 1):
        check_sign(epsilon, "epsilon")
        if not all(v is None or isinstance(v, int) for v in (p, d)):
            raise ValidationError("p and d must be integers")
        self.kind = kind
        self.p = p
        self.d = d
        self.epsilon = epsilon
        if kind in ("Fp", "Fp2"):
            if p is not None and p.bit_length() > FACTOR_BITS:
                raise TooLarge(f"a {p.bit_length()}-bit p is wider than the "
                               f"{FACTOR_BITS} bits a primality test takes")
            if p is None or not is_prime(p) or p == 2:
                raise ValidationError(f"{kind} needs an odd prime p")
            make, args = (_FpKernel if kind == "Fp" else _Fp2Kernel), (p,)
        elif kind == "QSqrt":
            if d is None or d == 0 or d == 1:
                raise ValidationError("QSqrt needs a squarefree d != 0, 1")
            if any(e > 1 for e in factorize(d).values()):
                raise ValidationError("d must be squarefree")
            make, args = _QuadKernel, (d,)
        elif kind == "Q":
            make, args = _ScalarKernel, ()
        else:
            raise ValidationError(f"unknown field kind {kind!r}")
        self.kernel = _kernel(make, *args)

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
        return f"FieldCtx({self.kernel.name}, eps={self.epsilon:+d})"

    # -- elements ------------------------------------------------------

    def zero(self):
        return self.kernel.wrap(self.kernel.zero)

    def one(self):
        return self.kernel.wrap(self.kernel.one)

    def from_int(self, n: int):
        return self.kernel.wrap(self.kernel.unwrap(n))

    def from_rational(self, q):
        q = Fraction(q)
        if self.is_finite:
            return self.from_int(q.numerator) / self.from_int(q.denominator)
        return self.kernel.wrap(self.kernel.unwrap(q))

    def generator(self):
        """sqrt(d) resp. w; only for the quadratic kinds."""
        if self.kind in ("Fp2", "QSqrt"):
            return self.kernel.wrap(self.kernel.gen)
        raise ValidationError("base field has no quadratic generator")

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
            return self.kernel.wrap(rng.randrange(self.p))
        if self.kind == "Fp2":
            return self.kernel.wrap((rng.randrange(self.p),
                                     rng.randrange(self.p)))
        return self.kernel.wrap((
            Fraction(rng.randint(-span, span), rng.randint(1, 3)),
            Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        ))

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
                a, b = _parse_rational(v[0]), _parse_rational(v[1])
                if self.kind == "Fp2":
                    if a.denominator != 1 or b.denominator != 1:
                        raise ParseError("F_{p^2} components must be integers")
                    return self.kernel.wrap((a.numerator % self.p,
                                             b.numerator % self.p))
                if self.kind == "QSqrt":
                    return self.kernel.wrap((a, b))
                raise ParseError(f"pair scalar invalid for field {self.kind}")
            return self.from_rational(_parse_rational(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {v!r}: {exc}") from exc

    def scalar_to_json(self, x):
        raw = self.kernel.unwrap(x)
        if self.kind in ("Fp2", "QSqrt"):
            return [str(v) for v in raw]
        return str(raw)


def norm_subgroup_class(ctx: FieldCtx, x):
    """The class of x modulo the norm subgroup {y^J y}: the element (x, +1)
    of S^, a ``witt.SHatElement``."""
    from .witt import SHatElement

    return SHatElement(ctx, (x,))
