"""Witt classes, the extended square-class group, and Hilbert symbols.

Every Witt-class decision (zero test, equality, hashing, the signature,
and through ``forms.isometry_key`` isometry) reads one complete invariant
per field kind, ``_witt_key``, computed from a diagonal representative
that only ``witt_class`` reduces a form to:

  * F_p       -- dimension parity and the Legendre symbol of the signed
                 discriminant;
  * F_{p^2}   -- dimension parity;
  * Q         -- the signature and the nonzero second residues d_p, after
                 Milnor's W(Q) = Z + sum_p W(F_p) (Milnor-Husemoller,
                 Symmetric Bilinear Forms, Ch. IV);
  * Q(sqrt d) -- the rational key of the trace transfer.

Elements of the extended square-class group S^, norm classes among
them, are decided the same way by ``_norm_class``, from unmultiplied
factors.

Hilbert symbols and Hasse invariants serve only the reported ``hasse``
field, the ``hilbert`` command and the local oracles of the test suite.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    ContextMismatch,
    DegenerateInput,
    NotHermitian,
    ValidationError,
    WrongContext,
    ZeroInput,
    ZeroScalar,
)
from .fields import (
    INF,
    FieldCtx,
    check_sign,
    is_prime,
    legendre,
    square_class,
    squarefree_part,
)
from .forms import FormMatrix, diagonalize, hasse_invariant


# ---------------------------------------------------------------------------
# Hilbert symbols over Q


def _val_unit(n: int, p: int):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a, b) at a rational place.

    -1 exactly when z^2 = a x^2 + b y^2 has only the trivial solution over
    the completion; computed by the classical valuation/residue formulas.
    ``place`` is an odd prime, 2, or "inf".
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroInput("Hilbert symbol needs nonzero entries")
    a = squarefree_part(a)
    b = squarefree_part(b)
    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    p = int(place)
    if not is_prime(p):
        raise ValidationError(f"{place} is not a place of Q")
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    alpha, u = _val_unit(abs(a), p)
    beta, v = _val_unit(abs(b), p)
    u *= sa
    v *= sb
    if p == 2:
        def eps(n):
            return ((n - 1) // 2) % 2

        def omega(n):
            return ((n * n - 1) // 8) % 2

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    out = 1
    if (alpha * beta) % 2 and ((p - 1) // 2) % 2:
        out = -out
    if beta % 2:
        out *= legendre(u % p, p)
    if alpha % 2:
        out *= legendre(v % p, p)
    return out


def relevant_places(entries):
    """Places where symbols built from the given rationals can be nontrivial:
    2, infinity, and every odd prime dividing a squarefree part."""
    places = {2}
    for e in entries:
        places |= square_class(e)[1]
    return sorted(places) + [INF]


# ---------------------------------------------------------------------------
# The Witt key


def _fp_key(p: int, n: int, det: int):
    """Key of an n-dimensional form over F_p with determinant det: dimension
    parity and the quadratic character of the signed discriminant."""
    if n % 4 in (2, 3):
        det = -det
    return n % 2, legendre(det, p)


def _rational_key(classes):
    """Signature and nonzero second residues of the rational form whose
    entries have the given square classes.  For odd p, d_p is the F_p key
    of the units e/p of the entries e with p in their class; d_2 is the
    parity of their number, as W(F_2) = Z/2."""
    at = {}
    for c in classes:
        for p in c[1]:
            at.setdefault(p, []).append(c)
    residues = []
    for p in sorted(at):
        units = at[p]
        if p == 2:
            if len(units) % 2:
                residues.append((2, 1))
            continue
        det = 1
        for sign, primes in units:
            det *= sign
            for q in primes:
                if q != p:
                    det = det * q % p
        r = _fp_key(p, len(units), det)
        if r != (0, 1):
            residues.append((p,) + r)
    return sum(sign for sign, _ in classes), tuple(residues)


def _witt_key(ctx: FieldCtx, eps: int, entries):
    """Complete hashable invariant of the Witt class of the diagonal form
    <entries>: two forms have the same class exactly when their keys agree.

    Each entry's factorization is read on its own; no product of entries
    is ever factored.
    """
    if eps == -1 and ctx.has_trivial_involution:
        return ()  # the Witt group of skew forms is trivial
    if ctx.kind == "Fp":
        det = 1
        for e in entries:
            det = det * e.raw % ctx.p
        return _fp_key(ctx.p, len(entries), det)
    if ctx.kind == "Fp2":
        return len(entries) % 2
    if ctx.kind == "Q":
        return _rational_key([square_class(e) for e in entries])
    # Q(sqrt d): the trace transfer <a> -> <a, -d a>
    sign_d, primes_d = square_class(-ctx.d)
    classes = []
    for e in entries:
        sign, primes = square_class(e.raw[0])
        classes += [(sign, primes), (sign * sign_d, primes ^ primes_d)]
    return _rational_key(classes)


# ---------------------------------------------------------------------------
# The extended square-class group S^


def _norm_class(ctx: FieldCtx, factors):
    """(key, representative) of the product of the nonzero factors modulo
    the norm subgroup N = {y^J y}; the key is complete and hashable.

      * Q         -- the sign and the primes of odd exponent;
      * F_p       -- the Legendre symbol;
      * F_{p^2}   -- N = F_p^*: b/a of the product a + b w, None if a = 0;
      * Q(sqrt d) -- the product is lam (t + sqrt d), or lam with t None
                     when it is rational.  The norms are the similarity
                     factors of <1, -d>, so lam modulo norms is fixed by
                     the rational key of the trace form <lam, -d lam>.

    Rational factors enter only through their square classes; only the
    non-rational factors over Q(sqrt d) are multiplied out.
    """
    if ctx.kind == "Fp":
        if legendre(math.prod(f.raw for f in factors), ctx.p) == 1:
            return 1, ctx.one()
        return -1, ctx.from_int(ctx._least_nonresidue(ctx.p))
    k = ctx.kernel
    if ctx.kind == "Fp2":
        a, b = functools.reduce(k.mul, (f.raw for f in factors), k.one)
        if a == 0:
            return None, ctx.generator()
        ratio = b * pow(a, ctx.p - 2, ctx.p) % ctx.p
        return ratio, k.wrap((1, ratio))
    t, rational = None, factors
    if ctx.kind == "QSqrt":
        raws = [f.raw for f in factors]
        a, b = functools.reduce(k.mul, (r for r in raws if r[1]), k.one)
        t = a / b if b else None
        rational = [r[0] for r in raws if not r[1]] + [b or a]
    sign, odd = 1, frozenset()
    for q in rational:
        s, primes = square_class(q)
        sign *= s
        odd ^= primes  # odd exponents cancel in pairs
    lam = sign * math.prod(odd)
    if ctx.kind == "Q":
        return (sign, odd), Fraction(lam)
    sign_d, primes_d = square_class(-ctx.d)
    key = _rational_key([(sign, odd), (sign * sign_d, odd ^ primes_d)])
    if t is None:
        return (None, key), ctx.from_rational(lam)
    return (t, key), k.wrap((lam * t, Fraction(lam)))


class SHatElement:
    """An element (x N, (-1)^m) of S^ = K^*/N x {+-1}, with the twisted
    group law

        (x, (-1)^m) + (y, (-1)^n) = (x y (-1)^{mn}, (-1)^{m+n}).

    x is held as unmultiplied scalar factors; ``_norm_class``, computed
    once, decides equality, the identity and hashing and gives the
    representative.  A class modulo the norm subgroup N = {y^J y} is the
    element of sign +1.
    """

    __slots__ = ("ctx", "factors", "sign", "_class_cache")

    def __init__(self, ctx: FieldCtx, factors=(), sign: int = 1):
        check_sign(sign, "sign")
        k = ctx.kernel
        factors = tuple(k.wrap(k.unwrap(f)) for f in factors)
        if not all(factors):
            raise ZeroScalar("norm class of 0 is undefined")
        self.ctx = ctx
        self.factors = factors
        self.sign = sign
        self._class_cache = None

    def _class(self):
        if self._class_cache is None:
            self._class_cache = _norm_class(self.ctx, self.factors)
        return self._class_cache

    @property
    def rep(self):
        return self._class()[1]

    def is_identity(self) -> bool:
        return self == SHatElement(self.ctx)

    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatch("S^ elements over different fields")
        twist = (-self.ctx.one(),) if self.sign == other.sign == -1 else ()
        return SHatElement(self.ctx, self.factors + other.factors + twist,
                           self.sign * other.sign)

    def neg(self):
        one = self.ctx.one()
        factors = tuple(one / f for f in self.factors)
        if self.sign == -1:
            factors += (-one,)
        return SHatElement(self.ctx, factors, self.sign)

    def __sub__(self, other):
        return self + other.neg()

    def __eq__(self, other):
        if not isinstance(other, SHatElement) or self.ctx != other.ctx:
            return NotImplemented
        return (self.sign == other.sign
                and self._class()[0] == other._class()[0])

    def __hash__(self):
        return hash((self.ctx, self.sign, self._class()[0]))

    def to_json(self):
        return {"s": self.ctx.scalar_to_json(self.rep), "sign": self.sign}

    def __repr__(self):
        return f"({self.rep!r}, {self.sign:+d})"


def signed_discriminant(ctx: FieldCtx, n: int, factors) -> SHatElement:
    """(prod(factors) (-1)^{n(n-1)/2} N, (-1)^n), the signed discriminant of
    an n-dimensional form whose determinant is the product of the factors;
    they stay unmultiplied."""
    if (n * (n - 1) // 2) % 2:
        factors = tuple(factors) + (-ctx.one(),)
    return SHatElement(ctx, factors, (-1) ** n)


# ---------------------------------------------------------------------------
# Witt classes


def _normalize_entry(ctx, e):
    # replacing a nonzero J-fixed diagonal entry by a square multiple keeps
    # its class; keeping entries squarefree bounds all later arithmetic
    if ctx.kind == "Q":
        return Fraction(squarefree_part(e))
    if ctx.kind == "QSqrt":
        return ctx.from_rational(squarefree_part(e.raw[0]))
    return e


class WittClass:
    """A Witt-group element, held as a diagonal representative; its
    ``_witt_key``, computed once, decides equality, zero and hashing.

    The entries are nonzero elements of the field that the involution
    fixes.  The constructor scales nothing: ``witt_class`` scales a
    skew-hermitian form over the quadratic kinds into a hermitian one.
    For skew forms over a field with trivial involution the group is
    trivial and the representative is empty.
    """

    __slots__ = ("ctx", "eps", "diag", "_key_cache")

    def __init__(self, ctx: FieldCtx, diag, eps: int = 1):
        check_sign(eps, "eps")
        k = ctx.kernel
        raws = tuple(map(k.unwrap, diag))
        if k.zero in raws:
            raise DegenerateInput("Witt representative has a zero entry")
        if not ctx.has_trivial_involution and any(
                k.conj(r) != r for r in raws):
            raise NotHermitian("Witt entry is not fixed by the involution")
        if eps == -1 and ctx.has_trivial_involution:
            raws = ()
        self.ctx, self.eps, self._key_cache = ctx, eps, None
        self.diag = tuple(_normalize_entry(ctx, k.wrap(r)) for r in raws)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of(cls, ctx, diag, eps):
        # trusted: a tuple of normalized nonzero J-fixed entries, as it is
        out = cls.__new__(cls)
        out.ctx, out.eps, out.diag, out._key_cache = ctx, eps, diag, None
        return out

    @staticmethod
    def zero(ctx, eps=1):
        return WittClass(ctx, (), eps)

    # -- helpers ----------------------------------------------------------

    def _key(self):
        if self._key_cache is None:
            self._key_cache = _witt_key(self.ctx, self.eps, self.diag)
        return self._key_cache

    def _check_context(self, other):
        if self.ctx != other.ctx or self.eps != other.eps:
            raise ContextMismatch("Witt classes over different contexts")

    def dim_mod2(self) -> int:
        return len(self.diag) % 2

    def signature(self) -> int:
        """The signature over Q, or of the trace form over Q(sqrt d): the
        first component of the rational key.  The skew class over Q has
        the empty key and signature 0."""
        if self.ctx.is_finite:
            raise ValidationError("signature needs a characteristic-0 field")
        key = self._key()
        return key[0] if key else 0

    # -- group structure ---------------------------------------------------

    def neg(self):
        return WittClass._of(self.ctx, tuple(-e for e in self.diag), self.eps)

    def __add__(self, other):
        if not isinstance(other, WittClass):
            return NotImplemented
        self._check_context(other)
        return WittClass._of(self.ctx, self.diag + other.diag, self.eps)

    def __sub__(self, other):
        return self + other.neg()

    def is_zero(self) -> bool:
        return self._key() == _witt_key(self.ctx, self.eps, ())

    def __eq__(self, other):
        if not isinstance(other, WittClass):
            return NotImplemented
        self._check_context(other)
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.ctx, self.eps, self._key()))

    # -- invariants --------------------------------------------------------

    def signed_disc(self) -> SHatElement:
        """(det (-1)^{n(n-1)/2} N, (-1)^n); the entries stay unmultiplied."""
        return signed_discriminant(self.ctx, len(self.diag), self.diag)

    def in_II(self) -> bool:
        return self.signed_disc().is_identity()

    def to_json(self):
        disc = self.signed_disc()
        out = {
            "dim_mod2": self.dim_mod2(),
            "disc": disc.to_json(),
            "is_zero": self.is_zero(),
            "in_II": disc.is_identity(),
            "representative": [self.ctx.scalar_to_json(e) for e in self.diag],
            "signature": None if self.ctx.is_finite else self.signature(),
        }
        if self.ctx.kind == "Q":
            out["hasse"] = [
                {"p": str(pl), "val": hasse_invariant(self.diag, pl)}
                for pl in relevant_places(self.diag)
            ]
        return out

    def __repr__(self):
        return f"WittClass({list(self.diag)!r})"


def _diagonal_class(ctx, eps, diag):
    """The class of a nondegenerate diagonal form, its entries nonzero and
    J-fixed.  Pairs of entries whose class is zero are dropped, first pair
    first, which only shortens the reported representative, and the rest
    normalized."""
    zero = _witt_key(ctx, eps, ())
    entries = list(diag)
    i = 0
    while i < len(entries):
        for j in range(i + 1, len(entries)):
            if _witt_key(ctx, eps, (entries[i], entries[j])) == zero:
                del entries[j]
                del entries[i]
                break
        else:
            i += 1
    return WittClass._of(ctx, tuple(_normalize_entry(ctx, e)
                                    for e in entries), eps)


def witt_class(t: FormMatrix) -> WittClass:
    """The image of the form in the Witt group of its context."""
    ctx, eps = t.ctx, t.eps
    if eps == -1 and ctx.has_trivial_involution:
        # the skew Witt group is trivial: only nondegeneracy is read
        diag, degenerate = (), not t.mat.is_invertible()
    else:
        if eps == -1:
            # u t is hermitian for the trace-zero unit u, as u^J = -u
            t = FormMatrix._of(ctx, t.mat.scale(ctx.generator()), 1)
        dg = diagonalize(t)
        diag, degenerate = dg.diag, dg.radical_dim > 0
    if degenerate:
        raise DegenerateInput("Witt class needs a nondegenerate form")
    # a nondegenerate hermitian form's diagonal is nonzero and J-fixed
    return _diagonal_class(ctx, eps, diag)


def trace_transfer(h: WittClass) -> WittClass:
    """Transfer a hermitian Witt class over Q(sqrt(d)) to the rational Witt
    group: <a_1,...,a_n> maps to <1,-d> tensor <a_1,...,a_n>."""
    if h.ctx.kind != "QSqrt":
        raise WrongContext("trace transfer needs a Q(sqrt(d)) context")
    minus_d = Fraction(-h.ctx.d)
    entries = []
    for a in (e.raw[0] for e in h.diag):
        entries += [a, minus_d * a]
    return WittClass(FieldCtx("Q", epsilon=1), entries, eps=1)
