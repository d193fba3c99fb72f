"""Witt classes, the extended square-class group, and Hilbert symbols.

Every Witt-class decision (zero test, equality, hashing, and through
``forms.isometry_key`` isometry) reads one complete invariant per field
kind, ``_witt_key``, computed from a diagonal representative:

  * F_p       -- dimension parity and the Legendre symbol of the signed
                 discriminant;
  * F_{p^2}   -- dimension parity;
  * Q         -- the signature and the nonzero second residues d_p, after
                 Milnor's W(Q) = Z + sum_p W(F_p) (Milnor-Husemoller,
                 Symmetric Bilinear Forms, Ch. IV);
  * Q(sqrt d) -- the rational key of the trace transfer.

Hilbert symbols and Hasse invariants serve only the reported ``hasse``
field, the ``hilbert`` command and the local oracles.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    ContextMismatch,
    DegenerateInput,
    ValidationError,
    WrongContext,
    ZeroInput,
)
from .fields import (
    INF,
    FieldCtx,
    NormClassRep,
    factorize,
    is_prime,
    legendre,
    norm_subgroup_class,
    squarefree_part,
)
from .forms import (
    FormMatrix,
    _scale_to_hermitian,
    diagonalize,
    hasse_invariant,
)


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
        places |= _square_class(e)[1]
    return sorted(places) + [INF]


def p_adic_square_class(q, p: int):
    """Square class of a nonzero rational in Q_p, as (valuation mod 2, unit
    residue class); four classes for odd p."""
    q = Fraction(q)
    if q == 0:
        raise ZeroInput("0 has no square class")
    s = squarefree_part(q)
    sign = 1 if s > 0 else -1
    v, u = _val_unit(abs(s), p)
    u *= sign
    if p == 2:
        return (v % 2, u % 8)
    return (v % 2, legendre(u % p, p))


def local_hyperbolic_hasse(dim: int, place) -> int:
    """Hasse invariant of the split form <1,-1,...,1,-1> of the given even
    dimension at the given place."""
    m = dim // 2
    pairs = m * (m - 1) // 2
    minus = hilbert_symbol(-1, -1, place)
    return minus if pairs % 2 else 1


def local_witt_is_zero(entries, place) -> bool:
    """Is the rational diagonal form Witt-trivial over the completion?"""
    entries = [Fraction(e) for e in entries]
    n = len(entries)
    if n % 2:
        return False
    m = n // 2
    if place == INF:
        return sum(1 if e > 0 else -1 for e in entries) == 0
    det = Fraction(1)
    for e in entries:
        det *= e
    if p_adic_square_class(det, place) != p_adic_square_class(
            Fraction((-1) ** m), place):
        return False
    return hasse_invariant(entries, place) == local_hyperbolic_hasse(
        n, place)


# ---------------------------------------------------------------------------
# The extended square-class group S^


class SHatElement:
    """Extended square class (s, +-1) with the twisted group law

        (x, (-1)^m) + (y, (-1)^n) = (x y (-1)^{mn}, (-1)^{m+n}).
    """

    __slots__ = ("ctx", "s", "sign")

    def __init__(self, ctx: FieldCtx, s, sign: int):
        if sign not in (1, -1):
            raise ValidationError("sign must be +1 or -1")
        if isinstance(s, NormClassRep):
            self.s = s
        else:
            self.s = norm_subgroup_class(ctx, s)
        self.ctx = ctx
        self.sign = sign

    @staticmethod
    def identity(ctx):
        return SHatElement(ctx, ctx.one(), 1)

    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatch("S^ elements over different fields")
        twist = -1 if (self.sign == -1 and other.sign == -1) else 1
        s = self.s.rep * other.s.rep
        if twist == -1:
            s = -s
        return SHatElement(self.ctx, s, self.sign * other.sign)

    def neg(self):
        s = self.ctx.one() / self.s.rep
        if self.sign == -1:
            s = -s
        return SHatElement(self.ctx, s, self.sign)

    def __sub__(self, other):
        return self + other.neg()

    def is_identity(self) -> bool:
        return self.sign == 1 and self.s.is_trivial()

    def __eq__(self, other):
        if not isinstance(other, SHatElement):
            return NotImplemented
        return self.sign == other.sign and self.s == other.s

    def __hash__(self):
        return hash((self.ctx, self.sign, self.s))

    def to_json(self):
        rep = self.s.rep
        if self.ctx.kind == "Q":
            srep = str(rep)
        else:
            srep = self.ctx.scalar_to_json(rep)
        return {"s": srep, "sign": self.sign}

    def __repr__(self):
        return f"({self.s.rep!r}, {self.sign:+d})"


# ---------------------------------------------------------------------------
# The Witt key


def _square_class(q):
    """(sign, primes of odd exponent) of a nonzero rational, read from the
    cached factorizations of its numerator and denominator."""
    q = Fraction(q)
    odd = set()
    for n in (q.numerator, q.denominator):
        odd.update(p for p, e in factorize(n).items() if e % 2)
    return (1 if q > 0 else -1), frozenset(odd)


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
            det = det * e.v % ctx.p
        return _fp_key(ctx.p, len(entries), det)
    if ctx.kind == "Fp2":
        return len(entries) % 2
    if ctx.kind == "Q":
        return _rational_key([_square_class(e) for e in entries])
    # Q(sqrt d): the trace transfer <a> -> <a, -d a>
    sign_d, primes_d = _square_class(-ctx.d)
    classes = []
    for e in entries:
        sign, primes = _square_class(ctx.fixed_rational(e))
        classes += [(sign, primes), (sign * sign_d, primes ^ primes_d)]
    return _rational_key(classes)


# ---------------------------------------------------------------------------
# Witt classes


def _normalize_entry(ctx, e):
    # replacing a diagonal entry by a square multiple keeps its class;
    # keeping entries squarefree bounds all later arithmetic
    if ctx.kind == "Q" and e:
        return Fraction(squarefree_part(e))
    if ctx.kind == "QSqrt" and e and e.b == 0:
        from .fields import QuadElt

        return QuadElt(ctx.d, squarefree_part(e.a), 0)
    return e


class WittClass:
    """A Witt-group element, held as a diagonal representative; its
    ``_witt_key``, computed once, decides equality, zero and hashing.

    For skew forms over a field with trivial involution the group is
    trivial and the representative is empty.  Skew-hermitian forms over
    the quadratic kinds are scaled by a trace-zero unit into hermitian
    ones on entry.
    """

    __slots__ = ("ctx", "eps", "diag", "_key_cache")

    def __init__(self, ctx: FieldCtx, diag, eps: int = 1):
        if eps == -1 and ctx.has_trivial_involution:
            diag = ()
        self.ctx = ctx
        self.eps = eps
        self.diag = tuple(_normalize_entry(ctx, e) for e in diag)
        if any(not e for e in self.diag):
            raise DegenerateInput("Witt representative has a zero entry")
        self._key_cache = None

    # -- constructors ----------------------------------------------------

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

    def rational_entries(self):
        return [self.ctx.fixed_rational(e) for e in self.diag]

    def signature(self) -> int:
        if self.ctx.kind == "Q":
            return sum(1 if e > 0 else -1 for e in self.diag)
        if self.ctx.kind == "QSqrt":
            return trace_transfer(self).signature()
        raise ValidationError("signature needs a characteristic-0 field")

    def det(self):
        out = self.ctx.one()
        for e in self.diag:
            out = out * e
        return out

    # -- group structure ---------------------------------------------------

    def neg(self):
        return WittClass(self.ctx, tuple(-e for e in self.diag), self.eps)

    def __add__(self, other):
        if not isinstance(other, WittClass):
            return NotImplemented
        self._check_context(other)
        return WittClass(self.ctx, self.diag + other.diag, self.eps)

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
        if not self.diag:
            return SHatElement.identity(self.ctx)
        n = len(self.diag)
        s = self.det()
        if (n * (n - 1) // 2) % 2:
            s = -s
        return SHatElement(self.ctx, s, (-1) ** n)

    def in_II(self) -> bool:
        return self.signed_disc().is_identity()

    def to_json(self):
        out = {
            "dim_mod2": self.dim_mod2(),
            "disc": self.signed_disc().to_json(),
            "is_zero": self.is_zero(),
            "in_II": self.in_II(),
            "representative": [self.ctx.scalar_to_json(e) for e in self.diag],
        }
        if self.ctx.kind == "Q":
            entries = self.rational_entries()
            out["signature"] = self.signature()
            out["hasse"] = [
                {"p": str(pl), "val": hasse_invariant(entries, pl)}
                for pl in relevant_places(entries)
            ]
        elif self.ctx.kind == "QSqrt":
            out["signature"] = self.signature()
        else:
            out["signature"] = None
        return out

    def __repr__(self):
        return f"WittClass({list(self.diag)!r})"


def _strip_hyperbolic(ctx, eps, diag):
    """Drop pairs of entries whose class is zero, first pair first; this
    only shortens the reported representative."""
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
    return tuple(entries)


def witt_class(t: FormMatrix) -> WittClass:
    """The image of the form in the Witt group of its context."""
    if not t.is_nondegenerate():
        raise DegenerateInput("Witt class needs a nondegenerate form")
    ctx, eps = t.ctx, t.eps
    if eps == -1:
        if ctx.has_trivial_involution:
            return WittClass.zero(ctx, eps)
        t = _scale_to_hermitian(t)
    return WittClass(ctx, _strip_hyperbolic(ctx, eps, diagonalize(t).diag),
                     eps)


def trace_transfer(h: WittClass) -> WittClass:
    """Transfer a hermitian Witt class over Q(sqrt(d)) to the rational Witt
    group: <a_1,...,a_n> maps to <1,-d> tensor <a_1,...,a_n>."""
    if h.ctx.kind != "QSqrt":
        raise WrongContext("trace transfer needs a Q(sqrt(d)) context")
    minus_d = Fraction(-h.ctx.d)
    entries = []
    for a in h.rational_entries():
        entries += [a, minus_d * a]
    return WittClass(FieldCtx("Q", epsilon=1), entries, eps=1)


def local_invariant_tuples(p: int):
    """All (dim mod 2, square class of det, Hasse) tuples realized by
    diagonal forms over Q_p with entries drawn from {1, u, p, u p}."""
    u = FieldCtx("Fp", p=p)._least_nonresidue(p)
    gens = [Fraction(1), Fraction(u), Fraction(p), Fraction(u * p)]
    seen = set()
    import itertools

    for dim in range(1, 5):
        for combo in itertools.combinations_with_replacement(gens, dim):
            det = Fraction(1)
            for e in combo:
                det *= e
            seen.add((dim % 2, p_adic_square_class(det, p),
                      hasse_invariant(combo, p)))
    return seen
