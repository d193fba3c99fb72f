"""Symplectic Steinberg symbols and their reduction to quaternion forms.

Symbols {x, y} are kept as free formal sums; the five defining relations
are checked after applying the reduction map R into the Witt group, never
by solving a word problem.  The generic two-cocycle on determinant-one
2 x 2 matrices is compared against the reduced cocycle route; the safety
net of its factorization compares scalars, not matrix products.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .cocycle import BasedTriple, _require_symplectic, reduced_maslov
from .errors import NonGeneric, ValidationError, WrongContext, ZeroInput
from .fields import FieldCtx
from .forms import FormMatrix
from .lagrange import HyperbolicSpace, Lagrangian
from .linalg import Matrix
from .witt import WittClass, _normalize_entry


class SymbolSum:
    """Formal integer combination of symbols {x, y} over nonzero scalars."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=None):
        self.ctx = ctx
        self.terms = Counter()
        k = ctx.kernel
        if terms:
            for (x, y), mult in dict(terms).items():
                x, y = k.wrap(k.unwrap(x)), k.wrap(k.unwrap(y))
                if not x or not y:
                    raise ZeroInput("symbol entries must be nonzero")
                if mult:
                    self.terms[(x, y)] += mult

    @staticmethod
    def symbol(ctx, x, y):
        return SymbolSum(ctx, {(x, y): 1})

    def __add__(self, other, sign=1):
        if self.ctx != other.ctx:
            raise ValidationError("symbol sums over different fields")
        out = SymbolSum(self.ctx)
        out.terms = Counter(self.terms)
        for pair, mult in other.terms.items():
            out.terms[pair] += sign * mult  # Counter's + drops negatives
        return out

    def __sub__(self, other):
        return self.__add__(other, -1)

    def items(self):
        return [(pair, mult) for pair, mult in self.terms.items() if mult]

    def __eq__(self, other):
        if not isinstance(other, SymbolSum):
            return NotImplemented
        return self.ctx == other.ctx and dict(self.items()) == dict(
            other.items())

    def __repr__(self):
        if not self.items():
            return "0"
        parts = []
        for (x, y), mult in self.items():
            head = "" if mult == 1 else f"{mult}*"
            parts.append(f"{head}{{{x!r},{y!r}}}")
        return " + ".join(parts)


def quaternion_form(ctx: FieldCtx, x, y) -> FormMatrix:
    """The four-dimensional symmetric form <1, -x, -y, xy>."""
    if not x or not y:
        raise ZeroInput("quaternion form needs nonzero entries")
    return FormMatrix.diagonal(ctx, [ctx.one(), -x, -y, x * y], 1)


def _require_trivial_involution(ctx):
    # a quaternion form is symmetric only where the involution fixes x, y
    if not ctx.has_trivial_involution:
        raise WrongContext("symbols need a field with trivial involution")


def R_map(sym: SymbolSum) -> WittClass:
    """Additive extension of {x, y} -> [<1, -x, -y, xy>]; lands in the
    discriminant kernel subgroup."""
    _require_trivial_involution(sym.ctx)
    out = WittClass.zero(sym.ctx)
    for (x, y), mult in sym.items():
        cls = _sym_class(sym.ctx, x, y)
        if mult < 0:
            cls = cls.neg()
            mult = -mult
        for _ in range(mult):
            out = out + cls
    return out


def _sym_class(ctx, x, y):
    # the class of quaternion_form(ctx, x, y), read from its diagonal of
    # nonzero entries; the callers have refused a nontrivial involution
    return WittClass._of(ctx, tuple(_normalize_entry(ctx, e) for e in (
        ctx.one(), -x, -y, x * y)), 1)


def steinberg_relations_report(ctx: FieldCtx, triples) -> dict:
    """Check the five symbol relations after applying R, over the supplied
    (s, t, r) scalar triples.  Returns per-relation counts and violations."""
    _require_trivial_involution(ctx)
    checks = dict.fromkeys(["additivity", "unit", "inverse-swap",
                            "negate-product", "one-minus"], 0)
    violations = []
    one, k = ctx.one(), ctx.kernel
    for triple in triples:
        # refuses scalars of another field; ints become elements of ctx
        s, t, r = (k.wrap(k.unwrap(x)) for x in triple)
        if not (s and t and r):
            continue
        st = _sym_class(ctx, s, t)
        held = {
            "additivity": _sym_class(ctx, s * t, r) + st
            == _sym_class(ctx, s, t * r) + _sym_class(ctx, t, r),
            "unit": _sym_class(ctx, s, one).is_zero()
            and _sym_class(ctx, one, s).is_zero(),
            "inverse-swap": st == _sym_class(ctx, one / t, s),
            "negate-product": st == _sym_class(ctx, s, -(s * t)),
        }
        if s != one:
            held["one-minus"] = st == _sym_class(ctx, s, (one - s) * t)
        for name, ok in held.items():
            checks[name] += 1
            if not ok:
                violations.append((name, s, t, r))
    return {"checks": checks, "violations": violations,
            "ok": not violations}


# ---------------------------------------------------------------------------
# The generic cocycle on determinant-one 2 x 2 matrices


class Sl2Factorization(NamedTuple):
    """g = u_s b_r u_t (shape "b", lower-left nonzero) or g = a_r u_t
    (shape "a", lower-left zero)."""

    shape: str
    s: object
    r: object
    t: object


def generic_decompose(g: Matrix) -> Sl2Factorization:
    """Exact factorization of a determinant-one 2 x 2 matrix."""
    if g.m != 2 or g.n != 2:
        raise ValidationError("decomposition needs a 2 x 2 matrix")
    ctx = g.ctx
    if g.det() != ctx.one():
        raise ValidationError("matrix must have determinant one")
    g11, g12, g21, g22 = map(ctx.kernel.wrap, g.raw[0] + g.raw[1])
    one = ctx.one()
    if g21:
        r, s, t = -(one / g21), g11 / g21, g22 / g21
        fac = Sl2Factorization("b", s, r, t)
        # safety net: the entries of u_s b_r u_t, resp. a_r u_t below
        product = (-(s / r), r - s * t / r, -(one / r), -(t / r))
    else:
        r, t = g11, g12 / g11
        fac = Sl2Factorization("a", ctx.zero(), r, t)
        product = (r, r * t, ctx.zero(), one / r)
    if product != (g11, g12, g21, g22):
        raise ValidationError("factorization failed")
    return fac


def _stbg_sum(ctx, r1, r2, t) -> SymbolSum:
    """The generic-normal-form value of the universal two-cocycle:
    {t/(r1 r2), -r1/r2} - {-r1, -r2} with t = t1 + s2 nonzero."""
    return (SymbolSum.symbol(ctx, t / (r1 * r2), -(r1 / r2))
            - SymbolSum.symbol(ctx, -r1, -r2))


def stbg_parameters(g1: Matrix, g2: Matrix):
    """(r1, r2, t) of a generic pair; NonGeneric otherwise."""
    f1 = generic_decompose(g1)
    f2 = generic_decompose(g2)
    if f1.shape != "b" or f2.shape != "b":
        raise NonGeneric("both factors must have nonzero lower-left entry")
    t = f1.t + f2.s
    if not t:
        raise NonGeneric("t1 + s2 vanishes; resample")
    return f1.r, f2.r, t


def reduced_route(ctx, r1, r2, t) -> WittClass:
    """The cocycle value of the generic pair with parameters (r1, r2, t),
    computed through the reduced cocycle on the based triple with
    witnesses a = 1, b = r1^{-1}, c = -r2^{-1}, built unchecked: its
    frame and kappa decide opposition."""
    space = HyperbolicSpace(ctx, 1)
    one, zero, raw = ctx.one(), ctx.zero(), ctx.kernel.unwrap
    c = -(one / r2)
    bases = [Matrix._of(ctx, ((raw(x),), (raw(y),)))
             for x, y in ((one, zero), (zero, one / r1), (t * c, c))]
    bt = BasedTriple(*(Lagrangian._of(space, b) for b in bases))
    return reduced_maslov(bt).neg()


def compare_stbg_maslov(g1: Matrix, g2: Matrix) -> bool:
    """Does R(stbg(g1, g2)) match both the closed form
    -[<t, r1 r2 t, r1, r2>] and the reduced-cocycle route?"""
    ctx = g1.ctx
    _require_symplectic(ctx)
    r1, r2, t = stbg_parameters(g1, g2)
    via_R = R_map(_stbg_sum(ctx, r1, r2, t))
    closed = WittClass(ctx, (t, r1 * r2 * t, r1, r2)).neg()
    via_reduced = reduced_route(ctx, r1, r2, t)
    return via_R == closed and via_reduced == closed
