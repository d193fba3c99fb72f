"""The Witt-valued cocycle on triples of Lagrangians and its reductions.

The cocycle sends a pairwise opposite triple to the Witt class of its
classifying invariant.  Its boundary on admissible quadruples vanishes;
its signed discriminant is the cyclic edge sum of an extended square
class cochain on based Lagrangians, read from the pairing of the bases;
subtracting the coboundary of the determinant lift pushes the cocycle
into the subgroup of discriminant kernel classes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import (
    ConstraintViolated,
    NonGeneric,
    NotPairwiseOpposite,
    ValidationError,
    WrongContext,
)
from .forms import FormMatrix, diagonalize, isometry_key
from .lagrange import (
    HyperbolicSpace,
    Lagrangian,
    PairFrame,
    UnitaryElement,
    _check_space,
    _hermitian_additive_basis,
    ell_a,
    enumerate_lagrangians,
    is_opposite,
    kappa,
    u_t,
    w_element,
)
from .linalg import Matrix
from .witt import (
    SHatElement,
    WittClass,
    _diagonal_class,
    _normalize_entry,
    signed_discriminant,
    witt_class,
)


def maslov(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> WittClass:
    """Witt class of the triple invariant; alternating and cyclic."""
    return witt_class(kappa(x, y, z))


def boundary_defect(x, y, z, zp) -> WittClass:
    """m<y,z,z'> - m<x,z,z'> + m<x,y,z'> - m<x,y,z> for six-way opposite
    quadruples; the cocycle theorem says this is always zero.  The frames
    of (x, y) and (y, z) decide all six oppositions."""
    frame = PairFrame(x, y)
    return (maslov(y, z, zp) - maslov(x, z, zp)
            + witt_class(frame.kappa(zp)) - witt_class(frame.kappa(z)))


def relation_check(r: FormMatrix, s: FormMatrix, t: FormMatrix) -> WittClass:
    """[r] + [s] + [t] + [-r^{-J} - s^{-J}] for invertible summands with
    r + s + t = 0; always the zero class."""
    if not (r.ctx == s.ctx == t.ctx) or not (r.eps == s.eps == t.eps):
        raise ConstraintViolated("mismatched forms")
    if not (r.mat + s.mat + t.mat).is_zero():
        raise ConstraintViolated("r + s + t must vanish")
    for f in (r, s, t):
        if not f.mat.is_invertible():
            raise ConstraintViolated("all three forms must be invertible")
    fourth = FormMatrix._of(
        r.ctx, -(r.mat.inverse().jt() + s.mat.inverse().jt()), r.eps)
    return (witt_class(r) + witt_class(s) + witt_class(t)
            + witt_class(fourth))


# ---------------------------------------------------------------------------
# Kashiwara's form


def _require_symplectic(ctx):
    if not (ctx.has_trivial_involution and ctx.epsilon == 1):
        raise WrongContext("operation needs a symplectic context")


def kashiwara_form(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> FormMatrix:
    """Gram matrix of (u, v, w) -> h(u,v) + h(v,w) + h(w,u) on the direct
    sum of the three Lagrangians; defined for arbitrary triples."""
    space = x.space
    _require_symplectic(space.ctx)
    if y.space != space or z.space != space:
        raise WrongContext("triple must live in one module")
    ctx = space.ctx
    n = space.n
    half = ctx.one() / ctx.from_int(2)
    bx, by, bz = x.basis, y.basis, z.basis
    sxy = space.pairing(bx, by).scale(half)
    syz = space.pairing(by, bz).scale(half)
    szx = space.pairing(bz, bx).scale(half)
    zero = Matrix.zeros(ctx, n, n)
    top = zero.hstack(sxy).hstack(szx.transpose())
    mid = sxy.transpose().hstack(zero).hstack(syz)
    bot = szx.hstack(syz.transpose()).hstack(zero)
    return FormMatrix._of(ctx, top.vstack(mid).vstack(bot), 1)


def kashiwara_class(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> WittClass:
    """Witt class of the nondegenerate part of the Kashiwara form, read off
    its one diagonalization; agrees with the cocycle on pairwise opposite
    triples."""
    t = kashiwara_form(x, y, z)
    return _diagonal_class(t.ctx, t.eps, diagonalize(t).diag)


def tau(g: UnitaryElement, h: UnitaryElement,
        o: Lagrangian | None = None) -> WittClass:
    """Kashiwara's group cocycle tau(g, h) at the base Lagrangian o.

    Symplectic contexts get the everywhere-defined Kashiwara value; other
    contexts only expose the generic locus, where the value is the cocycle
    of the orbit triple.
    """
    space = g.space
    if h.space != space:
        raise WrongContext("group elements from different modules")
    if o is None:
        o = space.standard_pair()[0]
    ctx = space.ctx
    triple = (o, g(o), (g * h)(o))
    if ctx.has_trivial_involution and ctx.epsilon == 1:
        return kashiwara_class(*triple)
    try:
        return maslov(*triple)
    except NotPairwiseOpposite as exc:
        raise NonGeneric("non-generic pair outside the symplectic case") \
            from exc


# ---------------------------------------------------------------------------
# Based cochains and the reduction


def _edge_det(v: Lagrangian, w: Lagrangian):
    """det(-eps a b^J) for the base-change witnesses (a, b) of a directed
    opposite edge.  In the frame of the pair, a b^J is conjugate to the
    pairing h(w, v) of the two bases, so this is det(-eps h(w, v)), which
    vanishes exactly when the pair is not opposite (as in is_opposite)."""
    space = _check_space(v, w)
    det = space.pairing(w.basis, v.basis).det()
    if not det:
        raise NotPairwiseOpposite("the Lagrangians are not opposite")
    return det * (-space.ctx.epsilon) ** space.n


def based_cochain_f(v: Lagrangian, w: Lagrangian) -> SHatElement:
    """Extended square class of a directed based edge:
    (det(-eps a b^J) (-1)^{n(n-1)/2} N, (-1)^n).  Alternating: the value of
    the reversed edge is the inverse."""
    return signed_discriminant(v.space.ctx, v.space.n, (_edge_det(v, w),))


def _edge_det_form(v: Lagrangian, w: Lagrangian) -> WittClass:
    # the Witt-group lift <det(-a b^J), 1, ..., 1> of the edge cochain
    # (symplectic only, so eps = 1 and every entry is J-fixed), built from
    # its diagonal entries; _edge_det refuses a zero determinant
    ctx = v.space.ctx
    return WittClass._of(ctx, tuple(
        _normalize_entry(ctx, e)
        for e in [_edge_det(v, w)] + [ctx.one()] * (v.space.n - 1)), 1)


class BasedTriple:
    """Three pairwise opposite Lagrangians, each based by its own basis,
    with the frame of (v0, v1) and the invariant t of v2 that decide them.
    Triples compare by identity: other bases make another triple."""

    __slots__ = ("v0", "v1", "v2", "_frame", "_t")

    def __init__(self, v0: Lagrangian, v1: Lagrangian, v2: Lagrangian):
        self._frame = PairFrame(v0, v1)
        self._t = self._frame.kappa(v2)
        self.v0, self.v1, self.v2 = v0, v1, v2


def disc_defect(bt: BasedTriple) -> SHatElement:
    """Signed discriminant of the triple invariant t minus the cyclic edge
    sum of the based cochain; the reduction identity makes this the
    identity element for every choice of bases.

    The signed discriminant is read from det(t) itself.  For eps = +1 this
    is the signed discriminant of the cocycle's Witt class; for eps = -1 it
    is not, since that class's representative is empty (trivial
    involution) or scaled by a trace-zero unit.
    """
    space = bt.v0.space
    total = signed_discriminant(space.ctx, space.n, (bt._t.mat.det(),))
    cyc = (based_cochain_f(bt.v0, bt.v1) + based_cochain_f(bt.v1, bt.v2)
           + based_cochain_f(bt.v2, bt.v0))
    return total - cyc


def reduced_maslov(bt: BasedTriple) -> WittClass:
    """The reduced cocycle value: the cocycle minus the coboundary of the
    determinant lift of the based edge cochain.  Symplectic contexts only;
    the value always lies in the discriminant kernel subgroup."""
    space = bt.v0.space
    _require_symplectic(space.ctx)
    coboundary = (_edge_det_form(bt.v1, bt.v2)
                  - _edge_det_form(bt.v0, bt.v2)
                  + _edge_det_form(bt.v0, bt.v1))
    return witt_class(bt._t) - coboundary


# ---------------------------------------------------------------------------
# Orbit census over finite fields


@lru_cache(maxsize=None)
def _unit_generator(ctx):
    """A unit of a finite field whose powers reach all q - 1 units, found
    once per context (the census only reaches small fields)."""
    for v in ctx.nonzero_elements():
        x, k = v, 1
        while x != 1:
            x, k = x * v, k + 1
        if k == ctx.order - 1:
            return v


class CensusResult(NamedTuple):
    classes: dict          # isometry key -> orbit size
    total: int
    fibers_are_orbits: bool

    def sizes(self):
        return sorted(self.classes.values())


def _orbit(start, perms):
    """The indices the permutations reach from start."""
    seen, todo = {start}, [start]
    while todo:
        i = todo.pop()
        for perm in perms:
            if perm[i] not in seen:
                seen.add(perm[i])
                todo.append(perm[i])
    return seen


def orbit_census(space: HyperbolicSpace) -> CensusResult:
    """Census of pairwise opposite ordered triples by the isometry class
    of the invariant, with a check that each class is one orbit.

    A class holds L * H times a Levi orbit of third Lagrangians Z, for L
    Lagrangians, H opposite X, and the Levi subgroup fixing the standard
    pair (X, Y) (Witt's extension theorem).  Checked: (a) the group is
    transitive on Lagrangians, (b) the translations on those opposite X,
    (d) each generator keeps the key of each (X, Y, Z), (e) each key's Z
    are one Levi orbit.
    """
    ctx, n = space.ctx, space.n
    lags = enumerate_lagrangians(space)
    index = {lag.canonical: i for i, lag in enumerate(lags)}

    # the generators as permutations of the list, translations first;
    # diag(zeta, 1, ..., 1) and the 1 + E_ij generate GL_n, and with the
    # Levi subgroup the Weyl element of one coordinate reaches the rest
    gens = [u_t(space, t) for t in _hermitian_additive_basis(ctx, n)]
    translations = len(gens)
    gens.append(ell_a(space, Matrix.diagonal(
        ctx, [_unit_generator(ctx)] + [1] * (n - 1))))
    gens += [ell_a(space, Matrix(ctx, [
        [int(r == c or (r, c) == (i, j)) for c in range(n)]
        for r in range(n)])) for i in range(n) for j in range(n) if i != j]
    gens.append(w_element(space, [0]))
    # the list is complete, so it holds each image g(lag)
    perms = [[index.get(g(lag).canonical) for lag in lags] for g in gens]
    if any(None in perm for perm in perms):
        raise ValidationError("a generator image is not in the list")

    x, y = (index[lag.canonical] for lag in space.standard_pair())
    opposite = [i for i, lag in enumerate(lags) if is_opposite(lags[x], lag)]
    # (c) the key of (X, Y, Z), Z opposite X and Y
    frame, fibers = PairFrame(lags[x], lags[y]), {}
    for z in opposite:
        try:
            key = isometry_key(frame.kappa(lags[z]))
        except NotPairwiseOpposite:     # Z meets Y
            continue
        fibers.setdefault(key, set()).add(z)
    ok = (len(_orbit(x, perms)) == len(lags)
          and _orbit(y, perms[:translations]) == set(opposite))
    for perm in perms:                  # (d)
        frame = PairFrame(lags[perm[x]], lags[perm[y]])
        ok = ok and all(isometry_key(frame.kappa(lags[perm[z]])) == key
                        for key, fiber in fibers.items() for z in fiber)
    levi = [perm for perm in perms if perm[x] == x and perm[y] == y]
    ok = ok and all(_orbit(min(fiber), levi) == fiber        # (e)
                    for fiber in fibers.values())
    pairs = len(lags) * len(opposite)   # (f)
    classes = {key: pairs * len(fiber) for key, fiber in fibers.items()}
    return CensusResult(classes, sum(classes.values()), ok)
