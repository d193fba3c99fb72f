"""The Witt-valued cocycle on triples of Lagrangians and its reductions.

The cocycle sends a pairwise opposite triple to the Witt class of its
classifying invariant.  Its boundary on admissible quadruples vanishes;
its signed discriminant is the cyclic edge sum of an extended square
class cochain on based Lagrangians; subtracting the coboundary of the
determinant lift pushes the cocycle into the subgroup of discriminant
kernel classes.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    ConstraintViolated,
    NonGeneric,
    NotPairwiseOpposite,
    TooLarge,
    ValidationError,
    WrongContext,
)
from .forms import FormMatrix, isometry_key, radical_split
from .lagrange import (
    HyperbolicSpace,
    Lagrangian,
    PairFrame,
    UnitaryElement,
    ell_a,
    enumerate_lagrangians,
    is_opposite,
    kappa,
    u_t,
    w_element,
)
from .linalg import Matrix
from .witt import SHatElement, WittClass, signed_discriminant, witt_class


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
        if not f.is_nondegenerate():
            raise ConstraintViolated("all three forms must be invertible")
    fourth = FormMatrix(
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
    return FormMatrix(ctx, top.vstack(mid).vstack(bot), 1)


def kashiwara_class(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> WittClass:
    """Witt class of the nondegenerate part of the Kashiwara form; agrees
    with the cocycle on pairwise opposite triples."""
    form = kashiwara_form(x, y, z)
    nondeg, _ = radical_split(form)
    if nondeg.dim == 0:
        return WittClass.zero(x.space.ctx)
    return witt_class(nondeg)


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
    opposite edge, read from the bases of v and w in the frame of the pair.

    The frame ambiguity is a Levi element, which changes (a, b) by
    (l a, l^{-J} b) and leaves the determinant unchanged.
    """
    ctx = v.space.ctx
    frame = PairFrame(v, w)
    a = frame.top * v.basis
    b = frame.bot * w.basis
    return (a * b.jt()).scale(ctx.from_int(-ctx.epsilon)).det()


def based_cochain_f(v: Lagrangian, w: Lagrangian) -> SHatElement:
    """Extended square class of a directed based edge:
    (det(-eps a b^J) (-1)^{n(n-1)/2} N, (-1)^n).  Alternating: the value of
    the reversed edge is the inverse."""
    return signed_discriminant(v.space.ctx, v.space.n, (_edge_det(v, w),))


def _edge_det_form(v: Lagrangian, w: Lagrangian) -> WittClass:
    # the Witt-group lift <det(-a b^J), 1, ..., 1> of the edge cochain
    # (symplectic only, so eps = 1), built from its diagonal entries
    ctx = v.space.ctx
    return WittClass(ctx, [_edge_det(v, w)] + [ctx.one()] * (v.space.n - 1))


class BasedTriple:
    """Three pairwise opposite Lagrangians, each based by its own basis.
    Triples compare by identity: the same spans with other bases make
    another triple."""

    __slots__ = ("v0", "v1", "v2")

    def __init__(self, v0: Lagrangian, v1: Lagrangian, v2: Lagrangian):
        PairFrame(v0, v1).kappa(v2)    # decides all three oppositions
        self.v0, self.v1, self.v2 = v0, v1, v2

    @staticmethod
    def from_witnesses(space: HyperbolicSpace, a, b, c, t) -> "BasedTriple":
        """The standard-frame triple with bases [a; 0], [0; b] and
        [t c; c]; t must be eps-hermitian."""
        ctx = space.ctx
        am, bm, cm = (m if isinstance(m, Matrix) else Matrix(ctx, m)
                      for m in (a, b, c))
        tm = FormMatrix(ctx, t.mat if isinstance(t, FormMatrix) else t,
                        ctx.epsilon).mat
        zero = Matrix.zeros(ctx, space.n, space.n)
        return BasedTriple(Lagrangian(space, am.vstack(zero)),
                           Lagrangian(space, zero.vstack(bm)),
                           Lagrangian(space, (tm * cm).vstack(cm)))

    def witnesses(self):
        """Base-change witnesses (a, b, c) and the translation block t,
        read off in the frame standardizing the first two Lagrangians."""
        frame = PairFrame(self.v0, self.v1)
        a = frame.top * self.v0.basis
        b = frame.bot * self.v1.basis
        c = frame.bot * self.v2.basis
        return a, b, c, frame.kappa(self.v2)


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
    total = signed_discriminant(space.ctx, space.n,
                                (kappa(bt.v0, bt.v1, bt.v2).det(),))
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
    return maslov(bt.v0, bt.v1, bt.v2) - coboundary


# ---------------------------------------------------------------------------
# Orbit census over finite fields


def _hermitian_additive_basis(ctx, n):
    """Matrices additively generating the eps-hermitian n x n block."""
    eps = ctx.epsilon
    one = ctx.one()
    out = []
    fixed_gens = [one]
    skew_gens = []
    if not ctx.has_trivial_involution:
        g = ctx.generator()  # g^J = -g
        skew_gens = [g]
    zero = Matrix.zeros(ctx, n, n)

    def put(i, j, val):
        rows = [list(r) for r in zero.rows]
        rows[i][j] = val
        return Matrix(ctx, rows)

    for i in range(n):
        # alternating forms (eps = -1, trivial J) have zero diagonal
        diag_gens = fixed_gens if eps == 1 else skew_gens
        for v in diag_gens:
            out.append(put(i, i, v))
    for i in range(n):
        for j in range(i + 1, n):
            for v in fixed_gens + skew_gens:
                m = put(i, j, v)
                out.append(m + m.jt().scale(ctx.from_int(eps)))
    return [m for m in out if not m.is_zero()]


class CensusResult(NamedTuple):
    classes: dict          # isometry key -> orbit size
    total: int
    fibers_are_orbits: bool

    def sizes(self):
        return sorted(self.classes.values())


def orbit_census(space: HyperbolicSpace, limit: int = 200000) -> CensusResult:
    """Exhaustive census of pairwise opposite ordered triples, grouped by
    the isometry class of the invariant, with a breadth-first check that
    every class fiber is one orbit of the generated unitary group."""
    ctx = space.ctx
    if space.n > 2:
        raise TooLarge("census is implemented for rank <= 2")
    lags = enumerate_lagrangians(space)
    count = len(lags)
    index = {lag.canonical: i for i, lag in enumerate(lags)}

    opp = [[False] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            o = is_opposite(lags[i], lags[j])
            opp[i][j] = o
            opp[j][i] = o

    # the triples grouped by ordered pair: (i, j, [k, ...]); past the
    # limit they are only counted
    pairs = []
    total = 0
    for i in range(count):
        for j in range(count):
            if opp[i][j]:
                ks = [k for k in range(count) if opp[i][k] and opp[j][k]]
                total += len(ks)
                if total <= limit:
                    pairs.append((i, j, ks))
    if total > limit:
        raise TooLarge(f"{total} triples exceed the limit {limit}")

    # generators as permutations of the Lagrangian list
    gens = [u_t(space, t) for t in _hermitian_additive_basis(ctx, space.n)]
    if space.n == 1:
        units = [Matrix(ctx, [[x]]) for x in ctx.nonzero_elements()]
        gens += [ell_a(space, a) for a in units]
    else:
        invertibles = []
        one, zero = ctx.one(), ctx.zero()
        for x in ctx.nonzero_elements():
            invertibles.append(Matrix(ctx, [[x, zero], [zero, one]]))
            invertibles.append(Matrix(ctx, [[one, x], [zero, one]]))
            invertibles.append(Matrix(ctx, [[one, zero], [x, one]]))
        gens += [ell_a(space, a) for a in invertibles]
    gens.append(w_element(space))
    if ctx.has_trivial_involution and ctx.epsilon == -1:
        # orthogonal case: every generator above has determinant 1; the
        # reflection swapping e_1 and f_1 reaches the other half
        rows = [list(r) for r in Matrix.identity(ctx, 2 * space.n).rows]
        rows[0], rows[space.n] = rows[space.n], rows[0]
        gens.append(UnitaryElement(space, Matrix(ctx, rows)))
    # g preserves the form and the list is complete, so each image g(lag)
    # must be found in it
    perms = [[index.get(g(lag).canonical) for lag in lags] for g in gens]
    if any(None in perm for perm in perms):
        raise ValidationError("a generator image is not in the list")

    fibers: dict = {}
    for i, j, ks in pairs:
        frame = PairFrame(lags[i], lags[j])
        for k in ks:
            key = isometry_key(frame.kappa(lags[k]))
            fibers.setdefault(key, set()).add((i, j, k))

    classes = {}
    all_orbits = True
    for key, fiber in fibers.items():
        start = next(iter(fiber))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for (i, j, k) in frontier:
                for perm in perms:
                    img = (perm[i], perm[j], perm[k])
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        if seen != fiber:
            all_orbits = False
        classes[key] = len(fiber)
    return CensusResult(classes, total, all_orbits)
