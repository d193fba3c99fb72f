"""The Witt-valued cocycle on triples of Lagrangians and its reductions.

The cocycle sends a pairwise opposite triple to the Witt class of its
classifying invariant.  Its boundary on admissible quadruples vanishes;
its signed discriminant is the cyclic edge sum of an extended square
class cochain on based Lagrangians; subtracting the coboundary of the
determinant lift pushes the cocycle into the subgroup of discriminant
kernel classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConstraintViolated,
    NonGeneric,
    NotPairwiseOpposite,
    TooLarge,
    WrongContext,
)
from .forms import FormMatrix, isometry_key, radical_split
from .lagrange import (
    BasedLagrangian,
    HyperbolicSpace,
    Lagrangian,
    UnitaryElement,
    check_pairwise_opposite,
    ell_a,
    enumerate_lagrangians,
    is_opposite,
    kappa,
    standardize_pair,
    u_t,
    w_element,
)
from .linalg import Matrix
from .witt import SHatElement, WittClass, witt_class


def maslov(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> WittClass:
    """Witt class of the triple invariant; alternating and cyclic."""
    return witt_class(kappa(x, y, z))


def boundary_defect(x, y, z, zp) -> WittClass:
    """m<y,z,z'> - m<x,z,z'> + m<x,y,z'> - m<x,y,z> for six-way opposite
    quadruples; the cocycle theorem says this is always zero."""
    check_pairwise_opposite(x, y, z, zp)
    return (maslov(y, z, zp) - maslov(x, z, zp)
            + maslov(x, y, zp) - maslov(x, y, z))


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
    rows = list(top.rows) + list(mid.rows) + list(bot.rows)
    return FormMatrix(ctx, Matrix(ctx, rows), 1)


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
        check_pairwise_opposite(*triple)
    except NotPairwiseOpposite as exc:
        raise NonGeneric("non-generic pair outside the symplectic case") \
            from exc
    return maslov(*triple)


# ---------------------------------------------------------------------------
# Based cochains and the reduction


def _edge_witnesses(v: BasedLagrangian, w: BasedLagrangian):
    """Base-change witnesses (a, b) of a directed opposite based edge
    relative to a standardized frame of the underlying pair.

    The frame ambiguity is a Levi element, which changes (a, b) by
    (l a, l^{-J} b); every consumer below only uses invariants of that
    action.
    """
    g = standardize_pair(v.lagrangian, w.lagrangian)
    n = v.space.n
    av = g.mat * v.basis
    bw = g.mat * w.basis
    a = av.row_block(0, n)
    b = bw.row_block(n, 2 * n)
    return a, b


def based_cochain_f(v: BasedLagrangian, w: BasedLagrangian) -> SHatElement:
    """Extended square class of a directed based edge:
    (det(-a b^J) (-1)^{n(n-1)/2} N, (-1)^n).  Alternating: the value of the
    reversed edge is the inverse."""
    ctx = v.space.ctx
    n = v.space.n
    a, b = _edge_witnesses(v, w)
    s = (-(a * b.jt())).det()
    if (n * (n - 1) // 2) % 2:
        s = -s
    return SHatElement(ctx, s, (-1) ** n)


def _edge_det_form(v: BasedLagrangian, w: BasedLagrangian) -> WittClass:
    # the Witt-group lift <det(-a b^J), 1, ..., 1> of the edge cochain
    ctx = v.space.ctx
    n = v.space.n
    a, b = _edge_witnesses(v, w)
    s = (-(a * b.jt())).det()
    return witt_class(FormMatrix.diagonal(
        ctx, [s] + [ctx.one()] * (n - 1), 1))


@dataclass(frozen=True)
class BasedTriple:
    """Three based Lagrangians, pairwise opposite."""

    v0: BasedLagrangian
    v1: BasedLagrangian
    v2: BasedLagrangian

    def __post_init__(self):
        check_pairwise_opposite(self.v0.lagrangian, self.v1.lagrangian,
                                self.v2.lagrangian)

    @staticmethod
    def from_witnesses(space: HyperbolicSpace, a, b, c, t) -> "BasedTriple":
        """The standard-frame triple ((X, a x), (Y, b y), (u_t Y, c u_t y))."""
        ctx = space.ctx
        n = space.n
        am = a if isinstance(a, Matrix) else Matrix(ctx, a)
        bm = b if isinstance(b, Matrix) else Matrix(ctx, b)
        cm = c if isinstance(c, Matrix) else Matrix(ctx, c)
        tm = t.mat if isinstance(t, FormMatrix) else (
            t if isinstance(t, Matrix) else Matrix(ctx, t))
        x0, y0 = space.standard_pair()
        zero = Matrix.zeros(ctx, n, n)
        vx = BasedLagrangian(x0, Matrix(ctx, list(am.rows) + list(zero.rows)))
        vy = BasedLagrangian(y0, Matrix(ctx, list(zero.rows) + list(bm.rows)))
        zlag = u_t(space, tm)(y0)
        vz = BasedLagrangian(
            zlag, Matrix(ctx, list((tm * cm).rows) + list(cm.rows)))
        return BasedTriple(vx, vy, vz)

    def lagrangians(self):
        return (self.v0.lagrangian, self.v1.lagrangian, self.v2.lagrangian)

    def witnesses(self):
        """Base-change witnesses (a, b, c) and the translation block t,
        read off in the frame standardizing the first two Lagrangians."""
        space = self.v0.space
        n = space.n
        g = standardize_pair(self.v0.lagrangian, self.v1.lagrangian)
        a = (g.mat * self.v0.basis).row_block(0, n)
        b = (g.mat * self.v1.basis).row_block(n, 2 * n)
        w = g.mat * self.v2.basis
        c = w.row_block(n, 2 * n)
        t = w.row_block(0, n) * c.inverse()
        return a, b, c, FormMatrix(space.ctx, t, space.ctx.epsilon)


def disc_defect(bt: BasedTriple) -> SHatElement:
    """Signed discriminant of the cocycle minus the cyclic edge sum of the
    based cochain; the reduction identity makes this the identity element
    for every choice of bases."""
    l0, l1, l2 = bt.lagrangians()
    total = maslov(l0, l1, l2).signed_disc()
    cyc = (based_cochain_f(bt.v0, bt.v1) + based_cochain_f(bt.v1, bt.v2)
           + based_cochain_f(bt.v2, bt.v0))
    return total - cyc


def reduced_maslov(bt: BasedTriple) -> WittClass:
    """The reduced cocycle value: the cocycle minus the coboundary of the
    determinant lift of the based edge cochain.  Symplectic contexts only;
    the value always lies in the discriminant kernel subgroup."""
    space = bt.v0.space
    _require_symplectic(space.ctx)
    l0, l1, l2 = bt.lagrangians()
    coboundary = (_edge_det_form(bt.v1, bt.v2)
                  - _edge_det_form(bt.v0, bt.v2)
                  + _edge_det_form(bt.v0, bt.v1))
    return maslov(l0, l1, l2) - coboundary


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


@dataclass
class CensusResult:
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
    lags = enumerate_lagrangians(space)
    count = len(lags)
    index = {lag: i for i, lag in enumerate(lags)}

    opp = [[False] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            o = is_opposite(lags[i], lags[j])
            opp[i][j] = o
            opp[j][i] = o

    triples = [
        (i, j, k)
        for i in range(count)
        for j in range(count)
        if opp[i][j]
        for k in range(count)
        if opp[i][k] and opp[j][k]
    ]
    if len(triples) > limit:
        raise TooLarge(f"{len(triples)} triples exceed the limit {limit}")

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
        if space.n == 2:
            gens += [ell_a(space, a) for a in invertibles]
        else:
            raise TooLarge("census is implemented for rank <= 2")
    gens.append(w_element(space))
    if ctx.has_trivial_involution and ctx.epsilon == -1:
        # orthogonal case: every generator above has determinant 1; the
        # reflection swapping e_1 and f_1 reaches the other half
        rows = [list(r) for r in Matrix.identity(ctx, 2 * space.n).rows]
        rows[0], rows[space.n] = rows[space.n], rows[0]
        gens.append(UnitaryElement(space, Matrix(ctx, rows)))
    perms = []
    for g in gens:
        perms.append([index[g(lag)] for lag in lags])

    fibers: dict = {}
    for tri in triples:
        key = isometry_key(kappa(lags[tri[0]], lags[tri[1]], lags[tri[2]]))
        fibers.setdefault(key, set()).add(tri)

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
    return CensusResult(classes, len(triples), all_orbits)
