"""Independent oracles and helpers that only the tests use.

* Factorization by trial division by 2 and every odd integer.
* The local Hasse-Minkowski oracles: p-adic square classes, the Hasse
  invariant of the split form, local Witt triviality and the realizable
  local invariant tuples.
* Scalar arithmetic written as plain formulas: ints mod p, int pairs mod p
  with w^2 = nu, and Fraction pairs with w^2 = d.  They share no code with
  the field kernels they check.
* The matrix product on raw values, one oracle operation per term, and
  the rank and right kernel read off the reduced echelon form.
* Elimination with field division on raw values, one division per
  entry: Gauss-Jordan, the determinant and the inverse, the reference
  for the fraction-free eliminations of the kernels over Q and Q(sqrt(d)).
* The involution of a scalar, read through its kernel.  Form
  constructors: diagonal forms from rationals, direct sums, congruent
  forms and the nondegenerate part of a form.
* Congruence diagonalization on scalars, and the signature counted from
  it.
* The Lagrangians of a finite module, found among all its subspaces;
  common opposites; the holonomy matrix of a triple; the inverse of a
  unitary element.
* The orbit census over every ordered pairwise opposite triple.
* Based triples built from and read back as their witnesses, and the
  based edge cochain read in the frame of the pair.
* Block sums of Lagrangians and extension of scalars, for the stability
  and naturality laws of the cocycle.
* The factors u_t, b_r and a_r of the SL_2 decomposition, the generic
  two-cocycle as a symbol sum, and the symbol comparison's reduced route
  built through the checked constructors.
"""

import functools
import itertools
import operator
import random
from fractions import Fraction

from maslov.cocycle import BasedTriple, CensusResult, reduced_maslov
from maslov.errors import (
    DimensionMismatch,
    NotFound,
    SingularInput,
    TooLarge,
    ValidationError,
    WrongSymmetry,
    ZeroInput,
)
from maslov.fields import INF, FieldCtx, legendre, squarefree_part
from maslov.forms import (
    Diagonalization,
    FormMatrix,
    diagonalize,
    hasse_invariant,
    isometry_key,
)
from maslov.lagrange import (
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
from maslov.linalg import Matrix
from maslov.symbols import SymbolSum, _stbg_sum, stbg_parameters
from maslov.witt import WittClass, _val_unit, hilbert_symbol


# ---------------------------------------------------------------------------
# Factorization


def trial_factorize(n: int) -> dict:
    """{p: exponent} of |n| for nonzero n, dividing by 2 and then by every
    odd d while d^2 <= the cofactor."""
    n, out, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Local Hasse-Minkowski oracles


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


def local_invariant_tuples(p: int):
    """All (dim mod 2, square class of det, Hasse) tuples realized by
    diagonal forms over Q_p with entries drawn from {1, u, p, u p}."""
    u = FieldCtx("Fp", p=p)._least_nonresidue(p)
    gens = [Fraction(1), Fraction(u), Fraction(p), Fraction(u * p)]
    seen = set()
    for dim in range(1, 5):
        for combo in itertools.combinations_with_replacement(gens, dim):
            det = Fraction(1)
            for e in combo:
                det *= e
            seen.add((dim % 2, p_adic_square_class(det, p),
                      hasse_invariant(combo, p)))
    return seen


# ---------------------------------------------------------------------------
# Scalar arithmetic as plain formulas


class PrimeFieldOracle:
    """F_p on ints in [0, p)."""

    def __init__(self, p):
        self.p = p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return x * y % self.p

    def neg(self, x):
        return -x % self.p

    def conj(self, x):
        return x

    def div(self, x, y):
        # Fermat: y^(p-2) is the inverse of y
        return x * pow(y, self.p - 2, self.p) % self.p


class PairOracle:
    """a + b w with w^2 = c, on pairs: mod p for F_{p^2} (c = nu), exact
    Fractions for Q(sqrt(d)) (c = d, p = None)."""

    def __init__(self, c, p=None):
        self.c, self.p = c, p

    def _r(self, a, b):
        return (a, b) if self.p is None else (a % self.p, b % self.p)

    def add(self, x, y):
        return self._r(x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return self._r(x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        (a, b), (e, f) = x, y
        return self._r(a * e + self.c * b * f, a * f + b * e)

    def neg(self, x):
        return self._r(-x[0], -x[1])

    def conj(self, x):
        return self._r(x[0], -x[1])

    def div(self, x, y):
        # x / y = x conj(y) / (y conj(y)), and y conj(y) = e^2 - c f^2
        e, f = y
        n = e * e - self.c * f * f
        a, b = self.mul(x, (e, -f))
        if self.p is None:
            return (a / n, b / n)
        ninv = pow(n % self.p, self.p - 2, self.p)
        return self._r(a * ninv, b * ninv)


def termwise_product(a, b, add, mul, zero):
    """The product of the matrices a and b of raw values (tuples of rows),
    summed term by term with the scalar operations add and mul: over Q on
    Fractions, with no common denominator."""
    return tuple(tuple(functools.reduce(add, map(mul, r, c), zero)
                       for c in zip(*b)) for r in a)


class OperatorOracle:
    """Python's own operators: Q on Fractions, or the scalars of any field."""

    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    div = operator.truediv


def field_rref(ops, zero, a):
    """Gauss-Jordan with field division on the raw rows a, by the scalar
    operations ops: the reduced row echelon form and its pivot columns."""
    a = [list(r) for r in a]
    m, n = len(a), len(a[0]) if a else 0
    pivots, r = [], 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != zero), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r][c]
        a[r] = [ops.div(x, lead) for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(map(tuple, a)), pivots


def field_det(ops, zero, one, a):
    """The determinant of the square raw rows a: the product of the pivots
    of forward elimination with field division, negated once per swap."""
    a = [list(r) for r in a]
    n, det = len(a), one
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != zero), None)
        if piv is None:
            return zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = ops.neg(det)
        det = ops.mul(det, a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != zero:
                f = ops.div(a[i][c], a[c][c])
                a[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(a[i], a[c])]
    return det


def field_inverse(ops, zero, one, a):
    """The inverse of the square raw rows a, read off Gauss-Jordan on
    [A | I]; SingularInput when a pivot falls in I."""
    n = len(a)
    red, pivots = field_rref(ops, zero, [
        list(r) + [one if j == i else zero for j in range(n)]
        for i, r in enumerate(a)])
    if n and pivots[-1] >= n:
        raise SingularInput("matrix is singular")
    return tuple(r[n:] for r in red)


def rank(m: Matrix) -> int:
    """The number of pivot columns of the reduced row echelon form."""
    return len(m.rref()[1])


def kernel_basis(m: Matrix):
    """Basis of the right kernel of m, as a list of column vectors: one
    per free column of the reduced row echelon form."""
    red, pivots = m.rref()
    ctx = m.ctx
    basis = []
    for f in (j for j in range(m.n) if j not in pivots):
        v = [ctx.zero()] * m.n
        v[f] = ctx.one()
        for r, c in enumerate(pivots):
            v[c] = -red.rows[r][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# The involution and form constructors


def involution(ctx, x):
    """x^J for a scalar x of ctx (or an int or rational), by its kernel."""
    k = ctx.kernel
    return k.wrap(k.conj(k.unwrap(x)))


def diagonal_rational(ctx, entries, eps=1):
    """The diagonal eps-hermitian form with the given rational entries."""
    return FormMatrix.diagonal(
        ctx, [ctx.from_rational(e) for e in entries], eps)


def direct_sum(f, g):
    """The orthogonal sum of two forms over one context."""
    if f.ctx != g.ctx or f.eps != g.eps:
        raise ValidationError("direct sum needs matching contexts")
    z1 = Matrix.zeros(f.ctx, f.dim, g.dim)
    z2 = Matrix.zeros(f.ctx, g.dim, f.dim)
    return FormMatrix(f.ctx, Matrix.block2(f.mat, z1, z2, g.mat), f.eps)


def congruence(t: FormMatrix, g: Matrix) -> FormMatrix:
    """The congruent form g^J t g; preserves the hermitian symmetry."""
    if g.m != t.dim or g.n != t.dim:
        raise DimensionMismatch("transform size does not match the form")
    if not g.is_invertible():
        raise SingularInput("congruence transform must be invertible")
    return FormMatrix._of(t.ctx, g.jt() * t.mat * g, t.eps)


def radical_split(t: FormMatrix):
    """The form induced on a complement of the radical, plus radical dim."""
    dg = diagonalize(t)
    nondeg = FormMatrix._of(t.ctx, Matrix.diagonal(t.ctx, dg.diag), 1)
    return nondeg, dg.radical_dim


# ---------------------------------------------------------------------------
# Diagonalization on scalars


def scalar_diagonalize(t: FormMatrix) -> Diagonalization:
    """Exact congruence diagonalization of a (+1)-hermitian form, computed
    on scalars with an eagerly built transform: the reference that
    ``forms.diagonalize`` is tested against.

    Symmetric Gaussian elimination with the usual char != 2 repair: when
    the remaining diagonal vanishes, a suitable column+row addition makes
    a pivot equal to 2.
    """
    if t.eps != 1:
        raise WrongSymmetry("only +1-hermitian forms are diagonalized")
    ctx = t.ctx
    n = t.dim
    a = [list(row) for row in t.mat.rows]
    g = [list(row) for row in Matrix.identity(ctx, n).rows]
    inv = functools.partial(involution, ctx)

    def col_addmul(dest, src, lam):
        # congruence by E = I + e_{src,dest} lam: col_dest += col_src*lam,
        # row_dest += lam^J * row_src
        for i in range(n):
            a[i][dest] = a[i][dest] + a[i][src] * lam
        lj = inv(lam)
        for j in range(n):
            a[dest][j] = a[dest][j] + lj * a[src][j]
        for i in range(n):
            g[i][dest] = g[i][dest] + g[i][src] * lam

    def swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        a[i], a[j] = a[j], a[i]
        for r in g:
            r[i], r[j] = r[j], r[i]

    rank = n
    for k in range(n):
        piv = None
        for j in range(k, n):
            if a[j][j]:
                piv = j
                break
        if piv is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                rank = k
                break
            i, j = off
            # makes a[i][i] = 2 exactly (char != 2)
            col_addmul(i, j, ctx.one() / a[i][j])
            piv = i
        if piv != k:
            swap(piv, k)
        d = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                col_addmul(j, k, -(a[k][j] / d))

    diag = tuple(a[i][i] for i in range(rank))
    gm = Matrix(ctx, g)
    expected = Matrix.diagonal(ctx, list(diag) + [ctx.zero()] * (n - rank))
    if gm.jt() * t.mat * gm != expected:
        raise ValidationError("diagonalization witness failed")  # safety net
    return Diagonalization(diag, n - rank, gm)


def signature_count(t: FormMatrix) -> int:
    """Signature of a nondegenerate form over Q, or of its trace form over
    Q(sqrt d), counted from the signs of a scalar diagonalization: over
    Q(sqrt d) each entry a counts as the pair <a, -d a>.  A skew-hermitian
    form over Q(sqrt d) is first multiplied by sqrt d; a skew form over Q
    has signature 0."""
    ctx = t.ctx
    if ctx.kind not in ("Q", "QSqrt"):
        raise ValidationError("signature needs a characteristic-0 field")
    if t.eps == -1:
        if ctx.kind == "Q":
            return 0
        root = ctx.kernel.wrap((Fraction(0), Fraction(1)))
        t = FormMatrix(ctx, Matrix(ctx, [[root * v for v in row]
                                         for row in t.mat.rows]), 1)
    signs = []
    for e in scalar_diagonalize(t).diag:
        a = e if ctx.kind == "Q" else ctx.kernel.unwrap(e)[0]
        signs.append(1 if a > 0 else -1)
        if ctx.kind == "QSqrt":
            signs.append(signs[-1] * (1 if -ctx.d > 0 else -1))
    return sum(signs)


# ---------------------------------------------------------------------------
# Lagrangians among all subspaces


def subspace_lagrangians(space: HyperbolicSpace):
    """The Lagrangians of a finite module: every n-dimensional subspace of
    ctx^2n, walked by its pivot rows and then its entries in reduced
    echelon position, is kept when it is totally isotropic.  The walk
    sorts them and holds them on their canonical bases; it is the
    reference ``enumerate_lagrangians`` is tested against."""
    ctx, ambient, k = space.ctx, space.dim, space.n
    elements = ctx.elements()
    zero, one = ctx.zero(), ctx.one()
    out = []
    for pivots in itertools.combinations(range(ambient), k):
        free_pos = [
            (r, c)
            for r in range(k)
            for c in range(ambient)
            if c > pivots[r] and c not in pivots
        ]
        for fill in itertools.product(elements, repeat=len(free_pos)):
            rows = [[zero] * ambient for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), v in zip(free_pos, fill):
                rows[r][c] = v
            basis = Matrix(ctx, rows).transpose()
            if space.pairing(basis, basis).is_zero():
                out.append(Lagrangian._of(space, basis))
    return out


# the candidates common_opposite samples before it gives up
OPPOSITE_TRIES = 4000


def common_opposite(lags, rng=None) -> Lagrangian:
    """A Lagrangian opposite to every member of the finite collection.

    Where ``enumerate_lagrangians`` takes the module the scan is
    exhaustive; larger finite fields and infinite fields sample
    candidates spanning [t; 1] for eps-hermitian t (over Q from a growing
    integer range), which halts with probability 1 whenever a graph-type
    common opposite exists.
    """
    if not lags:
        raise ValidationError("need at least one Lagrangian")
    space = _check_space(*lags)
    try:
        candidates = enumerate_lagrangians(space)
    except TooLarge:
        pass
    else:
        for cand in candidates:
            if all(is_opposite(cand, lx) for lx in lags):
                return cand
        raise NotFound("no common opposite exists")
    rng = rng if rng is not None else random.Random(7)
    ctx, n = space.ctx, space.n
    eye = Matrix.identity(ctx, n)
    span = 1
    for trial in range(OPPOSITE_TRIES):
        if trial and trial % 200 == 0:
            span += 1
        raw = Matrix(ctx, [[ctx.random_element(rng, span) for _ in range(n)]
                           for _ in range(n)])
        t = raw + raw.jt().scale(ctx.from_int(ctx.epsilon))
        cand = Lagrangian._of(space, t.vstack(eye))
        if all(is_opposite(cand, lx) for lx in lags):
            return cand
    raise NotFound("sampling failed to find a common opposite")


def holonomy(x: Lagrangian, y: Lagrangian, z: Lagrangian) -> Matrix:
    """Matrix of the closed length-3 path around the triple, written in the
    graded frame of the pair (x, y): [[0, -t^{-1}], [t, 0]].  The reversed
    path is its negative, which is also its inverse."""
    t = kappa(x, y, z).mat
    n = x.space.n
    zero = Matrix.zeros(x.space.ctx, n, n)
    return Matrix.block2(zero, -t.inverse(), t, zero)


def unitary_inverse(g: UnitaryElement) -> UnitaryElement:
    """The inverse of g, read from the inverse of its matrix."""
    return UnitaryElement._of(g.space, g.mat.inverse())


# ---------------------------------------------------------------------------
# The full-triple orbit census


def triple_census(space: HyperbolicSpace, limit: int = 200000) -> CensusResult:
    """Exhaustive census of pairwise opposite ordered triples, grouped by
    the isometry class of the invariant, with a breadth-first check that
    every class fiber is one orbit of the generated unitary group.

    It lists every triple and searches the orbits of triples, with no
    use of the stabilizer of a pair, on Lagrangians found among all
    subspaces and with its own generators, so it checks
    ``orbit_census``."""
    ctx = space.ctx
    if space.n > 2:
        raise TooLarge("census is implemented for rank <= 2")
    lags = subspace_lagrangians(space)
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


# ---------------------------------------------------------------------------
# Based triples by their witnesses, and the edge cochain in the frame of
# the pair


def based_triple_from_witnesses(space: HyperbolicSpace, a, b, c,
                                t) -> BasedTriple:
    """The standard-frame triple with bases [a; 0], [0; b] and [t c; c],
    built through the checked constructors; t must be eps-hermitian."""
    ctx = space.ctx
    am, bm, cm = (m if isinstance(m, Matrix) else Matrix(ctx, m)
                  for m in (a, b, c))
    tm = FormMatrix(ctx, t.mat if isinstance(t, FormMatrix) else t,
                    ctx.epsilon).mat
    zero = Matrix.zeros(ctx, space.n, space.n)
    return BasedTriple(Lagrangian(space, am.vstack(zero)),
                       Lagrangian(space, zero.vstack(bm)),
                       Lagrangian(space, (tm * cm).vstack(cm)))


def witnesses(bt: BasedTriple):
    """Base-change witnesses (a, b, c) and the translation block t of a
    based triple, read off in the frame of its first two Lagrangians that
    the triple keeps."""
    frame = bt._frame
    return (frame.top * bt.v0.basis, frame.bot * bt.v1.basis,
            frame.bot * bt.v2.basis, bt._t)


def frame_edge_det(v: Lagrangian, w: Lagrangian):
    """det(-eps a b^J) for the base-change witnesses a = top v and
    b = bot w of the edge (v, w), read in the frame of the pair.  A change
    of frame is a Levi element, which moves (a, b) to (l a, l^{-J} b) and
    keeps the determinant.  It is the reference ``cocycle._edge_det``,
    which reads one pairing and builds no frame, is tested against."""
    ctx = v.space.ctx
    frame = PairFrame(v, w)
    a = frame.top * v.basis
    b = frame.bot * w.basis
    return (a * b.jt()).scale(ctx.from_int(-ctx.epsilon)).det()


# ---------------------------------------------------------------------------
# Block sums and extension of scalars


def block_sum(space: HyperbolicSpace, x1: Lagrangian, x2: Lagrangian):
    """The Lagrangian of H_{n+m} that is x1 on the first n coordinates
    and x2 on the last m.  The standard basis is e_1..e_{n+m} and then
    f_1..f_{n+m} (G = [[0, -eps I], [I, 0]]), so each half of the sum's
    basis stacks the matching halves of x1 and x2 block-diagonally."""
    n1, n2 = x1.space.n, x2.space.n
    if n1 + n2 != space.n:
        raise ValidationError("block sum needs rank n + m")
    b1, b2 = x1.basis.rows, x2.basis.rows
    half = [list(r) + [0] * n2 for r in b1[:n1]] + [
        [0] * n1 + list(r) for r in b2[:n2]]
    other = [list(r) + [0] * n2 for r in b1[n1:]] + [
        [0] * n1 + list(r) for r in b2[n2:]]
    return Lagrangian(space, Matrix(space.ctx, half + other))


def extend_scalar(base: FieldCtx, ext: FieldCtx, x):
    """The image of a scalar of Q or F_p in Q(sqrt d) or F_{p^2}."""
    return ext.from_rational(Fraction(base.kernel.unwrap(x)))


def extend_lagrangian(space: HyperbolicSpace, lag: Lagrangian):
    """lag read over the larger field of space, with the same basis."""
    base = lag.space.ctx
    return Lagrangian(space, Matrix(space.ctx, [
        [extend_scalar(base, space.ctx, x) for x in row]
        for row in lag.basis.rows]))


def extend_witt_class(ext: FieldCtx, t: FormMatrix) -> WittClass:
    """The image in W(ext) of the class of the symmetric form t over Q or
    F_p: a diagonalization of t, its entries read over ext as a hermitian
    form."""
    return WittClass(ext, [extend_scalar(t.ctx, ext, d)
                           for d in scalar_diagonalize(t).diag])


# ---------------------------------------------------------------------------
# The SL_2 factors and the checked reduced route


def _u(ctx, t):
    return Matrix(ctx, [[ctx.one(), t], [ctx.zero(), ctx.one()]])


def _b(ctx, r):
    return Matrix(ctx, [[ctx.zero(), r], [-(ctx.one() / r), ctx.zero()]])


def _a(ctx, r):
    return Matrix(ctx, [[r, ctx.zero()], [ctx.zero(), ctx.one() / r]])


def stbg(g1: Matrix, g2: Matrix) -> SymbolSum:
    """The generic-normal-form value of the universal two-cocycle, by the
    formula ``compare_stbg_maslov`` reduces."""
    return _stbg_sum(g1.ctx, *stbg_parameters(g1, g2))


def checked_reduced_route(ctx, r1, r2, t) -> WittClass:
    """``symbols.reduced_route`` with its based triple built by the checked
    ``based_triple_from_witnesses``: witnesses 1, r1^{-1} and -r2^{-1}."""
    one = ctx.one()
    bt = based_triple_from_witnesses(
        HyperbolicSpace(ctx, 1),
        Matrix(ctx, [[one]]),
        Matrix(ctx, [[one / r1]]),
        Matrix(ctx, [[-(one / r2)]]),
        Matrix(ctx, [[t]]),
    )
    return reduced_maslov(bt).neg()
