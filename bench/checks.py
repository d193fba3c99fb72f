"""Facts the benchmark computes on its own, to check the program's verdicts.

Everything here is plain Python on ints and Fractions and never imports
maslov, so a fault in the program cannot hide in its own check.  Each
``check_*`` function takes the program's outputs as plain values and
returns a list of problems; an empty list means the outputs agree with
the independent facts.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# rational matrices as lists of rows


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def block2(a, b, c, d):
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd
                                                for rc, rd in zip(c, d)]


def det(a):
    a = [[Fraction(x) for x in row] for row in a]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def inverse(a):
    n = len(a)
    aug = [[Fraction(x) for x in row] + e for row, e in zip(a, identity(n))]
    for k in range(n):
        piv = next(i for i in range(k, n) if aug[i][k])
        aug[k], aug[piv] = aug[piv], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def signature_rank(sym):
    """(signature, rank) of a symmetric rational matrix, by symmetric
    Gaussian elimination (LDL^T).  When every remaining diagonal entry is
    zero, adding row and column j to row and column i makes the pivot
    2 a_ij, which is nonzero in characteristic 0."""
    a = [[Fraction(x) for x in row] for row in sym]
    n = len(a)
    pivots = []
    for k in range(n):
        j = next((j for j in range(k, n) if a[j][j]), None)
        if j is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j]), None)
            if off is None:
                break
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            j = i
        if j != k:
            a[k], a[j] = a[j], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
        d = a[k][k]
        pivots.append(d)
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                for row in a:
                    row[i] -= f * row[k]
    return sum(1 if d > 0 else -1 for d in pivots), len(pivots)


def symplectic_gram(n):
    """[[0, -I], [I, 0]]: the Gram matrix of the rank-n hyperbolic module
    with epsilon = +1, as the README fixes it."""
    zero = [[Fraction(0)] * n for _ in range(n)]
    eye = identity(n)
    return block2(zero, [[-x for x in r] for r in eye], eye, zero)


def kashiwara_gram(bases):
    """Gram matrix of (u, v, w) -> h(u, v) + h(v, w) + h(w, u) on the sum
    of three Lagrangians given by 2n x n bases, h(x, y) = x^T J y."""
    n = len(bases[0][0])
    gram = symplectic_gram(n)

    def half_pairing(x, y):
        return [[e / 2 for e in row]
                for row in mat_mul(mat_mul(transpose(x), gram), y)]

    x, y, z = bases
    sxy, syz, szx = half_pairing(x, y), half_pairing(y, z), half_pairing(z, x)
    zero = [[Fraction(0)] * n for _ in range(n)]
    rows = [a + b + c for a, b, c in zip(zero, sxy, transpose(szx))]
    rows += [a + b + c for a, b, c in zip(transpose(sxy), zero, syz)]
    rows += [a + b + c for a, b, c in zip(szx, transpose(syz), zero)]
    return rows


# ---------------------------------------------------------------------------
# primes and square classes


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def legendre(a, p):
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def least_nonresidue(p):
    return next(u for u in range(2, p) if legendre(u, p) == -1)


def squarefree_from_factors(sign, exponents):
    """Signed squarefree representative of sign * prod p^e (e may be
    negative for denominators): the primes with odd exponent."""
    out = sign
    for p, e in exponents.items():
        if e % 2:
            out *= p
    return out


def squarefree_rational(q):
    """Signed squarefree integer in the square class of a nonzero rational
    with small numerator and denominator (trial division)."""
    q = Fraction(q)
    n = abs(q.numerator * q.denominator)
    exps = Counter()
    f = 2
    while f * f <= n:
        while n % f == 0:
            exps[f] += 1
            n //= f
        f += 1
    if n > 1:
        exps[n] += 1
    return squarefree_from_factors(1 if q > 0 else -1, exps)


# ---------------------------------------------------------------------------
# boundary


def check_boundary_item(n, defect_is_zero, class_is_zero=None, kappas=None):
    """One trial: the boundary class must be zero; for odd rank each of the
    four triple classes must be nonzero (dimension parity); over Q the
    alternating sum of the four invariants' signatures must vanish."""
    problems = []
    if not defect_is_zero:
        problems.append("boundary defect is not zero")
    if n % 2 and class_is_zero is not None and any(class_is_zero):
        problems.append(f"odd rank {n}: a triple class reads as zero")
    if kappas is not None:
        sigs = [signature_rank(t)[0] for t in kappas]
        if sigs[0] - sigs[1] + sigs[2] - sigs[3]:
            problems.append(f"signatures {sigs} have a nonzero "
                            "alternating sum")
        if any(signature_rank(t)[1] != n for t in kappas):
            problems.append("an invariant is not invertible")
    return problems


# ---------------------------------------------------------------------------
# census


def lagrangian_count(q, n, unitary):
    out = 1
    for i in range(1, n + 1):
        out *= q ** (2 * i - 1 if unitary else i) + 1
    return out


def symmetric_det_classes(p, n):
    """Invertible symmetric n x n matrices mod p, counted by the Legendre
    symbol of the determinant, plus the number of all symmetric ones."""
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    counts = Counter()
    total = 0
    for vals in product(range(p), repeat=len(upper)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(upper, vals):
            m[i][j] = m[j][i] = v
        total += 1
        d = det(m) % p
        if d:
            counts[legendre(int(d), p)] += 1
    return counts, total


def hermitian_invertible_count(q, n):
    """Invertible hermitian n x n matrices over F_{q^2} (n <= 2), with
    F_{q^2} = F_q(w), w^2 a non-residue, plus the number of all
    hermitian ones.  Diagonal entries lie in F_q; the determinant of
    [[a, z], [z^J, d]] is a d - N(z)."""
    if n == 1:
        return q - 1, q
    if n != 2:
        raise ValueError("hermitian count implemented for n <= 2")
    nu = least_nonresidue(q)
    inv = 0
    for a, d, x, y in product(range(q), repeat=4):
        if (a * d - (x * x - nu * y * y)) % q:
            inv += 1
    return inv, q ** 4


def census_expectation(kind, p, n):
    """(Lagrangian count, triple total, sorted class sizes) for the census
    of pairwise opposite ordered triples: X is any Lagrangian, Y any of
    those opposite X, and Z the graph of an invertible eps-hermitian t in
    the frame of (X, Y); the class of the triple is the class of t."""
    unitary = kind == "Fp2"
    lags = lagrangian_count(p, n, unitary)
    if unitary:
        inv, opposite = hermitian_invertible_count(p, n)
        per_class = [inv]
    else:
        classes, opposite = symmetric_det_classes(p, n)
        per_class = [c for c in classes.values() if c]
    sizes = sorted(lags * opposite * c for c in per_class)
    return lags, sum(sizes), sizes


def check_census_item(kind, p, n, lag_count, total, sizes, fibers_are_orbits):
    want_lags, want_total, want_sizes = census_expectation(kind, p, n)
    problems = []
    if lag_count != want_lags:
        problems.append(f"{lag_count} Lagrangians, want {want_lags}")
    if total != want_total:
        problems.append(f"{total} triples, want {want_total}")
    if sorted(sizes) != want_sizes:
        problems.append(f"class sizes {sorted(sizes)}, want {want_sizes}")
    if not fibers_are_orbits:
        problems.append("an invariant fiber is not one orbit")
    return problems


# ---------------------------------------------------------------------------
# symbols

def relation_counts_fp(p):
    """Checks steinberg_relations_report makes over all of (F_p^*)^3: one
    of each relation per triple, and one-minus only for s != 1."""
    cube = (p - 1) ** 3
    return {"additivity": cube, "unit": cube, "inverse-swap": cube,
            "negate-product": cube, "one-minus": (p - 1) ** 2 * (p - 2)}


def relation_counts_q(triples):
    n = len(triples)
    return {"additivity": n, "unit": n, "inverse-swap": n,
            "negate-product": n,
            "one-minus": sum(1 for s, _, _ in triples if s != 1)}


def check_relation_sweep(label, reports, want_counts):
    """reports: the per-triple report dicts of one sweep."""
    problems = []
    counts = Counter()
    for rep in reports:
        counts.update(rep["checks"])
        if not rep["ok"]:
            problems.append(f"{label}: violations {rep['violations']!r}")
    if dict(counts) != dict(want_counts):
        problems.append(f"{label}: relation counts {dict(counts)}, "
                        f"want {dict(want_counts)}")
    return problems


def _mat_mod(a, b, p):
    return [[sum(x * y for x, y in zip(r, c)) % p for c in zip(*b)]
            for r in a]


def generic_pairs_mod_p(p):
    """Every pair g1 = u(s1) b(r1) u(t1), g2 = u(s2) b(r2) with
    t1 + s2 != 0, where u(s) = [[1, s], [0, 1]] and b(r) = [[0, r],
    [-1/r, 0]], as integer matrices mod p: p^2 (p-1)^3 pairs."""
    def u(s):
        return [[1, s], [0, 1]]

    def b(r):
        return [[0, r], [(-pow(r, p - 2, p)) % p, 0]]

    pairs = []
    for s1, r1, t1 in product(range(p), range(1, p), range(p)):
        g1 = _mat_mod(_mat_mod(u(s1), b(r1), p), u(t1), p)
        for s2, r2 in product(range(p), range(1, p)):
            if (t1 + s2) % p:
                pairs.append((g1, _mat_mod(u(s2), b(r2), p)))
    return pairs


def quaternion_signature(x, y):
    """Signature of <1, -x, -y, xy> over Q: 4 when x, y < 0, else 0."""
    return sum(1 if e > 0 else -1 for e in (1, -x, -y, x * y))


def check_comparisons(label, verdicts, want_count):
    problems = []
    if len(verdicts) != want_count:
        problems.append(f"{label}: {len(verdicts)} pairs, want {want_count}")
    bad = sum(1 for v in verdicts if v is not True)
    if bad:
        problems.append(f"{label}: {bad} pairs do not match")
    return problems


def check_quaternion_law(x, y, signature):
    want = quaternion_signature(x, y)
    if signature != want:
        return [f"R({{{x}, {y}}}) has signature {signature}, want {want}"]
    return []


# ---------------------------------------------------------------------------
# cli jobs


def rows_to_fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


def check_witt_json(witt, n, signature, disc):
    """A Q Witt-class report against a class of dimension n whose
    signature and signed discriminant (s, sign) are known."""
    problems = []
    if witt["dim_mod2"] != n % 2:
        problems.append(f"dim_mod2 {witt['dim_mod2']}, want {n % 2}")
    if witt["signature"] != signature:
        problems.append(f"signature {witt['signature']}, want {signature}")
    if disc is not None:
        got = (int(Fraction(witt["disc"]["s"])), witt["disc"]["sign"])
        if got != disc:
            problems.append(f"signed discriminant {got}, want {disc}")
        trivial = disc == (1, 1)
        if witt["in_II"] != trivial:
            problems.append(f"in_II {witt['in_II']}, want {trivial}")
    if witt["is_zero"] and (n % 2 or signature or
                            (disc is not None and disc != (1, 1))):
        problems.append("a class with a nonzero invariant reads as zero")
    return problems


def signed_disc_of_diagonal(factored):
    """Signed discriminant (s, sign) of <d_1, ..., d_n> from the known
    factorizations (sign_i, {p: e}) of its entries."""
    n = len(factored)
    sign = (-1) ** (n * (n - 1) // 2)
    exps = Counter()
    for s, e in factored:
        sign *= s
        exps.update(e)
    return squarefree_from_factors(sign, exps), (-1) ** n


def check_hilbert_product(label, values):
    """The product formula: prod over all places of (a, b)_v is 1, given
    the symbols at every place where they can be nontrivial."""
    problems = []
    if any(v not in (1, -1) for v in values):
        problems.append(f"{label}: symbol values {values}")
    prod = 1
    for v in values:
        prod *= v
    if prod != 1:
        problems.append(f"{label}: product of {values} is {prod}")
    return problems
