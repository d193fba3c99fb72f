"""Seeded random generators for forms, unitary elements, and triples.

Every generator takes an explicit random.Random so that harness trials
derive from (seed, trial index) and remain reproducible.
"""

from __future__ import annotations

import random

from .cocycle import BasedTriple
from .errors import NotFound
from .forms import FormMatrix
from .lagrange import (
    HyperbolicSpace,
    Lagrangian,
    UnitaryElement,
    ell_a,
    u_t,
    w_element,
)
from .linalg import Matrix

# the draws random_opposite_quadruple makes before it gives up
QUADRUPLE_TRIES = 200


def rng_for(seed: int, trial: int) -> random.Random:
    return random.Random((seed << 24) ^ (trial * 2654435761 % (1 << 48)))


def random_invertible(ctx, n, rng, span=3) -> Matrix:
    while True:
        m = Matrix(ctx, [[ctx.random_element(rng, span) for _ in range(n)]
                         for _ in range(n)])
        if m.is_invertible():
            return m


def random_hermitian(ctx, n, rng, eps=None, span=3) -> FormMatrix:
    eps = ctx.epsilon if eps is None else eps
    # with a trivial involution, skew-hermitian means alternating
    if n == 1 and eps == -1 and ctx.has_trivial_involution:
        raise NotFound("the only 1 x 1 alternating matrix is zero")
    while True:
        raw = Matrix(ctx, [[ctx.random_element(rng, span) for _ in range(n)]
                           for _ in range(n)])
        m = raw + raw.jt().scale(ctx.from_int(eps))
        if not m.is_zero():
            return FormMatrix._of(ctx, m, eps)


def random_hermitian_invertible(ctx, n, rng, eps=None, span=3) -> FormMatrix:
    eps = ctx.epsilon if eps is None else eps
    if n % 2 and eps == -1 and ctx.has_trivial_involution:
        raise NotFound("alternating matrices of odd size are singular")
    while True:
        f = random_hermitian(ctx, n, rng, eps, span)
        if f.mat.is_invertible():
            return f


def random_unitary(space: HyperbolicSpace, rng, length=3) -> UnitaryElement:
    """A short random word in the generators u_t, ell_a, w."""
    ctx = space.ctx
    g = w_element(space)
    out = None
    for _ in range(length):
        pick = rng.randrange(3)
        if pick == 0:
            factor = u_t(space, random_hermitian(ctx, space.n, rng, span=2))
        elif pick == 1:
            factor = ell_a(space, random_invertible(ctx, space.n, rng,
                                                    span=2))
        else:
            factor = g
        out = factor if out is None else out * factor
    return out if out is not None else g


def random_opposite_triple(space: HyperbolicSpace, rng):
    """(gX, gY, g u_t Y) for random unitary g and invertible hermitian t;
    pairwise opposite by construction."""
    x0, y0 = space.standard_pair()
    t = random_hermitian_invertible(space.ctx, space.n, rng)
    g = random_unitary(space, rng)
    return g(x0), g(y0), g(u_t(space, t)(y0))


def random_opposite_quadruple(space: HyperbolicSpace, rng):
    """(gX, gY, g u_t Y, g u_t' Y) with all six oppositions; resamples
    until t, t', t' - t and t^{-1} - t'^{-1} are all invertible."""
    ctx = space.ctx
    x0, y0 = space.standard_pair()
    for _ in range(QUADRUPLE_TRIES):
        t = random_hermitian_invertible(ctx, space.n, rng)
        tp = random_hermitian_invertible(ctx, space.n, rng)
        if not (tp.mat - t.mat).is_invertible():
            continue
        if not (t.mat.inverse() - tp.mat.inverse()).is_invertible():
            continue
        g = random_unitary(space, rng)
        return (g(x0), g(y0), g(u_t(space, t)(y0)),
                g(u_t(space, tp)(y0)))
    raise NotFound("quadruple sampling exhausted its tries")


def random_based_triple(space: HyperbolicSpace, rng):
    """A random pairwise opposite triple with random chosen bases."""
    x, y, z = random_opposite_triple(space, rng)
    ctx = space.ctx
    n = space.n

    def rebase(lag):
        return Lagrangian._of(space, lag.basis * random_invertible(
            ctx, n, rng, span=2))

    return BasedTriple(rebase(x), rebase(y), rebase(z))
