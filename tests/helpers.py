"""Shared test fixtures: small towers and element strategies."""

from hypothesis import strategies as st

from permrf import LinearizedPoly, make_tower, rank_kernel_image
from permrf.bivariate import BivarPoly

# Towers small enough for exhaustive loops.
SMALL_TOWERS = (
    (2, 1, 2),
    (3, 1, 2),
    (2, 2, 2),
    (2, 1, 3),
    (3, 1, 3),
    (5, 1, 2),
)


def towers():
    return st.sampled_from(SMALL_TOWERS).map(lambda t: make_tower(*t))


@st.composite
def tower_and_elements(draw, count=1):
    tower = draw(towers())
    encs = [draw(st.integers(0, tower.size - 1)) for _ in range(count)]
    return (tower, *encs)


@st.composite
def tower_and_nonbase_b(draw):
    tower = draw(towers())
    b = draw(st.integers(tower.q, tower.size - 1))
    return tower, b


def seeded_map_of_rank(t, rank, rng):
    """L(x) = sum of rank terms alpha * Tr(beta * x), redrawn until its
    rank is exactly rank; rank 0 is the zero map."""
    top = t.top
    while True:
        coeffs = [0] * t.n
        for _ in range(rank):
            alpha, beta = rng.randrange(1, t.size), rng.randrange(1, t.size)
            for k in range(t.n):
                coeffs[k] = top.add(coeffs[k],
                                    top.mul(alpha, t.frob_enc(beta, k)))
        L = LinearizedPoly(t, tuple(coeffs))
        if rank_kernel_image(L)[0] == rank:
            return L


def prime_powers(limit):
    """All prime powers in [2, limit], ascending."""
    out = []
    for p in range(2, limit + 1):
        if all(p % f for f in range(2, int(p ** 0.5) + 1)):
            v = p
            while v <= limit:
                out.append(v)
                v *= p
    return sorted(out)


def reference_factor_search(f):
    """The exhaustive conjugate factor search, the reference for
    conjugate_factor_search: beta and gamma are the roots of the edge
    charpolys found by a field scan, delta runs through the whole norm
    fiber found by norm_enc, and every (beta, gamma, delta) in ascending
    order is checked by a full grid_norm."""
    tower = f.tower
    top, n = tower.top, tower.n
    if f.coeff(n, n) != 1:
        return None

    def roots(edge):
        coeffs = [1] + [top.neg(e) if j % 2 else e
                        for j, e in enumerate(edge, 1)]
        found = []
        for t in range(tower.size):
            acc = 0
            for a in coeffs:
                acc = top.add(top.mul(acc, t), a)
            if acc == 0:
                found.append(t)
        return found

    betas = roots([f.coeff(n, n - j) for j in range(1, n + 1)])
    gammas = roots([f.coeff(n - j, n) for j in range(1, n + 1)])
    deltas = [d for d in range(tower.size)
              if tower.norm_enc(d) == f.coeff(0, 0)]
    for beta in betas:
        for gamma in gammas:
            for delta in deltas:
                g = ((delta, gamma), (beta, 1))
                if BivarPoly(tower, grid_norm(tower, g)) == f:
                    return (beta, gamma, delta)
    return None


def reference_curves(tower, b, c):
    """The curve N((X+b)(Y+b)) - Tr(c^(q^(n-1)) Q(X) Q(Y)) and its trace
    part from their definitions, Q(T) = (T+b)(T+b^q)...(T+b^(q^(n-2))):
    the norm is the product of conjugates by grid_norm, Q(X) Q(Y) the
    grid_mul product of the (X+b^(q^i))(Y+b^(q^i)), and the trace is taken
    coefficient by coefficient."""
    top, n = tower.top, tower.n
    norm = BivarPoly(tower, grid_norm(tower, ((top.mul(b, b), b), (b, 1))))
    qq = [[1]]
    for i in range(n - 1):
        bi = tower.frob_enc(b, i)
        qq = grid_mul(top, qq, [[top.mul(bi, bi), bi], [bi, 1]])
    a = tower.frob_enc(c, n - 1)
    kernel = BivarPoly(tower, [[tower.trace_enc(top.mul(a, v)) for v in row]
                               for row in qq])
    curve = BivarPoly(tower, [[top.sub(norm.coeff(i, j), kernel.coeff(i, j))
                               for j in range(n + 1)] for i in range(n + 1)])
    return curve, kernel


def grid_mul(top, f, g):
    """The schoolbook product of two coefficient grids, rows the powers of
    X and columns those of Y, on top.add and top.mul; not trimmed."""
    out = [[0] * (len(f[0]) + len(g[0]) - 1)
           for _ in range(len(f) + len(g) - 1)]
    for i, row in enumerate(f):
        for j, a in enumerate(row):
            for k, row2 in enumerate(g):
                for l, b in enumerate(row2):
                    out[i + k][j + l] = top.add(out[i + k][j + l],
                                                top.mul(a, b))
    return out


def grid_sigma(tower, grid, i):
    """x -> x^(q^i) on every entry, by frob_enc."""
    return [[tower.frob_enc(x, i) for x in row] for row in grid]


def grid_norm(tower, grid):
    """The product of the n conjugates sigma^i(grid) by grid_mul."""
    out = grid
    for i in range(1, tower.n):
        out = grid_mul(tower.top, out, grid_sigma(tower, grid, i))
    return out


def reduced_map(tower, b, c):
    """(N, P), ascending coefficient lists, of the reduced map
    r(t) = t + Tr(c/(t + b)) = N(t)/P(t) from its definition:
    P = prod_{i<n} (T + b^(q^i)) by polynomial products, Q = P/(T + b) by
    synthetic division, and N = T P + Tr(c Q) with the trace taken
    coefficient by coefficient."""
    top = tower.top
    P = [1]
    for i in range(tower.n):
        P = poly_mul(top, P, [tower.frob_enc(b, i), 1])
    Q = [0] * (len(P) - 1)
    rem = P[-1]
    for k in range(len(Q) - 1, -1, -1):
        Q[k] = rem
        rem = top.sub(P[k], top.mul(b, rem))
    assert rem == 0
    M = [tower.trace_enc(top.mul(c, x)) for x in Q] + [0, 0]
    N = [top.add(x, y) for x, y in zip(poly_mul(top, [0, 1], P), M)]
    return N, P


def poly_mul(top, f, g):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = top.add(out[i + j], top.mul(x, y))
    return out


def poly_eval(top, f, t):
    """f(t) by Horner's rule, f ascending."""
    acc = 0
    for x in reversed(f):
        acc = top.add(top.mul(acc, t), x)
    return acc
