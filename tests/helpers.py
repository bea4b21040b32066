"""Shared test fixtures: small towers and element strategies."""

from hypothesis import strategies as st

from permrf import LinearizedPoly, make_tower, rank_kernel_image
from permrf.bivariate import BivarPoly, bilinear, mul, norm_poly

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
    order is checked by a full norm_poly."""
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
                if norm_poly(bilinear(tower, 1, beta, gamma, delta)) == f:
                    return (beta, gamma, delta)
    return None


def reference_curves(tower, b, c):
    """The curve N((X+b)(Y+b)) - Tr(c^(q^(n-1)) Q(X) Q(Y)) and its trace
    part from their definitions, Q(T) = (T+b)(T+b^q)...(T+b^(q^(n-2))):
    the norm is the product of conjugates by mul and apply_sigma, Q(X) Q(Y)
    the product of the (X+b^(q^i))(Y+b^(q^i)), and the trace is taken
    coefficient by coefficient."""
    top, n = tower.top, tower.n
    norm = norm_poly(bilinear(tower, 1, b, b, top.mul(b, b)))
    qq = BivarPoly(tower, ((1,),))
    for i in range(n - 1):
        bi = tower.frob_enc(b, i)
        qq = mul(qq, bilinear(tower, 1, bi, bi, top.mul(bi, bi)))
    a = tower.frob_enc(c, n - 1)
    kernel = BivarPoly(tower, [[tower.trace_enc(top.mul(a, v)) for v in row]
                               for row in qq.grid])
    curve = BivarPoly(tower, [[top.sub(norm.coeff(i, j), kernel.coeff(i, j))
                               for j in range(n + 1)] for i in range(n + 1)])
    return curve, kernel
