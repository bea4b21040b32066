"""Bivariate certificates for the permutation criteria.

Polynomials in X and Y over the top field are stored as rectangular
coefficient grids, grid[i][j] holding the encoding of the X^i Y^j
coefficient, trimmed so the last row and column are nonzero.  The maps
under test leave F_q-rational points of these grids in correspondence
with failing pairs of the criteria.  For w = (x0+b)(y0+b),
N(w) Tr(c/w) = Tr(c^(q^(n-1)) w w^q ... w^(q^(n-2))), so every curve is
one formula:

  f = P(X) P(Y) - Tr(c^(q^(n-1)) Q(X) Q(Y)),
  P(T) = prod_{i<n} (T + b^(q^i)),  Q(T) = prod_{i<n-1} (T + b^(q^i)),

with the trace taken coefficient by coefficient: build_f2 at n = 2,
build_f3 at n = 3, and build_f3_kernel the trace part alone.  At points
of F_q x F_q each curve evaluates to N(w) (1 - Tr(c/w)), the kernel
curve to N(w) Tr(c/w), so off-diagonal zeros are exactly the pairwise
(resp. kernel) witnesses.

conjugate_factor_search looks for a monic bilinear g = XY + beta X
+ gamma Y + delta with f = g * sigma(g) * ... * sigma^(n-1)(g), pruning
candidates through coefficients of f before any full product.  The top
row f[n] is the coefficient list of prod (Y + beta^(q^i)), so beta lies
in the norm fiber over f[n][0], has trace f[n][n-1], and its conjugate
product is that row; gamma is read off the right column f[.][n] the
same way.  f[0][0] is the norm of delta, whose fiber is read off the
log table (N(g^k) = g^(k e) with e = (q^n - 1)/(q - 1)).  Three more
coefficients filter delta per (beta, gamma):
  f[n-1][n-1] = Tr(delta) + Tr(beta) Tr(gamma) - Tr(beta gamma)
  f[1][0]     = N(delta) Tr(beta/delta)
  f[0][1]     = N(delta) Tr(gamma/delta)
and every survivor is checked by the full product.

The Weil gate for smoothness arguments is evaluated in exact integer
arithmetic: q - (d-1)(d-2) sqrt(q) - 2d + 1 > 0 exactly when
q - 2d + 1 is positive and its square exceeds ((d-1)(d-2))^2 q.
"""

import math
from dataclasses import dataclass, field

from .errors import (DegreeTooSmall, LevelMismatch, UnsupportedDegree,
                     UsageError, WrongDegree)
from .gf_core import (FieldTower, _check_bc, _check_budget, _check_enc,
                      _check_tower, _power, _render_terms)


def _trim(grid):
    rows = len(grid)
    while rows > 1 and not any(grid[rows - 1]):
        rows -= 1
    grid = grid[:rows]
    cols = len(grid[0])
    while cols > 1 and not any(row[cols - 1] for row in grid):
        cols -= 1
    return tuple(tuple(row[:cols]) for row in grid)


@dataclass(frozen=True)
class BivarPoly:
    tower: FieldTower = field(repr=False)
    grid: tuple

    def __post_init__(self):
        """Refuse a grid that is not rows, is empty or ragged, or holds an
        entry that is not a top encoding."""
        _check_tower(self.tower)
        grid = self.grid
        if (not isinstance(grid, (tuple, list)) or not grid
                or not all(isinstance(row, (tuple, list)) for row in grid)
                or not grid[0]
                or any(len(row) != len(grid[0]) for row in grid)):
            raise UsageError(f"grid {grid!r} is not rows of one nonzero "
                             f"length")
        for row in grid:
            for a in row:
                _check_enc(self.tower, a, "coefficient")
        object.__setattr__(self, "grid", _trim(grid))

    @property
    def bidegree(self):
        return (len(self.grid) - 1, len(self.grid[0]) - 1)

    def coeff(self, i, j):
        if i < len(self.grid) and j < len(self.grid[0]):
            return self.grid[i][j]
        return 0

    def expect_bidegree(self, dx, dy):
        if self.bidegree != (dx, dy):
            raise WrongDegree(
                f"bidegree {self.bidegree}, expected {(dx, dy)}")
        return self

    def is_symmetric(self):
        dx, dy = self.bidegree
        if dx != dy:
            return False
        return all(self.grid[i][j] == self.grid[j][i]
                   for i in range(dx + 1) for j in range(dy + 1))

    def pretty(self):
        return _render_terms(
            ((a, "*".join(filter(None, (_power("X", i), _power("Y", j)))))
             for i, row in reversed(list(enumerate(self.grid)))
             for j, a in reversed(list(enumerate(row)))),
            self.tower.pretty_enc)


def _check_poly(f):
    if not isinstance(f, BivarPoly):
        raise UsageError(f"f must be a BivarPoly, not {f!r}")


def bilinear(tower, xy, x, y, const):
    """xy*XY + x*X + y*Y + const."""
    return BivarPoly(tower, ((const, y), (x, xy)))


def mul(f, g):
    if f.tower is not g.tower:
        raise LevelMismatch("factors are built on different towers")
    top = f.tower.top
    fr, fc = len(f.grid), len(f.grid[0])
    gr, gc = len(g.grid), len(g.grid[0])
    out = [[0] * (fc + gc - 1) for _ in range(fr + gr - 1)]
    for i in range(fr):
        for j in range(fc):
            a = f.grid[i][j]
            if a == 0:
                continue
            for k in range(gr):
                for l in range(gc):
                    b = g.grid[k][l]
                    if b != 0:
                        out[i + k][j + l] = top.add(out[i + k][j + l],
                                                    top.mul(a, b))
    return BivarPoly(f.tower, out)


def apply_sigma(f, i=1):
    """Apply x -> x^(q^i) to every coefficient."""
    frob = f.tower.frob_enc
    return BivarPoly(f.tower, [[frob(x, i) for x in row] for row in f.grid])


def norm_poly(f):
    _check_poly(f)
    out = f
    for i in range(1, f.tower.n):
        out = mul(out, apply_sigma(f, i))
    return out


def eval_poly(f, x, y):
    _check_poly(f)
    _check_enc(f.tower, x, "x")
    _check_enc(f.tower, y, "y")
    top = f.tower.top
    acc = 0
    for row in reversed(f.grid):
        racc = 0
        for a in reversed(row):
            racc = top.add(top.mul(racc, y), a)
        acc = top.add(top.mul(acc, x), racc)
    return acc


def _conjugate_product(tower, a, k):
    """Ascending coefficients of (T + a)(T + a^q)...(T + a^(q^(k-1)))."""
    top, frob = tower.top, tower.frob_table
    coeffs = [1]
    for _ in range(k):
        coeffs = [top.add(lo, top.mul(a, hi))
                  for lo, hi in zip([0] + coeffs, coeffs + [0])]
        a = frob[a]
    return coeffs


def _curve(tower, b, c, n, with_norm):
    """P(X) P(Y) - Tr(c^(q^(n-1)) Q(X) Q(Y)), or the trace part alone,
    with P and Q the products of T + b^(q^i) over i < n and i < n - 1."""
    if tower.n != n:
        raise UnsupportedDegree(f"this curve is specific to degree {n}")
    _check_bc(tower, b, c)
    top, trace = tower.top, tower.trace_table
    a = tower.frob_enc(c, n - 1)
    qs = _conjugate_product(tower, b, n - 1) + [0]
    grid = [[trace[top.mul(top.mul(a, x), y)] for y in qs] for x in qs]
    if with_norm:
        ps = _conjugate_product(tower, b, n)
        grid = [[top.sub(top.mul(x, y), t) for y, t in zip(ps, row)]
                for x, row in zip(ps, grid)]
    return BivarPoly(tower, grid)


def build_f2(tower, b, c):
    """N((X+b)(Y+b)) - Tr(c^q (X+b)(Y+b)); bidegree (2, 2)."""
    return _curve(tower, b, c, 2, True).expect_bidegree(2, 2)


def build_f3(tower, b, c):
    """N((X+b)(Y+b)) - Tr(c^(q^2) (X+b)(X+b^q)(Y+b)(Y+b^q)); bidegree (3, 3)."""
    return _curve(tower, b, c, 3, True).expect_bidegree(3, 3)


def build_f3_kernel(tower, b, c):
    """Tr(c^(q^2) (X+b)(X+b^q)(Y+b)(Y+b^q)); tight bidegree (2, 2).

    Tightness is a consequence of 1, b + b^q, b^(q+1) spanning: the Y^2
    column reads Tr(c^(q^2) b^(q+1)), Tr(c^(q^2) (b + b^q)), Tr(c^(q^2)),
    which cannot all vanish for nonzero c.
    """
    return _curve(tower, b, c, 3, False).expect_bidegree(2, 2)


def count_offdiag_points(f):
    """Ordered pairs (x0, y0) in F_q^2 with x0 != y0 and f(x0, y0) = 0."""
    _check_poly(f)
    q = f.tower.q
    count = 0
    for x0 in range(q):
        for y0 in range(q):
            if x0 != y0 and eval_poly(f, x0, y0) == 0:
                count += 1
    return count


def _norm_fiber(tower, t):
    """Ascending encodings d with N(d) = t.  N(g^k) = g^(k e) with
    e = (q^n - 1)/(q - 1), so for t = g^l the fiber is the g^k with
    k = l/e mod q - 1, and it is empty unless e divides l."""
    if t == 0:
        return [0]
    order = tower.size - 1
    e = order // (tower.q - 1)
    k, rem = divmod(tower.top._log[t], e)
    if rem:
        return []
    exp = tower.top._exp
    return sorted(exp[i] for i in range(k, order, tower.q - 1))


def _edge_roots(tower, edge):
    """Ascending x with prod sigma^i(T + x) = edge, ascending coefficients:
    such an x lies in the norm fiber over edge[0] and has trace
    edge[n-1]."""
    n = tower.n
    return [x for x in _norm_fiber(tower, edge[0])
            if tower.trace_table[x] == edge[n - 1]
            and _conjugate_product(tower, x, n) == edge]


def conjugate_factor_search(f):
    """First (beta, gamma, delta) with f = prod sigma^i(XY + beta X + gamma Y
    + delta), or None.

    Requires the X^n Y^n coefficient to be 1.  Candidates for beta and
    gamma are read off the grid edges by _edge_roots, delta runs through
    the norm fiber over f[0][0] (read off the log table), and for each
    (beta, gamma) only the delta passing three coefficient filters are
    checked by a full product: Tr(delta) = f[n-1][n-1]
    - Tr(beta) Tr(gamma) + Tr(beta gamma), and for delta != 0,
    Tr(beta/delta) = f[1][0]/f[0][0] and Tr(gamma/delta) = f[0][1]/f[0][0].
    The first verified triple in ascending (beta, gamma, delta) order
    wins, so the result is deterministic.
    """
    _check_poly(f)
    tower = f.tower
    n = tower.n
    _check_budget(tower.size ** 3, tower.size_budget,
                  f"factor search space {tower.size}^3")
    if f.coeff(n, n) != 1:
        return None
    top, trace = tower.top, tower.trace_table
    row = [f.coeff(n, j) for j in range(n + 1)]
    col = [f.coeff(i, n) for i in range(n + 1)]
    betas = _edge_roots(tower, row)
    gammas = betas if col == row else _edge_roots(tower, col)
    norm_target = f.coeff(0, 0)
    deltas = _norm_fiber(tower, norm_target)
    if norm_target:
        inv_norm = top.inv(norm_target)
        x_edge = top.mul(f.coeff(1, 0), inv_norm)
        y_edge = top.mul(f.coeff(0, 1), inv_norm)
    for beta in betas:
        for gamma in gammas:
            want = top.add(top.sub(f.coeff(n - 1, n - 1),
                                   top.mul(trace[beta], trace[gamma])),
                           trace[top.mul(beta, gamma)])
            for delta in deltas:
                if trace[delta] != want:
                    continue
                if norm_target:
                    d_inv = top.inv(delta)
                    if (trace[top.mul(beta, d_inv)] != x_edge
                            or trace[top.mul(gamma, d_inv)] != y_edge):
                        continue
                g = bilinear(tower, 1, beta, gamma, delta)
                if norm_poly(g) == f:
                    return (beta, gamma, delta)
    return None


def _check_weil_args(**args):
    """Refuse arguments that are not ints, 9.0 answering as 9 and True as
    1, then a degree d below 2."""
    bad = ", ".join(f"{k}={v!r}" for k, v in args.items()
                    if type(v) is not int)
    if bad:
        raise UsageError(f"Weil arguments must be ints, not {bad}")
    if args["d"] < 2:
        raise DegreeTooSmall(f"degree {args['d']} has no smooth model to bound")


def weil_threshold(d):
    """The sqrt(q) value above which the point-count gate opens.

    Positive root of s^2 - (d-1)(d-2)s - (2d-1); informational only,
    the gate itself never touches floats.
    """
    _check_weil_args(d=d)
    a = (d - 1) * (d - 2)
    return (a + math.sqrt(a * a + 4 * (2 * d - 1))) / 2


def weil_holds(q, d):
    """Whether q + 1 - (d-1)(d-2) sqrt(q) - 2d > 0, in exact integers."""
    _check_weil_args(q=q, d=d)
    margin = q - 2 * d + 1
    if margin <= 0:
        return False
    a = (d - 1) * (d - 2)
    return margin * margin > a * a * q
