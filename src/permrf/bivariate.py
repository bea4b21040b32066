"""Bivariate certificates for the permutation criteria.

Polynomials in X and Y over the top field are stored as rectangular
coefficient grids, grid[i][j] holding the encoding of the X^i Y^j
coefficient, trimmed so the last row and column are nonzero.

Every curve comes from the reduced map r(t) = t + Tr(c/(t + b)) = N/P on
F_q, with P(T) = prod_{i<n} (T + b^(q^i)), M(T) = Tr(c P(T)/(T + b)) (the
trace taken coefficient by coefficient) and N = T P + M:

  f (X - Y) = N(X) P(Y) - N(Y) P(X),
  P(X) P(Y) - f = (P(X) M(Y) - P(Y) M(X))/(X - Y)
                = Tr(c P(X) P(Y)/((X + b)(Y + b))),

the Bezoutian of P and M.  build_f2 and build_f3 give f at n = 2 and 3,
build_f3_kernel the Bezoutian at n = 3.  P has no root in F_q, so the
off-diagonal F_q-zeros of f are the collisions of r, the pairwise
witnesses, and those of the Bezoutian are the kernel witnesses.

conjugate_factor_search looks for a monic bilinear g = XY + beta X
+ gamma Y + delta with f = g * sigma(g) * ... * sigma^(n-1)(g), pruning
candidates through coefficients of f before any full product.  The top
row f[n] is the coefficient list of prod (Y + beta^(q^i)), so beta lies
in the norm fiber over f[n][0], has trace f[n][n-1], and its conjugate
product is that row; gamma is read off the right column f[.][n] the
same way.  f[0][0] is the norm of delta, whose fiber is read off the
log table (Nm(g^k) = g^(k e) with e = (q^n - 1)/(q - 1)).  Three more
coefficients filter delta per (beta, gamma):
  f[n-1][n-1] = Tr(delta) + Tr(beta) Tr(gamma) - Tr(beta gamma)
  f[1][0]     = Nm(delta) Tr(beta/delta)
  f[0][1]     = Nm(delta) Tr(gamma/delta)
and every survivor is checked by the full product.

The Weil gate for smoothness arguments is evaluated in exact integer
arithmetic: q - (d-1)(d-2) sqrt(q) - 2d + 1 > 0 exactly when
q - 2d + 1 is positive and its square exceeds ((d-1)(d-2))^2 q.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (DegreeTooSmall, LevelMismatch, UnsupportedDegree,
                     UsageError, WrongDegree)
from .gf_core import (FieldTower, _check_bc, _check_budget, _check_enc,
                      _check_frob_power, _check_tower, _conjugates, _power,
                      _render_terms, _tower_memos)


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
        for a in [a for row in grid for a in row]:
            _check_enc(self.tower, a, "coefficient")
        object.__setattr__(self, "grid", _trim(grid))

    @property
    def bidegree(self):
        return (len(self.grid) - 1, len(self.grid[0]) - 1)

    def coeff(self, i, j):
        rows, cols = len(self.grid), len(self.grid[0])
        return self.grid[i][j] if i < rows and j < cols else 0

    def expect_bidegree(self, dx, dy):
        if self.bidegree != (dx, dy):
            raise WrongDegree(
                f"bidegree {self.bidegree}, expected {(dx, dy)}")
        return self

    def is_symmetric(self):
        return self.grid == tuple(zip(*self.grid))

    def pretty(self):
        return _render_terms(
            ((a, "*".join(filter(None, (_power("X", i), _power("Y", j)))))
             for i, row in reversed(list(enumerate(self.grid)))
             for j, a in reversed(list(enumerate(row)))),
            self.tower.pretty_enc)


def _poly(tower, grid, trimmed=False):
    """A trimmed BivarPoly over table reads, its entries not checked.  A
    grid known to be trimmed already, its last row and column nonzero or
    the zero polynomial's one entry, is only turned into tuples."""
    f = object.__new__(BivarPoly)
    f.__dict__.update(tower=tower,
                      grid=tuple(map(tuple, grid)) if trimmed else _trim(grid))
    return f


def _check_poly(f, name="f"):
    if not isinstance(f, BivarPoly):
        raise UsageError(f"{name} must be a BivarPoly, not {f!r}")


def bilinear(tower, xy, x, y, const):
    """xy*XY + x*X + y*Y + const."""
    return BivarPoly(tower, ((const, y), (x, xy)))


def mul(f, g):
    """The product, each term exp[log a + log b], g's logs read once.
    Unless a factor is 0, the product's last row is the product of the
    factors' last rows, nonzero in an integral domain, and so is its last
    column: it is trimmed already."""
    _check_poly(f)
    _check_poly(g, "g")
    if f.tower is not g.tower:
        raise LevelMismatch("factors are built on different towers")
    top = f.tower.top
    exp, log, add = top._exp, top._log, top.add
    terms = [(k, l, log[b]) for k, row in enumerate(g.grid)
             for l, b in enumerate(row) if b]
    out = [[0] * (len(f.grid[0]) + len(g.grid[0]) - 1)
           for _ in range(len(f.grid) + len(g.grid) - 1)]
    for i, row in enumerate(f.grid):
        for j, a in enumerate(row):
            if a:
                la = log[a]
                for k, l, lb in terms:
                    o = out[i + k]
                    o[j + l] = add(o[j + l], exp[la + lb])
    return _poly(f.tower, out, trimmed=bool(terms) and any(f.grid[-1]))


def apply_sigma(f, i=1):
    """Apply x -> x^(q^i) to every coefficient.  Frobenius fixes 0 and
    no other entry maps to it, so the grid stays trimmed."""
    _check_poly(f)
    _check_frob_power(f.tower, i)
    grid = [_conjugates(f.tower, row, i) for row in f.grid]
    return _poly(f.tower, grid, trimmed=True)


def norm_poly(f):
    _check_poly(f)
    out = conj = f
    for _ in range(1, f.tower.n):
        conj = apply_sigma(conj)
        out = mul(out, conj)
    return out


def eval_poly(f, x, y):
    _check_poly(f)
    _check_enc(f.tower, x, "x")
    _check_enc(f.tower, y, "y")
    top = f.tower.top
    return _horner(top, [_horner(top, row, y) for row in f.grid], x)


def _horner(top, coeffs, x):
    """The ascending coefficients' polynomial at x."""
    acc = 0
    for a in reversed(coeffs):
        acc = top.add(top.mul(acc, x), a)
    return acc


def _conjugate_product(tower, a, first, stop):
    """Ascending coefficients of the product of T + a^(q^i) for
    first <= i < stop."""
    top = tower.top
    coeffs = [1]
    for i in range(first, stop):
        x = tower.frob_enc(a, i)
        coeffs = [top.add(lo, top.mul(x, hi))
                  for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


@lru_cache(maxsize=1)
def _curve_logs(tower, b):
    """The logarithms of the coefficients of Q = P/(T + b) and of P, None
    for 0.  They depend on (tower, b) alone, and sweeps hold b while c
    varies."""
    log = tower.top._log
    q_coeffs = _conjugate_product(tower, b, 1, tower.n)
    p_coeffs = _conjugate_product(tower, b, 0, tower.n)
    return (tuple(log[x] for x in q_coeffs),
            tuple(log[x] for x in p_coeffs))


def _curve(tower, b, c, n, with_norm):
    """The divided difference f of r = N/P, or with with_norm false the
    Bezoutian P(X) P(Y) - f = Tr(c Q(X) Q(Y)), Q = P/(T + b)."""
    if tower.n != n:
        raise UnsupportedDegree(f"this curve is specific to degree {n}")
    _check_bc(tower, b, c)
    top, trace = tower.top, tower.trace_table
    exp, lc = top._exp, top._log[c]
    lqs, lps = _curve_logs(tower, b)
    # log None for 0; (log c + log x) mod (size - 1) + log y indexes exp.
    grid = [[0 if None in (lx, ly) else
             trace[exp[(lc + lx) % (tower.size - 1) + ly]] for ly in lqs]
            + [0] for lx in lqs] + [[0] * (n + 1)]
    if with_norm:
        grid = [[top.sub(0 if None in (lx, ly) else exp[lx + ly], t)
                 for ly, t in zip(lps, row)] for lx, row in zip(lps, grid)]
    return _poly(tower, grid)


def build_f2(tower, b, c):
    """f = (N(X) P(Y) - N(Y) P(X))/(X - Y) at n = 2; bidegree (2, 2)."""
    return _curve(tower, b, c, 2, True).expect_bidegree(2, 2)


def build_f3(tower, b, c):
    """f = (N(X) P(Y) - N(Y) P(X))/(X - Y) at n = 3; bidegree (3, 3)."""
    return _curve(tower, b, c, 3, True).expect_bidegree(3, 3)


def build_f3_kernel(tower, b, c):
    """The Bezoutian P(X) P(Y) - f at n = 3; tight bidegree (2, 2).

    It is Tr(c Q(X) Q(Y)) with Q = (T + b^q)(T + b^(q^2)), so its Y^2
    column reads Tr(c b^(q+q^2)), Tr(c (b^q + b^(q^2))), Tr(c): these
    cannot all vanish for nonzero c, as 1, b^q + b^(q^2), b^(q+q^2) span.
    """
    return _curve(tower, b, c, 3, False).expect_bidegree(2, 2)


def count_offdiag_points(f):
    """Ordered pairs (x0, y0) in F_q^2 with x0 != y0 and f(x0, y0) = 0."""
    _check_poly(f)
    top, q = f.tower.top, f.tower.q
    # Each row's value at y0, then f(x0, y0) by Horner in x0.
    cols = [[_horner(top, row, y0) for row in f.grid] for y0 in range(q)]
    return sum(1 for y0, col in enumerate(cols) for x0 in range(q)
               if x0 != y0 and _horner(top, col, x0) == 0)


def _norm_fiber(tower, t):
    """Ascending encodings d with N(d) = t.  N(g^k) = g^(k e) with
    e = (q^n - 1)/(q - 1), so for t = g^l the fiber is the g^k with
    k = l/e mod q - 1, and it is empty unless e divides l."""
    if t == 0:
        return [0]
    k, rem = divmod(tower.top._log[t], tower._norm_exp)
    if rem:
        return []
    return sorted(map(tower.top._exp.__getitem__,
                      range(k, tower.size - 1, tower.q - 1)))


@lru_cache(maxsize=1024)
def _edge_roots(tower, edge):
    """Ascending x with prod sigma^i(T + x) = edge, ascending coefficients:
    such an x lies in the norm fiber over edge[0] and has trace edge[n-1].
    A curve's top row is P's, the same for every c of one b, so the roots
    are kept per (tower, edge)."""
    return tuple(x for x in _norm_fiber(tower, edge[0])
                 if tower.trace_table[x] == edge[tower.n - 1]
                 and tuple(_conjugate_product(tower, x, 0, tower.n)) == edge)


_tower_memos.extend((_curve_logs, _edge_roots))


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
    tower, n, grid = f.tower, f.tower.n, f.grid
    _check_budget(tower.size ** 3, tower.size_budget,
                  f"factor search space {tower.size}^3")
    # The norm of a monic bilinear g has bidegree (n, n), X^n Y^n term 1.
    if f.bidegree != (n, n) or grid[n][n] != 1:
        return None
    top, trace = tower.top, tower.trace_table
    row = grid[n]
    col = tuple(r[n] for r in grid)
    betas = _edge_roots(tower, row)
    gammas = betas if col == row else _edge_roots(tower, col)
    norm_target = grid[0][0]
    deltas = _norm_fiber(tower, norm_target)
    if norm_target:
        inv_norm = top.inv(norm_target)
        x_edge = top.mul(grid[1][0], inv_norm)
        y_edge = top.mul(grid[0][1], inv_norm)
    for beta in betas:
        for gamma in gammas:
            want = top.add(top.sub(grid[n - 1][n - 1],
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
                g = _poly(tower, ((delta, gamma), (beta, 1)))
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
