"""Linearized polynomials: F_q-linear maps on the top field.

A map is stored as the coefficient tuple (a_0, ..., a_(n-1)) of
a_0 x + a_1 x^q + ... + a_(n-1) x^(q^(n-1)), each a_i a top-level
encoding.  Exponents fold modulo n on construction because x^(q^n) = x
on the top field, so composition works on the coefficients directly.  The
matrix view (n x n over F_q, acting on power-basis coordinates) serves
rank, kernel, image and inversion only; the dual of the power basis turns
a matrix back into coefficients.

The trace form is nondegenerate, so every map L has one adjoint L* with
Tr(y * L(x)) = Tr(L*(y) * x).  Tr is invariant under x -> x^q, so L* has
a_i^(q^k) at x^(q^k) for k = -i mod n, and trace duals need no solve.
"""

from dataclasses import dataclass, field
from functools import partial

from . import _linalg
from .errors import NotBijective, OutOfRange
from .gf_core import FieldTower, _power, _render_terms, dual_basis


@dataclass(frozen=True)
class LinearizedPoly:
    tower: FieldTower = field(repr=False)
    coeffs: tuple

    def __post_init__(self):
        n = self.tower.n
        size = self.tower.size
        folded = [0] * n
        for i, a in enumerate(self.coeffs):
            if not isinstance(a, int) or not 0 <= a < size:
                raise OutOfRange(f"coefficient {a!r} is not a top encoding")
            folded[i % n] = self.tower.top.add(folded[i % n], a)
        object.__setattr__(self, "coeffs", tuple(folded))

    @classmethod
    def zero(cls, tower):
        return cls(tower, (0,))

    @classmethod
    def identity(cls, tower):
        return cls(tower, (1,))

    @classmethod
    def scaling(cls, tower, a):
        return cls(tower, (a,))

    @classmethod
    def frobenius_power(cls, tower, i):
        if not 0 <= i < tower.n:
            raise OutOfRange(f"Frobenius power {i} outside 0..{tower.n - 1}")
        return cls(tower, tuple(0 if j != i else 1 for j in range(i + 1)))

    @property
    def is_identity(self):
        return self.coeffs == (1,) + (0,) * (self.tower.n - 1)

    def eval_enc(self, x):
        top = self.tower.top
        frob = self.tower.frob_table
        acc = 0
        t = x
        for a in self.coeffs:
            if a:
                acc = top.add(acc, top.mul(a, t))
            t = frob[t]
        return acc

    def __call__(self, x):
        if not 0 <= x < self.tower.size:
            raise OutOfRange(f"encoding {x} is not a top encoding")
        return self.eval_enc(x)

    def pretty(self):
        q = self.tower.q
        return _render_terms(
            ((a, _power("x", q ** i))
             for i, a in reversed(list(enumerate(self.coeffs)))),
            partial(self.tower.pretty_enc, "top"))


def matrix_of(L):
    """n x n matrix over F_q sending power-basis coordinates through L."""
    tower = L.tower
    n, q = tower.n, tower.q
    cols = [tower.top.digits(L.eval_enc(q ** j), n) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def from_matrix(tower, matrix):
    """The linearized polynomial acting as the given matrix on coordinates.

    With w_j column j read back as an element and (d_j) the dual of the
    power basis, x = sum_j Tr(d_j x) v^j, so L(x) = sum_j w_j Tr(d_j x)
    and a_i = sum_j w_j d_j^(q^i).
    """
    n, q = tower.n, tower.q
    if (len(matrix) != n or any(len(row) != n for row in matrix)
            or not all(0 <= e < q for row in matrix for e in row)):
        raise OutOfRange(f"matrix is not {n} x {n} with entries in 0..{q - 1}")
    top = tower.top
    duals = dual_basis(tower, [q ** j for j in range(n)])
    coeffs = [0] * n
    for j, d in enumerate(duals):
        w = top.undigits([matrix[i][j] for i in range(n)])
        for i in range(n):
            coeffs[i] = top.add(coeffs[i], top.mul(w, d))
            d = tower.frob_table[d]
    return LinearizedPoly(tower, tuple(coeffs))


def compose(outer, inner):
    """The map x -> outer(inner(x)).

    a_i (b_j x^(q^j))^(q^i) = a_i b_j^(q^i) x^(q^(i+j)); LinearizedPoly
    folds the exponents i + j >= n back modulo n.
    """
    tower = outer.tower
    top = tower.top
    n = tower.n
    coeffs = [0] * (2 * n - 1)
    for i, a in enumerate(outer.coeffs):
        for j, b in enumerate(inner.coeffs):
            coeffs[i + j] = top.add(coeffs[i + j],
                                    top.mul(a, tower.frob_enc(b, i)))
    return LinearizedPoly(tower, tuple(coeffs))


def rank_kernel_image(L):
    """(rank, kernel basis, image basis); bases are ascending encodings."""
    tower = L.tower
    m = matrix_of(L)
    kernel = [tower.top.undigits(v) for v in _linalg.nullspace(tower.mid, m)]
    image = [tower.top.undigits(v) for v in _linalg.col_echelon(tower.mid, m)]
    kernel.sort()
    image.sort()
    return len(image), kernel, image


def invert_lin(L):
    """The inverse map, or NotBijective when the matrix is singular."""
    inv = _linalg.inv_matrix(L.tower.mid, matrix_of(L))
    if inv is None:
        raise NotBijective("linear map has a nontrivial kernel")
    return from_matrix(L.tower, inv)


def complete_basis(tower, vectors):
    """Extend independent top elements to a basis, preferring low encodings.

    When every encoding below q^k lies in the span, those from q^k to
    q^(k+1) - 1 lie in it exactly when q^k does; so trying v^0 .. v^(n-1)
    in turn yields the least fill-ins.
    """
    vectors = list(vectors)
    for enc in vectors:
        if not 0 <= enc < tower.size:
            raise OutOfRange(f"encoding {enc} is not a top encoding")
    out = []
    for i, enc in enumerate(vectors + [tower.q ** k for k in range(tower.n)]):
        rows = [tower.top.digits(e, tower.n) for e in out + [enc]]
        if len(_linalg.rref(tower.mid, rows)[1]) > len(out):
            out.append(enc)
        elif i < len(vectors):
            raise OutOfRange(f"encoding {enc} is dependent on the others")
    return out


def _adjoint(L):
    """The map L* with Tr(y * L(x)) = Tr(L*(y) * x) for all x, y."""
    tower = L.tower
    n = tower.n
    coeffs = [0] * n
    for i, a in enumerate(L.coeffs):
        k = -i % n
        coeffs[k] = tower.frob_enc(a, k)
    return LinearizedPoly(tower, tuple(coeffs))


def trace_decompose(L):
    """Write L(x) as sum alpha_i Tr(beta_i x) with independent alpha_i.

    Returns rank-many (alpha_i, beta_i) pairs of top encodings.  The alpha_i
    are the image basis; with (d_i) the dual of its completion to a basis,
    the coordinate along alpha_i is Tr(d_i L(x)) = Tr(L*(d_i) x), so
    beta_i = L*(d_i).
    """
    tower = L.tower
    _, _, image = rank_kernel_image(L)
    duals = dual_basis(tower, complete_basis(tower, image))
    adj = _adjoint(L)
    return [(alpha, adj.eval_enc(d)) for alpha, d in zip(image, duals)]
