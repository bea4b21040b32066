"""Linearized polynomials: F_q-linear maps on the top field.

A map is stored as the coefficient tuple (a_0, ..., a_(n-1)) of
a_0 x + a_1 x^q + ... + a_(n-1) x^(q^(n-1)), each a_i a top-level
encoding.  Exponents fold modulo n on construction because x^(q^n) = x
on the top field, so composition and inversion work on the coefficients
directly; inversion solves one linear system over the top field whose
matrix is the Dickson (q-circulant) matrix of the map.  The matrix view
(n x n over F_q, acting on power-basis coordinates) serves rank, kernel
and image, and the Frobenius matrix that `permrf field` prints.

The trace form is nondegenerate, so every map L has one adjoint L* with
Tr(y * L(x)) = Tr(L*(y) * x).  Tr is invariant under x -> x^q, so L* has
a_i^(q^k) at x^(q^k) for k = -i mod n.  A dual basis is one column of an
inverse Moore matrix over the top field.
"""

from dataclasses import dataclass, field

from . import _linalg
from .errors import LevelMismatch, NotABasis, NotBijective, UsageError
from .gf_core import FieldTower, _check_enc, _check_tower


@dataclass(frozen=True)
class LinearizedPoly:
    tower: FieldTower = field(repr=False)
    coeffs: tuple

    def __post_init__(self):
        _check_tower(self.tower)
        if not isinstance(self.coeffs, (tuple, list)):
            raise UsageError(f"coefficients must be a tuple or list of "
                             f"encodings, not {self.coeffs!r}")
        n = self.tower.n
        folded = [0] * n
        for i, a in enumerate(self.coeffs):
            _check_enc(self.tower, a, "coefficient")
            folded[i % n] = self.tower.top.add(folded[i % n], a)
        object.__setattr__(self, "coeffs", tuple(folded))

    @classmethod
    def identity(cls, tower):
        return cls(tower, (1,))

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


def _check_map(L, what="L"):
    if not isinstance(L, LinearizedPoly):
        raise UsageError(f"{what} must be a LinearizedPoly, not {L!r}")


def matrix_of(L):
    """n x n matrix over F_q sending power-basis coordinates through L."""
    _check_map(L)
    tower = L.tower
    n, q = tower.n, tower.q
    cols = [tower.top.digits(L.eval_enc(q ** j), n) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def compose(outer, inner):
    """The map x -> outer(inner(x)).

    a_i (b_j x^(q^j))^(q^i) = a_i b_j^(q^i) x^(q^(i+j)); LinearizedPoly
    folds the exponents i + j >= n back modulo n.
    """
    _check_map(outer, "outer")
    _check_map(inner, "inner")
    if outer.tower is not inner.tower:
        raise LevelMismatch("maps are built on different towers")
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
    """(rank, kernel basis, image basis); bases are ascending encodings.
    The image basis is reduced echelon: each element's lowest nonzero
    base-q digit is 1, and every other element's digit there is 0."""
    _check_map(L)
    tower = L.tower
    m = matrix_of(L)
    kernel = [tower.top.undigits(v) for v in _linalg.nullspace(tower.mid, m)]
    image = [tower.top.undigits(v) for v in _linalg.col_echelon(tower.mid, m)]
    kernel.sort()
    image.sort()
    return len(image), kernel, image


def invert_lin(L):
    """The inverse map, or NotBijective when L is singular.

    M o L has sum_j m_j a_(k-j)^(q^j) at x^(q^k), linear in the m_j, so
    M o L = x is the row system m D = e_0 over the top field, with the
    Dickson matrix D[j][k] = a_((k-j) mod n)^(q^j); D is singular exactly
    when L is.  Row j + 1 is row j shifted right and raised to the q.
    """
    _check_map(L)
    tower = L.tower
    frob = tower.frob_table
    rows = [list(L.coeffs)]
    for _ in range(1, tower.n):
        rows.append([frob[a] for a in rows[-1][-1:] + rows[-1][:-1]])
    inv = _linalg.inv_matrix(tower.top, rows)
    if inv is None:
        raise NotBijective("linear map has a nontrivial kernel")
    return LinearizedPoly(tower, tuple(inv[0]))


def dual_basis(tower, basis):
    """Dual of a basis of the top field over the middle one: the d_k with
    Tr(w_j * d_k) = [j == k] for the n top encodings w_j in basis.

    With M[i][j] = w_j^(q^i) and D[i][k] = d_k^(q^i), M^T D = 1, so d_k is
    entry (k, 0) of M^-1.  This Moore matrix is singular, and NotABasis
    raised, exactly when the w_j are dependent over F_q.
    """
    n = tower.n
    if not hasattr(basis, "__iter__"):
        raise UsageError(f"basis must be a sequence of encodings, "
                         f"not {basis!r}")
    encs = list(basis)
    if len(encs) != n:
        raise NotABasis(f"need exactly {n} elements, got {len(encs)}")
    for e in encs:
        _check_enc(tower, e, "basis")
    rows = [encs]
    for _ in range(1, n):
        rows.append([tower.frob_table[w] for w in rows[-1]])
    inv = _linalg.inv_matrix(tower.top, rows)
    if inv is None:
        raise NotABasis("the elements are dependent over the middle field")
    return tuple(row[0] for row in inv)


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
    are the image basis, which is reduced echelon, so the coordinate along
    alpha_i is the digit of L(x) at alpha_i's lowest nonzero digit k, and
    that digit is Tr(d_k L(x)) = Tr(L*(d_k) x) with (d_k) the dual of the
    power basis: beta_i = L*(d_k).
    """
    _check_map(L)
    tower = L.tower
    n = tower.n
    _, _, image = rank_kernel_image(L)
    duals = dual_basis(tower, [tower.q ** k for k in range(n)])
    adj = _adjoint(L)
    # Digits below k are 0 and digit k is 1, so k is the first 1.
    return [(a, adj.eval_enc(duals[tower.top.digits(a, n).index(1)]))
            for a in image]
