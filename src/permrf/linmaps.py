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
a_i^(q^k) at x^(q^k) for k = -i mod n, and trace duals need no solve.
"""

from dataclasses import dataclass, field

from . import _linalg
from .errors import NotBijective, OutOfRange
from .gf_core import FieldTower, _check_enc, dual_basis


@dataclass(frozen=True)
class LinearizedPoly:
    tower: FieldTower = field(repr=False)
    coeffs: tuple

    def __post_init__(self):
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


def matrix_of(L):
    """n x n matrix over F_q sending power-basis coordinates through L."""
    tower = L.tower
    n, q = tower.n, tower.q
    cols = [tower.top.digits(L.eval_enc(q ** j), n) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


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
    """The inverse map, or NotBijective when L is singular.

    M o L has sum_j m_j a_(k-j)^(q^j) at x^(q^k), linear in the m_j, so
    M o L = x is the row system m D = e_0 over the top field, with the
    Dickson matrix D[j][k] = a_((k-j) mod n)^(q^j); D is singular exactly
    when L is.  Row j + 1 is row j shifted right and raised to the q.
    """
    tower = L.tower
    frob = tower.frob_table
    rows = [list(L.coeffs)]
    for _ in range(1, tower.n):
        rows.append([frob[a] for a in rows[-1][-1:] + rows[-1][:-1]])
    inv = _linalg.inv_matrix(tower.top, rows)
    if inv is None:
        raise NotBijective("linear map has a nontrivial kernel")
    return LinearizedPoly(tower, tuple(inv[0]))


def complete_basis(tower, vectors):
    """Extend independent top elements to a basis, preferring low encodings.

    When every encoding below q^k lies in the span, those from q^k to
    q^(k+1) - 1 lie in it exactly when q^k does; so trying v^0 .. v^(n-1)
    in turn yields the least fill-ins.
    """
    vectors = list(vectors)
    for enc in vectors:
        _check_enc(tower, enc, "vector")
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
