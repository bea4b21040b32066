"""Linearized polynomials: F_q-linear maps on the top field.

A map is stored as the coefficient tuple (a_0, ..., a_(n-1)) of
a_0 x + a_1 x^q + ... + a_(n-1) x^(q^(n-1)), each a_i a top-level
encoding.  Exponents fold modulo n on construction because x^(q^n) = x
on the top field, so composition works on the coefficients directly.  The
matrix view (n x n over F_q, acting on power-basis coordinates) serves
rank, kernel, image and inversion only; the Moore system on the power
basis converts an inverse matrix back to coefficients.
"""

from dataclasses import dataclass, field

from . import _linalg
from .errors import NotBijective, OutOfRange
from .gf_core import Element, FieldTower, dual_basis


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
        return cls(tower, (a.enc if isinstance(a, Element) else a,))

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
        if isinstance(x, Element):
            if x.level != "top":
                raise OutOfRange("linearized polynomials act on the top level")
            return Element(self.tower, "top", self.eval_enc(x.enc))
        return self.eval_enc(x)

    def pretty(self):
        terms = []
        q = self.tower.q
        for i in range(self.tower.n - 1, -1, -1):
            a = self.coeffs[i]
            if a == 0:
                continue
            xi = "x" if i == 0 else f"x^{q ** i}"
            if a == 1:
                terms.append(xi)
            else:
                terms.append(f"({self.tower.pretty_enc('top', a)})*{xi}")
        return " + ".join(terms) if terms else "0"


def matrix_of(L):
    """n x n matrix over F_q sending power-basis coordinates through L."""
    tower = L.tower
    n, q = tower.n, tower.q
    cols = [tower.top.digits(L.eval_enc(q ** j), n) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def from_matrix(tower, matrix):
    """The linearized polynomial acting as the given matrix on coordinates.

    Solves the Moore system sum_i a_i (v^j)^(q^i) = y_j over the top field,
    where y_j is column j read back as an element.
    """
    n, q = tower.n, tower.q
    top = tower.top
    moore = []
    targets = []
    for j in range(n):
        moore.append([tower.frob_enc(q ** j, i) for i in range(n)])
        targets.append(top.undigits([matrix[i][j] for i in range(n)]))
    coeffs = _linalg.solve(top, moore, targets)
    if coeffs is None:
        raise OutOfRange("Moore system of the power basis is singular")
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
    out = []
    for i, enc in enumerate(vectors + [tower.q ** k for k in range(tower.n)]):
        rows = [tower.top.digits(e, tower.n) for e in out + [enc]]
        if len(_linalg.rref(tower.mid, rows)[1]) > len(out):
            out.append(enc)
        elif i < len(vectors):
            raise OutOfRange(f"encoding {enc} is dependent on the others")
    return out


def _trace_dual(tower, form):
    """The beta with Tr(beta * x) = form(x) for an F_q-linear form.

    beta = sum form(v^k) d_k over the dual (d_k) of the power basis.
    """
    top = tower.top
    powers = [tower.q ** k for k in range(tower.n)]
    beta = 0
    for vk, dk in zip(powers, dual_basis(tower, powers)):
        beta = top.add(beta, top.mul(form(vk), dk.enc))
    return beta


def trace_decompose(L):
    """Write L(x) as sum alpha_i Tr(beta_i x) with independent alpha_i.

    Returns rank-many (alpha_i, beta_i) pairs of top elements.  The alpha_i
    are the image basis; each beta_i realizes the coordinate form along
    alpha_i composed with L.
    """
    tower = L.tower
    top = tower.top
    rank_, _, image = rank_kernel_image(L)
    if rank_ == 0:
        return []
    duals = dual_basis(tower, complete_basis(tower, image))
    pairs = []
    for i in range(rank_):
        beta = _trace_dual(tower, lambda x: tower.trace_enc(
            top.mul(duals[i].enc, L.eval_enc(x))))
        pairs.append((Element(tower, "top", image[i]), Element(tower, "top", beta)))
    return pairs
