"""Linearized polynomials: F_q-linear maps on the top field.

A map is stored as the coefficient tuple (a_0, ..., a_(n-1)) of
a_0 x + a_1 x^q + ... + a_(n-1) x^(q^(n-1)), each a_i a top-level
encoding.  Exponents fold modulo n on construction because x^(q^n) = x
on the top field.  The matrix view (n x n over F_q, acting on power-basis
coordinates) carries rank, kernel, image and inversion; the Moore system
on the power basis converts a matrix back to coefficients.
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
        vj = q ** j if n > 1 else 1
        moore.append([tower.frob_enc(vj, i) for i in range(n)])
        targets.append(top.undigits([matrix[i][j] for i in range(n)]))
    coeffs = _linalg.solve(top, moore, targets)
    if coeffs is None:
        raise OutOfRange("Moore system of the power basis is singular")
    return LinearizedPoly(tower, tuple(coeffs))


def compose(outer, inner):
    """The map x -> outer(inner(x))."""
    m = _linalg.matmul(outer.tower.mid, matrix_of(outer), matrix_of(inner))
    return from_matrix(outer.tower, m)


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
    """Extend independent top elements to a basis, preferring low encodings."""
    ech = _linalg.Echelon(tower.mid)
    out = []
    n = tower.n
    for enc in vectors:
        if not ech.add(tower.top.digits(enc, n)):
            raise OutOfRange(f"encoding {enc} is dependent on the others")
        out.append(enc)
    cand = 1
    while len(out) < n:
        if ech.add(tower.top.digits(cand, n)):
            out.append(cand)
        cand += 1
    return out


def trace_decompose(L):
    """Write L(x) as sum alpha_i Tr(beta_i x) with independent alpha_i.

    Returns rank-many (alpha_i, beta_i) pairs of top elements.  The alpha_i
    are the image basis; each beta_i realizes the coordinate form along
    alpha_i composed with L.
    """
    tower = L.tower
    n, q = tower.n, tower.q
    top = tower.top
    rank_, _, image = rank_kernel_image(L)
    if rank_ == 0:
        return []
    completed = complete_basis(tower, image)
    duals = dual_basis(tower, completed)
    power_duals = dual_basis(tower, [q ** j if n > 1 else 1 for j in range(n)])
    pairs = []
    for i in range(rank_):
        beta = 0
        for k in range(n):
            vk = q ** k if n > 1 else 1
            t = tower.trace_enc(top.mul(duals[i].enc, L.eval_enc(vk)))
            beta = top.add(beta, top.mul(t, power_duals[k].enc))
        pairs.append((Element(tower, "top", image[i]), Element(tower, "top", beta)))
    return pairs
