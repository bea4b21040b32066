"""Linearized polynomials: evaluation, matrices, rank data, and the
trace decomposition.  Frozen values verified against an independent
implementation.
"""

import itertools
import random

import pytest

from helpers import SMALL_TOWERS, seeded_map_of_rank
from permrf import (
    LinearizedPoly,
    RatFuncSpec,
    compose,
    invert_lin,
    make_tower,
    matrix_of,
    rank_kernel_image,
    trace_decompose,
)
from permrf.errors import LevelMismatch, NotBijective, OutOfRange, UsageError


def test_constructors_and_identity():
    t = make_tower(3, 1, 2)
    ident = LinearizedPoly.identity(t)
    assert ident.coeffs == (1, 0)
    assert ident.is_identity
    assert LinearizedPoly(t, (0,)).coeffs == (0, 0)
    assert LinearizedPoly(t, (5,)).coeffs == (5, 0)


@pytest.mark.parametrize("params", [(3, 1, 2), (2, 2, 3), (5, 1, 3)])
def test_identity_is_one_map_per_tower(params):
    """A spec's default L is the tower's one identity map, equal to the
    map built from (1,)."""
    t = make_tower(*params)
    ident = LinearizedPoly.identity(t)
    assert ident is LinearizedPoly.identity(t)
    assert ident == LinearizedPoly(t, (1,))
    assert RatFuncSpec(t, t.q, 1).L is ident
    with pytest.raises(UsageError, match="tower must be a FieldTower"):
        LinearizedPoly.identity([1])


def test_exponent_folding():
    t = make_tower(3, 1, 2)
    # x^(q^2) is x, so a coefficient at slot 2 folds onto slot 0
    folded = LinearizedPoly(t, (0, 0, 1))
    assert folded.coeffs == (1, 0)
    assert folded.is_identity
    # folding adds coefficients in the field: 2 + 1 = 0 in F_3
    doubled = LinearizedPoly(t, (1, 2, 1, 1))
    assert doubled.coeffs == (2, 0)


def test_coefficient_validation():
    t = make_tower(3, 1, 2)
    with pytest.raises(OutOfRange):
        LinearizedPoly(t, (9, 0))
    with pytest.raises(OutOfRange):
        LinearizedPoly(t, (-1, 0))


def test_coefficients_must_be_a_sequence():
    t = make_tower(3, 1, 2)
    with pytest.raises(UsageError):
        LinearizedPoly(t, 5)


def test_eval_matches_explicit_powers():
    for params in SMALL_TOWERS:
        t = make_tower(*params)
        top = t.top
        rng = random.Random(f"linmaps-eval:{params}")
        for _ in range(8):
            coeffs = tuple(rng.randrange(t.size) for _ in range(t.n))
            L = LinearizedPoly(t, coeffs)
            for x in range(t.size):
                want = 0
                for i, a in enumerate(coeffs):
                    want = top.add(want, top.mul(a, top.pow(x, t.q ** i)))
                assert L.eval_enc(x) == want


def test_matrix_of_identity():
    t = make_tower(2, 2, 2)
    assert matrix_of(LinearizedPoly.identity(t)) == [[1, 0], [0, 1]]


def test_compose_matches_pointwise():
    # Degree 3 wraps i + j past n; 2^2:3 has a middle field that is not prime.
    rng = random.Random("linmaps-compose")
    for params in ((3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3)):
        t = make_tower(*params)
        for _ in range(10):
            f = LinearizedPoly(t, tuple(rng.randrange(t.size)
                                        for _ in range(t.n)))
            g = LinearizedPoly(t, tuple(rng.randrange(t.size)
                                        for _ in range(t.n)))
            fg = compose(f, g)
            for x in range(t.size):
                assert fg.eval_enc(x) == f.eval_enc(g.eval_enc(x))


def test_compose_refuses_maps_from_different_towers():
    """An encoding of one tower means another element, or none, in
    another: 3^2:2's 13 is outside 3:2, which has 9 elements."""
    big, small = make_tower(3, 2, 2), make_tower(3, 1, 2)
    f = LinearizedPoly(big, (13, 1))
    g = LinearizedPoly(small, (2, 1))
    for outer, inner in ((f, g), (g, f)):
        with pytest.raises(LevelMismatch):
            compose(outer, inner)


def _identity():
    return LinearizedPoly.identity(make_tower(3, 1, 2))


@pytest.mark.parametrize("call", [
    matrix_of, rank_kernel_image, invert_lin, trace_decompose,
    lambda x: compose(x, _identity()), lambda x: compose(_identity(), x),
])
@pytest.mark.parametrize("not_a_map", [(1, 0), None, 5])
def test_map_functions_refuse_what_is_not_a_map(call, not_a_map):
    with pytest.raises(UsageError, match="must be a LinearizedPoly"):
        call(not_a_map)


def test_rank_kernel_image_frozen():
    t = make_tower(3, 1, 2)
    # x^q - x: kernel basis spans F_3, image basis spans the
    # zero-trace line {0, 3, 6}
    L = LinearizedPoly(t, (2, 1))
    rank, kernel, image = rank_kernel_image(L)
    assert rank == 1
    assert kernel == [1]
    assert image == [3]
    assert all(t.trace_enc(a) == 0 for a in image)


def test_rank_nullity():
    for params in SMALL_TOWERS:
        t = make_tower(*params)
        rng = random.Random(f"linmaps-rank:{params}")
        for _ in range(8):
            L = LinearizedPoly(t, tuple(rng.randrange(t.size)
                                        for _ in range(t.n)))
            rank, kernel, image = rank_kernel_image(L)
            assert rank + len(kernel) == t.n
            assert len(image) == rank
            outputs = {L.eval_enc(x) for x in range(t.size)}
            assert len(outputs) == t.q ** rank
            assert set(image) <= outputs
            assert all(L.eval_enc(k) == 0 for k in kernel)


def test_image_basis_is_reduced_echelon():
    # trace_decompose reads coordinates off these digits.
    for params in ((3, 1, 2), (2, 2, 2), (2, 1, 3), (2, 1, 4), (3, 2, 2)):
        t = make_tower(*params)
        rng = random.Random(f"linmaps-echelon:{params}")
        for r in range(t.n + 1):
            _, _, image = rank_kernel_image(seeded_map_of_rank(t, r, rng))
            rows = [t.top.digits(a, t.n) for a in image]
            for row in rows:
                k = next(i for i, digit in enumerate(row) if digit)
                assert row[k] == 1
                assert [other[k] for other in rows] == [
                    int(other is row) for other in rows]


def test_invert_lin():
    # Every map on four small towers: the Dickson matrix that invert_lin
    # inverts is singular exactly when the F_q matrix is.
    for params in ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)):
        t = make_tower(*params)
        for coeffs in itertools.product(range(t.size), repeat=t.n):
            L = LinearizedPoly(t, coeffs)
            rank, _, _ = rank_kernel_image(L)
            if rank == t.n:
                inv = invert_lin(L)
                assert compose(inv, L).is_identity
                assert compose(L, inv).is_identity
            else:
                with pytest.raises(NotBijective):
                    invert_lin(L)


def test_trace_decompose_frozen_f4():
    t = make_tower(2, 1, 2)
    ident = trace_decompose(LinearizedPoly.identity(t))
    assert ident == [(1, 3), (2, 1)]
    # (u+1) Tr(x) written as a linearized polynomial
    scaled_trace = trace_decompose(LinearizedPoly(t, (3, 3)))
    assert scaled_trace == [(3, 1)]
    assert trace_decompose(LinearizedPoly(t, (0,))) == []


def test_trace_decompose_reconstructs():
    # Random maps, and seeded maps of every rank 0..n, on towers up to
    # n = 4 and over the middle fields F_4 and F_9.
    for params in ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 3),
                   (2, 2, 3), (2, 1, 4), (3, 2, 2)):
        t = make_tower(*params)
        top = t.top
        rng = random.Random(f"linmaps-decompose:{params}")
        maps = [LinearizedPoly(t, tuple(rng.randrange(t.size)
                                        for _ in range(t.n)))
                for _ in range(8)]
        maps += [seeded_map_of_rank(t, r, rng)
                 for r in range(t.n + 1) for _ in range(3)]
        for L in maps:
            pairs = trace_decompose(L)
            _, _, image = rank_kernel_image(L)
            assert [alpha for alpha, _ in pairs] == image
            for x in range(t.size):
                acc = 0
                for alpha, beta in pairs:
                    term = top.mul(alpha, t.trace_enc(top.mul(beta, x)))
                    acc = top.add(acc, term)
                assert acc == L.eval_enc(x)
