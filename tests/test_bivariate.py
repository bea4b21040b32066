"""Symmetric curve grids, their factorizations, and the exact point
count gate.  Frozen grids and factor triples come from an independent
expansion with dict-based bivariate arithmetic.
"""

import random

import pytest

from permrf import (
    build_f2,
    build_f3,
    build_f3_kernel,
    closed_form_c,
    conjugate_factor_search,
    count_offdiag_points,
    eval_poly,
    kernel_criterion,
    make_tower,
    norm_poly,
    pairwise_criterion,
    weil_holds,
    weil_threshold,
)
from permrf.bivariate import (
    BivarPoly,
    _curve,
    _norm_fiber,
    apply_sigma,
    bilinear,
    mul,
)
from permrf.errors import (
    BZero,
    CZero,
    DegreeTooSmall,
    LevelMismatch,
    OutOfRange,
    SizeBudgetExceeded,
    UnsupportedDegree,
    UsageError,
    WrongDegree,
)
from helpers import (
    grid_mul,
    grid_norm,
    grid_sigma,
    poly_eval,
    prime_powers,
    reduced_map,
    reference_curves,
    reference_factor_search,
)

F2_GRID_B3_C1 = ((0, 0, 1), (0, 1, 0), (1, 0, 1))
F2_GRID_B3_C2 = ((2, 0, 1), (0, 2, 0), (1, 0, 1))
F3_GRID_B2_C5 = ((1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1))
F3K_GRID_B2_C5 = ((0, 1, 1), (1, 0, 1), (1, 1, 1))


def test_f2_grids_frozen():
    t = make_tower(3, 1, 2)
    assert build_f2(t, 3, 1).grid == F2_GRID_B3_C1
    assert build_f2(t, 3, 2).grid == F2_GRID_B3_C2


def test_f3_grids_frozen():
    t = make_tower(2, 1, 3)
    assert build_f3(t, 2, 5).grid == F3_GRID_B2_C5
    assert build_f3_kernel(t, 2, 5).grid == F3K_GRID_B2_C5


def test_bidegrees():
    t = make_tower(3, 1, 2)
    assert build_f2(t, 3, 1).bidegree == (2, 2)
    t3 = make_tower(2, 1, 3)
    assert build_f3(t3, 2, 5).bidegree == (3, 3)
    assert build_f3_kernel(t3, 2, 5).bidegree == (2, 2)


def test_build_rejects_wrong_degree():
    with pytest.raises(UnsupportedDegree):
        build_f2(make_tower(2, 1, 3), 2, 5)
    with pytest.raises(UnsupportedDegree):
        build_f3(make_tower(3, 1, 2), 3, 1)
    # The degree is checked before b, and b before c.
    with pytest.raises(UnsupportedDegree):
        build_f3(make_tower(3, 1, 2), 0, 0)
    with pytest.raises(BZero):
        build_f3(make_tower(2, 1, 3), 0, 0)
    with pytest.raises(CZero):
        build_f3(make_tower(2, 1, 3), 2, 0)


def test_grid_trimming_and_coeff():
    t = make_tower(3, 1, 2)
    f = BivarPoly(t, ((0, 0), (0, 0)))
    assert f.grid == ((0,),)
    assert f.bidegree == (0, 0)
    g = build_f2(t, 3, 1)
    assert g.coeff(2, 2) == 1
    assert g.coeff(9, 9) == 0


def test_grid_must_be_rows_of_encodings():
    t = make_tower(3, 1, 2)
    # [] raised a bare IndexError in bidegree, 99 evaluated outside F_9,
    # ragged rows were taken, and a grid of ints or an int raised a bare
    # TypeError.
    for grid in ([], ((),), ((1, 2), (3,)), ((1,), (2, 3)), (1, 2), 5,
                 ((1, 2), 3)):
        with pytest.raises(UsageError, match="rows of one nonzero length"):
            BivarPoly(t, grid)
    for grid in (((99,),), ((0, 1), (9, 0)), ((-1,),), ((1.0,),)):
        with pytest.raises(OutOfRange):
            BivarPoly(t, grid)


def test_curves_match_their_definition():
    for params in ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3),
                   (3, 1, 3), (2, 2, 3)):
        t = make_tower(*params)
        for b in range(t.q, t.size):
            for c in range(1, t.size):
                curve, kernel = reference_curves(t, b, c)
                if t.n == 2:
                    assert build_f2(t, b, c) == curve
                else:
                    assert build_f3(t, b, c) == curve
                    assert build_f3_kernel(t, b, c) == kernel


def test_curve_is_the_divided_difference_of_the_reduced_map():
    """With r = N/P built from its definition, P has no root in F_q and
    N/P is t + Tr(c/(t + b)) on F_q; the curve f has
    f (X - Y) = N(X) P(Y) - N(Y) P(X), its trace part is the Bezoutian
    of P and M = N - T P, and at n = 4 and 5, where no builder runs, both
    equal reference_curves."""
    for params in ((3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3),
                   (2, 1, 4), (3, 1, 4), (2, 1, 5)):
        t = make_tower(*params)
        top, n = t.top, t.n
        rng = random.Random(f"bivariate-reduced-map:{params}")
        x_minus_y = bilinear(t, 0, 1, top.neg(1), 0)

        def cross(A, B):
            """A(X) B(Y) - A(Y) B(X)."""
            return BivarPoly(t, [[top.sub(top.mul(a, B[j]), top.mul(A[j], e))
                                  for j in range(len(A))]
                                 for a, e in zip(A, B)])

        for _ in range(6):
            b, c = rng.randrange(t.q, t.size), rng.randrange(1, t.size)
            N, P = reduced_map(t, b, c)
            for x in range(t.q):
                px = poly_eval(top, P, x)
                assert px != 0
                r = t.trace_enc(top.mul(c, top.inv(top.add(x, b))))
                assert (top.mul(poly_eval(top, N, x), top.inv(px))
                        == top.add(x, r))
            P = P + [0]
            M = [top.sub(x, y) for x, y in zip(N, [0] + P)]
            curve, kernel = _curve(t, b, c, n, True), _curve(t, b, c, n, False)
            assert mul(curve, x_minus_y) == cross(N, P)
            assert mul(kernel, x_minus_y) == cross(P, M)
            if n > 3:
                assert (curve, kernel) == reference_curves(t, b, c)


def test_pretty():
    t = make_tower(3, 1, 2)
    assert BivarPoly(t, ((0,),)).pretty() == "0"
    # The constant term shows its coefficient bare, spaces and all.
    assert bilinear(t, 1, 3, 0, 4).pretty() == "X*Y + v*X + v + 1"
    assert bilinear(t, 2, 0, 1, 0).pretty() == "2*X*Y + Y"


def test_expect_bidegree():
    t = make_tower(3, 1, 2)
    f = build_f2(t, 3, 1)
    f.expect_bidegree(2, 2)
    with pytest.raises(WrongDegree):
        f.expect_bidegree(3, 3)


def test_symmetry_and_stability():
    t = make_tower(3, 1, 2)
    f = build_f2(t, 3, 1)
    assert f.is_symmetric()
    assert apply_sigma(f, 1) == f
    lopsided = bilinear(t, 1, 3, 6, 0)
    assert not lopsided.is_symmetric()
    # Bidegree (1, 0): unequal degrees are never symmetric.
    assert not bilinear(t, 0, 1, 0, 0).is_symmetric()
    t3 = make_tower(2, 1, 3)
    assert build_f3(t3, 2, 5).is_symmetric()
    kernel_curve = build_f3_kernel(t3, 2, 5)
    assert apply_sigma(kernel_curve, 1) == kernel_curve


def test_mul_refuses_factors_from_two_towers():
    # F_8 encodings were read as F_9 elements: the product came out as
    # ((1, 2, 1), (2, 5, 3), (1, 3, 1)) on 3:2.
    t, u = make_tower(3, 1, 2), make_tower(2, 1, 3)
    with pytest.raises(LevelMismatch):
        mul(bilinear(t, 1, 8, 8, 8), bilinear(u, 1, 7, 7, 7))
    assert mul(bilinear(t, 1, 0, 0, 0), bilinear(t, 1, 0, 0, 0)).grid == (
        (0, 0, 0), (0, 0, 0), (0, 0, 1))


ORACLE_TOWERS = ((2, 2, 2), (3, 1, 2), (3, 2, 2), (5, 1, 3), (2, 2, 3))


def _oracle_grids(t, rng):
    """Random grids of up to 3 x 3 entries, about a third of them 0, then
    the zero polynomial, a constant and a grid with a zero edge."""
    for _ in range(12):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        yield tuple(tuple(rng.choice((0, rng.randrange(1, t.size)))
                          for _ in range(cols)) for _ in range(rows))
    yield ((0,),)
    yield ((rng.randrange(1, t.size),),)
    yield ((0, rng.randrange(1, t.size)), (0, 0))


def _oracle_pairs():
    """Pairs of grids on each oracle tower, zero and constant factors
    among them."""
    for params in ORACLE_TOWERS:
        t = make_tower(*params)
        rng = random.Random(f"bivariate-mul:{params}")
        grids = list(_oracle_grids(t, rng))
        pairs = [(rng.choice(grids), rng.choice(grids)) for _ in range(20)]
        for fg in pairs + [(grids[-3], grids[0]), (grids[-2], grids[1]),
                           (grids[1], grids[-1])]:
            yield t, fg


def test_mul_against_dict_oracle():
    for t, fg in _oracle_pairs():
        top = t.top
        f, g = (BivarPoly(t, grid) for grid in fg)
        product = mul(f, g)
        assert product == BivarPoly(t, grid_mul(top, *fg))
        expect = {}
        for i, row in enumerate(fg[0]):
            for j, a in enumerate(row):
                for k, row2 in enumerate(fg[1]):
                    for l, b in enumerate(row2):
                        key = (i + k, j + l)
                        expect[key] = top.add(expect.get(key, 0),
                                              top.mul(a, b))
        for (i, j), v in expect.items():
            assert product.coeff(i, j) == v
        nonzero = [key for key, v in expect.items() if v] or [(0, 0)]
        assert product.bidegree == (max(i for i, j in nonzero),
                                    max(j for i, j in nonzero))


def test_apply_sigma_and_norm_poly_against_frob_enc():
    for params in ORACLE_TOWERS:
        t = make_tower(*params)
        rng = random.Random(f"bivariate-sigma:{params}")
        for grid in _oracle_grids(t, rng):
            f = BivarPoly(t, grid)
            for i in range(t.n):
                expect = BivarPoly(t, grid_sigma(t, grid, i))
                assert apply_sigma(f, i) == expect
            assert norm_poly(f) == BivarPoly(t, grid_norm(t, grid))


def test_mul_and_apply_sigma_refuse_what_is_not_a_curve():
    """Each raised a bare AttributeError on an int."""
    t = make_tower(3, 1, 2)
    f = bilinear(t, 1, 3, 6, 0)
    for call in (lambda: mul(f, 3), lambda: mul(3, f),
                 lambda: apply_sigma(3), lambda: apply_sigma(((1,),), 1)):
        with pytest.raises(UsageError, match="must be a BivarPoly"):
            call()
    for i in (-1, 2, 1.0, True, "1", None):
        with pytest.raises(OutOfRange, match="Frobenius power"):
            apply_sigma(f, i)
    assert apply_sigma(f, 0) == f


def test_apply_sigma_is_coefficientwise():
    t = make_tower(3, 1, 2)
    f = bilinear(t, 3, 4, 5, 7)
    s = apply_sigma(f)
    assert s.coeff(1, 1) == t.frob_enc(3)
    assert s.coeff(0, 0) == t.frob_enc(7)
    assert apply_sigma(s).grid == f.grid


def test_norm_poly_is_stable():
    t = make_tower(3, 1, 2)
    f = bilinear(t, 3, 4, 5, 7)
    assert apply_sigma(norm_poly(f), 1) == norm_poly(f)


def test_eval_poly():
    t = make_tower(3, 1, 2)
    f = build_f2(t, 3, 1)
    top = t.top
    for x in range(9):
        for y in range(9):
            want = 0
            for i, row in enumerate(f.grid):
                for j, v in enumerate(row):
                    mono = top.mul(top.pow(x, i), top.pow(y, j))
                    want = top.add(want, top.mul(v, mono))
            assert eval_poly(f, x, y) == want


def test_quotient_identity_f2():
    # on F_q x F_q: f2(x0, y0) = N(w) (1 - Tr(c/w)), w = (x0+b)(y0+b)
    for params in ((3, 1, 2), (2, 2, 2)):
        t = make_tower(*params)
        top = t.top
        rng = random.Random(f"bivariate-quotient2:{params}")
        for _ in range(10):
            b = rng.randrange(t.q, t.size)
            c = rng.randrange(1, t.size)
            f = build_f2(t, b, c)
            for x0 in range(t.q):
                for y0 in range(t.q):
                    w = top.mul(top.add(x0, b), top.add(y0, b))
                    tr = t.trace_enc(top.mul(c, top.inv(w)))
                    want = top.mul(t.norm_enc(w), top.sub(1, tr))
                    assert eval_poly(f, x0, y0) == want


def test_quotient_identity_f3():
    for params in ((2, 1, 3), (3, 1, 3)):
        t = make_tower(*params)
        top = t.top
        rng = random.Random(f"bivariate-quotient3:{params}")
        for _ in range(10):
            b = rng.randrange(t.q, t.size)
            c = rng.randrange(1, t.size)
            f = build_f3(t, b, c)
            k = build_f3_kernel(t, b, c)
            for x0 in range(t.q):
                for y0 in range(t.q):
                    w = top.mul(top.add(x0, b), top.add(y0, b))
                    tr = t.trace_enc(top.mul(c, top.inv(w)))
                    nw = t.norm_enc(w)
                    assert eval_poly(f, x0, y0) == \
                        top.mul(nw, top.sub(1, tr))
                    assert eval_poly(k, x0, y0) == top.mul(nw, tr)


def test_offdiag_counts_frozen():
    t = make_tower(3, 1, 2)
    assert count_offdiag_points(build_f2(t, 3, 1)) == 0
    assert count_offdiag_points(build_f2(t, 3, 2)) == 6


def test_offdiag_zeros_match_pairwise_witnesses():
    for params in ((3, 1, 2), (2, 1, 3)):
        t = make_tower(*params)
        build = build_f2 if t.n == 2 else build_f3
        for b in range(t.q, t.size):
            for c in range(1, t.size):
                zeros = count_offdiag_points(build(t, b, c))
                assert (zeros == 0) == pairwise_criterion(t, b, c).ok


def test_kernel_curve_zeros_match_kernel_criterion():
    t = make_tower(3, 1, 3)
    rng = random.Random("bivariate-kernel")
    for _ in range(15):
        b = rng.randrange(t.q, t.size)
        c = rng.randrange(1, t.size)
        zeros = count_offdiag_points(build_f3_kernel(t, b, c))
        assert (zeros > 0) == kernel_criterion(t, b, c).exists


def test_factor_search_frozen():
    t = make_tower(3, 1, 2)
    assert conjugate_factor_search(build_f2(t, 3, 1)) == (3, 6, 0)
    assert conjugate_factor_search(build_f2(t, 3, 2)) is None
    # Bidegree (1, 1): the X^2 Y^2 coefficient is 0, not 1.
    assert conjugate_factor_search(bilinear(t, 1, 3, 6, 0)) is None
    t8 = make_tower(2, 1, 3)
    assert conjugate_factor_search(build_f3(t8, 2, 5)) == (2, 2, 1)


def test_factor_search_verifies_product():
    t = make_tower(3, 1, 2)
    beta, gamma, delta = conjugate_factor_search(build_f2(t, 3, 1))
    named = norm_poly(bilinear(t, 1, beta, gamma, delta))
    assert named.grid == build_f2(t, 3, 1).grid


def test_norm_fiber_matches_norm_scan():
    for params in ((2, 2, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3)):
        t = make_tower(*params)
        sizes = set()
        for target in range(t.size):
            fiber = _norm_fiber(t, target)
            assert fiber == [d for d in range(t.size)
                             if t.norm_enc(d) == target]
            sizes.add(len(fiber))
        # t = 0, t in F_q* and t outside F_q all occur.
        assert sizes == {0, 1, (t.size - 1) // (t.q - 1)}


def _assert_search_matches_reference(curves, monkeypatch):
    expected = [reference_factor_search(f) for f in curves]
    # The pruned search must build its delta fiber without norm_enc.
    with monkeypatch.context() as m:
        m.setattr(type(curves[0].tower), "norm_enc", None)
        found = [conjugate_factor_search(f) for f in curves]
    assert found == expected
    return found


@pytest.mark.parametrize("params", [(2, 1, 2), (3, 1, 2), (2, 2, 2),
                                    (5, 1, 2), (2, 1, 3), (3, 1, 3)])
def test_factor_search_matches_reference_on_every_curve(params, monkeypatch):
    t = make_tower(*params)
    build = build_f2 if t.n == 2 else build_f3
    curves = [build(t, b, c) for b in range(t.q, t.size)
              for c in range(1, t.size)]
    found = _assert_search_matches_reference(curves, monkeypatch)
    # Every b has its closed form, whose curve factors.
    assert sum(x is not None for x in found) >= t.size - t.q


def test_factor_search_matches_reference_on_products(monkeypatch):
    rng = random.Random("permrf:test:factor_search_products")
    for params in ((2, 2, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3)):
        t = make_tower(*params)
        curves = []
        for _ in range(12):
            beta, gamma, delta = (rng.randrange(t.size) for _ in range(3))
            for g in ((beta, gamma, delta), (beta, gamma, 0),
                      (beta, beta, delta), (beta, beta, 0)):
                curves.append(norm_poly(bilinear(t, 1, *g)))
        found = _assert_search_matches_reference(curves, monkeypatch)
        assert None not in found


def test_named_factorization_n2():
    for params in ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size):
            c = closed_form_c(t, b)
            delta = top.sub(t.trace_enc(top.mul(b, b)), t.norm_enc(b))
            named = norm_poly(bilinear(t, 1, b, t.frob_enc(b), delta))
            assert named.grid == build_f2(t, b, c).grid


def test_named_factorization_n3():
    for params in ((2, 1, 3), (3, 1, 3)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size):
            c = closed_form_c(t, b)
            delta = top.sub(top.mul(b, b), c)
            named = norm_poly(bilinear(t, 1, b, b, delta))
            assert named.grid == build_f3(t, b, c).grid


def test_factor_search_budget():
    t = make_tower(2, 5, 2, size_budget=1 << 12)
    f = build_f2(t, t.q, closed_form_c(t, t.q))
    with pytest.raises(SizeBudgetExceeded):
        conjugate_factor_search(f)


@pytest.mark.parametrize("call", [
    norm_poly, lambda f: eval_poly(f, 1, 1), count_offdiag_points,
    conjugate_factor_search,
], ids=["norm_poly", "eval_poly", "count_offdiag_points",
        "conjugate_factor_search"])
@pytest.mark.parametrize("not_a_poly", [5, None, ((1,),)],
                         ids=["int", "None", "grid"])
def test_curve_functions_refuse_what_is_not_a_curve(call, not_a_poly):
    """Each raised a bare AttributeError, reading tower or grid off the
    argument."""
    with pytest.raises(UsageError, match="must be a BivarPoly"):
        call(not_a_poly)


def test_weil_threshold():
    assert weil_threshold(4) == 7.0
    assert abs(weil_threshold(6) - 20.53565375285274) < 1e-12
    with pytest.raises(DegreeTooSmall):
        weil_threshold(1)
    with pytest.raises(DegreeTooSmall):
        weil_holds(9, 1)


def test_weil_holds_refuses_non_int_arguments():
    # 9.5 answered False, 9.0 answered as 9 and True as 1.
    for q, d in ((9.5, 4), (9.0, 4), (True, 4), (53, 4.0), (53, True)):
        with pytest.raises(UsageError, match="must be ints"):
            weil_holds(q, d)
    assert weil_holds(53, 4)
    # weil_threshold("3") raised a bare TypeError, and 2.5 answered 2.41.
    for d in ("3", 2.5, 4.0, True):
        with pytest.raises(UsageError, match="must be ints"):
            weil_threshold(d)


def test_weil_frozen_values():
    assert not weil_holds(49, 4)
    assert weil_holds(53, 4)
    assert not weil_holds(421, 6)
    assert weil_holds(431, 6)
    assert not weil_holds(3, 2)
    assert weil_holds(4, 2)


def test_weil_minimal_prime_powers():
    assert [q for q in prime_powers(60) if weil_holds(q, 4)][0] == 53
    assert [q for q in prime_powers(440) if weil_holds(q, 6)][0] == 431


def test_weil_is_exact_on_big_integers():
    # the verdict path must stay in integer arithmetic: the q = 49
    # boundary is an exact tie, (49-7)^2 == 36*49, and resolves as a
    # strict failure; values beyond float precision still work
    assert not weil_holds(49, 4)
    assert weil_holds((1 << 62) + 1, 4)
    assert weil_holds((1 << 200) + 1, 4)
    assert not weil_holds(2, 40)
    assert not weil_holds((1 << 62) + 1, 1 << 61)


def test_weil_rejects_negative_margin():
    assert not weil_holds(5, 4)
