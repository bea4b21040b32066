"""Tower construction, arithmetic tables, and trace machinery.

Expected values were computed with an independent implementation:
schoolbook polynomial products with trial-division irreducibility,
no shared code with the package.
"""

import array
import copy
import functools
import gc
import itertools
import math
import pickle
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from helpers import SMALL_TOWERS, tower_and_elements, towers
from permrf import (
    LinearizedPoly,
    RatFuncSpec,
    basis_det_b,
    bivariate,
    build_f2,
    classify_c,
    conjugate_factor_search,
    dual_basis,
    eval_poly,
    eval_rf,
    gf_core,
    linmaps,
    make_tower,
    matrix_of,
    pairwise_criterion,
    ratfunc,
    trace_decompose,
)
from permrf.bivariate import BivarPoly
from permrf.errors import (
    BInBaseField,
    BZero,
    DegreeZero,
    DivisionByZero,
    InvalidModulus,
    NonDivisorDegrees,
    NotABasis,
    NotInSubfield,
    NotPrime,
    OutOfRange,
    SizeBudgetExceeded,
    UnsupportedDegree,
    UsageError,
)
from permrf.gf_core import DEFAULT_SIZE_BUDGET

# Smallest monic irreducibles by ascending coefficient code, middle
# then top, coefficients low to high.
CANONICAL_MODULI = {
    (2, 1, 2): ((0, 1), (1, 1, 1)),
    (3, 1, 2): ((0, 1), (1, 0, 1)),
    (2, 1, 3): ((0, 1), (1, 1, 0, 1)),
    (3, 1, 3): ((0, 1), (1, 2, 0, 1)),
    (2, 1, 4): ((0, 1), (1, 1, 0, 0, 1)),
    (2, 2, 2): ((1, 1, 1), (2, 1, 1)),
    (2, 2, 3): ((1, 1, 1), (2, 0, 0, 1)),
    (3, 2, 3): ((1, 0, 1), (3, 1, 0, 1)),
    (5, 1, 2): ((0, 1), (2, 0, 1)),
    (2, 1, 6): ((0, 1), (1, 1, 0, 0, 0, 0, 1)),
    (7, 1, 2): ((0, 1), (1, 0, 1)),
    (2, 3, 2): ((1, 1, 0, 1), (1, 1, 1)),
    (3, 2, 2): ((1, 0, 1), (4, 0, 1)),
    (2, 5, 2): ((1, 0, 1, 0, 0, 1), (1, 1, 1)),
    (2, 1, 10): ((0, 1), (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)),
}

# Encodings nest base-p digits down to the prime field at every level, so
# addition is digitwise addition mod p.  These references share no code
# with the package's log, Zech or XOR arithmetic.
def digit_add(p, a, b):
    out, scale = 0, 1
    while a or b:
        out += (a % p + b % p) % p * scale
        a, b, scale = a // p, b // p, scale * p
    return out


def digit_neg(p, a):
    out, scale = 0, 1
    while a:
        out += (-(a % p)) % p * scale
        a, scale = a // p, scale * p
    return out


# Schoolbook product and reduction in F_p[u]/(moduli[0])[v]/(moduli[1]),
# coefficients handled by recursion down to F_p.  Shares no code with the
# package's tables or its construction-time polynomial arithmetic.
def ref_mul(p, moduli, a, b):
    if not moduli:
        return a * b % p
    *inner, f = moduli
    s = p ** math.prod(len(g) - 1 for g in inner)
    d = len(f) - 1
    da = [a // s ** i % s for i in range(d)]
    db = [b // s ** i % s for i in range(d)]
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            if x and y:
                prod[i + j] = digit_add(p, prod[i + j], ref_mul(p, inner, x, y))
    # x^k = -x^(k-d) * (f_0 + ... + f_(d-1) x^(d-1)) for k >= d
    for k in range(2 * d - 2, d - 1, -1):
        if prod[k]:
            for i in range(d):
                term = digit_neg(p, ref_mul(p, inner, prod[k], f[i]))
                prod[k - d + i] = digit_add(p, prod[k - d + i], term)
    return sum(c * s ** i for i, c in enumerate(prod[:d]))


def ref_pow(p, moduli, a, e):
    out = 1
    while e:
        if e & 1:
            out = ref_mul(p, moduli, out, a)
        a = ref_mul(p, moduli, a, a)
        e >>= 1
    return out


F9_TRACES = {0: 0, 1: 2, 2: 1, 3: 0, 4: 2, 5: 1, 6: 0, 7: 2, 8: 1}
F8_TRACES = {0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1}


@pytest.mark.parametrize("params,expected", sorted(CANONICAL_MODULI.items()))
def test_canonical_moduli(params, expected):
    tower = make_tower(*params)
    assert tuple(tower.mid.modulus) == expected[0]
    assert tuple(tower.top.modulus) == expected[1]


def test_pth_powers_are_reducible():
    """Every element of a finite field is a p-th power, so a polynomial
    in X^p is one too.  Over F_256 the search for h passes all 255 such
    X^2 + c before (32, 1, 1).  A constant, 0 and 1 among them, and the
    empty list are polynomials in X^p: refused over the prime field F_3
    and over the middle field F_9."""
    f256 = make_tower(2, 8, 1).mid
    assert not any(gf_core._is_irreducible(f256, [c, 0, 1])
                   for c in range(256))
    f3 = make_tower(3, 1, 1).mid
    assert not any(gf_core._is_irreducible(f3, [c, 0, 0, 1, 0, 0, 1])
                   for c in range(3))
    assert make_tower(2, 8, 2).top.modulus == (32, 1, 1)
    t = make_tower(3, 2, 2)
    for k in (t.base, t.mid):
        assert not any(gf_core._is_irreducible(k, [c]) for c in range(k.size))
        assert not gf_core._is_irreducible(k, [])


def test_f9_arithmetic_facts():
    t = make_tower(3, 1, 2)
    top = t.top
    assert top.mul(3, 3) == 2
    assert top.inv(5) == 4
    assert top.inv(3) == 6
    assert t.frob_enc(3) == 6
    assert {a: t.trace_enc(a) for a in range(9)} == F9_TRACES
    assert t.norm_enc(3) == 1
    assert t.top.generator == 4


def test_f4_arithmetic_facts():
    t = make_tower(2, 1, 2)
    top = t.top
    assert top.mul(2, 2) == 3
    assert top.inv(2) == 3


def test_f8_traces():
    t = make_tower(2, 1, 3)
    assert {a: t.trace_enc(a) for a in range(8)} == F8_TRACES


def test_f27_low_encodings_have_zero_trace():
    t = make_tower(3, 1, 3)
    assert [t.trace_enc(a) for a in range(9)] == [0] * 9


def test_field_spec_and_sizes():
    t = make_tower(2, 2, 3)
    assert t.field_spec == "2^2:3"
    assert repr(t) == "FieldTower(2^2:3)"
    assert (t.p, t.m, t.n, t.q, t.size) == (2, 2, 3, 4, 64)
    assert t.base.size == 2
    assert t.mid.size == 4
    assert t.top.size == 64


def test_frobenius_matrix_realizes_qth_power():
    for params in ((3, 1, 2), (2, 2, 3), (2, 1, 4), (3, 2, 2), (3, 2, 3)):
        t = make_tower(*params)
        mid = t.mid
        top = t.top
        matrix = matrix_of(LinearizedPoly(t, (0, 1)))
        for x in range(t.size):
            digits = top.digits(x, t.n)
            image = [0] * t.n
            for j, d in enumerate(digits):
                for i in range(t.n):
                    image[i] = digit_add(
                        t.p, image[i], mid.mul(matrix[i][j], d))
            assert top.undigits(image) == t.frob_enc(x) == top.pow(x, t.q)


@pytest.mark.parametrize("params", [(3, 2, 2), (5, 1, 2), (3, 1, 3)])
def test_odd_char_add_sub_neg_exhaustive(params):
    t = make_tower(*params)
    for ops in (t.mid, t.top):
        for a in range(ops.size):
            assert ops.neg(a) == digit_neg(t.p, a)
            for b in range(ops.size):
                assert ops.add(a, b) == digit_add(t.p, a, b)
                assert ops.sub(a, b) == digit_add(t.p, a, digit_neg(t.p, b))


@pytest.mark.parametrize("params", [(3, 2, 3), (7, 1, 3)])
def test_odd_char_add_sub_neg_sampled(params):
    t = make_tower(*params)
    rng = random.Random(f"add:{params}")
    for ops in (t.mid, t.top):
        for _ in range(5000):
            a, b = rng.randrange(ops.size), rng.randrange(ops.size)
            assert ops.add(a, b) == digit_add(t.p, a, b)
            assert ops.sub(a, b) == digit_add(t.p, a, digit_neg(t.p, b))
            assert ops.neg(a) == digit_neg(t.p, a)


def test_trace_equals_conjugate_sum():
    for params in SMALL_TOWERS:
        t = make_tower(*params)
        top = t.top
        for x in range(t.size):
            acc = 0
            for i in range(t.n):
                acc = top.add(acc, t.frob_enc(x, i))
            assert t.trace_enc(x) == acc
            assert t.trace_enc(x) < t.q


# (p, m, n, g, h): both characteristics, m = 1 and m > 1, n = 1, custom
# moduli, the order-1 field (2:1), generator steps of one chunk (2^2:3,
# 3^2:2), of two uneven chunks (2:13, 3:7) and of three (7:5).  Powers
# past the first (s^d - 1)/(s - 1) are ground-scaled blocks whenever the
# ground size s exceeds 2 and the degree d exceeds 1: 3:7 scales one
# block, 2^4:2 and 5^2:2 many over a non-prime ground, 13:2 over a
# prime one.
TABLE_TOWERS = (
    (2, 1, 1, None, None),
    (2, 1, 13, None, None),
    (2, 2, 3, None, None),
    (2, 3, 1, None, None),
    (2, 3, 2, (1, 0, 1, 1), (2, 1, 1)),
    (3, 1, 7, None, None),
    (3, 2, 1, None, None),
    (3, 2, 2, (2, 1, 1), (4, 0, 1)),
    (3, 2, 3, None, None),
    (5, 1, 3, None, (4, 1, 0, 1)),
    (7, 1, 5, None, None),
    (2, 4, 2, None, None),
    (5, 2, 2, None, None),
    (13, 1, 2, None, None),
)


@pytest.mark.parametrize("p,m,n,g,h", TABLE_TOWERS)
def test_tables_match_polynomial_reference(p, m, n, g, h):
    t = make_tower(p, m, n, g=g, h=h)
    if g is not None:
        assert t.mid.modulus == g
    if h is not None:
        assert t.top.modulus == h
    for f, moduli in ((t.mid, (t.mid.modulus,)),
                      (t.top, (t.mid.modulus, t.top.modulus))):
        order = f.size - 1
        exp, log = f._exp, f._log
        # The order-1 field keeps a second entry so exp[log 1 + log 1] reads.
        assert len(exp) == max(2 * order - 1, 2)
        assert len(log) == f.size
        assert exp[0] == 1
        for i in range(order):
            assert exp[i + 1] == ref_mul(p, moduli, exp[i], f.generator)
            assert log[exp[i]] == i
        assert sorted(exp[:order]) == list(range(1, f.size))
        assert all(exp[i] == exp[i - order] for i in range(order, len(exp)))
        if p != 2:
            assert len(f._zech) == order
            for k in range(order):
                one_plus = digit_add(p, 1, exp[k])
                assert f._zech[k] == (log[one_plus] if one_plus else None)
    assert len(t.frob_table) == len(t.trace_table) == t.size
    moduli = (t.mid.modulus, t.top.modulus)
    rng = random.Random(f"tables:{p}:{m}:{n}")
    for x in rng.sample(range(t.size), min(t.size, 40)):
        assert t.frob_table[x] == ref_pow(p, moduli, x, t.q)
    expect = []
    for x in range(t.size):
        acc = conj = x
        for _ in range(n - 1):
            conj = t.frob_table[conj]
            acc = digit_add(p, acc, conj)
        expect.append(acc)
    # By value: the table is bytes at q <= 256, a list above.
    assert list(t.trace_table) == expect


@pytest.mark.parametrize("p,m,n,g,h", TABLE_TOWERS)
def test_log_route_matches_frobenius_table(p, m, n, g, h):
    """frob_enc, in_subfield_enc, trace_rel_enc and apply_sigma read
    x^(q^i) off the exp and log tables; each equals i reads of
    frob_table and top.pow at every encoding."""
    t = make_tower(p, m, n, g=g, h=h)
    top, q, frob = t.top, t.q, t.frob_table
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for a in range(t.size):
        conj = a
        for i in range(n):
            assert t.frob_enc(a, i) == conj == top.pow(a, q ** i)
            conj = frob[conj]
        for d in divisors:
            assert t.in_subfield_enc(a, d) == (top.pow(a, q ** d) == a)
    for frm in divisors:
        for to in (d for d in divisors if frm % d == 0):
            for a in (a for a in range(t.size) if t.in_subfield_enc(a, frm)):
                acc = conj = a
                for _ in range(frm // to - 1):
                    for _ in range(to):
                        conj = frob[conj]
                    acc = top.add(acc, conj)
                assert t.trace_rel_enc(a, frm, to) == acc
    rng = random.Random(f"log-route:{p}:{m}:{n}")
    grid = [[rng.randrange(t.size) for _ in range(4)] for _ in range(3)]
    grid[-1][-1] = grid[0][0] = 1
    f = BivarPoly(t, grid)
    sigma = grid
    for i in range(n):
        assert bivariate.apply_sigma(f, i).grid == tuple(map(tuple, sigma))
        sigma = [[frob[x] for x in row] for row in sigma]


def test_no_program_path_builds_the_frobenius_table(capsys):
    """Every program path reads Frobenius images off the log tables: after
    direct, reduced and pairwise checks, normalize_spec, the linear-map
    routines and the CLI on cold towers, no cached tower holds
    frob_table, and its first read then gives the table of x^q."""
    from permrf import cli

    make_tower.cache_clear()
    gc.collect()
    old = [o for o in gc.get_objects() if isinstance(o, gf_core.FieldTower)]
    checked = []
    for params in ((2, 8, 2), (3, 5, 2), (3, 1, 3)):
        t = make_tower(*params)
        checked.append(t)
        rng = random.Random(f"no-frob-table:{params}")
        b = rng.randrange(t.q, t.size)
        c = ratfunc.closed_form_c(t, b)
        a = rng.randrange(1, t.size)
        L = LinearizedPoly(t, (0, a))
        assert ratfunc.is_permutation_direct(RatFuncSpec(t, b, c))
        twisted = RatFuncSpec(t, b, t.top.mul(a, c), L)
        assert ratfunc.is_permutation_direct(twisted)
        assert ratfunc.normalize_spec(twisted)[0].c == c
        assert ratfunc.is_permutation_reduced(t, b, c)
        assert pairwise_criterion(t, b, c).ok
        if t.size < 100:
            assert c in classify_c(t, b)
        else:
            with pytest.raises(SizeBudgetExceeded):
                classify_c(t, b)
        linmaps.invert_lin(L)
        dual_basis(t, [t.q ** k for k in range(t.n)])
        assert len(trace_decompose(L)) == t.n
    for argv in (("verify", "--suite", "factorizations", "--q", "2,3",
                  "--workers", "1"),
                 ("verify", "--suite", "corollary", "--q", "2",
                  "--workers", "1"),
                 *(("field", "--field", t.field_spec) for t in checked)):
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    built = [o for o in gc.get_objects() if isinstance(o, gf_core.FieldTower)
             and not any(o is t for t in old)]
    assert len(built) >= make_tower.cache_info().currsize > len(checked)
    for t in built:
        assert "frob_table" not in vars(t), t
    for t in checked:
        assert t.frob_table == [t.top.pow(x, t.q) for x in range(t.size)]
        assert "frob_table" in vars(t)


def test_cold_build_makes_few_polynomial_products(monkeypatch):
    """The exp tables step by table lookups, not one polynomial product
    per element.  x -> x * g is F_p-linear, so the step images cost
    exactly one product per base-p digit of an encoding at each level;
    one per chunk value made 512 on 2^8:2 for its 257 steps."""
    calls = 0
    raw_mul = gf_core._ExtField._raw_mul
    step_images = gf_core._ExtField._step_images
    stepped = []

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return raw_mul(self, a, b)

    def recording(self, gen):
        before = calls
        out = step_images(self, gen)
        stepped.append((self.size, calls - before))
        return out

    monkeypatch.setattr(gf_core._ExtField, "_raw_mul", counting)
    monkeypatch.setattr(gf_core._ExtField, "_step_images", recording)
    for p, m, n in ((2, 1, 15), (3, 5, 2), (2, 8, 2), (37, 1, 3)):
        make_tower.cache_clear()
        stepped.clear()
        make_tower(p, m, n)
        # F_2 has the one unit 1 and steps nothing.
        assert stepped == [(p ** k, k) for k in (m, m * n) if p ** k > 2]


@pytest.mark.parametrize("p,m,n,g,h", TABLE_TOWERS)
def test_step_images_are_polynomial_products(p, m, n, g, h):
    """Each chunk's images, built by linearity from one product per digit,
    equal the product for every chunk value: encodings in characteristic
    2, ground digits high to low otherwise.  The chunks cover the field."""
    t = make_tower(p, m, n, g=g, h=h)
    for f in (t.mid, t.top):
        radix, images = f._step_images(f.generator)
        assert math.prod(map(len, images)) == f.size
        for j, image in enumerate(images):
            scale = radix ** j
            assert len(image) == min(radix, f.size // scale)
            for x, y in enumerate(image):
                want = f._raw_mul(x * scale, f.generator)
                if p != 2:
                    want = tuple(reversed(f.digits(want, f.degree)))
                assert y == want


@pytest.mark.parametrize("p,m,n", [(5, 1, 3), (13, 1, 2), (7, 1, 4),
                                   (3, 2, 3), (2, 4, 2), (2, 2, 3),
                                   (37, 1, 3), (2, 3, 1)])
def test_resultant_norm_is_the_norm_power(p, m, n):
    """The search's norm Res(h, x) equals x^((s^d - 1)/(s - 1)) for every
    candidate x it can try, from s (from 2 at d = 1) up to s + 300: over
    prime grounds (the tops of 5:3, 13:2, 7:4 and 37:3, the middle
    fields of 3^2, 2^4, 2^2 and 2^3) and non-prime ones (the tops of
    3^2:3, 2^4:2 and 2^2:3), at odd and even degree d, and at d = 1,
    where the norm is x itself (the middle fields at m = 1, the top of
    2^3:1)."""
    t = make_tower(p, m, n)
    for f in (t.mid, t.top):
        s = f.ground.size
        c = (f.size - 1) // (s - 1)
        for x in range(s if f.degree > 1 else 2, min(f.size, s + 300)):
            assert f._norm(x) == f._raw_pow(x, c)
        assert f._norm(0) == 0


@pytest.mark.parametrize("p,m,n,g,h", TABLE_TOWERS)
def test_raw_pow_is_the_tables_power(p, m, n, g, h):
    """The construction-time power, polynomial square-and-multiply modulo
    the level's modulus, equals the built level's table power for seeded
    x != 0 and e, e = 0 and e past the group order included."""
    t = make_tower(p, m, n, g=g, h=h)
    rng = random.Random(f"raw_pow:{p}:{m}:{n}")
    for f in (t.mid, t.top):
        for e in [0, 1, f.size - 1] + [rng.randrange(3 * f.size)
                                       for _ in range(20)]:
            x = rng.randrange(1, f.size)
            assert f._raw_pow(x, e) == f.pow(x, e)


def test_powmod_stops_squaring_at_the_top_bit(monkeypatch):
    """f^(2^k) is k squarings and one product into the result: a square
    after e's top bit would never be read."""
    calls = 0
    poly_mul = gf_core._poly_mul

    def counting(k, f, g):
        nonlocal calls
        calls += 1
        return poly_mul(k, f, g)

    monkeypatch.setattr(gf_core, "_poly_mul", counting)
    t = make_tower(3, 2, 2)
    for f in (t.mid, t.top):
        g = list(f.modulus)
        x = f.generator
        for k in range(6):
            calls = 0
            got = gf_core._poly_powmod(f.ground, f.digits(x), 2 ** k, g)
            assert calls == k + 1
            assert f.undigits(got) == f.pow(x, 2 ** k)


# Top-field generators of the benchmark's cold-build towers.
GENERATORS = {(2, 1, 15): 2, (2, 8, 2): 264, (2, 5, 3): 34, (3, 5, 2): 252,
              (37, 1, 3): 75}


@pytest.mark.parametrize("params,expected", sorted(GENERATORS.items()))
def test_generators_are_smallest_primitive_encodings(params, expected):
    assert make_tower(*params).top.generator == expected


@pytest.mark.parametrize("p,m,n,g,h", TABLE_TOWERS + (
    (7, 1, 2, None, None), (3, 2, 1, (2, 2, 1), None), (2, 2, 2, None, None)))
def test_generator_is_the_smallest_primitive_element(p, m, n, g, h):
    """Read off each level's own log table: x generates the units exactly
    when gcd(log x, size - 1) = 1.  The norm test of the search must keep
    the smallest such x from the ground size up (from 2 at degree 1)."""
    t = make_tower(p, m, n, g=g, h=h)
    for f in (t.mid, t.top):
        order = f.size - 1
        first = f.ground.size if f.degree > 1 else 2
        primitive = [x for x in range(first, f.size)
                     if math.gcd(f._log[x], order) == 1]
        assert f.generator == (primitive[0] if primitive else 1)


def test_generator_search_tests_the_norm_first(monkeypatch):
    """g^(order/r) = N(g)^((s - 1)/r) for the primes r of s - 1, with
    N(g) = g^((s^d - 1)/(s - 1)) in the ground: one resultant per
    candidate, which makes no product in the field, and lookups in the
    ground replace a power per such prime.  Counted are the polynomial
    products (_poly_mul) a cold build makes outside the irreducibility
    test: the step images' _raw_mul calls and the search's powers
    (_raw_pow), 104, 36 and 84 here.  Testing every prime by its own
    power made 1511, 1094 and 1127 products on these cold builds, and
    the norm as a power 1036, 894 and 933."""
    calls = 0
    testing = False
    poly_mul, is_irreducible = gf_core._poly_mul, gf_core._is_irreducible

    def counting(k, f, g):
        nonlocal calls
        calls += not testing
        return poly_mul(k, f, g)

    def uncounted(k, f):
        nonlocal testing
        testing = True
        try:
            return is_irreducible(k, f)
        finally:
            testing = False

    monkeypatch.setattr(gf_core, "_poly_mul", counting)
    monkeypatch.setattr(gf_core, "_is_irreducible", uncounted)
    for params, bound in (((37, 1, 3), 150), ((3, 5, 2), 60),
                          ((2, 8, 2), 120)):
        make_tower.cache_clear()
        calls = 0
        t = make_tower(*params)
        assert calls <= bound
        assert t.top.generator == GENERATORS[params]


@pytest.mark.parametrize("params", [(3, 5, 2), (2, 8, 2)])
def test_tables_share_the_exp_and_log_int_objects(params):
    """Log entries are the exp table's int objects, an exponent v being
    the object exp holds for the encoding v; log[1] = 0 is the one
    exponent that is no nonzero encoding.  Frobenius entries, built on
    the first read of frob_table, are exp's objects and Zech entries
    log's, so every table of the field points at one int per element.
    Both fields have values above 256, which CPython does not share."""
    make_tower.cache_clear()
    t = make_tower(*params)
    assert "frob_table" not in vars(t)
    exp_ids = {id(x) for x in t.top._exp}
    assert t.top._log[1] == 0
    assert all(id(k) in exp_ids for k in t.top._log[2:])
    assert t.frob_table[0] == 0
    assert all(id(y) in exp_ids for y in t.frob_table[1:])
    assert vars(t)["frob_table"] is t.frob_table
    if t.p != 2:
        log_ids = {id(k) for k in t.top._log}
        zech = [z for z in t.top._zech if z is not None]
        assert all(id(z) in log_ids for z in zech)
        assert all(id(z) in exp_ids for z in zech)


@pytest.mark.parametrize("p,m,n,g,h", TABLE_TOWERS + (
    (2, 1, 16, None, None), (2, 9, 2, None, None)))
def test_trace_powers_match_trace_of_exp(p, m, n, g, h):
    """The pair kernel's table tr[k] = Tr(g^k), built at q <= 256 from
    one gathered run of (size - 1)/(q - 1) entries scaled by g^run in
    F_q, equals the trace table read through exp at each of its
    2(size - 1) - 1 indexes.  2:16 is a single run (q = 2) and 2^9:2
    (q = 512) holds 16-bit entries read through exp."""
    t = make_tower(p, m, n, g=g, h=h)
    tr = ratfunc._trace_powers(t)
    order = t.size - 1
    assert type(tr) is (bytes if t.q <= 256 else array.array)
    assert len(tr) == 2 * order - 1
    exp, trace = t.top._exp, t.trace_table
    assert all(tr[k] == trace[exp[k]] for k in range(len(tr)))


@pytest.mark.parametrize("params", [(2, 8, 2), (2, 1, 16), (3, 5, 2)])
def test_trace_powers_memory(params):
    """At q <= 256 the table keeps one byte per entry, 2 B per field
    element and 190 B of object and memo overhead, and its build peaks
    at about 3.05 B: the first half beside the whole.  A list table would
    keep 16 B per element; copying the first half for the second, or
    joining every run twice, peaked at about 3.9 B."""
    t = make_tower(*params)
    ratfunc._trace_powers.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ratfunc._trace_powers(t)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ratfunc._trace_powers.cache_clear()
    assert kept - before <= 2 * t.size + 256
    assert peak - before <= 3.2 * t.size


@pytest.mark.parametrize("params, kind", [
    ((2, 1, 16), bytes), ((2, 8, 2), bytes), ((3, 5, 2), bytes),
    ((37, 1, 3), bytes), ((263, 1, 2), list), ((2, 9, 2), list),
])
def test_trace_table_is_bytes_exactly_when_q_fits_a_byte(params, kind):
    """Every trace value lies in F_q: at q <= 256 the table is bytes, one
    byte per entry, and above it a list of the middle field's ints."""
    t = make_tower(*params)
    assert type(t.trace_table) is kind
    assert len(t.trace_table) == t.size


def test_trace_table_shares_the_middle_fields_int_objects():
    """At m = 1 the middle field is a degree-1 extension whose add returns
    its exp table's int objects, so the trace table holds at most q
    distinct ints.  (a + b) mod p would make a new int per entry above 256:
    on 1021:2 the tower then kept 131.4 MiB, not 107.6.  q = 263 has
    values above 256."""
    t = make_tower(263, 1, 2)
    assert len({id(x) for x in t.trace_table}) <= t.q


def test_char2_trace_table_shares_the_middle_fields_int_objects():
    """In characteristic 2 the middle field adds by XOR, which makes a new
    int per sum above 256.  The trace table reads its blocks through rows
    of the middle field's own ints, so 2^9:2, the smallest such tower with
    q > 256, keeps at most q distinct ints; summing each entry by XOR kept
    130,817."""
    t = make_tower(2, 9, 2)
    assert len({id(x) for x in t.trace_table}) <= t.q


def test_generator_search_skips_the_ground(monkeypatch):
    """A ground element's order divides s - 1, so an extension of degree
    d > 1 tries no candidate below s; a degree-1 field starts at 2.  A
    candidate is taken by the norm test (_norm) when s > 2, and by the
    power test (_raw_pow) otherwise or when it passes."""
    tried = []
    norm, raw_pow = gf_core._ExtField._norm, gf_core._ExtField._raw_pow

    def recording(method):
        def record(self, a, *args):
            tried.append((self.degree, self.ground.size, a))
            return method(self, a, *args)
        return record

    monkeypatch.setattr(gf_core._ExtField, "_norm", recording(norm))
    monkeypatch.setattr(gf_core._ExtField, "_raw_pow", recording(raw_pow))
    for params in ((3, 2, 2), (2, 4, 2), (5, 1, 3), (13, 1, 2), (2, 3, 1)):
        make_tower.cache_clear()
        make_tower(*params)
    assert {(d, s) for d, s, _ in tried} >= {(2, 3), (2, 16), (3, 5), (1, 8)}
    for degree, ground_size, cand in tried:
        assert cand >= (ground_size if degree > 1 else 2)


@pytest.mark.parametrize("params", [(2, 8, 2), (3, 5, 2), (2, 1, 15)])
def test_cold_build_transient_memory(params):
    """Building a tower's tables holds at most one list of size
    references beyond the tables it keeps.

    The tables keep 57 B per element in characteristic 2 (exp's 16 B of
    references, 8 B for log, 1 B for the trace's bytes, and one 32 B
    int) and 65.8 B on 3^5:2 (Zech's 8 B more).  The bound, 75 B,
    leaves about 10 B of margin, so any 8 B table added to the build
    fails it: a built Frobenius table kept 65 and 74 B, and a second int
    per element, as when log made its own exponents, 100 B and more."""
    make_tower.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = make_tower(*params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 8 * t.size
    assert 8 * 5 * t.size < kept - before <= 75 * t.size
    assert "frob_table" not in vars(t)


@pytest.mark.parametrize("params, rebuild", [
    ((2, 1, 16), lambda t: type(t).frob_table.func(t)),
    ((3, 5, 2), lambda t: t.top._build_zech()),
])
def test_table_rebuild_transient_memory(params, rebuild):
    """Building the Frobenius table at q = 2 (stride-2 slices of exp),
    through the builder behind its first read, or rebuilding the Zech
    table at p = 3 (stride-3 slices of log) holds the new table, 8 B per
    element, and slices of at most _MAX_SLICE entries: about 8.5 and 9.1
    B per element in all.  Whole slices read 12.0 and 13.4.  A cold build
    cannot show this: it builds no Frobenius table, and the tables built
    after the Zech table keep more than its slices held."""
    t = make_tower(*params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rebuild(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 10 * t.size


def test_level_set_transient_memory():
    """classify_c's level set reads exp in place: a digit per element,
    1 B, and the ints made from the digits, about 1.6 B per element in
    all on 2:16.  A copy of exp would add 8 B per element, about 134 MB
    on 2:24, which classify_c's bound admits."""
    t = make_tower(2, 1, 16)
    ratfunc._level_set.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ratfunc._level_set(t, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        ratfunc._level_set.cache_clear()
    assert peak - before <= 2 * t.size


def test_norm_equals_conjugate_product():
    for params in SMALL_TOWERS:
        t = make_tower(*params)
        top = t.top
        for x in range(t.size):
            acc = 1
            for i in range(t.n):
                acc = top.mul(acc, t.frob_enc(x, i))
            assert t.norm_enc(x) == acc
            assert t.norm_enc(x) < t.q


def test_subfield_membership_f16():
    t = make_tower(2, 1, 4)
    quartic_fixed = [a for a in range(t.size) if t.in_subfield_enc(a, 2)]
    assert quartic_fixed == [0, 1, 6, 7]
    assert [a for a in range(t.size) if t.in_subfield_enc(a, 1)] == [0, 1]


def test_relative_trace_f16():
    t = make_tower(2, 1, 4)
    fiber = [a for a in range(t.size) if t.trace_rel_enc(a, 4, 2) == 1]
    assert fiber == [2, 3, 4, 5]
    for a in range(t.size):
        assert t.trace_rel_enc(a, 4, 1) == t.trace_enc(a)
    with pytest.raises(NonDivisorDegrees):
        t.trace_rel_enc(0, 4, 3)
    with pytest.raises(NotInSubfield):
        t.trace_rel_enc(2, 2, 1)


def test_relative_trace_transitivity():
    t = make_tower(2, 1, 4)
    for a in range(t.size):
        mid_val = t.trace_rel_enc(a, 4, 2)
        assert t.trace_rel_enc(mid_val, 2, 1) == t.trace_enc(a)


@pytest.mark.parametrize("p,m,n", [(2, 1, 4), (3, 1, 4), (2, 2, 4),
                                   (2, 1, 6), (5, 1, 4)])
def test_relative_trace_is_sum_of_powers(p, m, n):
    """Tr_{frm/to}(a) = sum of a^(q^(to*k)) for k below frm/to, by powering."""
    t = make_tower(p, m, n)
    top = t.top
    for frm in range(1, n + 1):
        if n % frm:
            continue
        sub = [a for a in range(t.size) if t.in_subfield_enc(a, frm)]
        for to in range(1, frm + 1):
            if frm % to:
                continue
            for a in sub:
                want = 0
                for k in range(frm // to):
                    want = top.add(want, top.pow(a, t.q ** (to * k)))
                assert t.trace_rel_enc(a, frm, to) == want


def test_constructor_validation():
    with pytest.raises(NotPrime):
        make_tower(4, 1, 2)
    with pytest.raises(NotPrime):
        make_tower(1, 1, 2)
    with pytest.raises(DegreeZero):
        make_tower(2, 0, 2)
    with pytest.raises(DegreeZero):
        make_tower(2, 1, 0)
    with pytest.raises(SizeBudgetExceeded):
        make_tower(2, 1, 30)
    with pytest.raises(SizeBudgetExceeded):
        make_tower(2, 1, 4, size_budget=10)
    with pytest.raises(InvalidModulus):
        make_tower(2, 1, 2, h=(1, 0, 1))
    with pytest.raises(InvalidModulus):
        make_tower(2, 1, 2, h=(1, 1, 2))
    # Coefficients must be encodings in the coefficient field; 5 is not
    # one in F_3 (read as 2 mod 3, this g would build a second F_9).
    with pytest.raises(InvalidModulus):
        make_tower(3, 1, 2, h=(5, 0, 1))
    with pytest.raises(InvalidModulus):
        make_tower(3, 2, 2, g=(5, 1, 1))
    # A modulus that is no sequence at all raised a bare TypeError.
    with pytest.raises(InvalidModulus, match="h must be 3 int coefficients"):
        make_tower(3, 1, 2, h=5)
    with pytest.raises(InvalidModulus, match="g must be 3 int coefficients"):
        make_tower(3, 2, 2, g=7)
    # A leading coefficient other than 1 is refused, not normalised.
    with pytest.raises(InvalidModulus, match="g must be monic"):
        make_tower(3, 2, 2, g=(2, 1, 2))
    with pytest.raises(InvalidModulus, match="h must be monic"):
        make_tower(3, 1, 2, h=(1, 0, 2))
    # A float coefficient is no encoding, even when it equals the
    # coefficient of a tower that is already cached.
    make_tower(3, 2, 2, g=(2, 1, 1))
    with pytest.raises(InvalidModulus):
        make_tower(3, 1, 2, h=(2.0, 0, 1))
    with pytest.raises(InvalidModulus):
        make_tower(3, 2, 2, g=(2.0, 1, 1))
    with pytest.raises(InvalidModulus):
        make_tower(3, 2, 2, g=(2.0, 1, 1), h=(4, 0, 1))
    # True == 1 alike: it would share the cache key of g=(2, 1, 1), and
    # the tower built would store True in its modulus.
    with pytest.raises(InvalidModulus):
        make_tower(3, 2, 2, g=(2, True, 1))
    with pytest.raises(InvalidModulus):
        make_tower(3, 1, 2, h=(True, 0, 1))
    # Degrees and the budget must be ints, cached tower or not: 1.0 and
    # True hash as 1, so they would share the cache key of 3:2.
    bad_types = (((3, 1.0, 2), {}, DegreeZero),
                 ((3, True, 2), {}, DegreeZero),
                 ((3, 1, 2.0), {}, DegreeZero),
                 ((3, 1, 2), {"size_budget": 100.0}, UsageError))
    for warm in (False, True):
        make_tower.cache_clear()
        if warm:
            make_tower(3, 1, 2)
        for args, kwargs, error in bad_types:
            with pytest.raises(error):
                make_tower(*args, **kwargs)
        assert make_tower(3, 1, 2).field_spec == "3^1:2"


@pytest.mark.parametrize("build", [
    lambda t: RatFuncSpec(t, 4, 1),
    lambda t: LinearizedPoly(t, (1,)),
    lambda t: BivarPoly(t, ((1,),)),
], ids=["RatFuncSpec", "LinearizedPoly", "BivarPoly"])
@pytest.mark.parametrize("not_a_tower", [5, None, "3:2"],
                         ids=["int", "None", "str"])
def test_constructors_refuse_what_is_not_a_tower(build, not_a_tower):
    """Each raised a bare AttributeError, reading size or n off the
    argument."""
    with pytest.raises(UsageError, match="must be a FieldTower"):
        build(not_a_tower)


def test_cache_clear_frees_the_towers_the_memos_hold():
    """The pair scan, the pair kernel's trace table, the level set, the
    identity map, the rendering memo, the curve's coefficient logarithms
    and the factor search's edge roots are keyed by a tower; cache_clear
    clears them too, so a tower it forgets is freed."""
    make_tower.cache_clear()
    t = make_tower(3, 1, 2)
    pairwise_criterion(t, 3, 1)
    classify_c(t, 3)
    RatFuncSpec(t, 3, 1)
    t.pretty_enc(7)
    # A symmetric curve's top row and right column are one edge.
    assert conjugate_factor_search(build_f2(t, 3, 1)) == (3, 6, 0)
    memos = (ratfunc._pair_scan, ratfunc._trace_powers, ratfunc._level_set,
             linmaps._identity, gf_core._pretty, bivariate._curve_logs,
             bivariate._edge_roots)
    assert [m.cache_info().currsize for m in memos] == [1] * len(memos)
    ref = weakref.ref(t)
    del t
    make_tower.cache_clear()
    gc.collect()
    assert ref() is None
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)


@pytest.mark.parametrize("p,m,n", [(2, 2, 2), (3, 2, 2), (5, 1, 3)])
def test_zero_has_no_inverse(p, m, n):
    t = make_tower(p, m, n)
    for level in (t.base, t.mid, t.top):
        with pytest.raises(DivisionByZero, match="inverse of 0"):
            level.inv(0)
    with pytest.raises(DivisionByZero, match="negative power of 0"):
        t.top.pow(0, -1)


def test_degree_and_power_arguments_must_be_ints():
    # 1.0 and 2.0 pass the range tests and then failed in range() with a
    # bare TypeError; True counted as 1.
    t = make_tower(3, 1, 2)
    for i in (1.0, True, "1"):
        with pytest.raises(OutOfRange, match="is not an int"):
            t.frob_enc(4, i)
    for d in (2.0, True):
        with pytest.raises(NonDivisorDegrees, match="is not an int"):
            t.in_subfield_enc(4, d)
    for frm, to in ((2.0, 1), (2, 1.0), (2, True), (True, True)):
        with pytest.raises(NonDivisorDegrees, match="need ints"):
            t.trace_rel_enc(4, frm, to)
    for e in (2.0, True, "2"):
        with pytest.raises(OutOfRange, match="power .* is not an int"):
            t.top.pow(4, e)
    assert t.frob_enc(4, 1) == t.frob_table[4]
    assert t.in_subfield_enc(4, 2)
    assert t.trace_rel_enc(4, 2, 1) == t.trace_enc(4)
    assert t.top.pow(4, 2) == t.top.mul(4, 4)


def test_custom_modulus_accepted():
    t = make_tower(3, 1, 2, h=(2, 2, 1))
    assert tuple(t.top.modulus) == (2, 2, 1)
    top = t.top
    for x in range(1, 9):
        assert top.mul(x, top.inv(x)) == 1


def test_pretty_rendering():
    t = make_tower(3, 1, 2)
    assert t.pretty_enc(0) == "0"
    assert t.pretty_enc(3) == "v"
    assert t.pretty_enc(7) == "2*v + 1"
    # Middle-field coefficients, top encodings below q among them, are
    # polynomials in u.
    nested = make_tower(2, 2, 2)
    assert nested.pretty_enc(3) == "u + 1"
    assert nested.pretty_enc(7) == "v + u + 1"
    assert nested.pretty_enc(12) == "(u + 1)*v"


def _uncached_text(t, enc):
    mid = str if t.m == 1 else functools.partial(gf_core._poly_text,
                                                 t.mid, "u")
    return gf_core._poly_text(t.top, "v", enc, mid)


def test_pretty_memo_renders_as_the_uncached_text():
    """pretty_enc reads a bounded memo; every element renders as the
    uncached text, also in the second pass, after 17:3's encodings, more
    than the bound, have evicted the first ones."""
    towers = [make_tower(3, 1, 2), make_tower(2, 2, 3), make_tower(3, 2, 2)]
    big = make_tower(17, 1, 3)
    bound = gf_core._pretty.cache_info().maxsize
    assert big.size > bound
    for _ in range(2):
        for t in towers:
            for enc in range(t.size):
                assert t.pretty_enc(enc) == _uncached_text(t, enc)
        for enc in range(bound + 1):
            assert big.pretty_enc(enc) == _uncached_text(big, enc)
        assert gf_core._pretty.cache_info().currsize == bound


def test_free_functions_wrap_elements():
    """Frobenius, trace, norm, inverse and the subfield test of one
    element, through the tower's encoding methods and top.inv."""
    t = make_tower(3, 1, 2)
    assert t.frob_enc(3) == 6
    assert t.trace_enc(3) == 0
    assert t.norm_enc(3) == 1
    assert t.top.inv(3) == 6
    assert not t.in_subfield_enc(3, 1)
    with pytest.raises(OutOfRange):
        t.frob_enc(3, 2)


def test_dual_basis_f4():
    t = make_tower(2, 1, 2)
    d = dual_basis(t, (1, 2))
    assert d == (3, 1)


def test_dual_basis_properties():
    # Seeded random sets too, on towers up to n = 4 and over the middle
    # fields F_4 and F_9: a set is a basis exactly when its F_q-span is
    # the whole field, and then Tr(w_j * d_k) = [j == k]; a set whose
    # last element is an F_q-combination of the others is refused.
    for params in ((3, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 3), (2, 1, 4),
                   (2, 2, 3), (3, 2, 2)):
        t = make_tower(*params)
        top = t.top
        rng = random.Random(f"dual-basis:{params}")
        for _ in range(12):
            basis = [rng.randrange(t.size) for _ in range(t.n)]
            span = set()
            for coords in itertools.product(range(t.q), repeat=t.n):
                y = 0
                for c, w in zip(coords, basis):
                    y = top.add(y, top.mul(c, w))
                span.add(y)
            if len(span) < t.size:
                with pytest.raises(NotABasis):
                    dual_basis(t, basis)
                continue
            duals = dual_basis(t, basis)
            for k, d in enumerate(duals):
                for j, w in enumerate(basis):
                    assert t.trace_enc(top.mul(w, d)) == (j == k)
            last = 0
            for w in basis[:-1]:
                last = top.add(last, top.mul(rng.randrange(t.q), w))
            with pytest.raises(NotABasis):
                dual_basis(t, basis[:-1] + [last])
        powers = [top.pow(t.q, i) for i in range(t.n)]
        duals = dual_basis(t, powers)
        for i, di in enumerate(duals):
            for j, bj in enumerate(powers):
                want = 1 if i == j else 0
                assert t.trace_enc(top.mul(di, bj)) == want
        for x in range(t.size):
            acc = 0
            for di, bj in zip(duals, powers):
                coeff = t.trace_enc(top.mul(di, x))
                acc = top.add(acc, top.mul(coeff, bj))
            assert acc == x


def test_dual_basis_rejects_dependent_sets():
    t = make_tower(3, 1, 2)
    with pytest.raises(NotABasis):
        dual_basis(t, (1, 2))
    with pytest.raises(NotABasis):
        dual_basis(t, (0, 3))
    with pytest.raises(NotABasis):
        dual_basis(t, (3,))
    # -3 would index the log table from its end, 9 past it
    for bad in (-3, 9):
        with pytest.raises(OutOfRange):
            dual_basis(t, (1, bad))
    # A basis that is no sequence at all raised a bare TypeError.
    for bad in (9, None):
        with pytest.raises(UsageError, match="basis must be a sequence"):
            dual_basis(t, bad)


def test_basis_det_f8():
    t = make_tower(2, 1, 3)
    assert basis_det_b(t, 2) == 1


def test_basis_det_matches_closed_form():
    for params in ((2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3)):
        t = make_tower(*params)
        top = t.top
        q = t.q
        for b in range(t.q, t.size):
            det = basis_det_b(t, b)
            assert det != 0
            rhs = top.mul(t.norm_enc(b),
                          t.trace_enc(top.sub(top.pow(b, q - 1),
                                              top.pow(b, q * q - 1))))
            assert det == rhs


def test_basis_det_intermediate_identity():
    # det == Tr((b^(q^2) + b^q) b^(q^2+1) - b^(q^2+q) (b^(q^2) + b))
    for params in ((2, 1, 3), (3, 1, 3)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size):
            bq = t.frob_enc(b)
            bq2 = t.frob_enc(b, 2)
            inner = top.sub(
                top.mul(top.add(bq2, bq), top.mul(bq2, b)),
                top.mul(top.mul(bq2, bq), top.add(bq2, b)))
            assert basis_det_b(t, b) == t.trace_enc(inner)


def test_basis_helpers_return_plain_ints():
    t = make_tower(2, 1, 3)
    duals = dual_basis(t, (1, 2, 4))
    assert type(duals) is tuple and len(duals) == 3
    assert all(type(d) is int for d in duals)
    assert type(basis_det_b(t, 2)) is int
    pairs = trace_decompose(LinearizedPoly(t, (3, 5, 6)))
    assert pairs and all(type(x) is int for pair in pairs for x in pair)


def test_encoding_maps_refuse_encodings_outside_the_field():
    # size comes first: pretty_enc(-1) once looped without end on its
    # digits, and pretty_enc(size) rendered a polynomial outside the field.
    t = make_tower(3, 1, 2)
    f = build_f2(t, 3, 1)
    maps = (t.pretty_enc, t.frob_enc, t.trace_enc, t.norm_enc,
            lambda a: t.in_subfield_enc(a, 1),
            lambda a: t.trace_rel_enc(a, 2, 2),
            lambda a: dual_basis(t, (1, a)),
            lambda a: eval_rf(RatFuncSpec(t, 3, 1), a),
            lambda a: eval_poly(f, a, 0),
            lambda a: eval_poly(f, 0, a),
            lambda a: LinearizedPoly(t, (a,)))
    for bad in (t.size, -1, 2.0):
        for enc_map in maps:
            with pytest.raises(OutOfRange,
                               match=f"encoding {bad} outside field of size 9"):
                enc_map(bad)


def test_basis_det_validation():
    t = make_tower(2, 1, 3)
    with pytest.raises(BZero):
        basis_det_b(t, 0)
    with pytest.raises(BInBaseField):
        basis_det_b(t, 1)
    with pytest.raises(OutOfRange, match="b encoding 8 outside field of size 8"):
        basis_det_b(t, 8)
    with pytest.raises(UnsupportedDegree):
        basis_det_b(make_tower(3, 1, 2), 3)


def test_norm_identity_degree3():
    # N(b^q - b) == Tr(b^(q+2) - b^(q^2+2)) for b outside F_q
    for params in ((2, 1, 3), (3, 1, 3), (2, 2, 3)):
        t = make_tower(*params)
        top = t.top
        q = t.q
        for b in range(t.q, t.size):
            w = top.sub(t.frob_enc(b), b)
            rhs = t.trace_enc(top.sub(top.pow(b, q + 2),
                                      top.pow(b, q * q + 2)))
            assert t.norm_enc(w) == rhs


@given(tower_and_elements(count=3))
def test_ring_axioms(data):
    t, x, y, z = data
    top = t.top
    assert top.add(x, y) == top.add(y, x)
    assert top.mul(x, y) == top.mul(y, x)
    assert top.add(top.add(x, y), z) == top.add(x, top.add(y, z))
    assert top.mul(top.mul(x, y), z) == top.mul(x, top.mul(y, z))
    assert top.mul(x, top.add(y, z)) == top.add(top.mul(x, y), top.mul(x, z))
    assert top.add(x, top.neg(x)) == 0
    assert top.sub(x, y) == top.add(x, top.neg(y))
    if x:
        assert top.mul(x, top.inv(x)) == 1


@given(tower_and_elements(count=2))
def test_frobenius_is_field_automorphism(data):
    t, x, y = data
    top = t.top
    assert t.frob_enc(top.add(x, y)) == top.add(t.frob_enc(x), t.frob_enc(y))
    assert t.frob_enc(top.mul(x, y)) == top.mul(t.frob_enc(x), t.frob_enc(y))
    assert t.frob_enc(t.frob_enc(x, t.n - 1)) == x


@given(tower_and_elements(count=2))
def test_trace_and_norm_laws(data):
    t, x, y = data
    top = t.top
    assert t.trace_enc(top.add(x, y)) == top.add(t.trace_enc(x),
                                                 t.trace_enc(y))
    assert t.trace_enc(t.frob_enc(x)) == t.trace_enc(x)
    assert t.norm_enc(top.mul(x, y)) == top.mul(t.norm_enc(x),
                                                t.norm_enc(y))


@given(towers())
def test_trace_is_balanced(t):
    counts = {}
    for x in range(t.size):
        counts[t.trace_enc(x)] = counts.get(t.trace_enc(x), 0) + 1
    assert counts == {v: t.size // t.q for v in range(t.q)}


def test_make_tower_caches():
    assert make_tower(3, 1, 2) is make_tower(3, 1, 2)
    assert make_tower(3, 1, 2) is not make_tower(3, 1, 2, h=(2, 2, 1))


def test_make_tower_resolves_defaults_before_caching():
    t = make_tower(3, 1, 2)
    assert make_tower(3, 1, 2, size_budget=DEFAULT_SIZE_BUDGET) is t
    assert make_tower(3, 1, 2, g=(0, 1)) is t
    assert make_tower(3, 1, 2, g=[0, 1], h=(1, 0, 1),
                      size_budget=DEFAULT_SIZE_BUDGET) is t
    assert make_tower(3, 1, 2, size_budget=10 ** 6) is not t
    assert make_tower(3, 1, 2, g=(1, 1)) is not t
    nested = make_tower(3, 2, 2)
    assert make_tower(3, 2, 2, g=(1, 0, 1), h=(4, 0, 1)) is nested
    assert make_tower(3, 2, 2).mid is make_tower(3, 2, 3).mid


def test_tower_pickles_to_its_cached_instance():
    for t in (make_tower(3, 1, 2), make_tower(3, 1, 2, g=(1, 1)),
              make_tower(3, 1, 2, h=(2, 2, 1)),
              make_tower(3, 2, 2, g=(2, 1, 1)),
              make_tower(2, 1, 3, size_budget=10 ** 6)):
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy(t) is t
    assert len(pickle.dumps(make_tower(2, 1, 12))) < 128
