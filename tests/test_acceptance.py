"""End-to-end acceptance checks, one numbered criterion per test.

Every test prints a single "[acceptance] criterion N (...): PASS" line
after its assertions hold, so a verbose pytest run shows one pass or
fail row per criterion.  These tests drive the library through the same
entry points the command line uses and re-derive the expected shapes
(case counts, report sets, verdicts) from first principles rather than
trusting the runners.
"""

import random
import time

import pytest

from permrf import (
    LinearizedPoly,
    compose,
    dual_basis,
    invert_lin,
    make_tower,
    rank_kernel_image,
    run_suite,
    weil_holds,
)

PASS_LINE = "[acceptance] criterion {num} ({label}): PASS"


def _assert_clean(report):
    assert report.verdict == "pass", (report.suite, report.q, report.n,
                                      report.exceptions[:3])
    assert report.cases_passed == report.cases_total
    assert report.exceptions == []


def test_criterion_01_degree2_classification():
    started = time.perf_counter()
    reports = run_suite("theorem-n2")
    elapsed = time.perf_counter() - started
    by_q = {r.q: r for r in reports}
    assert sorted(by_q) == [2, 3, 4, 5, 7, 8, 9, 11, 13]
    for q, r in by_q.items():
        assert r.mode == "classify"
        assert r.cases_total == q * q - q
        _assert_clean(r)
    assert elapsed < 300
    print(PASS_LINE.format(num=1, label="degree 2 classification"))


def test_criterion_02_degree3_sufficiency():
    started = time.perf_counter()
    reports = run_suite("theorem-n3")
    elapsed = time.perf_counter() - started
    by_q = {r.q: r for r in reports}
    assert sorted(by_q) == [2, 3, 4, 5, 7]
    for q, r in by_q.items():
        assert r.mode == "sufficiency"
        assert r.cases_total == q ** 3 - q
        _assert_clean(r)
    assert elapsed < 60
    print(PASS_LINE.format(num=2, label="degree 3 sufficiency"))


def test_criterion_03_three_criteria_agree():
    (report,) = run_suite("lemma-equiv", samples=1000)
    pair_counts = {(2, 2): 2 * 3, (3, 2): 6 * 8, (4, 2): 12 * 15,
                   (5, 2): 20 * 24, (2, 3): 6 * 7, (3, 3): 24 * 26}
    assert report.cases_total == sum(pair_counts.values()) + 1000
    assert report.cases_total == 2380
    _assert_clean(report)
    print(PASS_LINE.format(num=3, label="three criteria agree"))


def test_criterion_04_conjugate_factorizations():
    reports = run_suite("factorizations")
    by_key = {(r.q, r.n): r for r in reports}
    assert sorted(k for k in by_key if k[1] == 2) == [
        (2, 2), (3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2)]
    assert sorted(k for k in by_key if k[1] == 3) == [
        (2, 3), (3, 3), (4, 3), (5, 3)]
    for (q, n), r in by_key.items():
        if n == 2 and q <= 4:
            # one grid identity plus a fruitless search at every c
            # other than the closed form
            assert r.cases_total == (q * q - q) * (q * q - 1)
        elif n == 2:
            assert r.cases_total == q * q - q
        _assert_clean(r)
    print(PASS_LINE.format(num=4, label="conjugate factorizations"))


def test_criterion_05_spanning_determinant():
    reports = run_suite("lemma-basis")
    assert [r.q for r in reports] == [2, 3, 4, 5, 7, 8, 9]
    for r in reports:
        assert r.cases_total == r.q ** 3 - r.q
        _assert_clean(r)
    print(PASS_LINE.format(num=5, label="spanning determinant"))


def test_criterion_06_zero_trace_pairs():
    reports = run_suite("proposition")
    by_key = {(r.q, r.n): r for r in reports}
    qs = (4, 5, 7, 8, 9, 11, 13)
    assert sorted(by_key) == sorted((q, n) for q in qs for n in (2, 3))
    for q in qs:
        r2 = by_key[(q, 2)]
        assert r2.assertive and r2.mode == "exhaustive"
        assert r2.cases_total == (q * q - q) * (q * q - 1) + 20
        _assert_clean(r2)
        r3 = by_key[(q, 3)]
        assert not r3.assertive
        assert r3.verdict == "report-only"
        assert r3.mode == "exhaustive"
        assert r3.cases_total == (q ** 3 - q) * (q ** 3 - 1) + 20
        assert r3.cases_passed + len(r3.exceptions) == r3.cases_total
        allowed = {"no zero-trace pair", "map with kernel term permutes"}
        assert all(exc["detail"] in allowed for exc in r3.exceptions)
    print(PASS_LINE.format(num=6, label="zero-trace pairs"))


def test_criterion_07_odd_char_no_trace_one():
    reports = run_suite("remark3")
    assert [r.q for r in reports] == [3, 5, 7, 9]
    for r in reports:
        assert r.cases_total == r.q ** 3 - r.q
        _assert_clean(r)
    print(PASS_LINE.format(num=7, label="no trace-one grid point"))


def test_criterion_08_lifted_permutations():
    reports = run_suite("corollary")
    by_key = {(r.q, r.n): r for r in reports}
    assert {(2, 4), (3, 4), (2, 6)} <= set(by_key)
    for r in by_key.values():
        _assert_clean(r)
    print(PASS_LINE.format(num=8, label="lifted permutations"))


def test_criterion_09_point_bound_predicate():
    assert weil_holds(49, 4) is False
    assert weil_holds(53, 4) is True
    assert weil_holds(421, 6) is False
    assert weil_holds(431, 6) is True
    # near-tie far beyond float precision: with d = 2^40 and
    # k = ((d-1)(d-2))^2, the margin test at q = k + 4d - 2 succeeds by
    # exactly (2d-1)^2, about 2^-238 of the compared quantities, and
    # fails one step below
    d = 1 << 40
    k = ((d - 1) * (d - 2)) ** 2
    assert weil_holds(k + 4 * d - 2, d) is True
    assert weil_holds(k + 4 * d - 3, d) is False
    print(PASS_LINE.format(num=9, label="point bound predicate"))


def _towers_up_to(limit):
    out = []
    p = 2
    while p * p <= limit:
        if all(p % f for f in range(2, p)):
            m = 1
            while p ** (2 * m) <= limit:
                n = 2
                while p ** (m * n) <= limit:
                    out.append((p, m, n))
                    n += 1
                m += 1
        p += 1
    return out


def _pairs(tower, rng, cap=64):
    if tower.size <= cap:
        for x in range(tower.size):
            for y in range(tower.size):
                yield x, y
    else:
        for _ in range(200):
            yield rng.randrange(tower.size), rng.randrange(tower.size)


def _check_tower_algebra(tower, rng):
    top = tower.top
    n, q, size = tower.n, tower.q, tower.size

    for x, y in _pairs(tower, rng):
        fx, fy = tower.frob_enc(x), tower.frob_enc(y)
        assert tower.frob_enc(top.add(x, y)) == top.add(fx, fy)
        assert tower.frob_enc(top.mul(x, y)) == top.mul(fx, fy)
        assert tower.norm_enc(top.mul(x, y)) == top.mul(tower.norm_enc(x),
                                                        tower.norm_enc(y))
    for x in range(size):
        t = x
        for _ in range(n):
            t = tower.frob_enc(t)
        assert t == x
        assert (tower.frob_enc(x) == x) == (x < q)

    counts = [0] * q
    for x in range(size):
        counts[tower.trace_enc(x)] += 1
    assert counts == [size // q] * q
    for d in range(2, n):
        if n % d:
            continue
        for x in range(size):
            assert tower.trace_rel_enc(x, n, 1) == tower.trace_rel_enc(
                tower.trace_rel_enc(x, n, d), d, 1)

    g = top.generator
    basis = [top.pow(g, i) for i in range(n)]
    dual = dual_basis(tower, basis)
    sample = (range(size) if size <= 256
              else [rng.randrange(size) for _ in range(100)])
    for x in sample:
        acc = 0
        for bk, dk in zip(basis, dual):
            acc = top.add(acc, top.mul(dk, tower.trace_enc(top.mul(bk, x))))
        assert acc == x

    for _ in range(5):
        coeffs = tuple(rng.randrange(size) for _ in range(n))
        if not any(coeffs):
            coeffs = (0, 1) + (0,) * (n - 2)
        L = LinearizedPoly(tower, coeffs)
        rank, kernel, image = rank_kernel_image(L)
        assert rank + len(kernel) == n
        assert len(image) == rank

    frob = LinearizedPoly(tower, (0, 1) + (0,) * (n - 2))
    assert compose(invert_lin(frob), frob).is_identity
    for _ in range(20):
        coeffs = tuple(rng.randrange(size) for _ in range(n))
        L = LinearizedPoly(tower, coeffs)
        if rank_kernel_image(L)[0] == n:
            assert compose(invert_lin(L), L).is_identity
            assert compose(L, invert_lin(L)).is_identity
            break


def test_criterion_10_algebra_property_suite():
    rng = random.Random("permrf:acceptance:algebra")
    exhaustive = _towers_up_to(1 << 10)
    assert (2, 1, 10) in exhaustive and (2, 5, 2) in exhaustive
    larger = [(2, 1, 12), (3, 1, 8), (2, 3, 4), (5, 2, 3)]
    for p, m, n in exhaustive + larger:
        _check_tower_algebra(make_tower(p, m, n), rng)
    print(PASS_LINE.format(num=10, label="algebra property suite"))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
