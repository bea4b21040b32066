"""The rational family x -> L(x) + c/(Tr(x) + b): evaluation, the three
permutation criteria, classification, closed forms, and the degree 3
trace-one scan.  Frozen values come from an independent implementation.
"""

import random
import sys
from collections import Counter

import pytest

from helpers import SMALL_TOWERS, seeded_map_of_rank
from permrf import (
    LinearizedPoly,
    RatFuncSpec,
    classify_c,
    closed_form_c,
    eval_rf,
    is_permutation,
    is_permutation_direct,
    is_permutation_reduced,
    kernel_criterion,
    lifted_c_set,
    make_tower,
    normalize_spec,
    pairwise_criterion,
    remark3_check,
    invert_lin,
)
from permrf.errors import (
    BInBaseField,
    BZero,
    CZero,
    EvenCharacteristic,
    LevelMismatch,
    NotInSubfield,
    OutOfRange,
    SizeBudgetExceeded,
    UnsupportedDegree,
    UsageError,
)
from permrf import ratfunc, verify
from permrf.ratfunc import reduced_map_eval


def test_spec_rejects_linear_part_of_another_tower():
    with pytest.raises(LevelMismatch):
        RatFuncSpec(make_tower(3, 1, 2), 3, 1,
                    LinearizedPoly(make_tower(2, 1, 3), (0, 1)))


def test_spec_validation():
    t = make_tower(3, 1, 2)
    with pytest.raises(BZero):
        RatFuncSpec(t, 0, 1)
    with pytest.raises(BInBaseField):
        RatFuncSpec(t, 2, 1)
    with pytest.raises(CZero):
        RatFuncSpec(t, 3, 0)
    spec = RatFuncSpec(t, 3, 1)
    assert spec.L.is_identity


def test_spec_refuses_a_linear_part_that_is_not_a_map():
    with pytest.raises(UsageError):
        RatFuncSpec(make_tower(3, 1, 2), 3, 1, L="x")


def test_eval_frozen_f9():
    t = make_tower(3, 1, 2)
    spec = RatFuncSpec(t, 3, 1)
    assert eval_rf(spec, 0) == 6
    assert eval_rf(spec, 3) == 0
    for x in (-1, 9):
        with pytest.raises(OutOfRange):
            eval_rf(spec, x)


def test_reduced_map_frozen_f9():
    t = make_tower(3, 1, 2)
    got = {t0: reduced_map_eval(t, 3, 1, t0) for t0 in range(3)}
    assert got == {0: 0, 1: 2, 2: 1}


def test_pairwise_criterion_frozen_f9():
    t = make_tower(3, 1, 2)
    ok = pairwise_criterion(t, 3, 1)
    assert ok.ok and ok.witness is None
    bad = pairwise_criterion(t, 3, 2)
    assert not bad.ok
    assert bad.witness == (0, 1)


def test_kernel_criterion_polarity():
    t = make_tower(3, 1, 2)
    # b = 3, c = 1: every pair traces to 1, so no zero-trace pair
    res = kernel_criterion(t, 3, 1)
    assert not res.exists and res.witness is None
    # over F_16 / F_4 a zero-trace pair always exists
    t2 = make_tower(2, 2, 2)
    for b in (4, 5):
        for c in range(1, 16):
            res = kernel_criterion(t2, b, c)
            assert res.exists
            x0, y0 = res.witness
            assert 0 <= x0 < y0 < t2.q
            top = t2.top
            w = top.mul(top.add(x0, b), top.add(y0, b))
            assert t2.trace_enc(top.mul(c, top.inv(w))) == 0


def test_classify_frozen_f9():
    t = make_tower(3, 1, 2)
    for b in range(3, 9):
        assert classify_c(t, b) == [1]
        assert closed_form_c(t, b) == 1


def test_classify_custom_modulus_matches_direct():
    # At b = 27 the custom tower's closed form differs from the canonical
    # 3^2:2 tower's, so classifying on the canonical tower would disagree.
    t = make_tower(3, 2, 2, g=(2, 1, 1), h=(4, 0, 1))
    assert classify_c(t, 27) == [
        c for c in range(1, t.size)
        if is_permutation_direct(RatFuncSpec(t, 27, c))]


def test_classify_budget_gate():
    # 3:2 costs q(q-1)/2 * (q^n - 1) = 3 * 8 = 24 bit operations per b.
    with pytest.raises(SizeBudgetExceeded, match="24"):
        classify_c(make_tower(3, 1, 2, size_budget=23), 3)
    # A bad b is refused before the budget is weighed.
    with pytest.raises(BInBaseField):
        classify_c(make_tower(3, 1, 2, size_budget=23), 1)
    assert classify_c(make_tower(3, 1, 2, size_budget=24), 3) == [1]
    # 2^5:3 sits under the default budget (496 * 32767 < 2^24), though its
    # squared size does not.
    t = make_tower(2, 5, 3)
    b = 37
    assert closed_form_c(t, b) in classify_c(t, b)


def test_closed_form_frozen():
    t8 = make_tower(2, 1, 3)
    assert closed_form_c(t8, 2) == 5
    t27 = make_tower(3, 1, 3)
    assert closed_form_c(t27, 3) == 2
    assert closed_form_c(t27, 4) == 2


def test_closed_form_n2_is_norm_of_difference():
    for params in ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size):
            w = top.sub(t.frob_enc(b), b)
            c = closed_form_c(t, b)
            assert c == t.norm_enc(w)
            assert 1 <= c < t.q


def test_closed_form_n3_power_identity():
    # c^(q+1) == N(w) * w with w = b^q - b
    for params in ((2, 1, 3), (3, 1, 3), (2, 2, 3)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size):
            w = top.sub(t.frob_enc(b), b)
            c = closed_form_c(t, b)
            assert top.pow(c, t.q + 1) == top.mul(t.norm_enc(w), w)


def test_closed_form_n3_trace_identities():
    # Tr(1/c) == Tr(b/c) == 0 and Tr(b^2/c) == 1
    for params in ((2, 1, 3), (3, 1, 3), (2, 2, 3)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size):
            ci = top.inv(closed_form_c(t, b))
            assert t.trace_enc(ci) == 0
            assert t.trace_enc(top.mul(b, ci)) == 0
            assert t.trace_enc(top.mul(top.mul(b, b), ci)) == 1


def test_closed_form_validation():
    t = make_tower(2, 1, 4)
    with pytest.raises(UnsupportedDegree):
        closed_form_c(t, 2)
    with pytest.raises(UnsupportedDegree):
        closed_form_c(t, 2, d=4)
    with pytest.raises(NotInSubfield):
        closed_form_c(t, 2, d=2)
    # A degree equal to 2 or 3 but not an int is refused, not passed on
    # to range() (on 3:2, 2.0 raised a bare TypeError).
    t = make_tower(3, 1, 2)
    for d in (2.0, 3.0):
        with pytest.raises(UnsupportedDegree, match=f"degree {d}"):
            closed_form_c(t, 3, d)
        with pytest.raises(UnsupportedDegree):
            lifted_c_set(t, 3, d)


def test_lifted_c_set_frozen_f16():
    t = make_tower(2, 1, 4)
    for b in (6, 7):
        assert closed_form_c(t, b, d=2) == 1
        lifted = lifted_c_set(t, b, 2)
        assert lifted == [2, 3, 4, 5]
        assert 0 not in lifted
        for c in lifted:
            assert is_permutation_direct(RatFuncSpec(t, b, c))


def test_lifted_c_set_size():
    t = make_tower(2, 1, 6)
    b = next(a for a in range(t.q, t.size) if t.in_subfield_enc(a, 2))
    assert len(lifted_c_set(t, b, 2)) == 2 ** 4
    b3 = next(a for a in range(t.q, t.size) if t.in_subfield_enc(a, 3))
    assert len(lifted_c_set(t, b3, 3)) == 2 ** 3


def test_criteria_agree_exhaustively():
    for params in ((3, 1, 2), (2, 1, 3)):
        t = make_tower(*params)
        for b in range(t.q, t.size):
            for c in range(1, t.size):
                direct = is_permutation_direct(RatFuncSpec(t, b, c))
                reduced = is_permutation_reduced(t, b, c)
                pairwise = pairwise_criterion(t, b, c).ok
                assert direct == reduced == pairwise


def test_difference_identity():
    # g(x0) - g(y0) = (x0 - y0)(1 - Tr(c/((x0+b)(y0+b)))) on F_q
    t = make_tower(3, 1, 3)
    top = t.top
    rng = random.Random("ratfunc-difference")
    for _ in range(20):
        b = rng.randrange(t.q, t.size)
        c = rng.randrange(1, t.size)
        for x0 in range(t.q):
            for y0 in range(t.q):
                if x0 == y0:
                    continue
                gx = reduced_map_eval(t, b, c, x0)
                gy = reduced_map_eval(t, b, c, y0)
                w = top.mul(top.add(x0, b), top.add(y0, b))
                tr = t.trace_enc(top.mul(c, top.inv(w)))
                rhs = top.mul(top.sub(x0, y0), top.sub(1, tr))
                assert top.sub(gx, gy) == rhs


def test_router_matches_direct():
    for params in ((2, 1, 2), (3, 1, 2), (2, 1, 3)):
        t = make_tower(*params)
        rng = random.Random(f"ratfunc-router:{params}")
        checked = 0
        while checked < 25:
            coeffs = tuple(rng.randrange(t.size) for _ in range(t.n))
            if not any(coeffs):
                continue
            checked += 1
            b = rng.randrange(t.q, t.size)
            c = rng.randrange(1, t.size)
            spec = RatFuncSpec(t, b, c, LinearizedPoly(t, coeffs))
            assert is_permutation(spec) == is_permutation_direct(spec)


def test_router_kernel_term():
    # L = x^q - x has rank n - 1; permutation iff the kernel generator
    # has nonzero trace and no zero-trace pair exists
    t = make_tower(3, 1, 2)
    L = LinearizedPoly(t, (t.top.neg(1), 1))
    spec = RatFuncSpec(t, 3, 1, L)
    assert is_permutation(spec)
    assert is_permutation_direct(spec)
    t2 = make_tower(2, 2, 2)
    L2 = LinearizedPoly(t2, (1, 1))
    spec2 = RatFuncSpec(t2, 4, 1, L2)
    # over F_16 a zero-trace pair always exists, so never a permutation
    assert not is_permutation(spec2)
    assert not is_permutation_direct(spec2)


def test_router_low_rank_never_permutes():
    t = make_tower(2, 1, 3)
    # rank 1: image of L spans one line, too small regardless of c
    L = LinearizedPoly(t, (1, 1, 1))
    rankish = RatFuncSpec(t, 2, 1, L)
    assert not is_permutation(rankish)
    assert not is_permutation_direct(rankish)


def test_normalize_spec_conjugation():
    # h(z) = alpha * f(L^(-1)(z / alpha)) pointwise.  At n = 2, -i mod n
    # equals i, so the degree 3 towers are what check the adjoint's slots.
    rng = random.Random("ratfunc-normalize")
    for params in ((3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 3)):
        t = make_tower(*params)
        top = t.top
        checked = 0
        while checked < 10:
            coeffs = tuple(rng.randrange(t.size) for _ in range(t.n))
            L = LinearizedPoly(t, coeffs)
            try:
                Linv = invert_lin(L)
            except Exception:
                continue
            checked += 1
            b = rng.randrange(t.q, t.size)
            c = rng.randrange(1, t.size)
            spec = RatFuncSpec(t, b, c, L)
            std, alpha = normalize_spec(spec)
            assert std.L.is_identity
            assert std.b == b
            assert alpha != 0
            ainv = top.inv(alpha)
            for z in range(t.size):
                pre = Linv.eval_enc(top.mul(z, ainv))
                assert eval_rf(std, z) == top.mul(alpha, eval_rf(spec, pre))


def test_remark3_frozen():
    t = make_tower(3, 1, 3)
    assert remark3_check(t, 3, 2)


def test_remark3_validation():
    with pytest.raises(EvenCharacteristic):
        remark3_check(make_tower(2, 1, 3), 2, 5)
    with pytest.raises(UnsupportedDegree):
        remark3_check(make_tower(3, 1, 2), 3, 1)


def test_closed_form_permutes_everywhere():
    for params in SMALL_TOWERS:
        t = make_tower(*params)
        if t.n not in (2, 3):
            continue
        for b in range(t.q, t.size):
            c = closed_form_c(t, b)
            assert pairwise_criterion(t, b, c).ok


# The pair tests share one log-domain scan, and classify_c takes a union of
# hyperplanes instead.  The reference below redoes the scan with field
# operations only, so neither is ever checked against itself.

KERNEL_TOWERS = (
    (2, 1, 2),
    (3, 1, 2),
    (2, 2, 2),
    (5, 1, 2),
    (2, 1, 3),
    (3, 1, 3),
    (3, 2, 2),
)
CLASSIFY_TOWERS = KERNEL_TOWERS + ((2, 2, 3), (7, 1, 3))


def reference_first_pair(t, b, c, target):
    """First x0 < y0, rows x0 ascending, with Tr(c/((x0+b)(y0+b))) == target."""
    top = t.top
    for x0 in range(t.q):
        for y0 in range(x0 + 1, t.q):
            w = top.mul(top.add(x0, b), top.add(y0, b))
            if t.trace_table[top.mul(c, top.inv(w))] == target:
                return x0, y0
    return None


def assert_pair_tests_match_reference(t, b, c):
    ref_one = reference_first_pair(t, b, c, 1)
    ref_zero = reference_first_pair(t, b, c, 0)
    assert pairwise_criterion(t, b, c) == (ref_one is None, ref_one)
    assert kernel_criterion(t, b, c) == (ref_zero is not None, ref_zero)


@pytest.mark.parametrize("params", KERNEL_TOWERS,
                         ids=lambda p: f"{p[0]}^{p[1]}:{p[2]}")
def test_pair_witnesses_match_reference_exhaustively(params):
    t = make_tower(*params)
    for b in range(t.q, t.size):
        for c in range(1, t.size):
            assert_pair_tests_match_reference(t, b, c)


@pytest.mark.parametrize("params", CLASSIFY_TOWERS,
                         ids=lambda p: f"{p[0]}^{p[1]}:{p[2]}")
def test_classify_matches_direct_exhaustively(params):
    t = make_tower(*params)
    for b in range(t.q, t.size):
        assert classify_c(t, b) == [
            c for c in range(1, t.size)
            if is_permutation_direct(RatFuncSpec(t, b, c))]


@pytest.mark.parametrize("params", CLASSIFY_TOWERS,
                         ids=lambda p: f"{p[0]}^{p[1]}:{p[2]}")
def test_pair_free_c_matches_reference_exhaustively(params):
    t = make_tower(*params)
    for b in range(t.q, t.size):
        for target in (0, 1):
            assert ratfunc._pair_free_c(t, b, target) == [
                c for c in range(1, t.size)
                if reference_first_pair(t, b, c, target) is None]


def test_classify_and_proposition_avoid_pair_scan(monkeypatch):
    # They read the (tower, b) state's logarithms, but neither scans a
    # pair nor slices a row of it.
    cases = [(t, b) for t in (make_tower(3, 1, 2), make_tower(2, 2, 3))
             for b in range(t.q, t.size)]
    classified = [classify_c(t, b) for t, b in cases]
    reports = verify.reports_to_json(verify.run_suite("proposition", [4, 5, 11]))

    def refuse(*args):
        raise AssertionError("classification used the pair scan")

    states = []
    pair_scan = ratfunc._pair_scan

    def record(tower, b):
        states.append(pair_scan(tower, b))
        return states[-1]

    ratfunc._pair_scan.cache_clear()
    monkeypatch.setattr(ratfunc, "_first_pair", refuse)
    monkeypatch.setattr(ratfunc, "_pair_scan", record)
    for (t, b), want in zip(cases, classified):
        assert classify_c(t, b) == want
        assert states[-1][-1] == [None] * (t.q - 1)
    count = len(states)
    assert verify.reports_to_json(
        verify.run_suite("proposition", [4, 5, 11])) == reports
    assert len(states) > count
    assert all(row is None for state in states for row in state[-1])


def test_one_pair_state_serves_classify_and_both_criteria():
    t = make_tower(3, 1, 3)
    b = 5
    ratfunc._pair_scan.cache_clear()
    classify_c(t, b)
    assert ratfunc._pair_scan.cache_info().misses == 1
    for c in range(1, t.size):
        kernel_criterion(t, b, c)
        pairwise_criterion(t, b, c)
    assert ratfunc._pair_scan.cache_info().misses == 1


def test_pair_memo_isolated_across_towers_and_b():
    # Two towers of the same size (different top moduli) and one of a
    # different q share b encodings; interleaving them must never reuse
    # another (tower, b)'s inverse logarithms.
    towers = (make_tower(3, 1, 2), make_tower(3, 1, 2, h=(2, 2, 1)),
              make_tower(2, 1, 3), make_tower(2, 1, 3, h=(1, 0, 1, 1)))
    calls = 0
    for _ in range(2):
        for b in (3, 5, 7):
            for t in towers:
                if b < t.q:
                    continue
                for c in range(1, t.size):
                    ref = reference_first_pair(t, b, c, 1)
                    assert pairwise_criterion(t, b, c) == (ref is None, ref)
                    ref = reference_first_pair(t, b, c, 0)
                    assert kernel_criterion(t, b, c) == \
                        (ref is not None, ref)
                    calls += 1
    assert calls > 0


def test_pair_scan_checks_b_before_c_on_miss_and_hit():
    t = make_tower(3, 1, 2)
    for criterion in (pairwise_criterion, kernel_criterion):
        for bad_b, error in ((0, BZero), (1, BInBaseField), (9, OutOfRange)):
            ratfunc._pair_scan.cache_clear()
            with pytest.raises(error):
                criterion(t, bad_b, 0)
            criterion(t, 3, 1)
            criterion(t, 3, 1)
            assert ratfunc._pair_scan.cache_info().hits == 1
            with pytest.raises(error):
                criterion(t, bad_b, 0)
            with pytest.raises(error):
                criterion(t, bad_b, 9)


def test_pair_scan_checks_c_on_hit():
    t = make_tower(3, 1, 2)
    for criterion in (pairwise_criterion, kernel_criterion):
        criterion(t, 3, 1)
        hits = ratfunc._pair_scan.cache_info().hits
        for bad_c, error in ((0, CZero), (-1, OutOfRange), (9, OutOfRange)):
            with pytest.raises(error):
                criterion(t, 3, bad_c)
        assert ratfunc._pair_scan.cache_info().hits == hits + 3


def test_float_b_or_c_is_refused_whatever_is_cached():
    # 3.0 == 3 and hashes alike, so an untyped cache would answer for it
    # once b = 3 is cached and fail on a float before.
    t = make_tower(2, 1, 3)
    calls = (lambda: pairwise_criterion(t, 3.0, 1),
             lambda: kernel_criterion(t, 3.0, 1),
             lambda: classify_c(t, 3.0),
             lambda: pairwise_criterion(t, 3, 2.0),
             lambda: kernel_criterion(t, 3, 2.0))
    ratfunc._pair_scan.cache_clear()
    for call in calls:
        with pytest.raises(OutOfRange):
            call()
    pairwise_criterion(t, 3, 1)
    classify_c(t, 3)
    for call in calls:
        with pytest.raises(OutOfRange):
            call()


def test_pair_scan_builds_rows_only_up_to_the_witness():
    t = make_tower(7, 1, 2)
    b = 7
    by_row = {}
    for c in range(1, t.size):
        pair = reference_first_pair(t, b, c, 1)
        if pair is not None:
            by_row.setdefault(pair[0], c)
    assert 0 in by_row and max(by_row) >= 2
    ratfunc._pair_scan.cache_clear()
    *_, ilog, rows = ratfunc._pair_scan(t, b)
    assert rows == [None] * (t.q - 1)
    # The logarithms are the log table's own int objects.
    top = t.top
    assert all(lx is top._log[top.inv(top.add(x0, b))]
               for x0, lx in enumerate(ilog))
    for x0 in sorted(by_row):
        assert pairwise_criterion(t, b, by_row[x0]).witness[0] == x0
        rows = ratfunc._pair_scan(t, b)[-1]
        assert rows[:x0 + 1] == [(ilog[i], ilog[i + 1:])
                                 for i in range(x0 + 1)]
        assert rows[x0 + 1:] == [None] * (t.q - 2 - x0)


def test_pair_scan_interleaved_calls_match_reference():
    # In a seeded random order most calls switch (tower, b) and rebuild the
    # memo; the rest reuse one whose rows earlier calls built only in part.
    towers = (make_tower(5, 1, 2), make_tower(2, 2, 2), make_tower(3, 1, 3))
    calls = [(t, b, c, target) for t in towers for b in (t.q, t.q + 1)
             for c in range(1, t.size) for target in (0, 1)]
    random.Random("ratfunc-interleave").shuffle(calls)
    for t, b, c, target in calls:
        assert ratfunc._first_pair(t, b, c, target) == \
            reference_first_pair(t, b, c, target)


def test_classify_custom_moduli_builds_no_second_tower():
    for params, g in (((3, 1, 2), (1, 1)), ((3, 2, 2), (2, 1, 1))):
        t = make_tower(*params, g=g)
        b = t.q
        misses = make_tower.cache_info().misses
        got = classify_c(t, b)
        assert make_tower.cache_info().misses == misses
        assert make_tower(*params, g=g, h=t.top.modulus) is t
        assert got == [c for c in range(1, t.size)
                       if is_permutation_direct(RatFuncSpec(t, b, c))]


def test_direct_and_reduced_do_not_use_pair_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("independent check used the pair scan")

    monkeypatch.setattr(ratfunc, "_first_pair", refuse)
    monkeypatch.setattr(ratfunc, "_pair_scan", refuse)
    t = make_tower(3, 1, 2)
    assert is_permutation_direct(RatFuncSpec(t, 3, 1))
    assert not is_permutation_direct(RatFuncSpec(t, 3, 2))
    assert is_permutation_reduced(t, 3, 1)
    assert not is_permutation_reduced(t, 3, 2)


def test_direct_scan_matches_pointwise_reference(monkeypatch):
    # At odd n the digit blocks are q^((n+1)/2) wide and fewer than that
    # many; 2^2:3 and 3^2:2 have a middle field that is not prime.  Every
    # c is tried, so the closed form and the other permuting c run full
    # scans, and the rest stop at a repeat.  In odd characteristic the
    # scan adds on logarithms: events counts, per kind of L, the Zech
    # reads that found a zero sum and the top.add calls that ratfunc
    # made while scanning.
    def refuse(*args):
        raise AssertionError("direct evaluation used the pair scan")

    for name in ("_first_pair", "_pair_scan", "_level_set"):
        monkeypatch.setattr(ratfunc, name, refuse)
    events = Counter()
    kind = [None]

    class CountedZech(list):
        def __getitem__(self, k):
            z = super().__getitem__(k)
            if z is None and sys._getframe(1).f_globals is vars(ratfunc):
                events[kind[0], "zero sum"] += 1
            return z

    rng = random.Random("ratfunc-direct-scan")
    for params in ((2, 1, 4), (2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 2),
                   (3, 2, 2), (7, 1, 2)):
        t = make_tower(*params)
        top = t.top
        b = rng.randrange(t.q, t.size)
        maps = [None, LinearizedPoly(t, (top.neg(1), 1))]
        maps += [seeded_map_of_rank(t, r, rng) for r in range(t.n + 1)]
        cases = []
        for L in maps:
            for c in range(1, t.size):
                spec = RatFuncSpec(t, b, c, L)
                cases.append((spec, len({eval_rf(spec, x)
                                         for x in range(t.size)}) == t.size))
        if t.n in (2, 3):
            cases.append((RatFuncSpec(t, b, closed_form_c(t, b)), True))
        if t.p != 2:
            def counted_add(u, w, add=top.add):
                y = add(u, w)
                if sys._getframe(1).f_globals is vars(ratfunc):
                    events[kind[0], "add"] += 1
                return y

            # An entry in the instance's dict shadows the method until
            # monkeypatch deletes it again.
            monkeypatch.setitem(vars(top), "add", counted_add)
            monkeypatch.setattr(top, "_zech", CountedZech(top._zech))
        for spec, want in cases:
            kind[0] = "identity" if spec.L.is_identity else "general"
            assert is_permutation_direct(spec) == want
        assert any(want for spec, want in cases if not spec.L.is_identity)
    # Neither scan calls top.add: each meets the image 0 as a None from
    # zech, and a zero operand by its None logarithm.
    for kind_ in ("identity", "general"):
        assert events[kind_, "zero sum"] > 0
        assert events[kind_, "add"] == 0


def test_direct_scan_evaluates_L_once_per_row_entry_and_block(monkeypatch):
    # A general L is evaluated on the row lo < width and once per later
    # block hi, never per shift: at most width + size/width calls over a
    # full scan.  L = a*x^q with numerator a*c permutes exactly when
    # x + c/(Tr(x) + b) does, so a c from classify_c scans every element.
    calls = Counter()
    eval_enc = LinearizedPoly.eval_enc

    def counted(self, x):
        calls["eval"] += 1
        return eval_enc(self, x)

    monkeypatch.setattr(LinearizedPoly, "eval_enc", counted)
    for params in ((2, 4, 2), (2, 1, 5), (5, 1, 2), (3, 1, 3)):
        t = make_tower(*params)
        b = t.q
        c = classify_c(t, b)[0]
        a = t.size - 1
        spec = RatFuncSpec(t, b, t.top.mul(a, c), LinearizedPoly(t, (0, a)))
        calls.clear()
        assert is_permutation_direct(spec)
        width = t.q ** -(-t.n // 2)
        assert 0 < calls["eval"] <= width + t.size // width


def _scan_log_raises(spec):
    """(verdict, exceptions raised in _scan_logs frames) of one direct scan."""
    raised = Counter()

    def local(frame, event, arg):
        raised[event] += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code is not ratfunc._scan_logs.__code__:
            return None
        frame.f_trace_lines = False
        return local

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        verdict = is_permutation_direct(spec)
    finally:
        sys.settrace(old)
    return verdict, raised["exception"]


def test_odd_scan_takes_lo_zero_without_raising():
    # lo = 0 starts every digit block, and its None logarithm is taken
    # before the block's loop, so a full scan raises only where an
    # operand with lo != 0 is 0: at the one zero sum, and for L = a*x^q
    # also where L(hi) + c/(Tr(x) + b) = 0.  A scan that met lo = 0 in
    # the loop would raise once more per block.
    for params in ((3, 1, 2), (5, 1, 2), (3, 1, 3)):
        t = make_tower(*params)
        top = t.top
        for b in range(t.q, t.size, t.q - 1):
            c = classify_c(t, b)[0]
            assert _scan_log_raises(RatFuncSpec(t, b, c)) == (True, 1)
            a = t.size - 1
            spec = RatFuncSpec(t, b, top.mul(a, c), LinearizedPoly(t, (0, a)))
            width = t.q ** -(-t.n // 2)
            want = 0
            for x in range(t.size):
                lo = x % width
                entry = top.add(spec.L.eval_enc(x - lo),
                                top.mul(spec.c, top.inv(top.add(
                                    t.trace_enc(x), b))))
                want += lo != 0 and 0 in (entry, eval_rf(spec, x))
            assert _scan_log_raises(spec) == (True, want)
