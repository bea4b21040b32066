"""Suite engine: case counts, verdicts, determinism, and report
serialization.
"""

import json
import os
import pickle
from dataclasses import replace

import pytest

from permrf import _pool, verify
from permrf import (
    LinearizedPoly,
    RatFuncSpec,
    is_permutation_direct,
    kernel_criterion,
    make_tower,
    reports_to_csv,
    reports_to_json,
    run_battery,
    run_suite,
)
from permrf.errors import (EvenCharacteristic, NotPrime, SizeBudgetExceeded,
                           UsageError)
from permrf.gf_core import DEFAULT_SIZE_BUDGET
from permrf.verify import (
    BATTERY,
    CSV_COLUMNS,
    SUITES,
    map_ordered,
    split_prime_power,
)


def _square(x):
    return x * x


def test_split_prime_power():
    assert split_prime_power(4) == (2, 2)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(7) == (7, 1)
    assert split_prime_power(13) == (13, 1)
    with pytest.raises(NotPrime):
        split_prime_power(6)
    with pytest.raises(NotPrime):
        split_prime_power(1)


def test_map_ordered_preserves_order():
    items = list(range(37))
    assert map_ordered(_square, items, workers=1) == [x * x for x in items]
    assert map_ordered(_square, items, workers=2) == [x * x for x in items]


def test_worker_count_clamps(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _pool.worker_count(64, 10) == 2
    assert _pool.worker_count(64, 1) == 1
    assert _pool.worker_count(1, 10) == 1
    assert _pool.worker_count(0, 10) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool.worker_count(4, 10) == 1


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True, None])
def test_map_ordered_refuses_bad_worker_counts(monkeypatch, pool_sizes,
                                               workers):
    # Unchecked, 0 would run on one worker without a word, and 2.5 with
    # 3 or more CPUs would reach the executor as max_workers.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    with pytest.raises(UsageError):
        map_ordered(_square, range(9), workers=workers)
    assert pool_sizes == []


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every pool opened in the test.  A stand-in executor
    records it and maps in this process, so no worker starts."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_map_ordered_opens_clamped_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert map_ordered(_square, range(3), workers=10 ** 6) == [0, 1, 4]
    assert map_ordered(_square, range(9), workers=10 ** 6) == [x * x for x in range(9)]
    assert map_ordered(_square, range(9), workers=1) == [x * x for x in range(9)]
    assert pool_sizes == [3, 4]


def test_one_pool_per_command(monkeypatch, pool_sizes):
    # Every report of a command shares one map_ordered call, so one pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name, qs in (("theorem-n2", (3, 4)), ("proposition", (4,))):
        pooled = run_suite(name, qs, workers=2)
        assert pool_sizes == [2]
        pool_sizes.clear()
        assert reports_to_json(run_suite(name, qs)) == reports_to_json(pooled)
        assert pool_sizes == []


def test_theorem_n2_classify_counts():
    (r,) = run_suite("theorem-n2", (3,))
    assert r.suite == "theorem-n2"
    assert r.field_spec == "3^1:2"
    assert (r.q, r.n, r.mode) == (3, 2, "classify")
    assert r.assertive and r.verdict == "pass"
    assert r.cases_total == r.cases_passed == 6
    assert r.exceptions == []


def test_theorem_n2_spot_mode():
    (r,) = run_suite("theorem-n2", (3,), mode="spot")
    assert r.mode == "spot"
    assert r.cases_total == 6 * 101
    assert r.verdict == "pass"


def test_theorem_n2_classifies_beyond_q9():
    (r,) = run_suite("theorem-n2", (11,))
    assert r.mode == "classify"
    assert r.cases_total == r.cases_passed == 11 * 11 - 11
    assert r.verdict == "pass"


def test_theorem_n3_sufficiency():
    (r,) = run_suite("theorem-n3", (5,))
    assert (r.mode, r.assertive) == ("sufficiency", True)
    assert r.cases_total == r.cases_passed == 5 ** 3 - 5
    assert r.verdict == "pass"


def test_theorem_n3_full_classify_is_report_only():
    (r,) = run_suite("theorem-n3", (2,), mode="full-classify")
    assert (r.mode, r.assertive, r.verdict) == \
        ("full-classify", False, "report-only")
    assert r.cases_total == 6
    # each b admits permuting numerators beyond the closed form here
    assert len(r.exceptions) == 12
    assert all(e["detail"] == "permutes beyond the closed form"
               for e in r.exceptions)
    # every recorded extra numerator really does permute
    t = make_tower(2, 1, 3)
    for e in r.exceptions:
        assert is_permutation_direct(RatFuncSpec(t, e["b"], e["c"]))


def test_proposition_counts_and_verdicts():
    reports = run_suite("proposition", (4,))
    assert [r.n for r in reports] == [2, 3]
    n2, n3 = reports
    assert n2.assertive and n2.verdict == "pass"
    assert n2.mode == "exhaustive"
    assert n2.cases_total == 12 * 15 + 20
    assert not n3.assertive and n3.verdict == "report-only"
    assert n3.cases_total == 60 * 63 + 20
    assert n3.cases_passed + len(n3.exceptions) == n3.cases_total
    # n = 3 exceptions are real: no zero-trace pair, and the matching
    # kernel-term map actually permutes
    t = make_tower(2, 2, 3)
    L = LinearizedPoly(t, (t.top.neg(1), 1, 0))
    for e in n3.exceptions[:5]:
        assert not kernel_criterion(t, e["b"], e["c"]).exists
        assert is_permutation_direct(RatFuncSpec(t, e["b"], e["c"], L))


def test_proposition_exhaustive_at_q11():
    n2, n3 = run_suite("proposition", (11,))
    assert n2.mode == n3.mode == "exhaustive"
    assert n2.verdict == "pass"
    assert n3.cases_total == (11 ** 3 - 11) * (11 ** 3 - 1) + 20
    # every (b, c) at q = 11 has a zero-trace pair
    assert n3.cases_passed == n3.cases_total
    assert n3.exceptions == []


def test_lemma_equiv_counts():
    (r,) = run_suite("lemma-equiv", samples=25)
    assert r.field_spec == "various"
    assert (r.q, r.n) == (0, 0)
    assert r.cases_total == 1380 + 25
    assert r.verdict == "pass"
    (r,) = run_suite("lemma-equiv", samples=0)
    assert r.cases_total == 1380


def test_lemma_equiv_jobs_build_no_tower(monkeypatch):
    # The plan builds every tower the sampled draws need, so the jobs
    # run with make_tower gone.
    (*_, jobs), = SUITES["lemma-equiv"].plan(None, None, None, None, 0,
                                             DEFAULT_SIZE_BUDGET, 50)

    def refuse(*args, **kwargs):
        raise AssertionError("a job built a tower")

    monkeypatch.setattr(verify, "make_tower", refuse)
    outcomes = [case(*args) for case, args in jobs]
    assert sum(cases for cases, _, _ in outcomes) == 1380 + 50
    assert all(passed == cases for cases, passed, _ in outcomes)


def test_lemma_basis_counts():
    (r,) = run_suite("lemma-basis", (3,))
    assert r.cases_total == r.cases_passed == 24
    assert r.verdict == "pass"


def test_factorizations_counts():
    reports = run_suite("factorizations", (3,))
    assert [r.n for r in reports] == [2, 3]
    n2, n3 = reports
    # 6 b values, each: named equality plus 7 missing-factor checks
    assert n2.cases_total == 6 * 8
    # 24 b values, each: named equality plus search agreement
    assert n3.cases_total == 24 * 2
    assert n2.verdict == n3.verdict == "pass"


def test_factorizations_budget_drops_n3():
    reports = run_suite("factorizations", (7,))
    assert [r.n for r in reports] == [2]


def test_remark3_counts():
    (r,) = run_suite("remark3", (3,))
    assert r.cases_total == r.cases_passed == 24
    assert r.verdict == "pass"


def test_remark3_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        run_suite("remark3", (4,))


def test_corollary_counts():
    reports = run_suite("corollary", (2,))
    assert [r.n for r in reports] == [4, 6]
    n4, n6 = reports
    assert n4.cases_total == 2 * 4
    assert n6.cases_total == 2 * 16 + 6 * 8
    assert n4.verdict == n6.verdict == "pass"


# Failure paths.  The battery passes everywhere, so these break one name
# verify imports and pin what every report then counts.  Each expected
# row is (cases_total, cases_passed, exceptions, verdict, first detail).

_closed_form_c = verify.closed_form_c
_is_permutation_reduced = verify.is_permutation_reduced


def _shifted_closed_form(tower, b):
    # Never the closed form: c -> c mod (size - 1) + 1 moves every c.
    return _closed_form_c(tower, b) % (tower.size - 1) + 1


def _negated_reduced(tower, b, c):
    return not _is_permutation_reduced(tower, b, c)


BREAKS = {
    "closed": ("closed_form_c", _shifted_closed_form),
    "direct": ("is_permutation_direct", lambda spec: True),
    "reduced": ("is_permutation_reduced", _negated_reduced),
    "lifted": ("lifted_c_set", lambda tower, b, d: [1, 2, 3, 4, 5]),
    "det": ("basis_det_b", lambda tower, b: 1),
}

FAILURE_PINS = [
    ("closed", "theorem-n2", (3, 4), "classify", [
        (6, 0, 12, "fail", "permutes but is not the closed form"),
        (12, 0, 24, "fail", "permutes but is not the closed form")]),
    ("closed", "theorem-n2", (3, 4), "spot", [
        (606, 523, 83, "fail", "closed form fails to permute"),
        (1212, 1115, 97, "fail", "closed form fails to permute")]),
    ("closed", "theorem-n3", (2, 3), "sufficiency", [
        (6, 0, 6, "fail", "closed form verdicts direct=False reduced=False "
         "pairwise=False"),
        (24, 0, 24, "fail", "closed form verdicts direct=False reduced=False "
         "pairwise=False")]),
    ("closed", "theorem-n3", (2, 3), "full-classify", [
        (6, 0, 24, "report-only", "closed form fails to permute"),
        (24, 0, 144, "report-only", "closed form fails to permute")]),
    ("closed", "factorizations", (2, 3), None, [
        (6, 2, 4, "fail", "curve differs from its named factorization"),
        (12, 0, 12, "fail", "curve differs from its named factorization"),
        (48, 36, 12, "fail", "curve differs from its named factorization"),
        (48, 0, 48, "fail", "curve differs from its named factorization")]),
    ("closed", "remark3", (3,), None, [
        (24, 0, 24, "fail", "trace reaches 1 on the (u, v) grid")]),
    ("direct", "theorem-n2", (3,), "classify", [
        (6, 0, 54, "fail", "direct and pairwise verdicts disagree")]),
    ("direct", "theorem-n2", (3,), "spot", [
        (606, 546, 60, "fail", "direct and pairwise verdicts disagree")]),
    ("direct", "proposition", (4,), None, [
        (200, 180, 20, "fail", "map with kernel term permutes"),
        (3800, 3420, 380, "report-only", "no zero-trace pair")]),
    ("direct", "lemma-equiv", None, None, [
        (1385, 179, 1206, "fail", "verdicts disagree: direct=True "
         "reduced=False pairwise=False")]),
    ("reduced", "theorem-n3", (2, 3), "sufficiency", [
        (6, 0, 6, "fail", "closed form verdicts direct=True reduced=False "
         "pairwise=True"),
        (24, 0, 24, "fail", "closed form verdicts direct=True reduced=False "
         "pairwise=True")]),
    ("reduced", "lemma-equiv", None, None, [
        (1385, 0, 1385, "fail", "verdicts disagree: direct=True "
         "reduced=False pairwise=True")]),
    ("lifted", "corollary", (2,), None, [
        (10, 10, 0, "pass", None),
        (40, 24, 16, "fail", "lifted c fails to permute (d=3)")]),
    ("det", "lemma-basis", (2, 3), None, [
        (6, 6, 0, "pass", None),
        (24, 12, 12, "fail", "determinant 1 vs closed form 2")]),
]


@pytest.mark.parametrize(
    "brk,name,qs,mode,expected", FAILURE_PINS,
    ids=[f"{brk}-{name}-{mode}" for brk, name, _, mode, _ in FAILURE_PINS])
def test_failure_paths_count_each_case(monkeypatch, brk, name, qs, mode,
                                       expected):
    monkeypatch.setattr(verify, *BREAKS[brk])
    reports = run_suite(name, qs, mode=mode, samples=5)
    assert [(r.cases_total, r.cases_passed, len(r.exceptions), r.verdict,
             r.exceptions[0]["detail"] if r.exceptions else None)
            for r in reports] == expected


@pytest.mark.parametrize("size_budget", [None, 5000])
def test_report_budget_is_its_towers_budget(monkeypatch, size_budget):
    towers = []

    def recording(*args, **kwargs):
        towers.append(make_tower(*args, **kwargs))
        return towers[-1]

    monkeypatch.setattr(verify, "make_tower", recording)
    reports = run_suite("proposition", (4,), size_budget=size_budget)
    assert len(towers) == len(reports) == 2
    assert ({t.size_budget for t in towers}
            == {r.size_budget for r in reports}
            == {DEFAULT_SIZE_BUDGET if size_budget is None else size_budget})

def test_run_suite_validation():
    with pytest.raises(UsageError):
        run_suite("nonesuch")
    with pytest.raises(UsageError):
        run_suite("lemma-equiv", (4,))
    with pytest.raises(UsageError):
        run_suite("theorem-n2", ())
    with pytest.raises(UsageError):
        run_suite("theorem-n2", (3,), mode="nonesuch")
    with pytest.raises(UsageError):
        run_suite("proposition", (4,), mode="exhaustive")
    with pytest.raises(UsageError):
        run_suite("lemma-equiv", samples=-3)
    with pytest.raises(UsageError):
        run_suite("lemma-equiv", samples=1.5)
    with pytest.raises(UsageError):
        run_suite("theorem-n2", (3,), samples=-3)
    with pytest.raises(UsageError):
        run_suite("theorem-n2", ("4",))
    with pytest.raises(UsageError):
        run_suite("theorem-n2", (2.0,))


@pytest.mark.parametrize("seed", ["a", 1.5, True, None])
def test_run_suite_refuses_a_seed_that_is_not_an_int(seed):
    """The report schema types the seed as an integer, so a seed of any
    other type, bool included, is refused before it reaches a report."""
    with pytest.raises(UsageError, match="seed must be an int"):
        run_suite("theorem-n2", (3,), seed=seed)
    with pytest.raises(UsageError, match="seed must be an int"):
        run_battery(seed=seed)


@pytest.mark.parametrize("samples", [True, False])
def test_run_suite_refuses_a_bool_samples_count(samples):
    """True ran the same cases as samples=1, and False as samples=0."""
    with pytest.raises(UsageError, match="samples must be an int"):
        run_suite("lemma-equiv", samples=samples)


def test_lemma_equiv_samples_are_bounded_by_the_budget(monkeypatch):
    """One job per sample: a count over the budget is refused before any
    tower is built or any job planned.  27 is the smallest budget that
    the exhaustive towers (up to 3:3) fit."""
    (r,) = run_suite("lemma-equiv", samples=27, size_budget=27)
    assert (r.cases_total, r.verdict, r.size_budget) == (1380 + 27, "pass", 27)
    built = []
    monkeypatch.setattr(verify, "make_tower",
                        lambda *args, **kwargs: built.append(args))
    with pytest.raises(SizeBudgetExceeded,
                       match="lemma-equiv samples = 28 is over the size "
                             "budget 27"):
        run_suite("lemma-equiv", samples=28, size_budget=27)
    assert built == []


@pytest.mark.parametrize("size_budget", ["3", True, 2.5])
def test_run_suite_refuses_a_budget_that_is_not_an_int(size_budget):
    """make_tower's rule: "3" raised a bare TypeError, and True and 2.5
    were compared as budgets and named in SizeBudgetExceeded."""
    with pytest.raises(UsageError, match="size budget must be an int"):
        run_suite("theorem-n2", (3,), size_budget=size_budget)
    with pytest.raises(UsageError, match="size budget must be an int"):
        run_suite("lemma-equiv", samples=0, size_budget=size_budget)
    with pytest.raises(UsageError, match="size budget must be an int"):
        make_tower(3, 1, 2, size_budget=size_budget)


@pytest.mark.parametrize("name,qs", [("theorem-n2", 9), ("lemma-equiv", 0)])
def test_run_suite_refuses_qs_that_are_not_iterable(name, qs):
    """9 raised a bare TypeError; lemma-equiv ran with qs=0."""
    with pytest.raises(UsageError, match="qs must be a sequence"):
        run_suite(name, qs)


def test_registry_and_defaults():
    for name, suite in SUITES.items():
        if name != "lemma-equiv":
            assert suite.default_qs
    reports = SUITES["theorem-n2"]()
    assert tuple(r.q for r in reports) == SUITES["theorem-n2"].default_qs


def test_battery_dispatch_order(monkeypatch):
    # Plans that record their arguments and yield no report: the battery
    # checks and plans every entry, and no job runs.
    planned = []
    for name, suite in SUITES.items():
        def plan(q, p, m, mode, seed, budget, samples, name=name):
            planned.append((name, q, mode))
            return ()
        monkeypatch.setitem(SUITES, name, replace(suite, plan=plan))
    assert run_battery() == []
    expected = [("lemma-equiv", None, None)]
    for name in ("lemma-basis", "proposition", "theorem-n2", "theorem-n3"):
        expected += [(name, q, None) for q in SUITES[name].default_qs]
    expected += [("theorem-n3", q, "full-classify")
                 for q in SUITES["theorem-n3"].default_qs]
    for name in ("factorizations", "remark3", "corollary"):
        expected += [(name, q, None) for q in SUITES[name].default_qs]
    assert planned == expected


def test_battery_jobs_pickle_small():
    # Jobs carry their tower, which pickles by its make_tower key, not by
    # its tables.  Plans only; no job runs.
    jobs = 0
    for name, qs, mode in BATTERY:
        suite = SUITES[name]
        for q in qs or suite.default_qs or (None,):
            p, m = split_prime_power(q) if q else (None, None)
            for *_, planned in suite.plan(q, p, m, mode, 0,
                                          DEFAULT_SIZE_BUDGET, 1000):
                for job in planned:
                    assert len(pickle.dumps(job)) < 256
                    jobs += 1
    assert jobs > 0


def test_reports_serialize_deterministically():
    a = run_suite("theorem-n2", (3, 4))
    b = run_suite("theorem-n2", (3, 4))
    assert reports_to_json(a) == reports_to_json(b)
    parsed = json.loads(reports_to_json(a))
    assert [r["q"] for r in parsed] == [3, 4]
    assert "elapsed" not in parsed[0]
    with_elapsed = json.loads(reports_to_json(a, include_elapsed=True))
    assert with_elapsed[0]["elapsed"] >= 0


def test_seed_is_recorded():
    (r,) = run_suite("theorem-n2", (3,), seed=7)
    assert r.seed == 7


def test_csv_projection():
    reports = run_suite("theorem-n3", (2,), mode="full-classify")
    text = reports_to_csv(reports)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "theorem-n3"
    assert first[1] == "2^1:3"


def test_workers_do_not_change_reports():
    solo = run_suite("theorem-n2", (3,), workers=1)
    multi = run_suite("theorem-n2", (3,), workers=2)
    assert reports_to_json(solo) == reports_to_json(multi)
