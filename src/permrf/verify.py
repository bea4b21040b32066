"""Batch verification suites with deterministic, serializable reports.

Each suite is a Suite record: its name, its default q values, the modes
it accepts, and a plan.  For one q the plan yields one entry per report:
the tower's field spec, the degree n, the mode label, whether the report
is assertive, and the report's jobs.  A job is a (case, args) pair; the
case runs as case(*args) in a worker process, decides one outcome per
case, the list of that case's exceptions ([] for a pass), and returns
_tally of them: (cases, passed, exceptions).  Only _tally counts cases
and passes; the exhaustive proposition case alone counts its size - 1 c
per b itself, from one bitmask.  Jobs carry the tower itself, first in
args: a tower pickles by its make_tower key, so it reaches a worker in a
few dozen bytes and unpickles to that worker's cached instance.

One private runner, _run, takes (suite, qs, mode) entries.  It checks
them all, plans every report (so every tower is built before any job
runs and forked workers inherit it), runs every job in one map_ordered
call and adds each result to its report.  Calling a Suite record,
run_suite and run_battery each hand it one such list, so each opens at
most one worker pool.

Sampling is driven by string-seeded generators, keyed as
"permrf:theorem-n2:<q>:<seed>:<b>" per b,
"permrf:proposition:<q>:<n>:<seed>:spot" for the kernel-term spot check
and "permrf:lemma-equiv:<seed>" for lemma-equiv, which draws its towers
too; so a given (suite, q, seed, budget) always yields byte-identical
canonical JSON.  Wall-clock time is kept out of the canonical form; pass
include_elapsed to see it.  A report's elapsed is the sum of the seconds
its jobs took where they ran.

Assertive suites verify proved statements and fail on any exception.
Report-only suites explore territory where the claim is known to be
partial (degree 3 converses, small q) and never fail; their exceptions
are the interesting output.
"""

import csv
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ._pool import map_ordered
from .bivariate import bilinear, build_f2, build_f3, conjugate_factor_search, norm_poly
from .errors import EvenCharacteristic, NotPrime, UsageError
from .gf_core import (_check_budget, _factor_int, _size_budget, basis_det_b,
                      make_tower)
from .linmaps import LinearizedPoly
from .ratfunc import (
    RatFuncSpec,
    _pair_free_c,
    classify_c,
    closed_form_c,
    is_permutation_direct,
    is_permutation_reduced,
    lifted_c_set,
    pairwise_criterion,
    remark3_check,
)


def split_prime_power(q):
    """(p, m) with q = p^m, for an int q that is a prime power."""
    if not isinstance(q, int):
        raise UsageError(f"q must be an integer, not {q!r}")
    primes = _factor_int(q)
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, m = primes[0], 0
    while q % p == 0:
        q //= p
        m += 1
    return p, m


@dataclass
class SuiteReport:
    suite: str
    field_spec: str
    q: int
    n: int
    mode: Optional[str]
    assertive: bool
    seed: int
    size_budget: int
    cases_total: int
    cases_passed: int
    exceptions: list
    verdict: str
    elapsed: float

    def to_dict(self, include_elapsed=False):
        """The fields by name; the exceptions list is shared, not copied."""
        d = dict(vars(self))
        if not include_elapsed:
            del d["elapsed"]
        return d


def _exc(tower, b, c, detail, extra=None):
    e = {
        "b": b,
        "b_pretty": None if b is None else tower.pretty_enc(b),
        "c": c,
        "c_pretty": None if c is None else tower.pretty_enc(c),
        "detail": detail,
    }
    if extra:
        e.update(extra)
    return e


def _tally(outcomes):
    """(cases, passed, exceptions) from one outcome per case: the list of
    that case's exceptions, empty when it passed."""
    exceptions = [e for outcome in outcomes for e in outcome]
    return len(outcomes), outcomes.count([]), exceptions


def _verdicts(tower, b, c):
    """The (direct, reduced, pairwise) permutation verdicts on (b, c)."""
    return (is_permutation_direct(RatFuncSpec(tower, b, c)),
            is_permutation_reduced(tower, b, c),
            pairwise_criterion(tower, b, c).ok)


def _degrees_in_budget(suite, q, degrees, power, budget):
    """The degrees n, ascending, whose cost q^(n*power) is within the
    budget; SizeBudgetExceeded, naming q and the bound, when none is."""
    e = degrees[0] * power
    _check_budget(q ** e, budget, f"{suite} at q = {q}: its smallest tower "
                  f"costs q^{e}")
    return [n for n in degrees if q ** (n * power) <= budget]


def _jobs_per_b(case, tower, *args):
    """One job per b outside F_q, each passing the tower, args and b."""
    return [(case, (tower, *args, b)) for b in range(tower.q, tower.size)]


def _run_job(job):
    """The job's (cases, passed, exceptions) and the seconds it took."""
    case, args = job
    started = time.perf_counter()
    return (*case(*args), time.perf_counter() - started)


@dataclass(frozen=True)
class Suite:
    """One claim swept over the towers of a q.

    plan(q, p, m, mode, seed, budget, samples) yields one
    (field_spec, n, mode label, assertive, jobs) per report; q, p and m
    are None for a suite with no default qs, which picks its own fields.
    Calling the record runs and returns its reports over qs or its defaults.
    """

    name: str
    default_qs: tuple
    modes: tuple
    plan: Callable

    def __call__(self, qs=None, *, seed=0, workers=1, size_budget=None,
                 mode=None, samples=1000):
        return _run([(self, qs, mode)], seed, workers, size_budget, samples)


def _fields(suite, qs, mode, budget):
    """One (q, p, m) per q once qs and mode are valid, or
    (None, None, None) alone when the suite picks its own fields.  A q
    over the budget is refused before it is factored."""
    if mode is not None and mode not in suite.modes:
        if not suite.modes:
            raise UsageError(f"{suite.name} takes no mode")
        raise UsageError(f"{suite.name} mode must be "
                         f"{' or '.join(suite.modes)}, not {mode}")
    if qs is not None and not hasattr(qs, "__iter__"):
        raise UsageError(f"qs must be a sequence of prime powers, not {qs!r}")
    if not suite.default_qs:
        if qs:
            raise UsageError(f"{suite.name} chooses its own fields; drop the q")
        return [(None, None, None)]
    qs = suite.default_qs if qs is None else tuple(qs)
    if not qs:
        raise UsageError(f"suite {suite.name} needs at least one q")
    for q in qs:
        if isinstance(q, int):
            _check_budget(q, budget, "q")
    return [(q, *split_prime_power(q)) for q in qs]


def _run(entries, seed, workers, size_budget, samples):
    """Every report of the (suite, qs, mode) entries, in order, from one
    map_ordered call over all of their jobs."""
    if type(samples) is not int or samples < 0:
        raise UsageError(f"samples must be an int of at least 0, "
                         f"not {samples!r}")
    if type(seed) is not int:
        raise UsageError(f"seed must be an int, not {seed!r}")
    budget = _size_budget(size_budget)
    checked = [(suite, _fields(suite, qs, mode, budget), mode)
               for suite, qs, mode in entries]
    reports = []
    jobs = []
    owners = []
    for suite, fields, mode in checked:
        for q, p, m in fields:
            for field_spec, n, label, assertive, report_jobs in suite.plan(
                    q, p, m, mode, seed, budget, samples):
                report = SuiteReport(
                    suite=suite.name, field_spec=field_spec, q=q or 0, n=n,
                    mode=label, assertive=assertive, seed=seed,
                    size_budget=budget, cases_total=0, cases_passed=0,
                    exceptions=[], elapsed=0.0,
                    verdict="pass" if assertive else "report-only")
                reports.append(report)
                jobs += report_jobs
                owners += [report] * len(report_jobs)
    for report, (cases, passed, exceptions, seconds) in zip(
            owners, map_ordered(_run_job, jobs, workers)):
        report.cases_total += cases
        report.cases_passed += passed
        report.exceptions += exceptions
        report.elapsed += seconds
        if report.assertive and exceptions:
            report.verdict = "fail"
    return reports


# Degree 2 classification: for every b the permuting numerators are
# exactly the closed form.  classify finds every permuting c; spot
# verifies the closed form and refutes seeded random alternatives.

def _direct_disagrees(tower, b, c, ok):
    """The case's exceptions when the direct verdict on (b, c) is not ok."""
    if is_permutation_direct(RatFuncSpec(tower, b, c)) == ok:
        return []
    return [_exc(tower, b, c, "direct and pairwise verdicts disagree")]


def _case_theorem_n2(tower, seed, mode, b):
    closed = closed_form_c(tower, b)
    rng = random.Random(f"permrf:theorem-n2:{tower.q}:{seed}:{b}")
    if mode == "classify":
        got = classify_c(tower, b)
        exceptions = [_exc(tower, b, c, "permutes but is not the closed form")
                      for c in got if c != closed]
        if closed not in got:
            exceptions.append(_exc(tower, b, closed,
                                   "closed form fails to permute"))
        for _ in range(10):
            c = rng.randrange(1, tower.size)
            exceptions += _direct_disagrees(tower, b, c, c in got)
        return _tally([exceptions])
    # 101 cases per b: the closed form, then 100 seeded other c, the
    # first ten of them checked directly too.
    ok = (is_permutation_direct(RatFuncSpec(tower, b, closed))
          and pairwise_criterion(tower, b, closed).ok)
    outcomes = [[] if ok else
                [_exc(tower, b, closed, "closed form fails to permute")]]
    for i in range(100):
        c = closed
        while c == closed:
            c = rng.randrange(1, tower.size)
        ok = pairwise_criterion(tower, b, c).ok
        outcome = _direct_disagrees(tower, b, c, ok) if i < 10 else []
        if ok and not outcome:
            outcome = [_exc(tower, b, c, "non-closed-form c permutes")]
        outcomes.append(outcome)
    return _tally(outcomes)


def _plan_theorem_n2(q, p, m, mode, seed, budget, samples):
    tower = make_tower(p, m, 2, size_budget=budget)
    mode = mode or "classify"
    yield (tower.field_spec, 2, mode, True,
           _jobs_per_b(_case_theorem_n2, tower, seed, mode))


# Degree 3: the closed form always permutes (checked on all three
# criteria, which must agree); full classification is exploratory
# because other numerators may also permute.

def _case_theorem_n3(tower, mode, b):
    closed = closed_form_c(tower, b)
    if mode == "sufficiency":
        direct, reduced, pairwise = _verdicts(tower, b, closed)
        return _tally([[] if direct and reduced and pairwise else [_exc(
            tower, b, closed, f"closed form verdicts direct={direct} "
            f"reduced={reduced} pairwise={pairwise}")]])
    got = classify_c(tower, b)
    exceptions = []
    if closed not in got:
        exceptions.append(_exc(tower, b, closed,
                               "closed form fails to permute"))
    exceptions += [_exc(tower, b, c, "permutes beyond the closed form")
                   for c in got if c != closed]
    return _tally([exceptions])


def _plan_theorem_n3(q, p, m, mode, seed, budget, samples):
    tower = make_tower(p, m, 3, size_budget=budget)
    mode = mode or "sufficiency"
    yield (tower.field_spec, 3, mode, mode == "sufficiency",
           _jobs_per_b(_case_theorem_n3, tower, mode))


# The kernel term x^q - x: for degree 2 and q > 3 every (b, c) admits a
# zero-trace pair, so the map never permutes.  Degree 3 is exploratory;
# counterexamples are expected and recorded.

def _case_proposition(tower, b):
    # Every c in 1..size-1 is a case; the exceptions are the c with no
    # zero-trace pair, found all at once.
    cases = tower.size - 1
    exceptions = [_exc(tower, b, c, "no zero-trace pair")
                  for c in _pair_free_c(tower, b, 0)]
    return cases, cases - len(exceptions), exceptions


def _case_kernel_term_spot(tower, seed):
    kernel_term = LinearizedPoly(tower, (tower.top.neg(1), 1))
    rng = random.Random(f"permrf:proposition:{tower.q}:{tower.n}:{seed}:spot")
    pairs = [(rng.randrange(tower.q, tower.size), rng.randrange(1, tower.size))
             for _ in range(20)]
    return _tally([
        [_exc(tower, b, c, "map with kernel term permutes")]
        if is_permutation_direct(RatFuncSpec(tower, b, c, kernel_term))
        else [] for b, c in pairs])


def _plan_proposition(q, p, m, mode, seed, budget, samples):
    for n in (2, 3):
        tower = make_tower(p, m, n, size_budget=budget)
        jobs = _jobs_per_b(_case_proposition, tower)
        jobs.append((_case_kernel_term_spot, (tower, seed)))
        yield tower.field_spec, n, "exhaustive", n == 2 and q > 3, jobs


# The three permutation criteria agree: exhaustively on six small
# towers, then on seeded random cases drawn from every tower of size
# at most 2^12.

_EQUIV_EXHAUSTIVE = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                     (2, 1, 3), (3, 1, 3))


def _equiv_pool(limit):
    pool = []
    p = 2
    while p * p <= limit:
        if _factor_int(p) == [p]:
            m = 1
            while p ** (2 * m) <= limit:
                n = 2
                while p ** (m * n) <= limit:
                    if (p, m, n) not in _EQUIV_EXHAUSTIVE:
                        pool.append((p, m, n))
                    n += 1
                m += 1
        p += 1
    pool.sort()
    return pool


def _criteria_disagree(tower, b, c):
    """No exceptions when direct, reduced and pairwise agree on (b, c)."""
    direct, reduced, pairwise = _verdicts(tower, b, c)
    if direct == reduced == pairwise:
        return []
    return [_exc(tower, b, c, f"verdicts disagree: direct={direct} "
                 f"reduced={reduced} pairwise={pairwise}",
                 extra={"field_spec": tower.field_spec})]


def _case_equiv(tower, b, c=None):
    """The criteria at (b, c), or at (b, every nonzero c) for c None."""
    cs = range(1, tower.size) if c is None else (c,)
    return _tally([_criteria_disagree(tower, b, c) for c in cs])


def _plan_lemma_equiv(q, p, m, mode, seed, budget, samples):
    # One job per sample: the count is work the budget bounds, refused
    # before any tower is built or any job planned.
    _check_budget(samples, budget, "lemma-equiv samples")
    jobs = []
    for field in _EQUIV_EXHAUSTIVE:
        tower = make_tower(*field, size_budget=budget)
        jobs += _jobs_per_b(_case_equiv, tower)
    # One job per seeded draw; the draw order (tower, b, c) fixes the bytes.
    pool = _equiv_pool(min(1 << 12, budget))
    rng = random.Random(f"permrf:lemma-equiv:{seed}")
    for _ in range(samples):
        tower = make_tower(*pool[rng.randrange(len(pool))], size_budget=budget)
        b = rng.randrange(tower.q, tower.size)
        jobs.append((_case_equiv, (tower, b, rng.randrange(1, tower.size))))
    yield "various", 0, None, True, jobs


# The spanning certificate for 1, b^q + b, b^(q+1) in degree 3: the
# conjugate determinant is nonzero and equals N(b) Tr(b^(q-1) - b^(q^2-1)).

def _case_lemma_basis(tower, b):
    top = tower.top
    q = tower.q
    det = basis_det_b(tower, b)
    rhs = top.mul(tower.norm_enc(b),
                  tower.trace_enc(top.sub(top.pow(b, q - 1),
                                          top.pow(b, q * q - 1))))
    return _tally([[] if det != 0 and det == rhs else [
        _exc(tower, b, None, f"determinant {det} vs closed form {rhs}")]])


def _plan_lemma_basis(q, p, m, mode, seed, budget, samples):
    tower = make_tower(p, m, 3, size_budget=budget)
    yield (tower.field_spec, 3, None, True,
           _jobs_per_b(_case_lemma_basis, tower))


# Grid identities: at the closed form the curves split into their named
# conjugate bilinear factors; for degree 2 and q <= 4, no other c gives a
# conjugate bilinear factorization.

def _case_factorizations(tower, b):
    top = tower.top
    closed = closed_form_c(tower, b)
    if tower.n == 2:
        f = build_f2(tower, b, closed)
        delta = top.sub(tower.trace_enc(top.mul(b, b)), tower.norm_enc(b))
        factor = bilinear(tower, 1, b, tower.frob_enc(b), delta)
    else:
        f = build_f3(tower, b, closed)
        factor = bilinear(tower, 1, b, b, top.sub(top.mul(b, b), closed))
    outcomes = [[] if f == norm_poly(factor) else
                [_exc(tower, b, closed,
                      "curve differs from its named factorization")]]
    if tower.n == 2 and tower.q <= 4:
        for c in range(1, tower.size):
            if c != closed:
                found = conjugate_factor_search(build_f2(tower, b, c))
                outcomes.append([] if found is None else [
                    _exc(tower, b, c,
                         f"unexpected conjugate factorization {found}")])
    elif tower.n == 3 and tower.q <= 3:
        least = min(tower.frob_enc(b, i) for i in range(3))
        found = conjugate_factor_search(f)
        ok = found is not None and found[0] == least == found[1]
        outcomes.append([] if ok else [
            _exc(tower, b, closed, f"factor search returned {found}, "
                 f"expected the least conjugate {least} twice")])
    return _tally(outcomes)


def _plan_factorizations(q, p, m, mode, seed, budget, samples):
    for n in _degrees_in_budget("factorizations", q, (2, 3), 3, budget):
        tower = make_tower(p, m, n, size_budget=budget)
        yield (tower.field_spec, n, None, True,
               _jobs_per_b(_case_factorizations, tower))


# Odd characteristic, degree 3: with the closed form the trace of
# c/(u + b v + b^2) misses 1 on all of F_q x F_q.

def _case_remark3(tower, b):
    c = closed_form_c(tower, b)
    return _tally([[] if remark3_check(tower, b, c) else
                   [_exc(tower, b, c, "trace reaches 1 on the (u, v) grid")]])


def _plan_remark3(q, p, m, mode, seed, budget, samples):
    if p == 2:
        raise EvenCharacteristic("remark3 needs odd characteristic")
    tower = make_tower(p, m, 3, size_budget=budget)
    yield (tower.field_spec, 3, None, True,
           _jobs_per_b(_case_remark3, tower))


# Lifting: b in an intermediate F_{q^d}, any c whose relative trace hits
# the closed form, and the map permutes the whole top field.

def _case_corollary(tower, d, b):
    return _tally([
        [] if is_permutation_direct(RatFuncSpec(tower, b, c)) else
        [_exc(tower, b, c, f"lifted c fails to permute (d={d})",
              extra={"d": d})]
        for c in lifted_c_set(tower, b, d)])


def _plan_corollary(q, p, m, mode, seed, budget, samples):
    for n in _degrees_in_budget("corollary", q, (4, 6), 1, budget):
        tower = make_tower(p, m, n, size_budget=budget)
        jobs = [(_case_corollary, (tower, d, b))
                for d in (2, 3) if n % d == 0
                for b in range(tower.q, tower.size)
                if tower.in_subfield_enc(b, d)]
        yield tower.field_spec, n, None, True, jobs


SUITES = {suite.name: suite for suite in (
    Suite("lemma-equiv", (), (), _plan_lemma_equiv),
    Suite("lemma-basis", (2, 3, 4, 5, 7, 8, 9), (), _plan_lemma_basis),
    Suite("proposition", (4, 5, 7, 8, 9, 11, 13), (), _plan_proposition),
    Suite("theorem-n2", (2, 3, 4, 5, 7, 8, 9, 11, 13), ("classify", "spot"),
          _plan_theorem_n2),
    Suite("theorem-n3", (2, 3, 4, 5, 7), ("sufficiency", "full-classify"),
          _plan_theorem_n3),
    Suite("factorizations", (2, 3, 4, 5, 7, 8, 9), (), _plan_factorizations),
    Suite("remark3", (3, 5, 7, 9), (), _plan_remark3),
    Suite("corollary", (2, 3), (), _plan_corollary),
)}

# (suite, qs or None for its defaults, mode) in the order run_battery runs.
BATTERY = (
    ("lemma-equiv", None, None),
    ("lemma-basis", None, None),
    ("proposition", None, None),
    ("theorem-n2", None, None),
    ("theorem-n3", None, None),
    ("theorem-n3", None, "full-classify"),
    ("factorizations", None, None),
    ("remark3", None, None),
    ("corollary", None, None),
)


def run_suite(name, qs=None, *, seed=0, workers=1, size_budget=None,
              mode=None, samples=1000):
    """All reports for one suite across the given q values (or defaults)."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; pick from "
                         f"{', '.join(sorted(SUITES))}")
    return SUITES[name](qs, seed=seed, workers=workers,
                        size_budget=size_budget, mode=mode, samples=samples)


def run_battery(*, seed=0, workers=1, size_budget=None, samples=1000):
    """Every suite of BATTERY, in order, through one map_ordered call."""
    return _run([(SUITES[name], qs, mode) for name, qs, mode in BATTERY],
                seed, workers, size_budget, samples)


def reports_to_json(reports, include_elapsed=False):
    return json.dumps([r.to_dict(include_elapsed) for r in reports],
                      indent=2, sort_keys=True)


CSV_COLUMNS = ("suite", "field_spec", "q", "n", "mode", "b", "b_pretty",
               "c", "c_pretty", "detail")


def reports_to_csv(reports):
    """Flat projection of every exception, one row each."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        for e in r.exceptions:
            writer.writerow([
                r.suite,
                e.get("field_spec", r.field_spec),
                r.q,
                r.n,
                "" if r.mode is None else r.mode,
                "" if e.get("b") is None else e["b"],
                e.get("b_pretty") or "",
                "" if e.get("c") is None else e["c"],
                e.get("c_pretty") or "",
                e["detail"],
            ])
    return buf.getvalue()
