"""Batch verification suites with deterministic, serializable reports.

Each suite sweeps a claim over whole fields and returns SuiteReport
objects.  Sampling is driven by string-seeded generators keyed as
"permrf:<suite>:<q>:<seed>[:<b>]", so a given (suite, q, seed, budget)
always yields byte-identical canonical JSON.  Wall-clock time is kept
out of the canonical form; pass include_elapsed to see it.

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
from dataclasses import asdict, dataclass, field
from typing import Optional

from ._pool import map_ordered
from .bivariate import bilinear, build_f2, build_f3, conjugate_factor_search, norm_poly
from .errors import EvenCharacteristic, NotPrime, UsageError
from .gf_core import DEFAULT_SIZE_BUDGET, basis_det_b, make_tower
from .linmaps import LinearizedPoly
from .ratfunc import (
    RatFuncSpec,
    _check_b,
    _first_pair,
    classify_c,
    closed_form_c,
    is_permutation_direct,
    is_permutation_reduced,
    kernel_criterion,
    lifted_c_set,
    pairwise_criterion,
    remark3_check,
)


def split_prime_power(q):
    """(p, m) with q = p^m, or NotPrime when q is not a prime power."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise NotPrime(f"{q * p ** m} is not a prime power")
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
        d = asdict(self)
        if not include_elapsed:
            del d["elapsed"]
        return d


@dataclass
class RunConfig:
    """One CLI invocation, round-trippable through a plain dict."""

    command: str
    args: dict = field(default_factory=dict)
    field_spec: Optional[str] = None
    seed: int = 0
    size_budget: int = DEFAULT_SIZE_BUDGET
    workers: int = 1
    json_path: Optional[str] = None
    csv_path: Optional[str] = None

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _exc(tower, b, c, detail, extra=None):
    e = {
        "b": b,
        "b_pretty": None if b is None else tower.pretty_enc("top", b),
        "c": c,
        "c_pretty": None if c is None else tower.pretty_enc("top", c),
        "detail": detail,
    }
    if extra:
        e.update(extra)
    return e


def _finish(suite, field_spec, q, n, mode, assertive, seed, budget,
            cases, passed, exceptions, started):
    if assertive:
        verdict = "pass" if not exceptions else "fail"
    else:
        verdict = "report-only"
    return SuiteReport(
        suite=suite, field_spec=field_spec, q=q, n=n, mode=mode,
        assertive=assertive, seed=seed,
        size_budget=DEFAULT_SIZE_BUDGET if budget is None else budget,
        cases_total=cases, cases_passed=passed, exceptions=exceptions,
        verdict=verdict, elapsed=time.perf_counter() - started)


def _nonbase(tower):
    return range(tower.q, tower.size)


# Degree 2 classification: for every b the permuting numerators are
# exactly the closed form.  Small q classifies exhaustively; larger q
# verifies the closed form and refutes seeded random alternatives.

def _case_theorem_n2(args):
    p, m, budget, q, seed, mode, b = args
    tower = make_tower(p, m, 2, size_budget=budget)
    closed = closed_form_c(tower, b)
    exceptions = []
    rng = random.Random(f"permrf:theorem-n2:{q}:{seed}:{b}")
    if mode == "classify":
        got = classify_c(tower, b)
        for c in got:
            if c != closed:
                exceptions.append(_exc(tower, b, c,
                                       "permutes but is not the closed form"))
        if closed not in got:
            exceptions.append(_exc(tower, b, closed,
                                   "closed form fails to permute"))
        for _ in range(10):
            c = rng.randrange(1, tower.size)
            direct = is_permutation_direct(RatFuncSpec(tower, b, c))
            if direct != (c in got):
                exceptions.append(_exc(tower, b, c,
                                       "direct and pairwise verdicts disagree"))
        return 1, 0 if exceptions else 1, exceptions
    cases = 101
    passed = 0
    spec = RatFuncSpec(tower, b, closed)
    if is_permutation_direct(spec) and pairwise_criterion(tower, b, closed).ok:
        passed += 1
    else:
        exceptions.append(_exc(tower, b, closed, "closed form fails to permute"))
    checked = 0
    while checked < 100:
        c = rng.randrange(1, tower.size)
        if c == closed:
            continue
        checked += 1
        ok = pairwise_criterion(tower, b, c).ok
        if checked <= 10:
            direct = is_permutation_direct(RatFuncSpec(tower, b, c))
            if direct != ok:
                exceptions.append(_exc(tower, b, c,
                                       "direct and pairwise verdicts disagree"))
                continue
        if ok:
            exceptions.append(_exc(tower, b, c, "non-closed-form c permutes"))
        else:
            passed += 1
    return cases, passed, exceptions


def run_theorem_n2(q, *, seed=0, workers=1, size_budget=None, mode=None):
    started = time.perf_counter()
    p, m = split_prime_power(q)
    tower = make_tower(p, m, 2, size_budget=size_budget)
    mode = mode or ("classify" if q <= 9 else "spot")
    if mode not in ("classify", "spot"):
        raise UsageError(f"theorem-n2 mode must be classify or spot, not {mode}")
    jobs = [(p, m, size_budget, q, seed, mode, b) for b in _nonbase(tower)]
    cases = passed = 0
    exceptions = []
    for nc, np_, exc in map_ordered(_case_theorem_n2, jobs, workers):
        cases += nc
        passed += np_
        exceptions.extend(exc)
    return [_finish("theorem-n2", tower.field_spec, q, 2, mode, True, seed,
                    size_budget, cases, passed, exceptions, started)]


# Degree 3: the closed form always permutes (checked on all three
# criteria, which must agree); full classification is exploratory
# because other numerators may also permute.

def _case_theorem_n3(args):
    p, m, budget, q, seed, mode, b = args
    tower = make_tower(p, m, 3, size_budget=budget)
    closed = closed_form_c(tower, b)
    exceptions = []
    if mode == "sufficiency":
        direct = is_permutation_direct(RatFuncSpec(tower, b, closed))
        reduced = is_permutation_reduced(tower, b, closed)
        pairwise = pairwise_criterion(tower, b, closed).ok
        if not (direct and reduced and pairwise):
            exceptions.append(_exc(
                tower, b, closed,
                f"closed form verdicts direct={direct} reduced={reduced} "
                f"pairwise={pairwise}"))
        return 1, 0 if exceptions else 1, exceptions
    got = classify_c(tower, b)
    if closed not in got:
        exceptions.append(_exc(tower, b, closed, "closed form fails to permute"))
    for c in got:
        if c != closed:
            exceptions.append(_exc(tower, b, c,
                                   "permutes beyond the closed form"))
    return 1, 1 if got == [closed] else 0, exceptions


def run_theorem_n3(q, *, seed=0, workers=1, size_budget=None, mode=None):
    started = time.perf_counter()
    p, m = split_prime_power(q)
    tower = make_tower(p, m, 3, size_budget=size_budget)
    mode = mode or "sufficiency"
    if mode not in ("sufficiency", "full-classify"):
        raise UsageError(
            f"theorem-n3 mode must be sufficiency or full-classify, not {mode}")
    jobs = [(p, m, size_budget, q, seed, mode, b) for b in _nonbase(tower)]
    cases = passed = 0
    exceptions = []
    for nc, np_, exc in map_ordered(_case_theorem_n3, jobs, workers):
        cases += nc
        passed += np_
        exceptions.extend(exc)
    assertive = mode == "sufficiency"
    return [_finish("theorem-n3", tower.field_spec, q, 3, mode, assertive,
                    seed, size_budget, cases, passed, exceptions, started)]


# The kernel term x^q - x: for degree 2 and q > 3 every (b, c) admits a
# zero-trace pair, so the map never permutes.  Degree 3 is exploratory;
# counterexamples are expected and recorded.

def _case_proposition(args):
    p, m, n, budget, b = args
    tower = make_tower(p, m, n, size_budget=budget)
    _check_b(tower, b)
    exceptions = []
    cases = passed = 0
    # Every c in 1..size-1 is a valid numerator, so only b needs checking.
    for c in range(1, tower.size):
        cases += 1
        if _first_pair(tower, b, c, 0) is not None:
            passed += 1
        else:
            exceptions.append(_exc(tower, b, c, "no zero-trace pair"))
    return cases, passed, exceptions


def _proposition_single(tower, b, c):
    exceptions = []
    if kernel_criterion(tower, b, c).exists:
        ok = 1
    else:
        ok = 0
        exceptions.append(_exc(tower, b, c, "no zero-trace pair"))
    return 1, ok, exceptions


def run_proposition(q, *, seed=0, workers=1, size_budget=None, mode=None):
    if mode is not None:
        raise UsageError("proposition takes no mode")
    p, m = split_prime_power(q)
    reports = []
    for n in (2, 3):
        started = time.perf_counter()
        tower = make_tower(p, m, n, size_budget=size_budget)
        cases = passed = 0
        exceptions = []
        exhaustive = n == 2 or q <= 9
        if exhaustive:
            jobs = [(p, m, n, size_budget, b) for b in _nonbase(tower)]
            for nc, np_, exc in map_ordered(_case_proposition, jobs, workers):
                cases += nc
                passed += np_
                exceptions.extend(exc)
        else:
            rng = random.Random(f"permrf:proposition:{q}:{n}:{seed}")
            for _ in range(2000):
                b = rng.randrange(tower.q, tower.size)
                c = rng.randrange(1, tower.size)
                nc, np_, exc = _proposition_single(tower, b, c)
                cases += nc
                passed += np_
                exceptions.extend(exc)
        kernel_term = LinearizedPoly(tower, (tower.top.neg(1), 1))
        rng = random.Random(f"permrf:proposition:{q}:{n}:{seed}:spot")
        for _ in range(20):
            cases += 1
            b = rng.randrange(tower.q, tower.size)
            c = rng.randrange(1, tower.size)
            spec = RatFuncSpec(tower, b, c, kernel_term)
            if is_permutation_direct(spec):
                exceptions.append(_exc(tower, b, c,
                                       "map with kernel term permutes"))
            else:
                passed += 1
        assertive = n == 2 and q > 3
        mode_label = "exhaustive" if exhaustive else "sampled"
        reports.append(_finish("proposition", tower.field_spec, q, n,
                               mode_label, assertive, seed, size_budget,
                               cases, passed, exceptions, started))
    return reports


# The three permutation criteria agree: exhaustively on six small
# towers, then on seeded random cases drawn from every tower of size
# at most 2^12.

_EQUIV_EXHAUSTIVE = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2),
                     (2, 1, 3), (3, 1, 3))


def _equiv_pool(limit):
    pool = []
    p = 2
    while p * p <= limit:
        if all(p % f for f in range(2, p)):
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


def _case_equiv(args):
    p, m, n, budget, b = args
    tower = make_tower(p, m, n, size_budget=budget)
    exceptions = []
    cases = passed = 0
    for c in range(1, tower.size):
        cases += 1
        direct = is_permutation_direct(RatFuncSpec(tower, b, c))
        reduced = is_permutation_reduced(tower, b, c)
        pairwise = pairwise_criterion(tower, b, c).ok
        if direct == reduced == pairwise:
            passed += 1
        else:
            exceptions.append(_exc(
                tower, b, c,
                f"verdicts disagree: direct={direct} reduced={reduced} "
                f"pairwise={pairwise}",
                extra={"field_spec": tower.field_spec}))
    return cases, passed, exceptions


def run_lemma_equiv(q=None, *, seed=0, workers=1, size_budget=None,
                    mode=None, samples=1000):
    if q is not None:
        raise UsageError("lemma-equiv chooses its own fields; drop the q")
    if mode is not None:
        raise UsageError("lemma-equiv takes no mode")
    started = time.perf_counter()
    cases = passed = 0
    exceptions = []
    jobs = []
    for p, m, n in _EQUIV_EXHAUSTIVE:
        tower = make_tower(p, m, n, size_budget=size_budget)
        jobs.extend((p, m, n, size_budget, b) for b in _nonbase(tower))
    for nc, np_, exc in map_ordered(_case_equiv, jobs, workers):
        cases += nc
        passed += np_
        exceptions.extend(exc)
    limit = 1 << 12
    if size_budget is not None:
        limit = min(limit, size_budget)
    pool = _equiv_pool(limit)
    rng = random.Random(f"permrf:lemma-equiv:{seed}")
    for _ in range(samples):
        p, m, n = pool[rng.randrange(len(pool))]
        tower = make_tower(p, m, n, size_budget=size_budget)
        b = rng.randrange(tower.q, tower.size)
        c = rng.randrange(1, tower.size)
        cases += 1
        direct = is_permutation_direct(RatFuncSpec(tower, b, c))
        reduced = is_permutation_reduced(tower, b, c)
        pairwise = pairwise_criterion(tower, b, c).ok
        if direct == reduced == pairwise:
            passed += 1
        else:
            exceptions.append(_exc(
                tower, b, c,
                f"verdicts disagree: direct={direct} reduced={reduced} "
                f"pairwise={pairwise}",
                extra={"field_spec": tower.field_spec}))
    return [_finish("lemma-equiv", "various", 0, 0, None, True, seed,
                    size_budget, cases, passed, exceptions, started)]


# The spanning certificate for 1, b^q + b, b^(q+1) in degree 3: the
# conjugate determinant is nonzero and equals N(b) Tr(b^(q-1) - b^(q^2-1)).

def _case_lemma_basis(args):
    p, m, budget, b = args
    tower = make_tower(p, m, 3, size_budget=budget)
    top = tower.top
    q = tower.q
    det = basis_det_b(tower, b).enc
    rhs = top.mul(tower.norm_enc(b),
                  tower.trace_enc(top.sub(top.pow(b, q - 1),
                                          top.pow(b, q * q - 1))))
    if det != 0 and det == rhs:
        return 1, 1, []
    return 1, 0, [_exc(tower, b, None,
                       f"determinant {det} vs closed form {rhs}")]


def run_lemma_basis(q, *, seed=0, workers=1, size_budget=None, mode=None):
    if mode is not None:
        raise UsageError("lemma-basis takes no mode")
    started = time.perf_counter()
    p, m = split_prime_power(q)
    tower = make_tower(p, m, 3, size_budget=size_budget)
    jobs = [(p, m, size_budget, b) for b in _nonbase(tower)]
    cases = passed = 0
    exceptions = []
    for nc, np_, exc in map_ordered(_case_lemma_basis, jobs, workers):
        cases += nc
        passed += np_
        exceptions.extend(exc)
    return [_finish("lemma-basis", tower.field_spec, q, 3, None, True, seed,
                    size_budget, cases, passed, exceptions, started)]


# Grid identities: at the closed form the curves split into conjugate
# bilinear factors, and for degree 2 only there.

def _case_factorizations(args):
    p, m, n, budget, q, b = args
    tower = make_tower(p, m, n, size_budget=budget)
    top = tower.top
    closed = closed_form_c(tower, b)
    exceptions = []
    cases = passed = 0
    if n == 2:
        f = build_f2(tower, b, closed)
        bq = tower.frob_enc(b)
        delta = top.sub(tower.trace_enc(top.mul(b, b)), tower.norm_enc(b))
        named = norm_poly(bilinear(tower, 1, b, bq, delta))
        cases += 1
        if f == named:
            passed += 1
        else:
            exceptions.append(_exc(tower, b, closed,
                                   "curve differs from its named factorization"))
        if q <= 4:
            for c in range(1, tower.size):
                if c == closed:
                    continue
                cases += 1
                found = conjugate_factor_search(build_f2(tower, b, c))
                if found is None:
                    passed += 1
                else:
                    exceptions.append(_exc(
                        tower, b, c,
                        f"unexpected conjugate factorization {found}"))
        return cases, passed, exceptions
    f = build_f3(tower, b, closed)
    delta = top.sub(top.mul(b, b), closed)
    named = norm_poly(bilinear(tower, 1, b, b, delta))
    cases += 1
    if f == named:
        passed += 1
    else:
        exceptions.append(_exc(tower, b, closed,
                               "curve differs from its named factorization"))
    if q <= 3:
        cases += 1
        conjugates = sorted({tower.frob_enc(b, i) for i in range(3)})
        found = conjugate_factor_search(f)
        if found is not None and found[0] == conjugates[0] and found[0] == found[1]:
            passed += 1
        else:
            exceptions.append(_exc(
                tower, b, closed,
                f"factor search returned {found}, expected the least "
                f"conjugate {conjugates[0]} twice"))
    return cases, passed, exceptions


def run_factorizations(q, *, seed=0, workers=1, size_budget=None, mode=None):
    if mode is not None:
        raise UsageError("factorizations takes no mode")
    budget_value = DEFAULT_SIZE_BUDGET if size_budget is None else size_budget
    p, m = split_prime_power(q)
    reports = []
    for n in (2, 3):
        if (q ** n) ** 3 > budget_value:
            continue
        started = time.perf_counter()
        tower = make_tower(p, m, n, size_budget=size_budget)
        jobs = [(p, m, n, size_budget, q, b) for b in _nonbase(tower)]
        cases = passed = 0
        exceptions = []
        for nc, np_, exc in map_ordered(_case_factorizations, jobs, workers):
            cases += nc
            passed += np_
            exceptions.extend(exc)
        reports.append(_finish("factorizations", tower.field_spec, q, n,
                               None, True, seed, size_budget, cases, passed,
                               exceptions, started))
    return reports


# Odd characteristic, degree 3: with the closed form the trace of
# c/(u + b v + b^2) misses 1 on all of F_q x F_q.

def _case_remark3(args):
    p, m, budget, b = args
    tower = make_tower(p, m, 3, size_budget=budget)
    c = closed_form_c(tower, b)
    if remark3_check(tower, b, c):
        return 1, 1, []
    return 1, 0, [_exc(tower, b, c, "trace reaches 1 on the (u, v) grid")]


def run_remark3(q, *, seed=0, workers=1, size_budget=None, mode=None):
    if mode is not None:
        raise UsageError("remark3 takes no mode")
    started = time.perf_counter()
    p, m = split_prime_power(q)
    if p == 2:
        raise EvenCharacteristic("remark3 needs odd characteristic")
    tower = make_tower(p, m, 3, size_budget=size_budget)
    jobs = [(p, m, size_budget, b) for b in _nonbase(tower)]
    cases = passed = 0
    exceptions = []
    for nc, np_, exc in map_ordered(_case_remark3, jobs, workers):
        cases += nc
        passed += np_
        exceptions.extend(exc)
    return [_finish("remark3", tower.field_spec, q, 3, None, True, seed,
                    size_budget, cases, passed, exceptions, started)]


# Lifting: b in an intermediate F_{q^d}, any c whose relative trace hits
# the closed form, and the map permutes the whole top field.

def _case_corollary(args):
    p, m, n, budget, d, b = args
    tower = make_tower(p, m, n, size_budget=budget)
    exceptions = []
    cases = passed = 0
    for c in lifted_c_set(tower, b, d):
        cases += 1
        if is_permutation_direct(RatFuncSpec(tower, b, c)):
            passed += 1
        else:
            exceptions.append(_exc(tower, b, c,
                                   f"lifted c fails to permute (d={d})",
                                   extra={"d": d}))
    return cases, passed, exceptions


def run_corollary(q, *, seed=0, workers=1, size_budget=None, mode=None):
    if mode is not None:
        raise UsageError("corollary takes no mode")
    budget_value = DEFAULT_SIZE_BUDGET if size_budget is None else size_budget
    p, m = split_prime_power(q)
    reports = []
    for n in (4, 6):
        if q ** n > budget_value:
            continue
        started = time.perf_counter()
        tower = make_tower(p, m, n, size_budget=size_budget)
        jobs = []
        for d in (2, 3):
            if n % d != 0:
                continue
            subfield = [b for b in range(tower.q, tower.size)
                        if tower.in_subfield_enc(b, d)]
            jobs.extend((p, m, n, size_budget, d, b) for b in subfield)
        cases = passed = 0
        exceptions = []
        for nc, np_, exc in map_ordered(_case_corollary, jobs, workers):
            cases += nc
            passed += np_
            exceptions.extend(exc)
        reports.append(_finish("corollary", tower.field_spec, q, n, None,
                               True, seed, size_budget, cases, passed,
                               exceptions, started))
    return reports


SUITES = {
    "lemma-equiv": run_lemma_equiv,
    "lemma-basis": run_lemma_basis,
    "proposition": run_proposition,
    "theorem-n2": run_theorem_n2,
    "theorem-n3": run_theorem_n3,
    "factorizations": run_factorizations,
    "remark3": run_remark3,
    "corollary": run_corollary,
}

DEFAULT_QS = {
    "lemma-equiv": (),
    "lemma-basis": (2, 3, 4, 5, 7, 8, 9),
    "proposition": (4, 5, 7, 8, 9, 11, 13),
    "theorem-n2": (2, 3, 4, 5, 7, 8, 9, 11, 13),
    "theorem-n3": (2, 3, 4, 5, 7),
    "factorizations": (2, 3, 4, 5, 7, 8, 9),
    "remark3": (3, 5, 7, 9),
    "corollary": (2, 3),
}

FULL_CLASSIFY_QS = (2, 3, 4)


def run_suite(name, qs=None, *, seed=0, workers=1, size_budget=None,
              mode=None, samples=1000):
    """All reports for one suite across the given q values (or defaults)."""
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; pick from "
                         f"{', '.join(sorted(SUITES))}")
    runner = SUITES[name]
    if name == "lemma-equiv":
        if qs:
            raise UsageError("lemma-equiv chooses its own fields; drop the q")
        return runner(seed=seed, workers=workers, size_budget=size_budget,
                      mode=mode, samples=samples)
    if qs is None:
        qs = DEFAULT_QS[name]
    if not qs:
        raise UsageError(f"suite {name} needs at least one q")
    reports = []
    for q in qs:
        reports.extend(runner(q, seed=seed, workers=workers,
                              size_budget=size_budget, mode=mode))
    return reports


def run_battery(*, seed=0, workers=1, size_budget=None, samples=1000):
    """Every suite at its default q values, in a fixed order."""
    reports = []
    reports.extend(run_suite("lemma-equiv", seed=seed, workers=workers,
                             size_budget=size_budget, samples=samples))
    for name in ("lemma-basis", "proposition", "theorem-n2", "theorem-n3"):
        reports.extend(run_suite(name, seed=seed, workers=workers,
                                 size_budget=size_budget))
    reports.extend(run_suite("theorem-n3", FULL_CLASSIFY_QS, seed=seed,
                             workers=workers, size_budget=size_budget,
                             mode="full-classify"))
    for name in ("factorizations", "remark3", "corollary"):
        reports.extend(run_suite(name, seed=seed, workers=workers,
                                 size_budget=size_budget))
    return reports


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
