"""Spans around calls into permrf's layers, recorded from outside the package.

The tracer replaces public functions by timing wrappers in every loaded
permrf module namespace, so the names that verify, cli and ratfunc import
from their neighbours are wrapped too, and restores the originals on
uninstall.  Each span keeps inclusive time, self time (inclusive minus the
wrapped calls made inside it) and a call count.  Nothing inside src/ is
edited; the untraced run never installs a wrapper.
"""

import functools
import random
import statistics
import sys
import time

from pace import Pace

# Wrapped functions per layer; the layer is the permrf module name.
LAYER_FUNCS = {
    "gf_core": ("make_tower",),
    "ratfunc": ("kernel_criterion", "pairwise_criterion", "classify_c",
                "is_permutation_direct", "is_permutation_reduced",
                "normalize_spec"),
    "linmaps": ("matrix_of", "from_matrix", "compose", "rank_kernel_image",
                "invert_lin", "complete_basis", "trace_decompose"),
    "bivariate": ("build_f2", "build_f3", "build_f3_kernel",
                  "conjugate_factor_search", "count_offdiag_points"),
    "verify": ("reports_to_json", "reports_to_csv"),
    "cli": ("main",),
}

SUITE_NAMES = ("lemma-equiv", "lemma-basis", "proposition", "theorem-n2",
               "theorem-n3", "factorizations", "remark3", "corollary")

# Every per-layer metric with its unit, in output order.
PER_LAYER_UNITS = {
    "gf_core.build_s": "s",
    "gf_core.build_us_per_elem": "us",
    "gf_core.towers_built": "count",
    "gf_core.cache_hits": "count",
    "gf_core.table_bytes_per_elem": "B",
    "gf_core.add_ns.char2": "ns",
    "gf_core.add_ns.odd": "ns",
    "gf_core.mul_ns.char2": "ns",
    "gf_core.mul_ns.odd": "ns",
    "gf_core.inv_ns.char2": "ns",
    "gf_core.inv_ns.odd": "ns",
    "gf_core.frob_ns": "ns",
    "gf_core.trace_ns": "ns",
    "ratfunc.kernel_s": "s",
    "ratfunc.pairwise_s": "s",
    "ratfunc.classify_s": "s",
    "ratfunc.direct_s": "s",
    "ratfunc.reduced_s": "s",
    "ratfunc.kernel_calls": "count",
    "ratfunc.pairwise_calls": "count",
    "ratfunc.classify_calls": "count",
    "ratfunc.direct_calls": "count",
    "ratfunc.pairs_to_witness": "count",
    "ratfunc.us_per_pair": "us",
    "linmaps.normalize_s": "s",
    "linmaps.calls": "count",
    "bivariate.curve_s": "s",
    "bivariate.factor_s": "s",
    "bivariate.points_s": "s",
    **{f"verify.suite_s.{s}": "s" for s in SUITE_NAMES},
    "verify.serialize_s": "s",
    "verify.cases": "count",
    "cli.self_s": "s",
    "cli.invocations": "count",
    "trace.overhead_s": "s",
}


def witness_position(witness, q):
    """Pair evaluations a scan over x0 < y0 makes up to its witness."""
    if witness is None:
        return q * (q - 1) // 2
    x0, y0 = witness
    return x0 * (q - 1) - x0 * (x0 - 1) // 2 + (y0 - x0)


def patch_permrf(wrappers):
    """In every loaded permrf module, replace each function listed in
    `wrappers` (id -> (function, replacement)); returns what unpatch needs."""
    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "permrf" or name.startswith("permrf.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    return patched


def unpatch(patched):
    for module, attr, value in patched:
        setattr(module, attr, value)


class Span:
    __slots__ = ("inclusive", "self_time", "calls")

    def __init__(self):
        self.inclusive = 0.0
        self.self_time = 0.0
        self.calls = 0


class Tracer:
    """Timing wrappers for the functions in LAYER_FUNCS and verify.SUITES."""

    def __init__(self, pm):
        self.pm = pm
        self.spans = {}
        self.counts = {"pairs_to_witness": 0, "cases": 0,
                       "towers_built": 0, "cache_hits": 0,
                       "build_s": 0.0, "build_elems": 0}
        self._stack = []
        self._seen_towers = {}
        self._wrappers = {}
        self._patched = []
        self._suites_saved = None
        self._plan()

    def _plan(self):
        after = {
            "ratfunc.kernel_criterion": self._pairs,
            "ratfunc.pairwise_criterion": self._pairs,
            "gf_core.make_tower": self._tower,
        }
        for layer, names in LAYER_FUNCS.items():
            module = getattr(self.pm, layer)
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    span = f"{layer}.{name}"
                    self._wrappers[id(fn)] = (fn, self._wrap(span, fn, after.get(span)))
        for suite, fn in getattr(self.pm.verify, "SUITES", {}).items():
            self._wrappers[id(fn)] = (fn, self._wrap(f"verify.suite.{suite}", fn,
                                                     self._cases))

    def _wrap(self, name, fn, after):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                span.inclusive += dt
                span.self_time += dt - inner
                span.calls += 1
            if after is not None:
                after(args, result, dt)
            return result
        return wrapper

    def _pairs(self, args, result, dt):
        self.counts["pairs_to_witness"] += witness_position(result.witness,
                                                           args[0].q)

    def _cases(self, args, result, dt):
        self.counts["cases"] += sum(r.cases_total for r in result)

    def _tower(self, args, result, dt):
        if id(result) in self._seen_towers:
            self.counts["cache_hits"] += 1
            return
        self._seen_towers[id(result)] = result
        self.counts["towers_built"] += 1
        self.counts["build_s"] += dt
        self.counts["build_elems"] += result.size

    def towers(self):
        """Every distinct tower make_tower has returned while installed."""
        return list(self._seen_towers.values())

    def install(self):
        self._patched = patch_permrf(self._wrappers)
        suites = getattr(self.pm.verify, "SUITES", None)
        if suites is not None:
            self._suites_saved = dict(suites)
            for key, fn in suites.items():
                hit = self._wrappers.get(id(fn))
                if hit is not None:
                    suites[key] = hit[1]

    def uninstall(self):
        unpatch(self._patched)
        self._patched = []
        if self._suites_saved is not None:
            self.pm.verify.SUITES.update(self._suites_saved)
            self._suites_saved = None

    def snapshot(self):
        """Copy of every span and counter, to subtract from a later one."""
        spans = {k: (s.inclusive, s.self_time, s.calls) for k, s in self.spans.items()}
        return spans, dict(self.counts)


def layer_metrics(snapshots, scales):
    """Per-round ratfunc, linmaps, bivariate, verify and cli figures from
    tracer snapshots taken before the first traced round and after each one;
    each round's times are scaled by that round's pace."""
    rounds = len(scales)

    def span(name):
        total = [0.0, 0.0, 0]
        for (a, _), (b, _), k in zip(snapshots, snapshots[1:], scales):
            x = a.get(name, (0.0, 0.0, 0))
            y = b.get(name, (0.0, 0.0, 0))
            total[0] += (y[0] - x[0]) * k
            total[1] += (y[1] - x[1]) * k
            total[2] += y[2] - x[2]
        return [v / rounds for v in total]

    def count(name):
        return (snapshots[-1][1][name] - snapshots[0][1][name]) / rounds

    out = {}
    for key, fn in (("kernel", "kernel_criterion"), ("pairwise", "pairwise_criterion"),
                    ("classify", "classify_c"), ("direct", "is_permutation_direct"),
                    ("reduced", "is_permutation_reduced")):
        inclusive, _, calls = span(f"ratfunc.{fn}")
        out[f"ratfunc.{key}_s"] = inclusive
        if key != "reduced":
            out[f"ratfunc.{key}_calls"] = calls
    pairs = count("pairs_to_witness")
    out["ratfunc.pairs_to_witness"] = pairs
    pair_s = out["ratfunc.kernel_s"] + out["ratfunc.pairwise_s"]
    out["ratfunc.us_per_pair"] = pair_s / pairs * 1e6 if pairs else 0.0
    out["linmaps.normalize_s"] = span("ratfunc.normalize_spec")[0]
    out["linmaps.calls"] = sum(span(f"linmaps.{n}")[2] for n in LAYER_FUNCS["linmaps"])
    out["bivariate.curve_s"] = sum(span(f"bivariate.{n}")[0]
                                   for n in ("build_f2", "build_f3", "build_f3_kernel"))
    out["bivariate.factor_s"] = span("bivariate.conjugate_factor_search")[0]
    out["bivariate.points_s"] = span("bivariate.count_offdiag_points")[0]
    for suite in SUITE_NAMES:
        out[f"verify.suite_s.{suite}"] = span(f"verify.suite.{suite}")[0]
    out["verify.serialize_s"] = (span("verify.reports_to_json")[0]
                                 + span("verify.reports_to_csv")[0])
    out["verify.cases"] = count("cases")
    _, cli_self, cli_calls = span("cli.main")
    out["cli.self_s"] = cli_self
    out["cli.invocations"] = cli_calls
    return out


def build_metrics(counts, scale):
    """gf_core build figures from tracer counters (set-up plus one round),
    times multiplied by the set-up's pace scale."""
    elems = counts["build_elems"]
    build_s = counts["build_s"] * scale
    return {
        "gf_core.build_s": build_s,
        "gf_core.build_us_per_elem": build_s / elems * 1e6 if elems else 0.0,
        "gf_core.towers_built": counts["towers_built"],
        "gf_core.cache_hits": counts["cache_hits"],
    }


def _ns_per_op(fn, args, repeats=3):
    clock = time.perf_counter
    runs = []
    for _ in range(repeats):
        t0 = clock()
        for a in args:
            fn(*a)
        runs.append(clock() - t0)
    return statistics.median(runs) / len(args) * 1e9


def primitive_ns(towers, seed, ops=4000):
    """ns per add, mul and inv (char 2 and odd char apart), frob and trace,
    averaged over the given towers with seeded nonzero operands and scaled
    by the pace of the machine during the probe."""
    per = {f"{op}_ns.{kind}": [] for op in ("add", "mul", "inv") for kind in ("char2", "odd")}
    frob, trace = [], []
    pace = Pace()
    for tower in towers:
        if tower.size < 3:
            continue
        pace.maybe_measure()
        rng = random.Random(f"perfbench:probe:{tower.field_spec}:{seed}")
        pairs = [(rng.randrange(1, tower.size), rng.randrange(1, tower.size))
                 for _ in range(ops)]
        singles = [(a,) for a, _ in pairs]
        kind = "char2" if tower.p == 2 else "odd"
        top = tower.top
        per[f"add_ns.{kind}"].append(_ns_per_op(top.add, pairs))
        per[f"mul_ns.{kind}"].append(_ns_per_op(top.mul, pairs))
        per[f"inv_ns.{kind}"].append(_ns_per_op(top.inv, singles))
        frob.append(_ns_per_op(tower.frob_enc, singles))
        trace.append(_ns_per_op(tower.trace_enc, singles))

    pace.measure()
    scale = pace.scale()

    def mean(xs):
        return statistics.fmean(xs) * scale if xs else 0.0

    out = {f"gf_core.{key}": mean(xs) for key, xs in per.items()}
    out["gf_core.frob_ns"] = mean(frob)
    out["gf_core.trace_ns"] = mean(trace)
    return out
