"""permrf benchmark: one workload per process, self-checking, JSON result last.

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; permrf is imported from ./src.  The
run has three parts, all in this one process with no worker pool:

1. Discovery: import permrf, make the inputs, run one round while recording
   every make_tower call.  Untimed; it also warms the interpreter.
2. Set-up, the workload's setup_reps times: drop every permrf module,
   import it afresh and replay the recorded make_tower calls on the empty
   cache.  setup_s is the median.
3. Rounds of the workload's fixed cases until --seconds have passed (at
   least MIN_ROUNDS).  Each case is timed apart; wall_s is the sum over
   cases of each case's median time.  The first round's results are
   checked, and every later round must return the same.

Every time is scaled by the pace of the machine while it was taken (see
pace.py); the unscaled figures go to the detail file.

With --trace 1 the run reports per-layer figures instead: the set-up is
replayed once under tracemalloc and once with the tracer installed, then
half the time runs untraced rounds and half traced ones.

The last line of stdout is the result object; details go to stderr and to
perfbench/out/.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from types import SimpleNamespace

import tracing
import workloads
from pace import Pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

MIN_ROUNDS = 3
MODULES = ("gf_core", "linmaps", "ratfunc", "bivariate", "verify", "cli")


def purge():
    """Forget every permrf module, so the next import starts cold."""
    for name in [n for n in sys.modules if n == "permrf" or n.startswith("permrf.")]:
        del sys.modules[name]
    gc.collect()


def import_permrf():
    importlib.import_module("permrf")
    return SimpleNamespace(**{m: importlib.import_module(f"permrf.{m}") for m in MODULES})


def discover(wl):
    """Every distinct make_tower call (args, kwargs) made while preparing the
    inputs and running one round, in first-call order."""
    purge()
    pm = import_permrf()
    original = pm.gf_core.make_tower
    keys = {}

    def recorder(*args, **kwargs):
        keys.setdefault((args, tuple(sorted(kwargs.items()))), None)
        return original(*args, **kwargs)

    patched = tracing.patch_permrf({id(original): (original, recorder)})
    try:
        ops = workloads.Ops()
        for case in wl.prepare(pm):
            wl.run_case(pm, case, ops)
    finally:
        tracing.unpatch(patched)
    return list(keys)


def replay(pm, keys, pace=None):
    """Call make_tower once per recorded key; with a Pace, gauge the machine
    between calls and return the seconds spent in make_tower alone."""
    make = pm.gf_core.make_tower
    spent = 0.0
    for args, kwargs in keys:
        if pace is not None:
            pace.maybe_measure()
        t0 = time.perf_counter()
        make(*args, **dict(kwargs))
        spent += time.perf_counter() - t0
    return spent


def cold_setup(keys):
    """One cold set-up; returns the modules and its scaled and raw seconds."""
    purge()
    pace = Pace()
    pace.measure()
    t0 = time.perf_counter()
    pm = import_permrf()
    dt = time.perf_counter() - t0 + replay(pm, keys, pace)
    pace.measure()
    return pm, dt * pace.scale(), dt


def run_rounds(wl, pm, cases, seconds, min_rounds=MIN_ROUNDS, after_round=None):
    """Rounds of every case until `seconds` have passed.  Each case is timed
    on its own and scaled by the pace measured just before and just after
    it; `wall` is the sum over cases of each case's median scaled time,
    which keeps a burst of load on the machine from moving the figure
    unless it covers most rounds of a case.  `raw_wall` is the same sum
    without scaling.  after_round, if given, is called with each round's
    scale (from the median pace of the round)."""
    clock = time.perf_counter
    case_times = [[] for _ in cases]
    scaled_times = [[] for _ in cases]
    scales, totals, first, mismatched = [], [], None, 0
    ops = workloads.Ops()
    deadline = clock() + seconds
    while len(totals) < min_rounds or clock() < deadline:
        gc.collect()
        pace = Pace()
        out, marks = [], []
        for case, times in zip(cases, case_times):
            pace.maybe_measure()
            marks.append(len(pace.samples) - 1)
            t0 = clock()
            out.append(wl.run_case(pm, case, ops))
            times.append(clock() - t0)
        pace.measure()
        for mark, times, scaled in zip(marks, case_times, scaled_times):
            scaled.append(times[-1] * pace.scale(mark))
        scales.append(pace.scale())
        if after_round is not None:
            after_round(scales[-1])
        totals.append(sum(times[-1] for times in case_times))
        if first is None:
            first = out
        elif out != first:
            mismatched += 1
    wall = sum(statistics.median(scaled) for scaled in scaled_times)
    raw_wall = sum(statistics.median(times) for times in case_times)
    return SimpleNamespace(wall=wall, raw_wall=raw_wall, totals=totals, scales=scales,
                           case_times=case_times, first=first, mismatched=mismatched,
                           attempted=ops.attempted, failed=ops.failed)


def timed_run(wl, keys, seconds):
    setups, raw_setups = [], []
    for _ in range(wl.setup_reps):
        pm, dt, raw = cold_setup(keys)
        setups.append(dt)
        raw_setups.append(raw)
    cases = wl.prepare(pm)
    rounds = run_rounds(wl, pm, cases, seconds)
    metrics = {
        "wall_s": (rounds.wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"raw_wall_s": rounds.raw_wall, "raw_setup_s": statistics.median(raw_setups),
              "setup_s": setups, "raw_setup_reps_s": raw_setups,
              "round_s": rounds.totals, "round_scale": rounds.scales,
              "case_s": rounds.case_times}
    return cases, rounds, metrics, detail


def traced_run(wl, keys, seconds, seed):
    purge()
    tracemalloc.start()
    pm = import_permrf()
    base = tracemalloc.get_traced_memory()[0]
    replay(pm, keys)
    table_bytes = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()

    purge()
    pm = import_permrf()
    tracer = tracing.Tracer(pm)
    tracer.install()
    pace = Pace()
    pace.measure()
    replay(pm, keys, pace)
    pace.measure()
    tracer.uninstall()
    towers = tracer.towers()
    elems = sum(t.size for t in towers)
    cases = wl.prepare(pm)
    plain = run_rounds(wl, pm, cases, seconds / 2)
    tracer.install()
    first = run_rounds(wl, pm, cases, 0, min_rounds=1)
    build = tracing.build_metrics(tracer.counts, pace.scale())
    snapshots, scales = [tracer.snapshot()], []

    def keep(scale):
        snapshots.append(tracer.snapshot())
        scales.append(scale)

    traced = run_rounds(wl, pm, cases, seconds / 2 - first.totals[0], min_rounds=2,
                        after_round=keep)
    tracer.uninstall()

    values = dict(build)
    values["gf_core.table_bytes_per_elem"] = table_bytes / elems if elems else 0.0
    values.update(tracing.primitive_ns(list({t.field_spec: t for t in towers}.values()), seed))
    values.update(tracing.layer_metrics(snapshots, scales))
    values["trace.overhead_s"] = traced.wall - plain.wall
    metrics = {k: (values[k], unit) for k, unit in tracing.PER_LAYER_UNITS.items()}
    runs = (plain, first, traced)
    rounds = SimpleNamespace(
        totals=[t for r in runs for t in r.totals], first=plain.first,
        mismatched=sum(r.mismatched + (r.first != plain.first) for r in runs),
        attempted=sum(r.attempted for r in runs), failed=sum(r.failed for r in runs))
    detail = {"untraced_round_s": plain.totals, "untraced_wall_s": plain.wall,
              "untraced_raw_wall_s": plain.raw_wall,
              "traced_round_s": first.totals + traced.totals, "traced_wall_s": traced.wall,
              "traced_raw_wall_s": traced.raw_wall,
              "spans": {k: [s.inclusive, s.self_time, s.calls]
                        for k, s in tracer.spans.items()}}
    return cases, rounds, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permrf", "__init__.py")):
        print(f"perfbench: no permrf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR)

    keys = discover(wl)
    if args.trace:
        cases, rounds, metrics, detail = traced_run(wl, keys, args.seconds, args.seed)
    else:
        cases, rounds, metrics, detail = timed_run(wl, keys, args.seconds)

    problems = wl.check(cases, rounds.first)
    if rounds.mismatched:
        problems.append(f"{rounds.mismatched} rounds returned other results than the first")
    for line in problems[:20]:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(rounds.totals),
                  towers=[repr(k) for k in keys],
                  problems=problems, result=result)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds.totals)} rounds, "
          f"median round {statistics.median(rounds.totals):.4f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
