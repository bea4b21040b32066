"""Command line front end.

Every element crosses this boundary as its canonical integer encoding;
--pretty adds rendered polynomials next to the raw numbers.  All output
is JSON on stdout (sorted keys, two-space indent), so identical argv and
seed give byte-identical bytes.  Library errors surface as a JSON object
on stderr with exit code 2; a failing assertive suite exits 1.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import verify
from ._pool import _check_workers, map_ordered
from .bivariate import (
    build_f2,
    build_f3,
    build_f3_kernel,
    conjugate_factor_search,
    count_offdiag_points,
    weil_holds,
    weil_threshold,
)
from .errors import PermRFError, UsageError
from .gf_core import make_tower
from .linmaps import LinearizedPoly, matrix_of, rank_kernel_image
from .ratfunc import (
    RatFuncSpec,
    classify_c,
    closed_form_c,
    is_permutation_direct,
    is_permutation_reduced,
    normalize_spec,
    pairwise_criterion,
)

_FIELD_RE = re.compile(r"^(\d+)(?:\^(\d+))?:(\d+)$")

# Every suite's modes, for the --mode help.
_MODES = "; ".join(f"{name}: {'|'.join(suite.modes)}"
                   for name, suite in sorted(verify.SUITES.items())
                   if suite.modes)


def parse_field_spec(text):
    """'p^m:n' or 'p:n' into (p, m, n)."""
    match = _FIELD_RE.match(text)
    if not match:
        raise UsageError(
            f"field spec {text!r} is not of the form p^m:n or p:n")
    p = int(match.group(1))
    m = int(match.group(2)) if match.group(2) else 1
    n = int(match.group(3))
    return p, m, n


def _parse_coeffs(text, what):
    """The ints of a comma-separated flag, or None for an absent one; a
    flag given as "" is refused, not taken as absent."""
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list "
                         f"of integers, not {text!r}") from None


def _tower_for(args):
    """The tower named by the --field and modulus flags."""
    p, m, n = parse_field_spec(args.field)
    g = _parse_coeffs(args.modulus_g, "--modulus-g")
    h = _parse_coeffs(args.modulus_h, "--modulus-h")
    return make_tower(p, m, n, g, h, args.budget)


def _with_pretty(tower, payload, keys):
    for key in keys:
        enc = payload.get(key)
        if isinstance(enc, int):
            payload[key + "_pretty"] = tower.pretty_enc(enc)
    return payload


def _cmd_field(args):
    tower = _tower_for(args)
    payload = {
        "command": "field",
        "field": tower.field_spec,
        "p": tower.p,
        "m": tower.m,
        "n": tower.n,
        "q": tower.q,
        "size": tower.size,
        "mid_modulus": list(tower.mid.modulus),
        "top_modulus": list(tower.top.modulus),
        "frobenius_matrix": matrix_of(LinearizedPoly(tower, (0, 1))),
        "generator": tower.top.generator,
    }
    if args.pretty:
        _with_pretty(tower, payload, ("generator",))
    return payload, 0


def _cmd_check(args):
    tower = _tower_for(args)
    coeffs = _parse_coeffs(args.L, "--L")
    L = None if coeffs is None else LinearizedPoly(tower, coeffs)
    spec = RatFuncSpec(tower, args.b, args.c, L)
    given_coeffs = None if L is None else list(spec.L.coeffs)
    witness = None
    normalized_c = None
    if args.method == "direct":
        verdict = is_permutation_direct(spec)
    else:
        if not spec.L.is_identity:
            rank, _, _ = rank_kernel_image(spec.L)
            if rank < tower.n:
                raise UsageError(
                    "reduced and pairwise need invertible L; rank is "
                    f"{rank} of {tower.n}.  Use --method direct.")
            spec, _ = normalize_spec(spec)
            normalized_c = spec.c
        if args.method == "reduced":
            verdict = is_permutation_reduced(tower, spec.b, spec.c)
        else:
            result = pairwise_criterion(tower, spec.b, spec.c)
            verdict = result.ok
            witness = None if result.witness is None else list(result.witness)
    payload = {
        "command": "check",
        "field": tower.field_spec,
        "b": args.b,
        "c": args.c,
        "L": given_coeffs,
        "method": args.method,
        "verdict": verdict,
        "witness": witness,
        "normalized_c": normalized_c,
    }
    if args.pretty:
        _with_pretty(tower, payload, ("b", "c", "normalized_c"))
    return payload, 0


def _classify_one(job):
    tower, b, pretty = job
    permuting = classify_c(tower, b)
    try:
        closed = closed_form_c(tower, b)
    except PermRFError:
        closed = None
    entry = {
        "b": b,
        "permuting_c": permuting,
        "closed_form_c": closed,
        "matches_closed_form": permuting == [closed],
    }
    if pretty:
        _with_pretty(tower, entry, ("b", "closed_form_c"))
    return entry


def _cmd_classify(args):
    if args.all_b == (args.b is not None):
        raise UsageError("classify takes one of --b and --all-b")
    tower = _tower_for(args)
    bs = list(range(tower.q, tower.size)) if args.all_b else [args.b]
    results = map_ordered(
        _classify_one, [(tower, b, args.pretty) for b in bs], args.workers)
    payload = {
        "command": "classify",
        "field": tower.field_spec,
        "method": "pairwise",
        "results": results,
    }
    return payload, 0


def _cmd_factor(args):
    tower = _tower_for(args)
    build = {2: build_f2, 3: build_f3}.get(tower.n)
    if build is None:
        raise UsageError("factor curves exist for degree 2 and 3 towers only")
    curve = build(tower, args.b, args.c)
    found = conjugate_factor_search(curve)
    payload = {
        "command": "factor",
        "field": tower.field_spec,
        "b": args.b,
        "c": args.c,
        "which": "f2" if tower.n == 2 else "f3",
        "found": found is not None,
        "beta": None if found is None else found[0],
        "gamma": None if found is None else found[1],
        "delta": None if found is None else found[2],
    }
    if args.pretty:
        _with_pretty(tower, payload, ("b", "c", "beta", "gamma", "delta"))
    return payload, 0


def _cmd_points(args):
    tower = _tower_for(args)
    builders = {
        "f2": build_f2,
        "f3": build_f3,
        "f3kernel": build_f3_kernel,
    }
    curve = builders[args.which](tower, args.b, args.c)
    payload = {
        "command": "points",
        "field": tower.field_spec,
        "b": args.b,
        "c": args.c,
        "which": args.which,
        "bidegree": list(curve.bidegree),
        "symmetric": curve.is_symmetric(),
        "offdiag_zeros": count_offdiag_points(curve),
        "grid": [list(row) for row in curve.grid],
    }
    if args.pretty:
        _with_pretty(tower, payload, ("b", "c"))
        payload["curve_pretty"] = curve.pretty()
    return payload, 0


def _cmd_weil(args):
    payload = {
        "command": "weil",
        "degree": args.degree,
        "threshold_sqrt_q": weil_threshold(args.degree),
        "q": args.q,
        "holds": None if args.q is None else weil_holds(args.q, args.degree),
    }
    return payload, 0


def _cmd_verify(args):
    qs = _parse_coeffs(args.q, "--q")
    if args.suite == "all":
        if qs is not None:
            raise UsageError("--suite all runs fixed defaults; drop --q")
        if args.mode is not None:
            raise UsageError("--suite all runs fixed defaults; drop --mode")
        reports = verify.run_battery(seed=args.seed, workers=args.workers,
                                     size_budget=args.budget,
                                     samples=args.samples)
    else:
        reports = verify.run_suite(args.suite, qs, seed=args.seed,
                                   workers=args.workers,
                                   size_budget=args.budget,
                                   mode=args.mode, samples=args.samples)
    text = verify.reports_to_json(reports, include_elapsed=args.timings)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(verify.reports_to_csv(reports))
    failed = any(r.assertive and r.verdict == "fail" for r in reports)
    return text, 1 if failed else 0


def _enc_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer encoding, got {text!r}") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="permrf",
        description="Exact tower-field arithmetic and batch verification "
                    "for trace-quotient permutation rational functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, field=True):
        if field:
            sp.add_argument("--field", required=True,
                            help="tower as p^m:n (or p:n for m=1)")
            sp.add_argument("--modulus-g", default=None,
                            help="middle modulus coefficients, low to high")
            sp.add_argument("--modulus-h", default=None,
                            help="top modulus coefficients, low to high")
            sp.add_argument("--pretty", action="store_true",
                            help="add rendered polynomials to the output")
        sp.add_argument("--budget", type=int, default=None,
                        help="largest allowed field size (default: 2^24)")
        sp.add_argument("--seed", type=int, default=0,
                        help="sampling seed for verify (others ignore it)")
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="processes for verify and classify --all-b "
                             "(default: the CPU count)")

    sp = sub.add_parser("field", help="describe a tower")
    common(sp)
    sp.set_defaults(fn=_cmd_field)

    sp = sub.add_parser("check", help="test one map for bijectivity")
    common(sp)
    sp.add_argument("--b", type=_enc_arg, required=True)
    sp.add_argument("--c", type=_enc_arg, required=True)
    sp.add_argument("--L", default=None,
                    help="linearized coefficients a0,a1,... for "
                         "a0*x + a1*x^q + ...")
    sp.add_argument("--method", choices=("direct", "reduced", "pairwise"),
                    default="direct")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("classify",
                        help="all permuting numerators c for given b")
    common(sp)
    sp.add_argument("--b", type=_enc_arg, default=None)
    sp.add_argument("--all-b", action="store_true",
                    help="sweep every b outside the base field")
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("factor",
                        help="search the curve for conjugate bilinear factors")
    common(sp)
    sp.add_argument("--b", type=_enc_arg, required=True)
    sp.add_argument("--c", type=_enc_arg, required=True)
    sp.set_defaults(fn=_cmd_factor)

    sp = sub.add_parser("points", help="curve grid and off-diagonal zeros")
    common(sp)
    sp.add_argument("--b", type=_enc_arg, required=True)
    sp.add_argument("--c", type=_enc_arg, required=True)
    sp.add_argument("--which", choices=("f2", "f3", "f3kernel"),
                    required=True)
    sp.set_defaults(fn=_cmd_points)

    sp = sub.add_parser("weil", help="exact point-count gate")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(fn=_cmd_weil)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, field=False)
    sp.add_argument("--suite", required=True,
                    choices=sorted(verify.SUITES) + ["all"])
    sp.add_argument("--q", default=None,
                    help="comma-separated prime powers (suite defaults "
                         "when omitted)")
    sp.add_argument("--mode", default=None,
                    help=f"suite-specific mode ({_MODES})")
    sp.add_argument("--samples", type=int, default=1000,
                    help="random sample count for lemma-equiv")
    sp.add_argument("--json", default=None, help="also write reports here")
    sp.add_argument("--csv", default=None,
                    help="also write the exception rows here")
    sp.add_argument("--timings", action="store_true",
                    help="include each report's elapsed, the seconds its "
                         "jobs took (breaks byte determinism)")
    sp.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser():
    """The parser main uses: built on main's first call, not at import,
    and kept for the process, so the suite names offered to --suite are
    those of verify.SUITES at that call.  Only a caller that runs main
    more than once per process saves anything; a console command runs
    it once."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if "workers" in args:
            _check_workers(args.workers)
        payload, code = args.fn(args)
    except PermRFError as err:
        json.dump({"error": type(err).__name__, "detail": str(err)},
                  sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    if isinstance(payload, str):
        sys.stdout.write(payload + "\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
