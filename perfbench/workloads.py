"""The three workloads: inputs from the seed, one round of work, output checks.

prepare() makes the list of cases from the seed and the towers (untimed).
A round runs every case once through run_case(), which calls the program
through the module namespace it is given, so the tracer's wrappers apply
when they are installed; every round makes the same calls.  check() returns
the problems found in one round's results, judged against properties the
mathematics guarantees or against the benchmark's own arithmetic, never
against saved output.
"""

import contextlib
import csv
import io
import json
import os
import random
import traceback
from collections import Counter


class Ops:
    """Calls one program operation at a time, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            if not self.failed:
                traceback.print_exc()
            self.failed += 1
            return None


def closed_form(tower, b, d):
    """The paper's numerator for b in F_{q^d}, from top-field powers only:
    (b^q - b)^(q+1) for d = 2 and -(b^q - b)^(q^2+1) for d = 3."""
    top, q = tower.top, tower.q
    w = top.sub(top.pow(b, q), b)
    if d == 2:
        return top.pow(w, q + 1)
    return top.neg(top.pow(w, q * q + 1))


def _rng(workload, seed, *parts):
    return random.Random(":".join(["perfbench", workload, str(seed)] + [str(p) for p in parts]))


# Polynomials over F_p, low coefficient first, for recomputing Frobenius
# images and traces on towers with q = p.

def _poly_of(enc, p, n):
    out = []
    for _ in range(n):
        enc, r = divmod(enc, p)
        out.append(r)
    return out


def _enc_of(poly, p):
    enc = 0
    for c in reversed(poly):
        enc = enc * p + c
    return enc


def _mulmod(f, g, h, p):
    n = len(h) - 1
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
    for k in range(len(prod) - 1, n - 1, -1):
        lead = prod[k]
        if lead:
            for i in range(n + 1):
                prod[k - n + i] = (prod[k - n + i] - lead * h[i]) % p
    return prod[:n]


def _powmod(f, e, h, p):
    result = [1] + [0] * (len(h) - 2)
    while e:
        if e & 1:
            result = _mulmod(result, f, h, p)
        f = _mulmod(f, f, h, p)
        e >>= 1
    return result


# pair-sweep --------------------------------------------------------------

class PairSweep:
    """Every pair criterion over every c for seeded b on small towers."""

    name = "pair-sweep"
    setup_reps = 10
    # (p, m, n) -> how many b the seed picks; every c is swept for each b.
    TOWERS = {(2, 3, 3): 12, (2, 4, 2): 12, (7, 1, 3): 12, (13, 1, 2): 12,
              (3, 2, 3): 8}
    DIRECT_RANDOM_C = 2

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, pm):
        cases = []
        for (p, m, n), count in self.TOWERS.items():
            tower = pm.gf_core.make_tower(p, m, n)
            rng = _rng(self.name, self.seed, p, m, n)
            for b in sorted(rng.sample(range(tower.q, tower.size), count)):
                closed = closed_form(tower, b, n)
                direct_cs = [closed] + [rng.randrange(1, tower.size)
                                        for _ in range(self.DIRECT_RANDOM_C)]
                cases.append((tower, b, closed, tuple(direct_cs)))
        return cases

    def run_case(self, pm, case, op):
        tower, b, _, direct_cs = case
        rf = pm.ratfunc
        kernel, pairwise = rf.kernel_criterion, rf.pairwise_criterion
        cs = range(1, tower.size)
        classified = op(rf.classify_c, tower, b)
        kern = [op(kernel, tower, b, c) for c in cs]
        pair = [op(pairwise, tower, b, c) for c in cs]
        verdicts = [op(rf.is_permutation_direct, rf.RatFuncSpec(tower, b, c))
                    for c in direct_cs]
        return (None if classified is None else tuple(classified),
                tuple(None if r is None else r.exists for r in kern),
                tuple(None if r is None else r.ok for r in pair),
                tuple(verdicts))

    def check(self, cases, results):
        problems = []
        for case, result in zip(cases, results):
            tower, b, closed, direct_cs = case
            classified, kern, pair, verdicts = result
            where = f"{tower.field_spec} b={b}"
            if None in pair:
                continue
            permuting = [c for c, ok in zip(range(1, tower.size), pair) if ok]
            if classified is not None and list(classified) != permuting:
                problems.append(f"{where}: classify_c and the pairwise sweep differ")
            if tower.n == 2:
                if permuting != [closed]:
                    problems.append(f"{where}: permuting c {permuting[:4]} is not "
                                    f"exactly the closed form {closed}")
                if len(permuting) != 1 or permuting[0] >= tower.q:
                    problems.append(f"{where}: the permuting c is not one element of F_q")
                if tower.q > 3 and not all(e for e in kern if e is not None):
                    problems.append(f"{where}: some c has no zero-trace pair")
            elif closed not in permuting:
                problems.append(f"{where}: closed form {closed} does not permute")
            for c, verdict in zip(direct_cs, verdicts):
                if verdict is not None and verdict != (c in permuting):
                    problems.append(f"{where} c={c}: direct evaluation disagrees")
        return problems


# field-scan --------------------------------------------------------------

class FieldScan:
    """Cold builds of large towers, then whole-field scans that never exit early."""

    name = "field-scan"
    setup_reps = 3
    # (p, m, n, d): b lies in F_{q^d} \ F_q; d < n lifts c through the
    # relative trace onto the closed form, d = n uses the closed form itself.
    TOWERS = ((2, 1, 15, 3), (2, 8, 2, 2), (2, 5, 3, 3), (3, 5, 2, 2),
              (37, 1, 3, 3))
    SAMPLE = 300

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, pm):
        cases = []
        for p, m, n, d in self.TOWERS:
            tower = pm.gf_core.make_tower(p, m, n)
            top, q, size = tower.top, tower.q, tower.size
            rng = _rng(self.name, self.seed, p, m, n)
            if d == n:
                b = rng.randrange(q, size)
                c = closed_form(tower, b, n)
            else:
                # b = h^k for h of order q^d - 1 lies in F_{q^d}; keep it off F_q.
                h = top.pow(top.generator, (size - 1) // (q ** d - 1))
                b = 0
                while b < q:
                    b = top.pow(h, rng.randrange(1, q ** d - 1))
                c0 = closed_form(tower, b, d)
                c = 0
                while c == 0:
                    y = rng.randrange(1, size)
                    c = top.add(c0, top.sub(top.pow(y, q ** d), y))
            # L = a x^(q^k) has L^{-1}(x) = (x/a)^(q^(n-k)), so Tr(L^{-1}(x))
            # = Tr(x/a) and the numerator a*c normalizes back to c.
            a = rng.randrange(1, size)
            k = rng.randrange(1, n)
            coeffs = tuple(a if i == k else 0 for i in range(k + 1))
            lin = pm.linmaps.LinearizedPoly(tower, coeffs)
            cases.append((tower, b, c, lin, top.mul(a, c)))
        return cases

    def run_case(self, pm, case, op):
        tower, b, c, lin, lc = case
        rf = pm.ratfunc
        ident = op(rf.is_permutation_direct, rf.RatFuncSpec(tower, b, c))
        twisted = rf.RatFuncSpec(tower, b, lc, lin)
        scanned = op(rf.is_permutation_direct, twisted)
        norm = op(rf.normalize_spec, twisted)
        reduced = op(rf.is_permutation_reduced, tower, b, c)
        pair = op(rf.pairwise_criterion, tower, b, c)
        return (ident, scanned, None if norm is None else (norm[0].b, norm[0].c),
                reduced, None if pair is None else pair.ok)

    def check(self, cases, results):
        problems = []
        for (tower, b, c, _, _), (ident, scanned, norm, reduced, pair) in zip(cases, results):
            where = f"{tower.field_spec} b={b} c={c}"
            for label, verdict in (("direct", ident), ("direct with L", scanned),
                                   ("reduced", reduced), ("pairwise", pair)):
                if verdict is False:
                    problems.append(f"{where}: {label} says a proven permutation is not one")
            if norm is not None and norm != (b, c):
                problems.append(f"{where}: L normalizes to {norm}, not (b, c)")
            problems.extend(self._check_tables(tower))
        return problems

    def _check_tables(self, tower):
        problems = []
        top, q, n, size = tower.top, tower.q, tower.n, tower.size
        frob, trace = tower.frob_table, tower.trace_table
        name = tower.field_spec
        if sorted(frob) != list(range(size)):
            problems.append(f"{name}: Frobenius table is not a permutation")
        images = list(range(size))
        for _ in range(n):
            images = [frob[x] for x in images]
        if images != list(range(size)):
            problems.append(f"{name}: Frobenius to the n-th power is not the identity")
        if [x for x in range(size) if frob[x] == x] != list(range(q)):
            problems.append(f"{name}: Frobenius fixed points are not F_q")
        rng = _rng(self.name, self.seed, "tables", name)
        for _ in range(self.SAMPLE):
            x, y = rng.randrange(size), rng.randrange(size)
            if (frob[top.add(x, y)] != top.add(frob[x], frob[y])
                    or frob[top.mul(x, y)] != top.mul(frob[x], frob[y])):
                problems.append(f"{name}: Frobenius is not a ring map at {x}, {y}")
                break
        counts = Counter(trace)
        if set(counts) != set(range(q)) or set(counts.values()) != {q ** (n - 1)}:
            problems.append(f"{name}: trace values are not q^(n-1) copies of F_q")
        seen = bytearray(size)
        acc, gen = 1, top.generator
        for _ in range(size - 1):
            seen[acc] += 1
            acc = top.mul(acc, gen)
        if acc != 1 or seen[0] or seen.count(1) != size - 1:
            problems.append(f"{name}: generator powers miss or repeat an element")
        if tower.m == 1:
            p, h = tower.p, list(tower.top.modulus)
            for _ in range(self.SAMPLE):
                x = rng.randrange(size)
                poly = _poly_of(x, p, n)
                conj = _powmod(poly, p, h, p)
                if _enc_of(conj, p) != frob[x]:
                    problems.append(f"{name}: Frobenius image of {x} is wrong")
                    break
                total, t = list(poly), conj
                for _ in range(n - 1):
                    total = [(u + v) % p for u, v in zip(total, t)]
                    t = _powmod(t, p, h, p)
                if any(total[1:]) or total[0] != trace[x]:
                    problems.append(f"{name}: trace of {x} is wrong")
                    break
        return problems


# suite-cli ---------------------------------------------------------------

SAMPLES = 30
EQUIV_EXHAUSTIVE = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3))


def expected_cases(report):
    """Cases a suite report must count, from the field sizes alone."""
    suite, q, n, mode = report["suite"], report["q"], report["n"], report["mode"]
    nonbase = q ** n - q
    if suite == "theorem-n2":
        return nonbase if mode == "classify" else 101 * nonbase
    if suite in ("theorem-n3", "lemma-basis", "remark3"):
        return nonbase
    if suite == "proposition":
        return nonbase * (q ** n - 1) + 20
    if suite == "factorizations":
        if n == 2:
            return nonbase * (1 + (q * q - 2 if q <= 4 else 0))
        return nonbase * (2 if q <= 3 else 1)
    if suite == "corollary":
        return sum((q ** d - q) * q ** (n - d) for d in (2, 3) if n % d == 0)
    if suite == "lemma-equiv":
        return SAMPLES + sum((p ** (m * k) - p ** m) * (p ** (m * k) - 1)
                             for p, m, k in EQUIV_EXHAUSTIVE)
    return None


def expected_reports(suite, qs):
    """The (q, n) of every report a suite run over qs must return."""
    if suite == "lemma-equiv":
        return [(0, 0)]
    degrees = {"theorem-n2": (2,), "proposition": (2, 3), "factorizations": (2, 3),
               "corollary": (4, 6)}.get(suite, (3,))
    budget = 1 << 24
    out = []
    for q in qs:
        for n in degrees:
            if suite == "factorizations" and q ** (3 * n) > budget:
                continue
            if suite == "corollary" and q ** n > budget:
                continue
            out.append((q, n))
    return out


class SuiteCli:
    """A fixed list of permrf commands through permrf.cli.main at --workers 1."""

    name = "suite-cli"
    setup_reps = 4
    VERIFY = (
        ("theorem-n2", "3,4,5,7", "classify"),
        ("theorem-n2", "7", "spot"),
        ("theorem-n3", "2,3,4", "sufficiency"),
        ("theorem-n3", "2,3", "full-classify"),
        ("lemma-equiv", None, None),
        ("lemma-basis", "3,4,5", None),
        ("proposition", "4,5", None),
        ("factorizations", "2,3,4", None),
        ("remark3", "3,5,7", None),
        ("corollary", "2", None),
    )

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.csv_path = os.path.join(out_dir, "suite-cli-exceptions.csv")

    def prepare(self, pm):
        rng = _rng(self.name, self.seed)
        common = ["--workers", "1", "--seed", str(self.seed)]
        cmds = []
        for suite, qs, mode in self.VERIFY:
            # lemma-equiv's seed picks which towers up to 2^12 it samples, and
            # so how much set-up builds; a fixed seed keeps set-up and memory
            # the same in every run.
            seed = "0" if suite == "lemma-equiv" else str(self.seed)
            argv = ["verify", "--suite", suite, "--workers", "1", "--seed", seed]
            if qs is not None:
                argv += ["--q", qs]
            if mode is not None:
                argv += ["--mode", mode]
            if suite == "lemma-equiv":
                argv += ["--samples", str(SAMPLES)]
            if mode == "full-classify":
                argv += ["--csv", self.csv_path]
            cmds.append((argv, None))
        for field in ("2^2:2", "3:3"):
            cmds.append((["classify", "--field", field, "--all-b"] + common, None))

        def pick(p, m, n):
            tower = pm.gf_core.make_tower(p, m, n)
            b = rng.randrange(tower.q, tower.size)
            return tower, b, closed_form(tower, b, n)

        tower, b, c = pick(5, 1, 2)
        cmds.append((["factor", "--field", "5:2", "--b", str(b), "--c", str(c)] + common,
                     None))
        tower, b, c = pick(5, 1, 3)
        cmds.append((["points", "--field", "5:3", "--b", str(b), "--c", str(c),
                      "--which", "f3"] + common, None))
        tower, b, c = pick(3, 2, 2)
        a = rng.randrange(1, tower.size)
        cmds.append((["check", "--field", "3^2:2", "--b", str(b),
                      "--c", str(tower.top.mul(a, c)), "--L", f"0,{a}",
                      "--method", "pairwise"] + common, c))
        cmds.append((["field", "--field", "2^3:3"] + common, None))
        return cmds

    def run_case(self, pm, case, op):
        argv, _ = case
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = op(pm.cli.main, argv)
        return code, buf.getvalue()

    def check(self, cmds, results):
        import jsonschema

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "docs", "report_schema.json")) as fh:
            validator = jsonschema.Draft7Validator(json.load(fh))
        problems = []
        csv_rows = None
        for (argv, want_c), (code, text) in zip(cmds, results):
            where = " ".join(argv[:3])
            if code is None:
                continue
            if code != 0:
                problems.append(f"{where}: exit code {code}")
                continue
            payload = json.loads(text)
            for err in validator.iter_errors(payload):
                problems.append(f"{where}: schema: {err.message}")
                break
            if argv[0] == "verify":
                suite = argv[2]
                qs = []
                if "--q" in argv:
                    qs = [int(x) for x in argv[argv.index("--q") + 1].split(",")]
                got = [(r["q"], r["n"]) for r in payload]
                if got != expected_reports(suite, qs):
                    problems.append(f"{where}: reports for (q, n) = {got}, expected "
                                    f"{expected_reports(suite, qs)}")
                for r in payload:
                    if r["assertive"] and r["verdict"] != "pass":
                        problems.append(f"{where} q={r['q']} n={r['n']}: verdict {r['verdict']}")
                    if r["assertive"] and r["cases_passed"] != r["cases_total"]:
                        problems.append(f"{where} q={r['q']}: {r['cases_passed']} of "
                                        f"{r['cases_total']} passed")
                    want = expected_cases(r)
                    if want != r["cases_total"]:
                        problems.append(f"{where} q={r['q']} n={r['n']}: "
                                        f"{r['cases_total']} cases, expected {want}")
                if "--csv" in argv:
                    with open(argv[argv.index("--csv") + 1], newline="") as fh:
                        csv_rows = list(csv.reader(fh))
                    exceptions = sum(len(r["exceptions"]) for r in payload)
                    if len(csv_rows) != exceptions + 1:
                        problems.append(f"{where}: {len(csv_rows) - 1} CSV rows for "
                                        f"{exceptions} exceptions")
            elif argv[0] == "classify":
                n = int(argv[2].split(":")[1])
                for entry in payload["results"]:
                    ok = (entry["matches_closed_form"] if n == 2
                          else entry["closed_form_c"] in entry["permuting_c"])
                    if not ok:
                        problems.append(f"{where} b={entry['b']}: closed form check failed")
            elif argv[0] == "factor":
                if not payload["found"]:
                    problems.append(f"{where}: no factorization at the closed form")
            elif argv[0] == "points":
                if payload["offdiag_zeros"] != 0 or not payload["symmetric"]:
                    problems.append(f"{where}: the permuting closed form has "
                                    f"{payload['offdiag_zeros']} off-diagonal zeros")
            elif argv[0] == "check":
                if payload["verdict"] is not True or payload["normalized_c"] != want_c:
                    problems.append(f"{where}: verdict {payload['verdict']}, normalized "
                                    f"c {payload['normalized_c']} (expected {want_c})")
            elif argv[0] == "field":
                p, q, n = payload["p"], payload["q"], payload["n"]
                if (q != p ** payload["m"] or payload["size"] != q ** n
                        or len(payload["frobenius_matrix"]) != n):
                    problems.append(f"{where}: inconsistent field parameters")
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        return problems


def make(name, seed, out_dir):
    if name == "suite-cli":
        return SuiteCli(seed, out_dir)
    return {"pair-sweep": PairSweep, "field-scan": FieldScan}[name](seed)


NAMES = ("pair-sweep", "field-scan", "suite-cli")
