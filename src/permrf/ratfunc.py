"""Permutation tests for x -> L(x) + c/(Tr(x) + b) on the top field.

b must lie outside F_q, which keeps the denominator Tr(x) + b away from
zero, and c must be nonzero; both are enforced when a RatFuncSpec is
built.  Elements cross this module as integer encodings.

Three tests decide whether the standard form (L = x) permutes:

  direct    evaluate everywhere and watch for a repeat,
  reduced   the induced map t -> t + Tr(c/(t + b)) on F_q is injective,
  pairwise  no pair x0 != y0 in F_q has Tr(c/((x0+b)(y0+b))) = 1.

They agree because f sends the fiber Tr(x) = t onto the fiber over the
reduced image of t, and the reduced map's difference at x0, y0 equals
(x0 - y0)(1 - Tr(c/((x0+b)(y0+b)))).

A general L routes by rank, through its adjoint L* (see linmaps).
Invertible L reduces to the standard form with numerator alpha*c, where
Tr(L^{-1}(x)) = Tr(alpha*x), that is alpha = (L^{-1})*(1).  Rank n-1
permutes exactly when the kernel generator has nonzero trace and no pair
x0 != y0 has Tr(beta*c/((x0+b)(y0+b))) = 0, beta being the trace-form
annihilator of the image, which spans ker L*.  Rank below n-1 never
permutes: the image meets each of the q fibers in at most q^(rank) points.

The two pair tests share one scan in the log domain.  Sweeps hold b
fixed while c varies, so what depends on (tower, b) alone is kept in a
one-entry memo: b is checked once, when the memo is built; the q values
log(1/(x0+b)) are read once; and row x0 of the scan, log(1/(x0+b)) with
the logs after it, is sliced the first time a scan reaches it.  The rows
hold at most q(q-1)/2 references: 0.26 MB at q = 256, about 67 MB at
q = 4096, the largest q the default budget admits.  A call then checks c
with one comparison, reads log c and scans, one exp lookup and one trace
lookup per pair.  The first pair it finds is the witness of
pairwise_criterion and kernel_criterion, which through them serve
is_permutation, `permrf check --method pairwise` and the per-case suite
checks.

classify_c, and the exhaustive proposition suite, want every c for one b
at once, and take a different route.  With d = 1/((x0+b)(y0+b)) the c
failing at one pair, those with Tr(c*d) = target, form a hyperplane, since
c -> Tr(c*d) is F_q-linear.  In the log domain it is the level set
{k : Tr(g^k) = target} rotated by log d, so the c with no such pair are
the complement of a union of rotations: one shift and OR of a (q^n - 1)-bit
int per pair, and none of the pair scan.  The two routes share only the
per-(tower, b) memo's b check and logarithms; classify_c never reads or
builds a row.  The direct and reduced tests do their own field
arithmetic and touch neither, so they stay independent checks of both.

Direct evaluation visits every element once, in ascending order.
c/(Tr(x) + b) depends on x only through Tr(x), so its q values are
computed first: q divisions, not q^n.  L is additive over the base-q
digits of an encoding, so x = hi + lo, with hi a multiple of
width = q^ceil(n/2) and lo < width, has L(x) = L(hi) + L(lo): one row of
L(lo) and one evaluation of L(hi) per block, about 2*sqrt(q^n)
evaluations in all; the identity is one block of width q^n, and its row
is the field itself.  Adding L(hi) to the q shifts once per block leaves
one addition per element.  Characteristic 2 adds by XOR.  Odd
characteristic adds on logarithms, log(u + w) = log u + zech[log w - log u]:
the shifts and the row are kept as logarithms, so an element costs one
Zech read and no call; a zero operand or zero sum is resolved from the
other operand's logarithm.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import NamedTuple, Optional

from .errors import (
    EvenCharacteristic,
    LevelMismatch,
    NotInSubfield,
    UnsupportedDegree,
    UsageError,
)
from .gf_core import (FieldTower, _check_b, _check_bc, _check_budget,
                      _check_enc, _check_tower, _tower_memos)
from .linmaps import LinearizedPoly, _adjoint, invert_lin, rank_kernel_image


@dataclass(frozen=True)
class RatFuncSpec:
    """The map x -> L(x) + c/(Tr(x) + b); L defaults to the identity."""

    tower: FieldTower = field(repr=False)
    b: int
    c: int
    # A string: typing caches an Optional it makes for the process, and
    # that would keep linmaps, gf_core and every cached tower alive
    # after the package's modules are dropped.
    L: "Optional[LinearizedPoly]" = None

    def __post_init__(self):
        _check_tower(self.tower)
        _check_bc(self.tower, self.b, self.c)
        if self.L is None:
            object.__setattr__(self, "L", LinearizedPoly.identity(self.tower))
        elif not isinstance(self.L, LinearizedPoly):
            raise UsageError(f"L must be a LinearizedPoly, not {self.L!r}")
        elif self.L.tower is not self.tower:
            raise LevelMismatch("L is built on another tower")


class Criterion(NamedTuple):
    ok: bool
    witness: Optional[tuple]


class KernelCriterion(NamedTuple):
    exists: bool
    witness: Optional[tuple]


def eval_rf(spec, x):
    tower = spec.tower
    _check_enc(tower, x, "x")
    top = tower.top
    den = top.add(tower.trace_table[x], spec.b)
    return top.add(spec.L.eval_enc(x), top.mul(spec.c, top.inv(den)))


def is_permutation_direct(spec):
    """Evaluate the map on every element; True when no value repeats,
    False at the first repeat.  The elements are visited in ascending
    order, in digit blocks of width q^ceil(n/2), or in one block of the
    whole field when L is the identity.  Characteristic 2 adds by XOR;
    odd characteristic adds in the log domain (see _scan_logs)."""
    tower = spec.tower
    if spec.L.is_identity:
        lin, width = None, tower.size
    else:
        lin, width = spec.L.eval_enc, tower.q ** -(-tower.n // 2)
    scan = _scan_xor if tower.p == 2 else _scan_logs
    return scan(spec, lin, width)


def _scan_xor(spec, lin, width):
    """The characteristic 2 scan: sums by XOR of encodings.  lin is None
    for the identity, whose row L(lo) is range(width)."""
    tower = spec.tower
    top, size = tower.top, tower.size
    shift = [top.mul(spec.c, top.inv(top.add(t, spec.b)))
             for t in range(tower.q)]
    row = range(width) if lin is None else [lin(lo) for lo in range(width)]
    traces = iter(tower.trace_table)
    seen = bytearray(size)
    block = shift  # L(0) = 0
    for hi in range(0, size, width):
        if hi:
            lhi = lin(hi)
            block = [lhi ^ s for s in shift]
        for lo, t in zip(row, traces):
            y = lo ^ block[t]
            if seen[y]:
                return False
            seen[y] = 1
    return True


def _scan_logs(spec, lin, width):
    """The odd-characteristic scan.  The shifts log(c/(t + b)) are
    log c - log b - zech[log t - log b] for t != 0, and t + b is never 0.
    The row of log L(lo) is the log table itself for the identity.  seen
    is indexed by the image's logarithm, slot size - 1 standing for 0."""
    tower = spec.tower
    top, size, q = tower.top, tower.size, tower.q
    log, zech = top._log, top._zech
    order = size - 1
    lb = log[spec.b]
    lcb = log[spec.c] - lb
    shift = [lcb % order] + [(lcb - zech[log[t] - lb]) % order
                             for t in range(1, q)]
    row = log if lin is None else [log[lin(lo)] for lo in range(width)]
    traces = iter(tower.trace_table)
    seen = bytearray(size)
    block = shift  # L(0) = 0
    for hi in range(0, size, width):
        if hi:
            lh = log[lin(hi)]
            block = shift if lh is None else [
                None if z is None else (lh + z) % order
                for z in [zech[s - lh] for s in shift]]
        # L(lo) = 0 at lo = 0, so the image there is the block entry.
        lt = block[next(traces)]
        j = order if lt is None else lt
        if seen[j]:
            return False
        seen[j] = 1
        for lo, t in zip(islice(row, 1, None), traces):
            try:
                j = (lo + zech[block[t] - lo]) % order
            except TypeError:
                # A None operand (log 0) or a zero sum.  With one operand
                # 0 the image is the other; with both 0, or a zero sum, 0.
                lt = block[t]
                j = order if (lo is None) == (lt is None) else (
                    lt if lo is None else lo)
            if seen[j]:
                return False
            seen[j] = 1
    return True


def reduced_map_eval(tower, b, c, t0):
    """t0 + Tr(c/(t0 + b)) for t0 in F_q; the induced map on traces."""
    top = tower.top
    w = top.mul(c, top.inv(top.add(t0, b)))
    return top.add(t0, tower.trace_table[w])


def is_permutation_reduced(tower, b, c):
    _check_bc(tower, b, c)
    seen = bytearray(tower.q)
    for t0 in range(tower.q):
        y = reduced_map_eval(tower, b, c, t0)
        if seen[y]:
            return False
        seen[y] = 1
    return True


@lru_cache(maxsize=1, typed=True)
def _pair_scan(tower, b):
    """The pair state for one (tower, b), after b is checked:
    (size, log, exp, trace, order, ilog, rows).

    ilog[x0] = log(1/(x0 + b)) for x0 = 0 .. q-1, read off the log table
    rather than computed as -log(x0 + b) mod (size - 1), so the entries
    are the table's own int objects: fresh ints made for every b
    fragmented the allocator and raised peak memory over long sweeps.
    rows[x0] stays None until a scan first reaches row x0 and sets it to
    (ilog[x0], ilog[x0 + 1:]).  Rows are addressed by x0, so interleaved
    scans neither skip nor repeat one; together they hold at most
    q(q-1)/2 references.  classify_c reads only ilog.  A failed check
    raises before anything is cached, so a hit implies a valid b.
    """
    _check_b(tower, b)
    top = tower.top
    log = top._log
    ilog = tuple(log[top.inv(top.add(x0, b))] for x0 in range(tower.q))
    return (tower.size, log, top._exp, tower.trace_table,
            tower.size - 1, ilog, [None] * (tower.q - 1))


def _first_pair(tower, b, c, target):
    """The first pair x0 < y0 in F_q, rows x0 ascending, with
    Tr(c/((x0+b)(y0+b))) == target; None when there is none.  b is
    checked before c."""
    size, log, exp, trace, order, ilog, rows = _pair_scan(tower, b)
    try:
        if not 0 < c < size:
            _check_bc(tower, b, c)
        lc = log[c]
    except TypeError:
        # A c such as 2.0 passes the range test; _check_bc refuses it.
        _check_bc(tower, b, c)
        raise
    x0 = 0
    for row in rows:
        if row is None:
            row = rows[x0] = (ilog[x0], ilog[x0 + 1:])
        lx, tail = row
        r = (lc + lx) % order
        for ly in tail:
            if trace[exp[r + ly]] == target:
                # ilog's entries are distinct: index finds this ly.
                return x0, x0 + 1 + tail.index(ly)
        x0 += 1
    return None


def pairwise_criterion(tower, b, c):
    """ok is False on the first pair x0 < y0 with Tr(c/((x0+b)(y0+b))) = 1,
    reported as the witness."""
    pair = _first_pair(tower, b, c, 1)
    return Criterion(pair is None, pair)


def kernel_criterion(tower, b, c):
    """exists is True on the first pair x0 < y0 with
    Tr(c/((x0+b)(y0+b))) = 0, reported as the witness."""
    pair = _first_pair(tower, b, c, 0)
    return KernelCriterion(pair is not None, pair)


@lru_cache(maxsize=2)
def _level_set(tower, target):
    """The int with bit k set when Tr(g^k) == target, k below size - 1,
    doubled so that rotating it by s is one right shift by s."""
    order = tower.size - 1
    trace = tower.trace_table
    digits = bytearray(b"0") * order
    for k, x in enumerate(islice(tower.top._exp, order)):
        if trace[x] == target:
            digits[order - 1 - k] = 49
    level = int(digits, 2)
    return level | level << order


_tower_memos.extend((_pair_scan, _level_set))


def _pair_free_c(tower, b, target):
    """The c != 0, ascending encodings, with no pair x0 < y0 in F_q where
    Tr(c/((x0+b)(y0+b))) == target.

    c = g^j fails at a pair exactly when bit j of the level set rotated by
    log(1/((x0+b)(y0+b))) is set, so the failing j are the union of one
    rotation per pair.  At target 0, scaling by F_q* keeps a hyperplane,
    so rotations equal mod (size - 1)/(q - 1) coincide and count once.
    """
    order = tower.size - 1
    period = order // (tower.q - 1) if target == 0 else order
    *_, ilog, _ = _pair_scan(tower, b)
    shifts = {(lx + ly) % period
              for i, lx in enumerate(ilog) for ly in ilog[i + 1:]}
    level = _level_set(tower, target)
    hit = 0
    for s in shifts:
        hit |= level >> s
    free = format(~hit & ((1 << order) - 1), "b")[::-1]
    exp = tower.top._exp
    found = []
    j = free.find("1")
    while j >= 0:
        found.append(exp[j])
        j = free.find("1", j + 1)
    return sorted(found)


def classify_c(tower, b):
    """All c for which x + c/(Tr(x)+b) permutes, ascending encodings.

    The pairwise test for every nonzero c at once, by _pair_free_c: one
    shift and OR of a (q^n - 1)-bit int for each of the q(q-1)/2 pairs,
    never the per-c pair scan.  Towers where that bound, q(q-1)/2 * (q^n - 1)
    bit operations, exceeds the size budget are refused.  One b takes well
    under a millisecond on small towers, so there is no workers argument;
    `permrf classify --all-b` fans out over b instead.
    """
    _pair_scan(tower, b)  # checks b; _pair_free_c reads its logarithms
    q = tower.q
    _check_budget(q * (q - 1) // 2 * (tower.size - 1), tower.size_budget,
                  "classification bound q(q-1)/2 * (q^n - 1) bit operations")
    return _pair_free_c(tower, b, 1)


def closed_form_c(tower, b, d=None):
    """The distinguished numerator for b in F_{q^d} \\ F_q.

    Degree 2: (b^q - b)^(q+1).  Degree 3: -(b^q - b)^(q^2 + 1).  Other
    degrees have no closed form here.
    """
    _check_b(tower, b)
    if d is None:
        d = tower.n
    if type(d) is not int or d not in (2, 3):
        raise UnsupportedDegree(f"no closed form for degree {d!r}")
    if not tower.in_subfield_enc(b, d):
        raise NotInSubfield(
            f"b encoding {b} does not lie in the degree {d} subfield")
    top = tower.top
    w = top.sub(tower.frob_enc(b), b)
    if d == 2:
        return top.mul(w, tower.frob_enc(w))
    return top.neg(top.mul(w, tower.frob_enc(w, 2)))


def lifted_c_set(tower, b, d):
    """All c whose relative trace to F_{q^d} hits the closed form for b."""
    target = closed_form_c(tower, b, d)
    return [c for c in range(tower.size)
            if tower.trace_rel_enc(c, tower.n, d) == target]


def normalize_spec(spec):
    """(equivalent standard-form spec, alpha) for invertible L.

    The substitution x -> L^{-1}(x) then the twist by alpha, where
    Tr(L^{-1}(x)) = Tr(alpha * x), turn L(x) + c/(Tr(x)+b) into
    x + alpha*c/(Tr(x)+b) without changing whether it permutes.
    """
    tower = spec.tower
    alpha = _adjoint(invert_lin(spec.L)).eval_enc(1)
    return RatFuncSpec(tower, spec.b, tower.top.mul(alpha, spec.c)), alpha


def is_permutation(spec):
    """Permutation verdict for any L, routed by the rank of L."""
    tower = spec.tower
    rank, kernel, _ = rank_kernel_image(spec.L)
    if rank == tower.n:
        std, _ = normalize_spec(spec)
        return pairwise_criterion(tower, std.b, std.c).ok
    if rank < tower.n - 1:
        return False
    if tower.trace_enc(kernel[0]) == 0:
        return False
    _, (beta,), _ = rank_kernel_image(_adjoint(spec.L))
    shifted = tower.top.mul(beta, spec.c)
    return not kernel_criterion(tower, spec.b, shifted).exists


def remark3_check(tower, b, c):
    """Whether Tr(c/(u + b*v + b^2)) avoids 1 on all of F_q x F_q.

    Degree 3 and odd characteristic only.  The denominator never
    vanishes: a zero would make b quadratic over F_q.
    """
    if tower.n != 3:
        raise UnsupportedDegree("the scan is specific to degree 3")
    if tower.p == 2:
        raise EvenCharacteristic("the scan needs odd characteristic")
    _check_bc(tower, b, c)
    top = tower.top
    trace = tower.trace_table
    bsq = top.mul(b, b)
    for v in range(tower.q):
        base = top.add(top.mul(b, v), bsq)
        for u in range(tower.q):
            w = top.mul(c, top.inv(top.add(u, base)))
            if trace[w] == 1:
                return False
    return True
