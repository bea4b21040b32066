"""Arithmetic in a two-step tower of finite fields.

The tower is F_p < F_q < F_{q^n} with q = p^m.  The middle field is
F_p[u]/(g) for a monic irreducible g of degree m, the top field is
F_q[v]/(h) for a monic irreducible h of degree n over the middle field.
The top field is always represented as polynomials in v with middle-field
coefficients; it is never rebuilt as a single extension of F_p.

Elements travel as integer encodings.  At each level the encoding of
c_{d-1} x^{d-1} + ... + c_1 x + c_0 is the integer whose base-s digits,
low to high, are the encodings of c_0 .. c_{d-1}, where s is the size of
the coefficient field.  Digit nesting makes the subfield chain literal:
the middle field sits inside the top field as encodings 0..q-1, and the
prime field as encodings 0..p-1.  Encoding 0 is the additive identity and
encoding 1 the multiplicative identity at every level.

Moduli are canonical unless the caller supplies their own: the chosen g
(or h) is the monic irreducible polynomial whose coefficient tuple
(c_0, ..., c_{d-1}), read low to high as a base-s integer, is smallest.
Irreducibility of a monic degree-d polynomial f is decided by checking
gcd(X^(s^i) - X, f) = 1 for 1 <= i <= d // 2, once a polynomial in X^p,
a p-th power, is turned away.

Multiplication and inversion run on exponential and logarithm tables
built from the smallest-encoding generator g of each level.  The search
for g starts at the ground size s when the degree d exceeds 1, since a
ground element's order divides s - 1.  With c = (s^d - 1)/(s - 1), g^c
lies in the ground and generates its units, so g^(k*c + i) =
(g^c)^k * g^i: only the first c powers are stepped one by one, and the
other s - 2 blocks are the first scaled by (g^c)^k, which multiplies
each base-s digit on its own (one row of the ground per k, each row the
last read through the first).  The c steps use a precomputed linear
step: x -> x * g is F_p-linear, so the images of every value of each
chunk of an encoding's base-p digits are computed once by polynomial
product (a few hundred to a few thousand), and each later power costs
one lookup per chunk, summed by XOR in characteristic 2 and digit by
digit in the ground field otherwise.  In odd characteristic addition
runs on the same tables through Zech logarithms, zech[k] = log(1 + g^k):
a + b = a * (1 + b/a) is one lookup each in log, zech and exp, and
-a = g^((size-1)/2) * a.  Characteristic 2 adds by XOR of encodings.
The Frobenius table of the top field is read off the log tables,
log(x^q) = q * log(x), and the Zech table raises the lowest base-p digit
of each exp entry; both are chains of maps over the tables, with no
Python step per element.  The trace is F_q-linear, so its table grows
block by block, Tr(rest + a v^k) = Tr(rest) + a Tr(v^k), from the n
conjugate sums Tr(v^k), each block one map over the table so far.  Every
table is built without a second list of its size beside it.  A tower of
size q^n costs O(q^n) time and memory; make_tower refuses to build
towers larger than the size budget.
"""

from functools import lru_cache, partial
from itertools import chain, islice, repeat
from operator import add, floordiv, mod, mul, pos, xor

from . import _linalg
from .errors import (
    BInBaseField,
    BZero,
    CZero,
    DegreeZero,
    DivisionByZero,
    InvalidModulus,
    NonDivisorDegrees,
    NotABasis,
    NotInSubfield,
    NotPrime,
    OutOfRange,
    SizeBudgetExceeded,
    UnsupportedDegree,
    UsageError,
)

DEFAULT_SIZE_BUDGET = 1 << 24

# Most entries in one chunk table of the generator step (_step_images)
# and in one row of the ground scaling (_scaled_blocks).
# Wider chunks save a lookup per element on large towers, but their freed
# images stay behind as memory: 1369-entry tables for 37:3 raised peak
# RSS over a run of builds, 37-entry ones did not.
_MAX_CHUNK = 256

class _Sized:
    """Items with a known count, so that list() or list.extend() sizes
    the table once.  A table grown item by item is moved as it grows,
    and the memory it leaves behind stays with the process."""

    __slots__ = ("_items", "_count")

    def __init__(self, items, count):
        self._items = items
        self._count = count

    def __iter__(self):
        return iter(self._items)

    def __length_hint__(self):
        return self._count


class _PrimeField:
    """F_p with encodings 0..p-1; arithmetic is plain modular arithmetic."""

    def __init__(self, p):
        self.char = p
        self.size = p
        self.degree = 1

    def add(self, a, b):
        return (a + b) % self.size

    def sub(self, a, b):
        return (a - b) % self.size

    def mul(self, a, b):
        return (a * b) % self.size

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.size - 2, self.size)


def _poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(k, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b != 0:
                out[i + j] = k.add(out[i + j], k.mul(a, b))
    return _poly_trim(out)


def _poly_mod(k, f, g):
    """Remainder of f modulo g, g monic."""
    f = list(f)
    dg = len(g) - 1
    while len(f) > dg:
        lead = f[-1]
        if lead != 0:
            shift = len(f) - 1 - dg
            for i in range(dg):
                f[shift + i] = k.sub(f[shift + i], k.mul(lead, g[i]))
        f.pop()
    return _poly_trim(f)


def _poly_powmod(k, f, e, g):
    result = [1]
    f = _poly_mod(k, f, g)
    while e > 0:
        if e & 1:
            result = _poly_mod(k, _poly_mul(k, result, f), g)
        f = _poly_mod(k, _poly_mul(k, f, f), g)
        e >>= 1
    return result


def _poly_gcd(k, f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, _poly_mod(k, f, _poly_make_monic(k, g))
    return f


def _poly_make_monic(k, f):
    lead = f[-1]
    if lead == 1:
        return f
    scale = k.inv(lead)
    return [k.mul(scale, c) for c in f]


def _is_irreducible(k, f):
    """Monic f over field k; gcd(X^(s^i) - X, f) = 1 for i up to deg(f)//2."""
    d = len(f) - 1
    if d < 1:
        return False
    if f[0] == 0 and d > 1:
        return False
    # A polynomial in X^p is a p-th power over a finite field.
    if not any(c for i, c in enumerate(f) if i % k.char):
        return False
    x = [0, 1]
    r = x
    for _ in range(d // 2):
        r = _poly_powmod(k, r, k.size, f)
        diff = _poly_trim([k.sub(ri, xi) for ri, xi in
                           zip(r + [0] * len(x), x + [0] * len(r))])
        if len(_poly_gcd(k, f, diff)) != 1:
            return False
    return True


def _canonical_modulus(k, d):
    """Smallest monic irreducible of degree d over k, by coefficient code."""
    s = k.size
    for code in range(s ** d):
        coeffs = []
        c = code
        for _ in range(d):
            c, digit = divmod(c, s)
            coeffs.append(digit)
        f = coeffs + [1]
        if _is_irreducible(k, f):
            return tuple(f)
    raise InvalidModulus(f"no irreducible of degree {d} found")


def _factor_int(x):
    primes = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            primes.append(f)
            while x % f == 0:
                x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        primes.append(x)
    return primes


class _ExtField:
    """Extension of a ground field by a monic irreducible modulus.

    Encodings nest the ground field's: an element's digits in base
    ground.size are the ground encodings of its coefficients.  After
    construction all products go through exp/log tables, and sums go
    through the Zech table (odd characteristic) or XOR (characteristic 2).
    """

    def __init__(self, ground, modulus):
        self.ground = ground
        self.modulus = tuple(modulus)
        self.degree = len(modulus) - 1
        if self.degree < 1:
            raise InvalidModulus("modulus must have degree at least 1")
        if modulus[-1] != 1:
            raise InvalidModulus("modulus must be monic")
        if not all(isinstance(c, int) and 0 <= c < ground.size
                   for c in modulus):
            raise InvalidModulus(f"modulus {self.modulus} has a coefficient "
                                 f"that is not an integer in "
                                 f"0..{ground.size - 1}")
        if not _is_irreducible(ground, list(modulus)):
            raise InvalidModulus(f"modulus {tuple(modulus)} is reducible")
        self.char = ground.char
        self.size = ground.size ** self.degree
        self._build_tables()
        if self.char == 2:
            self.add = self.sub = xor
            self.neg = pos
        else:
            self._build_zech()

    # Construction-time arithmetic, before the tables exist.

    def _raw_mul(self, a, b):
        fa = self.digits(a)
        fb = self.digits(b)
        prod = _poly_mod(self.ground, _poly_mul(self.ground, fa, fb),
                         list(self.modulus))
        return self.undigits(prod)

    def _raw_pow(self, a, e):
        result = 1
        while e > 0:
            if e & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return result

    def _build_tables(self):
        order = self.size - 1
        if order == 1:
            self.generator = 1
            self._exp = [1, 1]
            self._log = [None, 0]
            return
        s, d = self.ground.size, self.degree
        prime_parts = [order // f for f in _factor_int(order)]
        gen = None
        # A ground element's order divides s - 1, so below s no candidate
        # can generate unless the field is its ground (d = 1).
        for cand in range(s if d > 1 else 2, self.size):
            if all(self._raw_pow(cand, e) != 1 for e in prime_parts):
                gen = cand
                break
        if gen is None:
            raise InvalidModulus("no generator found; modulus not irreducible")
        self.generator = gen
        # g^c with c = (s^d - 1)/(s - 1) is the norm of g down to the
        # ground, which generates the ground's units, so the powers are
        # s - 1 blocks g^(k*c + i) = (g^c)^k * g^i: c steps of the
        # generator, then the first block scaled in the ground.
        blocks = s - 1 if d > 1 else 1
        exp, acc = self._powers(gen, order // blocks)
        if acc >= s or (blocks == 1 and acc != 1):
            raise InvalidModulus("generator order wrong; modulus not irreducible")
        scaled = self._scaled_blocks(exp, acc) if blocks > 1 else ()
        # The first order - 1 powers again spare callers the reduction of
        # log a + log b.
        exp.extend(_Sized(chain(chain.from_iterable(scaled),
                                islice(exp, order - 1)),
                          2 * order - 1 - len(exp)))
        log = [None] * self.size
        for i, x in enumerate(islice(exp, order)):
            log[x] = i
        self._exp = exp
        self._log = log

    def _powers(self, gen, count):
        """[gen^0, ..., gen^(count-1)] and gen^count, one chunk-image step
        (_step_images) per power."""
        powers = [1] * count
        radix, images = self._step_images(gen)
        acc = 1
        if self.char == 2:
            shift = radix.bit_length() - 1
            mask = radix - 1
            for i in range(count):
                powers[i] = acc
                nxt = 0
                for image in images:
                    nxt ^= image[acc & mask]
                    acc >>= shift
                acc = nxt
        else:
            add, s, d = self.ground.add, self.ground.size, self.degree
            # Rebinding frees the image encodings before the loop makes
            # the powers' ints.
            images = [[tuple(reversed(self.digits(y, d))) for y in image]
                      for image in images]
            first, *rest = images
            for i in range(count):
                powers[i] = acc
                acc, chunk = divmod(acc, radix)
                total = first[chunk]
                for image in rest:
                    acc, chunk = divmod(acc, radix)
                    total = map(add, total, image[chunk])
                nxt = 0
                for digit in total:
                    nxt = nxt * s + digit
                acc = nxt
        return powers, acc

    def _scaled_blocks(self, exp, z):
        """For k = 1 .. s - 2, an iterator over z^k * x for each of the
        first c = (size - 1)/(s - 1) entries x of exp, z in the ground.

        A ground scalar multiplies each base-s digit on its own.  So an
        encoding splits into chunks of w digits, x = sum_j x_j * R^j with
        R = s^w, and z^k * x = sum_j row_k[x_j] * R^j, where row_k[y] is
        the chunk y with every digit times z^k.  row_(k+1) is row_k read
        through row_1, and each block is a chain of maps over the chunks.
        """
        ground, s = self.ground, self.ground.size
        w = 1
        while w < self.degree and s ** (w + 1) <= _MAX_CHUNK:
            w += 1
        radix = s ** w
        scales = [radix ** j for j in range(-(-self.degree // w))]
        digit_row = [ground.mul(y, z) for y in range(s)]
        step = [sum(digit_row[y // s ** i % s] * s ** i for i in range(w))
                for y in range(radix)]
        c = (self.size - 1) // (s - 1)
        parts = [map(mod, map(floordiv, islice(exp, c), repeat(scale)),
                     repeat(radix))
                 for scale in scales]
        if s > 3:
            # Every block reads the chunks again.  At s = 3 the single
            # block reads them straight off exp: as lists, up to three
            # chunks of size / 2 entries each would sit beside the tables.
            parts = [list(part) for part in parts]
        rows = [list(map(mul, step, repeat(scale))) for scale in scales]
        for _ in range(s - 2):
            block = map(rows[0].__getitem__, parts[0])
            for row, part in zip(rows[1:], parts[1:]):
                block = map(add, block, map(row.__getitem__, part))
            yield block
            rows = [list(map(row.__getitem__, step)) for row in rows]

    def _step_images(self, gen):
        """Chunk images of the F_p-linear map x -> x * gen.

        The base-p digits of an encoding are its F_p coordinates, so an
        encoding splits into chunks of w digits, x = sum_j x_j * radix^j
        with radix = p^w, and x * gen = sum_j (x_j * radix^j) * gen: one
        lookup per chunk, summed by XOR in characteristic 2 and digit by
        digit in the ground field otherwise.  Returns radix and, per chunk
        j, the encodings (x_j * radix^j) * gen for every chunk value x_j.
        The chunks are as even as _MAX_CHUNK allows, and one digit each
        when p alone exceeds it.
        """
        p, digits = self.char, 0
        while p ** digits < self.size:
            digits += 1
        widest = 1
        while p ** (widest + 1) <= _MAX_CHUNK:
            widest += 1
        chunks = -(-digits // widest)
        radix = p ** -(-digits // chunks)
        scales = [radix ** j for j in range(chunks)]
        return radix, [[self._raw_mul(x * scale, gen)
                         for x in range(min(radix, self.size // scale))]
                        for scale in scales]

    def _build_zech(self):
        """zech[k] = log(1 + g^k), None where 1 + g^k = 0.

        The lowest base-p digit of an encoding is the constant term's
        prime-field coefficient at every level, so adding 1 touches only
        that digit.  -1 = g^((size-1)/2) in odd characteristic.
        """
        p, order = self.char, self.size - 1
        exp, log = self._exp, self._log
        # x + bump[x % p] raises that digit, p - 1 wrapping to 0.
        bump = [1] * (p - 1) + [1 - p]
        self._zech = list(_Sized(map(log.__getitem__, map(
            add, islice(exp, order),
            map(bump.__getitem__, map(mod, islice(exp, order), repeat(p))))),
            order))
        self._half = order // 2

    # Digit conversions.

    def digits(self, a, width=None):
        s = self.ground.size
        out = []
        while a:
            a, r = divmod(a, s)
            out.append(r)
        if width is not None:
            out.extend([0] * (width - len(out)))
        return out

    def undigits(self, coeffs):
        s = self.ground.size
        out = 0
        for c in reversed(coeffs):
            out = out * s + c
        return out

    # Field operations on encodings.

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        # log b - log a may be negative; zech has size - 1 entries, so a
        # negative index wraps to the same residue.
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        if b == 0:
            return a
        return self.add(a, self._exp[self._log[b] + self._half])

    def neg(self, a):
        if a == 0:
            return 0
        return self._exp[self._log[a] + self._half]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._exp[self.size - 1 - self._log[a]]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        return self._exp[(self._log[a] * e) % (self.size - 1)]


def _power(var, e):
    """var^e as text: "" for e = 0, var alone for e = 1."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _render_terms(terms, render):
    """A sum of (coefficient encoding, monomial text) terms, "0" for none.

    Zero terms are left out.  The constant monomial "" shows its
    coefficient, rendered by render, bare; coefficient 1 shows its
    monomial bare; a coefficient gets parentheses only when it contains
    a space.
    """
    out = []
    for c, mono in terms:
        if not c:
            continue
        if not mono:
            out.append(render(c))
        elif c == 1:
            out.append(mono)
        else:
            text = render(c)
            out.append(f"({text})*{mono}" if " " in text else f"{text}*{mono}")
    return " + ".join(out) or "0"


def _poly_text(ops, var, enc, render=str):
    """enc, an encoding of level ops, as a polynomial in var."""
    return _render_terms(((c, _power(var, i)) for i, c in
                          reversed(list(enumerate(ops.digits(enc))))), render)


def _check_enc(tower, a, name):
    """Refuse an a that is not a top encoding: an int below tower.size."""
    if not isinstance(a, int) or not 0 <= a < tower.size:
        raise OutOfRange(
            f"{name} encoding {a} outside field of size {tower.size}")


def _check_b(tower, b):
    _check_enc(tower, b, "b")
    if b == 0:
        raise BZero("b must be nonzero")
    if b < tower.q:
        raise BInBaseField("b must lie outside F_q")


def _check_bc(tower, b, c):
    """Validate the encodings b and c, b first."""
    _check_b(tower, b)
    _check_enc(tower, c, "c")
    if c == 0:
        raise CZero("c must be nonzero")


def _size_budget(size_budget):
    """The budget a tower built with size_budget carries:
    DEFAULT_SIZE_BUDGET for None."""
    return DEFAULT_SIZE_BUDGET if size_budget is None else size_budget


def _check_budget(work, budget, what):
    """Refuse work over the size budget; every guard raises
    SizeBudgetExceeded here, in this one message shape."""
    if work > budget:
        raise SizeBudgetExceeded(
            f"{what} = {work} is over the size budget {budget}")


def _check_tower_params(p, m, n, budget):
    """Cheap checks first: types before any cache sees them (1.0 and True
    hash as 1), the size before p is factored, and p^(m*n) only once m*n
    is below the budget's bit length, which p >= 2 makes a bound."""
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"characteristic {p} is not prime")
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise DegreeZero(f"extension degrees must be ints of at least 1, "
                         f"not m={m!r}, n={n!r}")
    if type(budget) is not int:
        raise UsageError(f"size budget must be an int, not {budget!r}")
    e, k = m * n, budget.bit_length()
    if e >= k:
        _check_budget(1 << k, budget, f"{p}^{e} >= 2^{k}")
    _check_budget(p ** e, budget, f"{p}^{e}")
    if _factor_int(p) != [p]:
        raise NotPrime(f"characteristic {p} is not prime")


class FieldTower:
    """Container for the three levels plus the tables keyed to the top one.

    Public attributes: p, m, n, q, size, size_budget, base, mid, top,
    field_spec, frob_table, trace_table; base, mid and top are the levels'
    arithmetic, and range(level.size) its encodings.  The *_enc methods
    map top encodings: Frobenius, trace, norm, subfield test, and text.
    Do not construct directly: make_tower checks the parameters and spells
    out both moduli and the budget, and the constructor only builds,
    taking the middle field from the cache shared by every tower over
    it.  A tower pickles (and copies) as its make_tower key, p, m, n, g,
    h and the size budget, so it crosses to a worker process in a few
    dozen bytes and unpickles to that process's cached instance.
    """

    def __init__(self, p, m, n, g, h, size_budget):
        self.p = p
        self.m = m
        self.n = n
        self.q = p ** m
        self.size = self.q ** n
        self.size_budget = size_budget
        self.mid = _mid_field(p, g)
        self.base = self.mid.ground
        self.top = _ExtField(self.mid, h)
        self._norm_exp = (self.size - 1) // (self.q - 1)
        self._build_frobenius()
        self._build_trace()

    def _build_frobenius(self):
        """The permutation table of x -> x^q, from log(x^q) = q * log(x).
        Its entries are the exp table's int objects, not new ones."""
        exp, log, order = self.top._exp, self.top._log, self.size - 1
        self.frob_table = list(_Sized(chain((0,), map(exp.__getitem__, map(
            mod, map(mul, islice(log, 1, None), repeat(self.q)),
            repeat(order)))), self.size))

    def _build_trace(self):
        """Tr is F_q-linear: the entry for x = rest + a * v^k, rest < q^k,
        is Tr(rest) + a * Tr(v^k), so the table grows by one map over its
        first q^k entries per (k, a), from the traces of v^k, each a sum
        of conjugates."""
        frob, q, top, mid = self.frob_table, self.q, self.top, self.mid
        traces = []
        for k in range(self.n):
            tr_vk = t = q ** k
            for _ in range(self.n - 1):
                t = frob[t]
                tr_vk = top.add(tr_vk, t)
            traces.append(tr_vk)
        table = [0]
        # Each block is made once the blocks before it are in the table.
        table.extend(_Sized(chain.from_iterable(
            map(mid.add, islice(table, q ** k), repeat(mid.mul(a, tr_vk)))
            for k, tr_vk in enumerate(traces) for a in range(1, q)),
            self.size - 1))
        self.trace_table = table

    def __reduce__(self):
        return make_tower, (self.p, self.m, self.n, self.mid.modulus,
                            self.top.modulus, self.size_budget)

    @property
    def field_spec(self):
        return f"{self.p}^{self.m}:{self.n}"

    # Maps on top encodings; each refuses an a outside the field.

    def frob_enc(self, a, i=1):
        _check_enc(self, a, "element")
        if not 0 <= i < self.n:
            raise OutOfRange(f"Frobenius power {i} outside 0..{self.n - 1}")
        for _ in range(i):
            a = self.frob_table[a]
        return a

    def trace_enc(self, a):
        _check_enc(self, a, "element")
        return self.trace_table[a]

    def norm_enc(self, a):
        _check_enc(self, a, "element")
        if a == 0:
            return 0
        return self.top.pow(a, self._norm_exp)

    def in_subfield_enc(self, a, d):
        _check_enc(self, a, "element")
        if d < 1 or self.n % d != 0:
            raise NonDivisorDegrees(f"{d} does not divide {self.n}")
        t = a
        for _ in range(d):
            t = self.frob_table[t]
        return t == a

    def trace_rel_enc(self, a, frm, to):
        """Relative trace from F_{q^frm} down to F_{q^to}."""
        if frm < 1 or to < 1 or frm % to != 0 or self.n % frm != 0:
            raise NonDivisorDegrees(
                f"need to | frm | n, got to={to} frm={frm} n={self.n}")
        if not self.in_subfield_enc(a, frm):
            raise NotInSubfield(f"encoding {a} is not in F_q^{frm}")
        acc = 0
        for i in range(0, frm, to):
            acc = self.top.add(acc, self.frob_enc(a, i))
        return acc

    # Rendering.

    def pretty_enc(self, enc):
        """A top encoding as a polynomial in v, with middle-field
        coefficients in u; with m = 1 a coefficient is its prime digit."""
        _check_enc(self, enc, "element")
        mid = str if self.m == 1 else partial(_poly_text, self.mid, "u")
        return _poly_text(self.top, "v", enc, mid)

    def __repr__(self):
        return f"FieldTower({self.field_spec})"


@lru_cache(maxsize=None)
def _mid_field(p, g):
    """The middle field F_p[u]/(g), built once for every tower over it."""
    return _ExtField(_PrimeField(p), g)


@lru_cache(maxsize=None)
def _canonical_g(p, m):
    return _canonical_modulus(_PrimeField(p), m)


@lru_cache(maxsize=None)
def _canonical_h(p, n, g):
    """The canonical top modulus over the middle field F_p[u]/(g)."""
    return _canonical_modulus(_mid_field(p, g), n)


def _explicit_modulus(f, degree, name):
    f = tuple(f)
    # 2.0 == 2 would share a cache key with a field already built.
    if len(f) != degree + 1 or not all(isinstance(c, int) for c in f):
        raise InvalidModulus(
            f"{name} must be {degree + 1} integer coefficients, low to high")
    return f


_cached_tower = lru_cache(maxsize=None)(FieldTower)


def make_tower(p, m, n, g=None, h=None, size_budget=None):
    """Build (or fetch the cached) tower F_p < F_(p^m) < F_(p^(m*n)).

    g and h, when given, must be coefficient tuples (low to high, monic)
    for the middle and top moduli; otherwise the canonical smallest
    irreducibles are used.  size_budget caps p^(m*n); the default refuses
    fields beyond 2^24 elements.  The parameters are checked, and the
    budget, g and h spelled out, before the cache lookup: spelling out
    the default budget, the canonical g, or the canonical h over the
    chosen middle field returns the same tower as leaving them out.
    cache_clear also forgets the middle fields and canonical moduli.
    """
    budget = _size_budget(size_budget)
    _check_tower_params(p, m, n, budget)
    g = _canonical_g(p, m) if g is None else _explicit_modulus(g, m, "g")
    h = _canonical_h(p, n, g) if h is None else _explicit_modulus(h, n, "h")
    return _cached_tower(p, m, n, g, h, budget)


def _clear_caches():
    for cache in (_cached_tower, _canonical_h, _canonical_g, _mid_field):
        cache.cache_clear()


make_tower.cache_info = _cached_tower.cache_info
make_tower.cache_clear = _clear_caches


def dual_basis(tower, basis):
    """Dual of a basis of the top field over the middle one.

    basis is a sequence of n top-level encodings b_i; the result is the
    tuple of encodings d_k with Tr(b_i * d_k) = [i == k].
    Raises NotABasis when the Gram matrix of the trace form is singular,
    which happens exactly when the inputs fail to be a basis.
    """
    n = tower.n
    encs = list(basis)
    if len(encs) != n:
        raise NotABasis(f"need exactly {n} elements, got {len(encs)}")
    for e in encs:
        _check_enc(tower, e, "basis")
    gram = [[tower.trace_enc(tower.top.mul(bi, bj)) for bj in encs]
            for bi in encs]
    inv = _linalg.inv_matrix(tower.mid, gram)
    if inv is None:
        raise NotABasis("trace Gram matrix is singular")
    out = []
    for k in range(n):
        acc = 0
        for j in range(n):
            acc = tower.top.add(acc, tower.top.mul(inv[k][j], encs[j]))
        out.append(acc)
    return tuple(out)


def basis_det_b(tower, b):
    """Determinant certifying that 1, b^q + b, b^(q+1) spans F_{q^3} over F_q.

    Rows are the sigma-conjugates of that triple; the determinant, expanded
    by cofactors along the first row over the top field, always lands in
    F_q.  Only degree 3 towers qualify; b must be outside F_q.
    """
    if tower.n != 3:
        raise UnsupportedDegree("the spanning triple is specific to degree 3")
    _check_b(tower, b)
    top = tower.top
    bq = tower.frob_enc(b)
    r0 = [1, top.add(bq, b), top.mul(bq, b)]
    r1 = [tower.frob_enc(x) for x in r0]
    r2 = [tower.frob_enc(x) for x in r1]
    det = 0
    for j in range(3):
        # Cyclic indices carry the cofactor signs +, -, +.
        k, l = (j + 1) % 3, (j + 2) % 3
        minor = top.sub(top.mul(r1[k], r2[l]), top.mul(r1[l], r2[k]))
        det = top.add(det, top.mul(r0[j], minor))
    return det
