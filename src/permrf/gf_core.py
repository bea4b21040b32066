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
is the norm of g: it lies in the ground and generates its units, and
the search tests it there, as the resultant of the modulus and the
candidate, before any power of a candidate.  So g^(k*c + i) =
(g^c)^k * g^i: only the first c powers are stepped one by one, and the
other s - 2 blocks are the first scaled by (g^c)^k, which multiplies
each base-s digit on its own (one row of the ground per k, each block
gathered through fixed indices).  The c steps use a linear step:
x -> x * g is F_p-linear, so the images of every value of each chunk of
an encoding's base-p digits follow from one polynomial product per
digit, and each later power costs one lookup per chunk, summed by XOR
in characteristic 2 and digit by digit in the ground field otherwise.
In odd characteristic addition runs on the same tables through Zech
logarithms, zech[k] = log(1 + g^k): a + b = a * (1 + b/a) is one
lookup each in log, zech and exp, and -a = g^((size-1)/2) * a.
Characteristic 2 adds by XOR of encodings.
The log table is one pass over exp: the exponents 1 .. size - 2 are
also nonzero encodings, so log[exp[v]] = v writes each exponent as the
int object exp already holds for the encoding v, not a new one, and
log[1] = 0 comes last.
The Frobenius table of the top field and the Zech table are each one
loop over strided slices of the tables, read in order: multiplying an
exponent by q modulo q^n - 1 rotates its base-q digits, so the q-th
powers of g^0, g^1, ... are exp at stride q, and adding 1 steps an
encoding's lowest base-p digit, so zech[log x] = log(x + 1) pairs
slices of log at stride p.  The trace table and each chunk table of the
step are tables of F_p-linear maps, and both grow one base-p digit at a
time (_linear_table): the entries with top digit t are those with t - 1
read through the digit's adder.  The trace's adder for the digit
u^j v^k is a row of q middle-field ints, y -> y + u^j Tr(v^k), from the
n conjugate sums Tr(v^k), so the table shares the middle field's int
objects in either characteristic.  Frobenius
entries are exp's int objects and Zech entries log's, so the tables of
a field hold one int object per element.  Every table is built without
a second list of its size beside it.  A tower of size q^n costs O(q^n)
time and memory; make_tower refuses to build towers larger than the
size budget.
"""

from functools import lru_cache, partial
from itertools import chain, islice, repeat
from operator import add, floordiv, itemgetter, mod, mul, pos, xor

from .errors import (
    BInBaseField,
    BZero,
    CZero,
    DegreeZero,
    DivisionByZero,
    InvalidModulus,
    NonDivisorDegrees,
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

# Most entries in one piece of a strided slice (_strided).
_MAX_SLICE = 4096


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


def _strided(table, start, stop, stride):
    """table[start:stop:stride] as an iterator over slices of at most
    _MAX_SLICE entries.  A whole slice at stride 2 or 3 would hold half
    or a third of the table's references at once, and once freed, that
    memory stays with the process."""
    step = stride * _MAX_SLICE
    return chain.from_iterable(table[lo:min(lo + step, stop):stride]
                               for lo in range(start, stop, step))


def _linear_table(p, adders, zero):
    """The table, in encoding order, of an F_p-linear map on encodings of
    len(adders) base-p digits, with zero at 0.  adders[i] adds the image
    of p^i, so the entries t * p^i + x for x < p^i and 1 <= t < p are the
    entries (t - 1) * p^i + x passed through it: the table grows one
    base-p digit at a time, each block read from the one before it."""
    def blocks():
        width = 1
        for adder in adders:
            for lo in range(0, (p - 1) * width, width):
                yield map(adder, _strided(table, lo, lo + width, 1))
            width *= p

    table = [zero]
    table.extend(_Sized(chain.from_iterable(blocks()), p ** len(adders) - 1))
    return table


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


@lru_cache(maxsize=None)
def _canonical(p, d, g=None):
    """Smallest monic irreducible of degree d, by coefficient code, over
    F_p, or over the middle field F_p[u]/(g) when g is given."""
    k = _PrimeField(p) if g is None else _mid_field(p, g)
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

    def _norm(self, a):
        """N(a) = a^((s^d - 1)/(s - 1)) as Res(h, a), h the monic modulus,
        by Euclid over the ground: Res(f, g) is lc(g)^deg(f) Res(f, g/lc(g)),
        for monic g (-1)^(deg(f) deg(g)) Res(g, f mod g), and 0 at g = 0
        unless f = 1."""
        k, f, g, res = self.ground, self.modulus, self.digits(a), 1
        while g:
            for _ in range(len(f) - 1):
                res = k.mul(res, g[-1])
            g = _poly_make_monic(k, g)
            if (len(f) - 1) * (len(g) - 1) % 2:
                res = k.sub(0, res)
            f, g = g, _poly_mod(k, f, g)
        return res if len(f) == 1 else 0

    def _build_tables(self):
        order = self.size - 1
        if order == 1:
            self.generator = 1
            self._exp = [1, 1]
            self._log = [None, 0]
            return
        ground, s, d = self.ground, self.ground.size, self.degree
        primes = _factor_int(order)
        # g^(order/r) = N^((s - 1)/r) for a prime r of s - 1, with the
        # norm N = g^c, c = order/(s - 1): one resultant (_norm) per
        # candidate, tested in the ground (the prime field keeps no
        # tables; Python's pow is its power), then one power per prime left.
        ground_parts = [(s - 1) // r for r in primes if (s - 1) % r == 0]
        primes = [r for r in primes if (s - 1) % r]
        ground_pow = (ground.pow if isinstance(ground, _ExtField)
                      else partial(pow, mod=s))
        gen = None
        # A ground element's order divides s - 1, so below s no candidate
        # can generate unless the field is its ground (d = 1).
        for cand in range(s if d > 1 else 2, self.size):
            if ground_parts:
                norm = self._norm(cand)
                if any(ground_pow(norm, e) == 1 for e in ground_parts):
                    continue
            if all(self._raw_pow(cand, order // r) != 1 for r in primes):
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
        # exp's first order entries are the encodings 1 .. order, so each
        # exponent is exp's own int; v = order writes log[1], reset last.
        log = [None] * self.size
        for v in islice(exp, order):
            log[exp[v]] = v
        log[1] = 0
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
            add, s = self.ground.add, self.ground.size
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
        through row_1, and each block sums each chunk's gather of its row.
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
        rows = [list(map(mul, step, repeat(scale))) for scale in scales]
        if s > 3:
            # c > 1 indices each, so every gather returns a tuple.
            gathers = [itemgetter(*part) for part in parts]
        else:
            # The one block at s = 3 reads the chunks off exp: gathered, up
            # to three chunks of size / 2 entries would sit beside the tables.
            gathers = [lambda row, part=part: map(row.__getitem__, part)
                       for part in parts]
        restep = itemgetter(*step)
        for _ in range(s - 2):
            block = gathers[0](rows[0])
            for gather, row in zip(gathers[1:], rows[1:]):
                block = map(add, block, gather(row))
            yield block
            rows = [restep(row) for row in rows]

    def _step_images(self, gen):
        """Chunk images of the F_p-linear map x -> x * gen.

        The base-p digits of an encoding are its F_p coordinates, so an
        encoding splits into chunks of w digits, x = sum_j x_j * radix^j
        with radix = p^w, and x * gen = sum_j (x_j * radix^j) * gen: one
        lookup per chunk, summed by XOR in characteristic 2 and digit by
        digit in the ground field otherwise.  Returns radix and, per chunk
        j, (x_j * radix^j) * gen for every chunk value x_j: encodings in
        characteristic 2, else ground digits high to low.  Each chunk's
        images are a linear table (_linear_table) grown from one
        polynomial product per digit.  The chunks are as even as
        _MAX_CHUNK allows, and one digit each when p alone exceeds it.
        """
        p, d, digits = self.char, self.degree, 0
        while p ** digits < self.size:
            digits += 1
        widest = 1
        while p ** (widest + 1) <= _MAX_CHUNK:
            widest += 1
        width = -(-digits // -(-digits // widest))
        products = [self._raw_mul(p ** i, gen) for i in range(digits)]
        if p == 2:
            adders, zero = [partial(xor, b) for b in products], 0
        else:
            add, zero = self.ground.add, (0,) * d

            def plus(b, y):
                return tuple(map(add, y, b))
            adders = [partial(plus, tuple(reversed(self.digits(b, d))))
                      for b in products]
        return p ** width, [_linear_table(p, adders[lo:lo + width], zero)
                            for lo in range(0, digits, width)]

    def _build_zech(self):
        """zech[k] = log(1 + g^k), None where 1 + g^k = 0.

        The lowest base-p digit of an encoding is the constant term's
        prime-field coefficient at every level.  Adding 1 steps only that
        digit, p - 1 wrapping to 0, so for each digit t, log at stride p
        from t pairs with log at stride p from t's successor; x = 0,
        which has no log, is skipped.  -1 = g^((size-1)/2) in odd
        characteristic.
        """
        p, size, log = self.char, self.size, self._log
        zech = [None] * (size - 1)
        for t in range(p):
            start = t or p
            nxt = start + 1 if t < p - 1 else 0
            for k, z in zip(_strided(log, start, size, p),
                            _strided(log, nxt, size, p)):
                zech[k] = z
        self._zech = zech
        self._half = (size - 1) // 2

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
        if type(e) is not int:
            raise OutOfRange(f"power {e!r} is not an int")
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


def _check_tower(tower):
    if not isinstance(tower, FieldTower):
        raise UsageError(f"tower must be a FieldTower, not {tower!r}")


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
    DEFAULT_SIZE_BUDGET for None.  Any other budget must be an int: 1.0
    and True hash as 1, so they would share a cached tower's key."""
    if size_budget is None:
        return DEFAULT_SIZE_BUDGET
    if type(size_budget) is not int:
        raise UsageError(f"size budget must be an int, not {size_budget!r}")
    return size_budget


def _check_budget(work, budget, what):
    """Refuse work over the size budget; every guard raises
    SizeBudgetExceeded here, in this one message shape."""
    if work > budget:
        raise SizeBudgetExceeded(
            f"{what} = {work} is over the size budget {budget}")


def _check_tower_params(p, m, n, budget):
    """Cheap checks first: types before any cache sees them (1.0 and True
    hash as 1), the size before p is factored, and p^(m*n) only once m*n
    is below the budget's bit length, which p >= 2 makes a bound.  The
    budget is an int already (_size_budget)."""
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"characteristic {p} is not prime")
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise DegreeZero(f"extension degrees must be ints of at least 1, "
                         f"not m={m!r}, n={n!r}")
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
        """The permutation table of x -> x^q, walked in exponent order.

        Multiplying by q mod q^n - 1 rotates base-q digits: for
        i = a * q^(n-1) + r, (g^i)^q = g^(a + r * q).  So the images of
        g^0, g^1, ..., g^(q^n - 1) = 1 are the q slices
        exp[a:a + q^n:q] one after another, each q^(n-1) long, and one
        loop writes frob[g^i] = image.  Its entries are the exp table's
        int objects, not new ones."""
        exp, q, size = self.top._exp, self.q, self.size
        frob = [0] * size
        images = chain.from_iterable(_strided(exp, a, a + size, q)
                                     for a in range(q))
        for x, y in zip(exp, images):
            frob[x] = y
        self.frob_table = frob

    def _build_trace(self):
        """Tr is F_q-linear, so its table is a linear table
        (_linear_table): the base-p digit u^j * v^k of a top encoding adds
        u^j * Tr(v^k), Tr(v^k) a sum of conjugates, through the q-entry
        row y -> y + u^j * Tr(v^k), one lookup per entry.  The rows hold
        the middle field's own int objects, so the table holds at most q
        distinct ints."""
        frob, p, q, mid = self.frob_table, self.p, self.q, self.mid
        canon = [0, *map(mid._exp.__getitem__, islice(mid._log, 1, q))]
        rows = []
        for k in range(self.n):
            tr_vk = t = q ** k
            for _ in range(self.n - 1):
                t = frob[t]
                tr_vk = self.top.add(tr_vk, t)
            for j in range(self.m):
                sums = map(mid.add, range(q), repeat(mid.mul(p ** j, tr_vk)))
                rows.append(list(map(canon.__getitem__, sums)).__getitem__)
        self.trace_table = _linear_table(p, rows, 0)

    def __reduce__(self):
        return make_tower, (self.p, self.m, self.n, self.mid.modulus,
                            self.top.modulus, self.size_budget)

    @property
    def field_spec(self):
        return f"{self.p}^{self.m}:{self.n}"

    # Maps on top encodings; each refuses an a outside the field, and a
    # degree or power that is not an int, as _check_tower_params does:
    # 2.0 and True pass a range test, then fail in range() or count as 1.

    def frob_enc(self, a, i=1):
        _check_enc(self, a, "element")
        if type(i) is not int or not 0 <= i < self.n:
            raise OutOfRange(
                f"Frobenius power {i!r} is not an int in 0..{self.n - 1}")
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
        if type(d) is not int or d < 1 or self.n % d != 0:
            raise NonDivisorDegrees(
                f"degree {d!r} is not an int dividing {self.n}")
        t = a
        for _ in range(d):
            t = self.frob_table[t]
        return t == a

    def trace_rel_enc(self, a, frm, to):
        """Relative trace from F_{q^frm} down to F_{q^to}."""
        if (type(frm) is not int or type(to) is not int or frm < 1
                or to < 1 or frm % to != 0 or self.n % frm != 0):
            raise NonDivisorDegrees(f"need ints with to | frm | n, "
                                    f"got to={to!r} frm={frm!r} n={self.n}")
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


def _explicit_modulus(f, degree, s, name):
    """f as a tuple, once it is a monic polynomial of the degree over the
    field of s elements.  2.0 and True equal 2 and 1: let in, they would
    share the cache key of a field already built, or be stored in the
    modulus of a new one.  A non-iterable f is refused the same way."""
    f = tuple(f) if hasattr(f, "__iter__") else ()
    if len(f) != degree + 1 or not all(type(c) is int and 0 <= c < s
                                       for c in f):
        raise InvalidModulus(f"{name} must be {degree + 1} int coefficients "
                             f"in 0..{s - 1}, low to high")
    if f[-1] != 1:
        raise InvalidModulus(f"{name} must be monic")
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
    cache_clear also forgets the middle fields, the canonical moduli and
    every memo keyed by a tower (_tower_memos).
    """
    budget = _size_budget(size_budget)
    _check_tower_params(p, m, n, budget)
    g = _canonical(p, m) if g is None else _explicit_modulus(g, m, p, "g")
    h = (_canonical(p, n, g) if h is None
         else _explicit_modulus(h, n, p ** m, "h"))
    return _cached_tower(p, m, n, g, h, budget)


# Memos keyed by a tower in the modules above this one, each added once
# at their import; cache_clear clears them with the tower cache, so a
# tower it forgets is not kept alive by a pair scan or a level set.
_tower_memos = []


def _clear_caches():
    for cache in (_cached_tower, _canonical, _mid_field, *_tower_memos):
        cache.cache_clear()


make_tower.cache_info = _cached_tower.cache_info
make_tower.cache_clear = _clear_caches


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
