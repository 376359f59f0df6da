"""Fixed-precision p-adic numbers, the unit-root splitting machinery
behind the ordinary projector, and the small-integer number theory
(primality, prime ranges, factoring, orders) of the other layers.

Precision model: a computation fixes its coefficient ring, the
`PadicContext` that `padic_ring(p, m)` returns (one object per (p, m),
checked once when it is made), and works modulo p^m.  Anything that would
need more precision raises PrecisionExhausted instead of silently
degrading.  Values of negative valuation are stored as a unit residue
together with an explicit integer valuation.

The precision rules live in the context's methods on normal-form
(unit, val) int pairs: `normalize` and the `add`, `neg`, `mul`,
`mul_residue` and `div_unit` built on it.  `PadicNumber` and the
coefficient vectors of `hz.qexp` both call them, so the two agree digit
for digit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt


class PadicError(ArithmeticError):
    pass


class PrecisionExhausted(PadicError):
    pass


class NotOrdinary(PadicError):
    pass


class SingularResultant(PadicError):
    """Internal error: the unit/non-unit factors share a root mod p."""


def int_valuation(n: int, p: int) -> int:
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- small-integer number theory ----------------------------------------------

# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class OutOfRange(PadicError):
    """An integer beyond the range where a test is proved exact."""


def isprime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; OutOfRange for
    n >= 3.3 * 10^24, where the 13 bases are no longer proved enough."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise OutOfRange("the primality test is proved only below %d, got %d" % (_MR_LIMIT, n))
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primerange(start: int, stop: int):
    """The primes p with start <= p < stop in increasing order, by a
    segmented sieve of Eratosthenes (memory O(sqrt(stop) + segment))."""
    start = max(start, 2)
    if stop <= start:
        return
    root = isqrt(stop - 1)
    small = bytearray([1]) * (root + 1)
    small[:2] = b"\0\0"
    for q in range(2, isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
    base = list(compress(range(root + 1), small))
    width = max(root, 1 << 15)
    for lo in range(start, stop, width):
        hi = min(lo + width, stop)
        seg = bytearray([1]) * (hi - lo)
        for q in base:
            if q * q >= hi:
                break
            first = max(q * q, -(-lo // q) * q) - lo
            seg[first::q] = bytes(len(range(first, hi - lo, q)))
        yield from compress(range(lo, hi), seg)


def factorize(n: int):
    """The prime factorization of n > 0 as (q, e) pairs with q increasing,
    by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = int_valuation(n, q)
            out.append((q, e))
            n //= q**e
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int):
    """The positive divisors of n > 0 in increasing order."""
    out = [1]
    for q, e in factorize(n):
        out = [d * q**i for d in out for i in range(e + 1)]
    return sorted(out)


def divisor_sigma(n: int, k: int) -> int:
    """sigma_k(n), the sum of d^k over the positive divisors d of n > 0."""
    return sum(d**k for d in divisors(n))


def n_order(a: int, p: int) -> int:
    """The multiplicative order of a modulo a prime p that does not divide
    it, from the factorization of p - 1."""
    if a % p == 0:
        raise ValueError("%d is not a unit modulo %d" % (a, p))
    order = p - 1
    for q, e in factorize(p - 1):
        for _ in range(e):
            if pow(a, order // q, p) != 1:
                break
            order //= q
    return order


# -- the coefficient ring --------------------------------------------------
# A value at precision m is stored as the pair (unit, val) for unit * p^val
# in normal form: unit reduced mod p^m with p stripped, and (0, 0) when the
# unit is 0 or val >= m.  The ring's methods take and return normal-form
# pairs, so the precision rules exist only there.


class PadicContext:
    """The coefficient ring of p-adic numbers known modulo p^m.  There is
    one per (p, m), made by `padic_ring`, so rings compare by identity.
    It holds p, m and p^m, the arithmetic and JSON codec of normal-form
    pairs, and it is the `ring` of each PadicNumber and expansion over it."""

    __slots__ = ("p", "m", "pm")
    zero = (0, 0)
    dump = staticmethod(list)  # the JSON form of a pair: [unit, val]

    def __init__(self, p: int, m: int):
        if not (type(p) is int and type(m) is int and isprime(p)):
            raise PadicError("unsupported coefficient ring %r" % (["padic", p, m],))
        if m < 1:
            raise PrecisionExhausted("precision m must be >= 1")
        self.p, self.m, self.pm = p, m, p**m

    def __repr__(self):
        return "padic_ring(%d, %d)" % (self.p, self.m)

    def to_json(self):
        return ["padic", self.p, self.m]

    def normalize(self, unit: int, val: int):
        """The normal form of unit * p^val."""
        unit %= self.pm
        if not unit:
            return (0, 0)
        p = self.p
        while not unit % p:
            unit //= p
            val += 1
        return (0, 0) if val >= self.m else (unit, val)

    def add(self, a, b):
        (ua, va), (ub, vb) = a, b
        if not ua:
            return b
        if not ub:
            return a
        if va <= vb:
            return self.normalize(ua + ub * self.p ** (vb - va), va)
        return self.normalize(ua * self.p ** (va - vb) + ub, vb)

    def neg(self, a):
        return self.normalize(-a[0], a[1])

    def mul(self, a, b):
        if not (a[0] and b[0]):
            return (0, 0)
        return self.normalize(a[0] * b[0], a[1] + b[1])

    def mul_residue(self, a, r: int):
        """a times the integer r, r taken in normal form first: reduced mod
        p^m with p stripped into the valuation."""
        r %= self.pm
        if not (a[0] and r):
            return (0, 0)
        p, val = self.p, a[1]
        while not r % p:
            r //= p
            val += 1
        return self.normalize(a[0] * r, val)

    def div_unit(self, a, r: int):
        """a divided by the integer r, a unit mod p whenever a is nonzero."""
        if not a[0]:
            return (0, 0)
        return self.normalize(a[0] * pow(r, -1, self.pm), a[1])

    def store(self, value):
        """value as a normal-form pair: a PadicNumber of this ring as it is,
        an int or a rational by reduction; raises PadicError on a
        PadicNumber of another ring."""
        if isinstance(value, PadicNumber):
            if value.ring is not self:
                raise PadicError("mixed p-adic contexts")
            return value.unit, value.val
        if isinstance(value, int):
            return self.normalize(value, 0)
        q = Fraction(value)
        den, p = q.denominator, self.p
        vd = int_valuation(den, p) if den % p == 0 else 0
        return self.normalize(q.numerator * pow(den // p**vd, -1, self.pm), -vd)

    def load(self, a) -> "PadicNumber":
        """The PadicNumber of the normal-form pair a."""
        x = object.__new__(PadicNumber)
        x.ring = self
        x.unit, x.val = a
        return x

    def parse(self, obj):
        """The normal form of a pair as `dump` writes it: a list of two
        ints; ValueError on anything else."""
        if type(obj) is list and len(obj) == 2:
            unit, val = obj
            if type(unit) is int and type(val) is int:
                return self.normalize(unit, val)
        raise ValueError("p-adic value %r is not a pair of ints" % (obj,))


@lru_cache(maxsize=None, typed=True)
def padic_ring(p: int, m: int, /) -> PadicContext:
    """The ring of p-adic numbers modulo p^m, one object per (p, m): int p
    prime and int m >= 1, else PadicError (PrecisionExhausted for m < 1).
    Typed, so padic_ring(7.0, 3) is refused, not taken for (7, 3)."""
    return PadicContext(p, m)


class PadicNumber:
    """An element of Q_p known to m significant p-adic digits.

    value = unit * p^val with (unit, val) a normal-form pair of `ring`.
    Unhashable: equality mod p^m with ints is not transitive (1 == 50 at
    7^2), so no hash can agree with it.
    """

    __slots__ = ("ring", "unit", "val")
    __hash__ = None

    def __init__(self, p: int, m: int, unit: int, val: int = 0):
        ring = self.ring = padic_ring(p, m)
        self.unit, self.val = ring.normalize(unit, val)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, p: int, m: int) -> "PadicNumber":
        return cls(p, m, n, 0)

    @classmethod
    def zero(cls, p: int, m: int) -> "PadicNumber":
        return cls(p, m, 0, 0)

    @classmethod
    def one(cls, p: int, m: int) -> "PadicNumber":
        return cls(p, m, 1, 0)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    def valuation(self):
        """Exact valuation, or None for (indistinguishable from) zero."""
        return None if self.unit == 0 else self.val

    @property
    def residue(self) -> int:
        """The class mod p^m, defined for non-negative valuation."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise PrecisionExhausted(
                "residue mod p^m undefined at negative valuation %d" % self.val
            )
        ring = self.ring
        return self.unit * ring.p**self.val % ring.pm

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "PadicNumber":
        """other in this number's ring; see `PadicContext.store`."""
        ring = self.ring
        return ring.load(ring.store(other))

    def _binary(self, op, other):
        """The ring operation op on this number and other, other coerced
        into this number's ring."""
        ring = self.ring
        return ring.load(op(ring, (self.unit, self.val), ring.store(other)))

    def __add__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._binary(PadicContext.add, other)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return ring.load(ring.neg((self.unit, self.val)))

    def __sub__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self._binary(PadicContext.mul, other)

    __rmul__ = __mul__

    def inverse(self) -> "PadicNumber":
        if self.unit == 0:
            raise ZeroDivisionError("p-adic inverse of zero")
        ring = self.ring
        return ring.load(ring.normalize(pow(self.unit, -1, ring.pm), -self.val))

    def __truediv__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return self * self._coerce(other).inverse()

    def __pow__(self, e: int):
        ring = self.ring
        if e == 0:
            return ring.load((1, 0))
        if e < 0:
            return self.inverse() ** (-e)
        if self.unit == 0:
            return ring.load(ring.zero)
        return ring.load(ring.normalize(pow(self.unit, e, ring.pm), self.val * e))

    def __eq__(self, other):
        if not isinstance(other, _OPERANDS):
            return NotImplemented
        return (self - self._coerce(other)).unit == 0

    def __repr__(self):
        p, m = self.ring.p, self.ring.m
        if self.unit == 0:
            return "O(%d^%d)" % (p, m)
        return "%d*%d^%d + O(%d^%d)" % (self.unit, p, self.val, p, m + self.val)


# the operands a PadicNumber operator coerces; others get NotImplemented
_OPERANDS = (PadicNumber, int, Fraction)


def as_padic(value, p: int, m: int) -> PadicNumber:
    """value in the ring (p, m) as a PadicNumber; see `PadicContext.store`."""
    ring = padic_ring(p, m)
    if isinstance(value, PadicNumber) and value.ring is ring:
        return value
    return ring.load(ring.store(value))


def teichmuller(n: int, p: int, m: int) -> PadicNumber:
    """The Teichmuller lift of n mod p (odd p): the (p-1)-th root of unity
    congruent to n mod p."""
    if p == 2:
        raise PadicError("Teichmuller lift implemented for odd p only")
    if n % p == 0:
        return PadicNumber.zero(p, m)
    w = pow(n, p ** (m - 1), p**m)
    return PadicNumber(p, m, w, 0)


# ---------------------------------------------------------------------------
# Hensel lifting


def hensel_unit_root(a, b, p: int, m: int) -> PadicNumber:
    """Unit root of X^2 - a X + b (a and b ints, rationals or PadicNumbers)
    in the ordinary case v_p(a) = 0, v_p(b) >= 1, to precision p^m.  The
    root is congruent to a mod p."""
    a, b = as_padic(a, p, m), as_padic(b, p, m)
    if a.is_zero() or a.val > 0:
        raise NotOrdinary("v_p of the linear coefficient is positive")
    if not (b.is_zero() or b.val >= 1):
        raise NotOrdinary("v_p of the constant coefficient must be >= 1")
    # a mod p is a simple root: the derivative there is a, a unit
    return PadicNumber(p, m, lift_root(a.residue, b.residue, a.residue, p, m))


def lift_root(t: int, n: int, r: int, p: int, m: int) -> int:
    """Hensel-lift a simple root r of x^2 - t x + n from mod p to mod p^m
    by Newton iteration, doubling the precision at each step."""
    x = r % p
    k = 1
    while k < m:
        k = min(2 * k, m)
        mod = p**k
        fx = (x * x - t * x + n) % mod
        dfx = (2 * x - t) % mod
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return x


# -- integer polynomial helpers (coefficient lists low-to-high, mod n) ------


def _ptrim(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, n):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % n
    return _ptrim(out)


def _padd(f, g, n):
    out = [0] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] = a
    for j, b in enumerate(g):
        out[j] = (out[j] + b) % n
    return _ptrim(out)


def _psub(f, g, n):
    return _padd(f, [(-b) % n for b in g], n)


def _pdivmod_monic(f, g, n):
    """divmod by a polynomial with unit leading coefficient, mod n."""
    f = f[:]
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, n)
    q = [0] * max(len(f) - dg, 1)
    while len(f) - 1 >= dg and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        shift = len(f) - 1 - dg
        c = (f[-1] * lead_inv) % n
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % n
        f.pop()
    return _ptrim(q), _ptrim(f if f else [0])


def _pmulmod(f, g, h, n):
    """f g mod (h, n) for h with unit leading coefficient."""
    return _pdivmod_monic(_pmul(f, g, n), h, n)[1]


def _ppowmod(f, e, h, n):
    """f^e mod (h, n), left-to-right binary, so a short f (such as x)
    costs one cheap product per bit on top of the squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _pmulmod(out, out, h, n)
        if bit == "1":
            out = _pmulmod(out, f, h, n)
    return out


def _gcd_poly_modp(f, g, p):
    """Monic gcd over F_p[X], by Euclid without cofactors."""
    r0, r1 = _ptrim([c % p for c in f]), _ptrim([c % p for c in g])
    while r1 != [0]:
        r0, r1 = r1, _pdivmod_monic(r0, r1, p)[1]
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0]


def _xgcd_poly_modp(f, g, p):
    """Extended gcd over F_p[X]; returns (gcd, s, t) with s f + t g = gcd."""
    r0, r1 = _ptrim([c % p for c in f]), _ptrim([c % p for c in g])
    s0, s1 = [1], [0]
    t0, t1 = [0], [1]
    while r1 != [0]:
        q, r = _pdivmod_monic(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, p), p)
    lead = r0[-1]
    inv = pow(lead, -1, p)
    return ([c * inv % p for c in r0], [c * inv % p for c in s0], [c * inv % p for c in t0])


def _hensel_step(f, g, h, s, t, mod_old, mod_new):
    """One quadratic Hensel step: given f = g h and s g + t h = 1 mod
    mod_old, return the lifts mod mod_new (mod_old^2 >= mod_new).
    h must be monic."""
    n = mod_new
    e = _psub(f, _pmul(g, h, n), n)
    q, r = _pdivmod_monic(_pmul(s, e, n), h, n)
    g1 = _padd(_padd(g, _pmul(t, e, n), n), _pmul(q, g, n), n)
    h1 = _padd(h, r, n)
    b = _psub(_padd(_pmul(s, g1, n), _pmul(t, h1, n), n), [1], n)
    c, d = _pdivmod_monic(_pmul(s, b, n), h1, n)
    s1 = _psub(s, d, n)
    t1 = _psub(_psub(t, _pmul(t, b, n), n), _pmul(c, g1, n), n)
    return g1, h1, s1, t1


def _split_int_poly(f_int, p, m):
    """Split a monic integer polynomial mod p^m as (unit, nonunit, s, t),
    both factors monic, with s*unit + t*nonunit = 1 mod p^m.  unit collects
    the roots of valuation 0 and nonunit the roots of positive valuation."""
    pm = p**m
    f_int = [c % pm for c in f_int]
    if f_int[-1] != 1:
        raise PadicError("the polynomial to split must be monic")
    fbar = [c % p for c in f_int]
    if all(c == 0 for c in fbar):
        raise PrecisionExhausted("polynomial is 0 mod p; polygon unresolved")
    # strip the X^s factor of the reduction
    sdeg = 0
    while fbar[sdeg] == 0:
        sdeg += 1
    g = _ptrim(fbar[sdeg:])
    if len(g) == 1:  # no unit roots
        return [1], f_int, [1], [0]
    if sdeg == 0:  # no non-unit roots
        return f_int, [1], [0], [1]
    # f = g * X^sdeg mod p; Hensel lifting keeps both factors monic
    h = [0] * sdeg + [1]
    gcd, s, t = _xgcd_poly_modp(g, h, p)
    if gcd != [1]:
        raise SingularResultant("unit and non-unit parts share a root mod p")
    k = 1
    while k < m:
        k = min(2 * k, m)
        g, h, s, t = _hensel_step(f_int, g, h, s, t, p ** (k // 2), p**k)
    if _pmul(g, h, pm) != f_int:
        raise PadicError(
            "unit/non-unit split of degree %d + %d does not multiply back to "
            "the polynomial mod %d^%d" % (len(g) - 1, len(h) - 1, p, m)
        )
    return g, h, s, t


# ---------------------------------------------------------------------------
# matrices of p-adic integers (residues mod p^m)


def _mat_mul(A, B, n):
    dim = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(dim)) % n for j in range(dim)]
        for i in range(dim)
    ]


def _mat_pow(A, e, n):
    dim = len(A)
    R = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    while e:
        if e & 1:
            R = _mat_mul(R, A, n)
        A = _mat_mul(A, A, n)
        e >>= 1
    return R


def _charpoly_int(A):
    """Characteristic polynomial (low-to-high, monic) of an integer matrix,
    by the Faddeev-LeVerrier recursion over exact rationals."""
    dim = len(A)
    Mk = [[Fraction(x) for x in row] for row in A]
    coeffs = [Fraction(1)]  # built high-to-low: X^dim + c1 X^{dim-1} + ...
    I = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    Nk = Mk
    for k in range(1, dim + 1):
        tr = sum(Nk[i][i] for i in range(dim))
        ck = -tr / k
        coeffs.append(ck)
        if k < dim:
            shifted = [[Nk[i][j] + (ck if i == j else 0) for j in range(dim)] for i in range(dim)]
            Nk = [
                [
                    sum(Mk[i][l] * shifted[l][j] for l in range(dim))
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
    if any(c.denominator != 1 for c in coeffs):
        raise PadicError("characteristic polynomial with a non-integral coefficient")
    return [int(c) for c in reversed(coeffs)]  # low-to-high


def _poly_at_matrix(coeffs, M, n):
    dim = len(M)
    acc = [[0] * dim for _ in range(dim)]
    for c in reversed(coeffs):
        acc = _mat_mul(acc, M, n)
        for i in range(dim):
            acc[i][i] = (acc[i][i] + c) % n
    return acc


def bezout_projector(M, p: int, m: int):
    """The idempotent e = t(M) * v(M) where charpoly = u*v splits into unit
    and non-unit parts and s u + t v = 1 mod p^m.  Acts as the identity on
    the unit-root generalized eigenspace and as 0 on the rest; realizes the
    limit of the U^{n!} iterates in finite dimension."""
    pm = p**m
    A = []
    for row in M:
        r = []
        for x in row:
            xp = as_padic(x, p, m)
            if xp.val < 0:
                raise PadicError("matrix entries must be p-adically integral")
            r.append(xp.residue)
        A.append(r)
    u, v, s, t = _split_int_poly(_charpoly_int(A), p, m)
    if len(v) == 1:  # all roots are units (with none, t = 0 makes E = 0)
        E = [[1 if i == j else 0 for j in range(len(A))] for i in range(len(A))]
    else:
        tv = _pmul(t, v, pm)
        E = _poly_at_matrix(tv, A, pm)
    return [[PadicNumber(p, m, x) for x in row] for row in E]


def ordinary_iterate_oracle(M, p: int, m: int):
    """Reference computation of lim M^{n!} mod p^m: a single large power.

    The exponent must be divisible by p^f - 1 for every residue degree f up
    to the dimension (unit eigenvalues may live in unramified extensions)
    and by a high power of p (to flatten nilpotent parts and principal
    units); n! eventually is, so one such exponent realizes the limit."""
    import math

    pm = p**m
    A = [[as_padic(x, p, m).residue for x in row] for row in M]
    e = 1
    for f in range(1, len(A) + 1):
        e = math.lcm(e, p**f - 1)
    e *= p ** (m + len(A) + 2)
    E = _mat_pow(A, e, pm)
    return [[PadicNumber(p, m, x) for x in row] for row in E]
