"""Truncated q-expansion algebra for elliptic and Hilbert modular forms,
with the operator calculus: U and V (on elliptic expansions), depletion,
character twists, theta operators, and diagonal restriction.

Coefficient rings are exact rationals or fixed-precision p-adics.  Every
operator tracks its output bound explicitly: coefficients beyond the bound
are unknown, never assumed zero, and operations that would need unknown
coefficients fail loudly.

Hilbert expansions live on the identity component, indexed by the totally
positive elements of the inverse different with trace up to the trace
bound.  Each field has one `HilbertDomain`: those elements in trace order,
enumerated on demand, each as its one key: the integer pair (a, b) with
D*xi = a + b*omega (D the discriminant).  An expansion stores
one coefficient per element (explicit zeros included) in a list aligned to
a prefix of its field's domain, so a trace bound is a prefix length and the
residue maps at a split prime are per-domain vectors aligned the same way.
The coefficient ring is an object: RATIONAL, or the `hz.padic.PadicContext`
that `padic_ring(p, m)` returns.  Expansions hold values in the ring's
stored form (a rational is an int when integral and a Fraction otherwise;
a p-adic value is a normal-form (unit, val) int pair), and the operators
call the ring's own arithmetic on them, so the bulk work runs on plain
integers; `coefficient` returns a ring value (a PadicNumber)."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from .padic import (
    PadicContext, PadicError, PadicNumber, divisor_sigma, factorize, int_valuation, padic_ring,
    teichmuller,
)
from .realquad import (
    PrimeIdealData,
    QuadElement,
    RealQuadraticField,
    make_field,
    split_prime,
    splitting_type,
    totally_positive_by_trace,
)

# public API; split_prime and PadicNumber are re-exported for the PrimeIdealData
# the operators take and the p-adic values that f[n] and coefficient return
__all__ = [
    "QExpError", "BoundTooSmall", "ExactRingUnsupported", "CharacterDomainMismatch", "NotDepleted",
    "RATIONAL", "padic_ring", "EllipticQExp",
    "u_operator", "v_operator", "deplete", "elliptic_twist",
    "hecke_T", "q_derivative", "HilbertDomain", "hilbert_domain", "HilbertQExp",
    "siegel_zeta_minus1", "ideal_divisor_sigma", "eisenstein_hilbert",
    "eisenstein_normalization_constant", "diagonal_restrict", "hilbert_deplete", "twist_star", "theta_d", "theta_d_inverse",
    "conjugate_ratio_partner", "to_json", "from_json", "required_key", "PrimeIdealData", "split_prime", "PadicNumber",
]


class QExpError(ArithmeticError):
    pass


class BoundTooSmall(QExpError):
    pass


class ExactRingUnsupported(QExpError):
    pass


class CharacterDomainMismatch(QExpError):
    pass


class NotDepleted(QExpError):
    pass


def _frac_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def _rational(value):
    """value as an int when it is integral, else as a Fraction."""
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


class _Rationals:
    """The exact coefficient ring, with the protocol of a `PadicContext`
    (zero, store, load, add, mul and the JSON codec parse and dump).
    `store` and `parse` give an int for an integral value and a Fraction
    otherwise; arithmetic may give either, and values compare by value.
    `/` on two ints makes a float, so a quotient of stored values always
    has a Fraction on one side."""

    zero = 0
    store = staticmethod(_rational)
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)
    dump = staticmethod(_frac_str)

    def __repr__(self):
        return "RATIONAL"

    def to_json(self):
        return ["rational"]

    def load(self, value):
        return value

    def parse(self, text):
        """The value `dump` writes as "n/d"; ValueError on anything else."""
        try:
            num, den = text.split("/")
            return _rational(Fraction(int(num), int(den)))
        except (AttributeError, ValueError, ZeroDivisionError):
            raise ValueError("rational value %r is not \"n/d\" with d != 0" % (text,)) from None


RATIONAL = _Rationals()


def _checked(ring):
    """ring, if it is a coefficient ring: RATIONAL or a p-adic context."""
    if ring is RATIONAL or type(ring) is PadicContext:
        return ring
    raise QExpError("unsupported coefficient ring %r" % (ring,))


# ---------------------------------------------------------------------------
# elliptic expansions


class EllipticQExp:
    """Truncated expansion sum a_n q^n, 0 <= n <= bound.  `coeffs` holds the
    ring's stored form; `f[n]` returns a ring value."""

    __slots__ = ("weight", "level", "character", "bound", "coeffs", "ring")

    def __init__(self, weight, level, bound, coeffs, ring=RATIONAL, character=None):
        store = _checked(ring).store
        self._set(weight, level, bound, [store(c) for c in coeffs], ring, character)

    @classmethod
    def _make(cls, weight, level, bound, coeffs, ring, character=None):
        """An expansion from coefficients already in the stored form."""
        f = object.__new__(cls)
        f._set(weight, level, bound, coeffs, ring, character)
        return f

    def _set(self, weight, level, bound, coeffs, ring, character):
        if bound < 0:
            raise BoundTooSmall("bound must be >= 0")
        if len(coeffs) != bound + 1:
            raise QExpError("need exactly bound+1 coefficients")
        self.weight, self.level, self.bound = weight, level, bound
        # character: None (trivial) or dict n mod level -> value
        self.coeffs, self.ring, self.character = coeffs, ring, character

    def _derive(self, coeffs) -> "EllipticQExp":
        """Same weight, level, ring and character; stored coefficients 0 .. bound."""
        return self._make(
            self.weight, self.level, len(coeffs) - 1, coeffs, self.ring, self.character
        )

    @classmethod
    def zero(cls, weight, level, bound, ring=RATIONAL):
        return cls._make(weight, level, bound, [_checked(ring).zero] * (bound + 1), ring)

    def __getitem__(self, n: int):
        if not 0 <= n <= self.bound:
            raise BoundTooSmall(
                "coefficient %d beyond known bound %d" % (n, self.bound)
            )
        return self.ring.load(self.coeffs[n])

    def _chi(self, n: int):
        """chi(n) in the stored form."""
        value = 1 if self.character is None else self.character.get(n % self.level)
        if value is None:
            raise CharacterDomainMismatch("character undefined at %d" % (n % self.level))
        return self.ring.store(value)

    def __add__(self, other):
        if not isinstance(other, EllipticQExp):
            return NotImplemented
        if self.ring is not other.ring:
            raise QExpError("mixed coefficient rings")
        add = self.ring.add
        # zip stops at the smaller bound
        return self._derive([add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "EllipticQExp":
        c, mul = self.ring.store(c), self.ring.mul
        return self._derive([mul(c, a) for a in self.coeffs])

    def eq_at_precision(self, other) -> bool:
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        zero = self.ring.zero
        return all(v == zero for v in self.coeffs)

    def __repr__(self):
        return "EllipticQExp(weight=%r, level=%r, bound=%d)" % (
            self.weight,
            self.level,
            self.bound,
        )


def u_operator(f: EllipticQExp, p: int) -> EllipticQExp:
    newbound = f.bound // p
    if newbound < 1:
        raise BoundTooSmall("bound %d too small for U_%d" % (f.bound, p))
    return f._derive(f.coeffs[::p])


def v_operator(f: EllipticQExp, p: int, storage_cap: int = 10**6) -> EllipticQExp:
    newbound = min(f.bound * p, storage_cap)
    out = [f.ring.zero] * (newbound + 1)
    for n in range(f.bound + 1):
        if p * n <= newbound:
            out[p * n] = f.coeffs[n]
    return f._derive(out)


def deplete(f: EllipticQExp, p: int) -> EllipticQExp:
    """f - V(U(f)): kills every coefficient with index divisible by p.
    The constant term is killed too (it is the p*0-th coefficient)."""
    zero = f.ring.zero
    return f._derive([zero if n % p == 0 else c for n, c in enumerate(f.coeffs)])


def elliptic_twist(f: EllipticQExp, j: int = 0, p: int = None) -> EllipticQExp:
    """Twist by omega^j at p: for n prime to p, a_n -> omega(n)^j * a_n
    (omega the Teichmuller character); coefficients with p | n are
    killed."""
    ring = f.ring
    if ring is RATIONAL:
        raise ExactRingUnsupported("twisting requires p-adic coefficients")
    if p is None:
        p = ring.p
    if p != ring.p:
        raise QExpError("twist prime must match the coefficient ring")
    e, out = j % (p - 1), []
    for n, c in enumerate(f.coeffs):
        if n % p == 0:
            c = ring.zero
        elif e:  # omega(n)^e is a unit, so the product needs no renormalizing
            c = ring.mul_unit(c, pow(teichmuller(n, p, ring.m).unit, e, ring.pm))
        out.append(c)
    return f._derive(out)


def hecke_T(f: EllipticQExp, ell: int) -> EllipticQExp:
    """T_ell for a prime ell not dividing the level:
    a_n -> a_{ell n} + chi(ell) ell^{k-1} a_{n/ell}."""
    if f.level % ell == 0:
        raise QExpError("T_ell requires ell prime to the level")
    newbound = f.bound // ell
    if newbound < 1:
        raise BoundTooSmall("bound %d too small for T_%d" % (f.bound, ell))
    ring = f.ring
    scale = ring.mul(f._chi(ell), ring.store(ell ** (f.weight - 1)))
    out = f.coeffs[::ell]  # a_{ell n} for n <= newbound
    for n in range(0, newbound + 1, ell):
        out[n] = ring.add(out[n], ring.mul(scale, f.coeffs[n // ell]))
    return f._derive(out)


def q_derivative(f: EllipticQExp) -> EllipticQExp:
    """q d/dq: a_n -> n a_n (weight bookkeeping left to the caller)."""
    ring = f.ring
    return f._derive([ring.mul(ring.store(n), c) for n, c in enumerate(f.coeffs)])


# ---------------------------------------------------------------------------
# Hilbert expansions


class HilbertDomain:
    """The totally positive elements of the inverse different of one field,
    in canonical order (by trace, then coordinates), enumerated on demand.

    `offsets[t]` is the position where trace t starts, so the elements with
    trace <= T are the prefix of length `offsets[T + 1]`.  `index` maps the
    pair (a, b) of an element xi, D*xi = a + b*omega, to its position; that
    pair is what `elements` holds.  Residue vectors at split primes and
    their inverses are cached in the same order, extended as it grows."""

    def __init__(self, F: RealQuadraticField):
        self.F = F
        self.elements = []
        self.offsets = [0, 0]
        self.index = {}
        self._residues = {}
        self._inverses = {}

    def size(self, T: int) -> int:
        """Number of elements with trace <= T, enumerating them if needed."""
        while len(self.offsets) < T + 2:
            for key in totally_positive_by_trace(self.F, len(self.offsets) - 1):
                self.index[key] = len(self.elements)
                self.elements.append(key)
            self.offsets.append(len(self.elements))
        return self.offsets[max(T + 1, 0)]

    def residues(self, prime_data: PrimeIdealData, which, T: int):
        """Residues mod p^m at prime `which`, in domain order, through at
        least trace T: (a + b*r) / D for the root r of omega at that prime.
        D is prime to a split p, so it is inverted once."""
        if which not in (1, 2):
            raise QExpError("the prime above p is 1 or 2, not %r" % (which,))
        n = self.size(T)
        key = (prime_data.p, prime_data.m, prime_data.roots, which)
        vec = self._residues.setdefault(key, [])
        pm, r = prime_data.p**prime_data.m, prime_data.roots[which - 1]
        inv = pow(self.F.discriminant, -1, pm)
        vec.extend((a + b * r) * inv % pm for a, b in self.elements[len(vec):n])
        return vec

    def inverses(self, prime_data: PrimeIdealData, which, T: int):
        """The inverses mod p^m of `residues`, 0 at a non-unit, cached alike."""
        res, p, pm = self.residues(prime_data, which, T), prime_data.p, prime_data.p**prime_data.m
        vec = self._inverses.setdefault((p, prime_data.m, prime_data.roots, which), [])
        vec.extend(pow(r, -1, pm) if r % p else 0 for r in res[len(vec):])
        return vec


_domain_cache: dict = {}  # F.d -> HilbertDomain


def _domain(F: RealQuadraticField) -> HilbertDomain:
    dom = _domain_cache.get(F.d)
    if dom is None:
        dom = _domain_cache[F.d] = HilbertDomain(F)
    return dom


def _element(F: RealQuadraticField, a: int, b: int) -> QuadElement:
    """The element xi of the domain pair (a, b): D*xi = a + b*omega."""
    return QuadElement(F, Fraction(a, F.discriminant), Fraction(b, F.discriminant))


def _dense(F: RealQuadraticField, values: list) -> list:
    """values, aligned to F's domain, once none of them is missing (None)."""
    if None in values:
        raise QExpError("dense storage violated: missing coefficient at %r"
                        % (_element(F, *_domain(F).elements[values.index(None)]),))
    return values


def hilbert_domain(F: RealQuadraticField, T: int):
    """Totally positive elements of the inverse different with trace <= T,
    in canonical order (by trace, then coordinates)."""
    dom = _domain(F)
    return tuple(_element(F, a, b) for a, b in dom.elements[: dom.size(T)])


class HilbertQExp:
    """Expansion over the identity component: constant term a0 plus one
    coefficient per domain element up to the trace bound, in a list
    aligned to the field's `HilbertDomain`.  a0 and the list hold the
    ring's stored form; `coefficient` returns a ring value."""

    __slots__ = ("F", "weights", "trace_bound", "a0", "coeffs", "ring")

    def __init__(self, F, weights, trace_bound, a0, coeffs, ring=RATIONAL):
        """`coeffs` maps (x, y) coordinates to values and must cover the
        whole domain up to the trace bound."""
        dom, store, D = _domain(F), _checked(ring).store, F.discriminant
        scaled = {(_over(x.numerator, x.denominator, D), _over(y.numerator, y.denominator, D)): v
                  for (x, y), v in coeffs.items()}
        values = _dense(F, [scaled.get(key) for key in dom.elements[: dom.size(trace_bound)]])
        self.F, self.weights, self.trace_bound = F, tuple(weights), trace_bound
        self.a0, self.coeffs, self.ring = store(a0), [store(v) for v in values], ring

    @classmethod
    def _make(cls, F, weights, trace_bound, a0, coeffs, ring):
        """An expansion from a coefficient list already aligned to the
        domain, with a0 and every value already in the stored form."""
        if len(coeffs) != _domain(F).size(trace_bound):
            raise QExpError("coefficient list does not match the domain")
        g = object.__new__(cls)
        g.F, g.weights, g.trace_bound = F, tuple(weights), trace_bound
        g.a0, g.coeffs, g.ring = a0, coeffs, ring
        return g

    def _derive(self, coeffs, a0, weights=None, trace_bound=None) -> "HilbertQExp":
        """Same field and ring; new coefficients."""
        T = self.trace_bound if trace_bound is None else trace_bound
        return HilbertQExp._make(self.F, weights or self.weights, T, a0, coeffs, self.ring)

    def coefficient(self, xi: QuadElement):
        i = _domain(self.F).index.get((xi.x * self.F.discriminant, xi.y * self.F.discriminant))
        if i is None or i >= len(self.coeffs):
            raise BoundTooSmall("coefficient at %r beyond the trace bound" % (xi,))
        return self.ring.load(self.coeffs[i])

    def domain(self):
        return hilbert_domain(self.F, self.trace_bound)

    def __add__(self, other):
        if not isinstance(other, HilbertQExp):
            return NotImplemented
        if self.ring is not other.ring or self.F.d != other.F.d:
            raise QExpError("incompatible expansions")
        add = self.ring.add
        # both lists are prefixes of one domain: zip stops at the smaller bound
        return self._derive(
            [add(a, b) for a, b in zip(self.coeffs, other.coeffs)],
            add(self.a0, other.a0),
            trace_bound=min(self.trace_bound, other.trace_bound),
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "HilbertQExp":
        c, mul = self.ring.store(c), self.ring.mul
        return self._derive([mul(c, v) for v in self.coeffs], mul(c, self.a0))

    def eq_at_precision(self, other) -> bool:
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        zero = self.ring.zero
        return self.a0 == zero and all(v == zero for v in self.coeffs)

    def __repr__(self):
        return "HilbertQExp(d=%d, weights=%r, trace_bound=%d)" % (
            self.F.d,
            self.weights,
            self.trace_bound,
        )


# ---------------------------------------------------------------------------
# Eisenstein series and the Siegel cross-check


def siegel_zeta_minus1(D: int) -> Fraction:
    """Independent finite-sum oracle for the zeta value of the field at -1:
    (1/60) * sum of sigma_1((D - x^2)/4) over x^2 < D, x^2 = D mod 4."""
    total = 0
    x = 0
    while x * x < D:
        for s in ((x,) if x == 0 else (x, -x)):
            if (D - s * s) % 4 == 0:
                total += divisor_sigma((D - s * s) // 4, 1)
        x += 1
    return Fraction(total, 60)


# leading Fourier coefficient of the normalized level-1 Eisenstein series
# of weight w: E_w = 1 + c_w * sum sigma_{w-1}(n) q^n
_EISENSTEIN_LEADING = {4: 240, 8: 480}


def ideal_divisor_sigma(F: RealQuadraticField, z: QuadElement, power: int) -> int:
    """Sum of N(c)^power over integral ideals c dividing the principal
    ideal (z), for integral nonzero z."""
    if not z.is_integral() or z.is_zero():
        raise QExpError("ideal divisor sum needs a nonzero integral element")
    return _divisor_sigma(F, *_ideal_key(F, int(z.x), int(z.y)), power)


def _ideal_key(F: RealQuadraticField, x: int, y: int):
    """(|N(z)|, gcd(x, y)) for z = x + y*omega: all that the ideal divisor
    sum of (z) reads."""
    return abs(x * x + F.omega_trace * x * y + F.omega_norm * y * y), math.gcd(x, y)


def _divisor_sigma(F: RealQuadraticField, norm: int, g: int, power: int) -> int:
    """ideal_divisor_sigma of z = x + y*omega, from norm = |N(z)| and
    g = gcd(x, y).  At a split q = p1 p2 dividing N(z) exactly e times,
    q^c | z exactly for c = v_q(g), so the exponents of p1 and p2 in (z)
    are c and e - c in some order, and the local factor is symmetric in
    them."""
    total = 1
    for q, e in factorize(norm):
        kind, qk = splitting_type(F, q), q**power
        if kind == "ramified":
            total *= _geom_sum(qk, e)
        elif kind == "inert":
            if e % 2:
                raise QExpError("the inert prime %d divides the norm to an odd power" % q)
            total *= _geom_sum(qk * qk, e // 2)
        else:
            c = int_valuation(g, q)
            total *= _geom_sum(qk, c) * _geom_sum(qk, e - c)
    return total


def _times_sqrt_d(F: RealQuadraticField, a: int, b: int):
    """(x, y) with xi*sqrt(D) = x + y*omega for D*xi = a + b*omega:
    y = Tr(xi) = (2a + Tr(omega) b) / D and b = 2x + Tr(omega) y."""
    y = (2 * a + F.omega_trace * b) // F.discriminant
    return (b - F.omega_trace * y) // 2, y


def _geom_sum(x: int, k: int) -> int:
    """1 + x + ... + x^k for an integer x > 1."""
    return (x ** (k + 1) - 1) // (x - 1)


def eisenstein_hilbert(F: RealQuadraticField, k: int, T: int) -> HilbertQExp:
    """Parallel-weight-k Eisenstein expansion: coefficient at xi is the sum
    of N(c)^{k-1} over integral ideals c containing (xi) * different; the
    constant term is calibrated so the diagonal restriction lands in the
    one-dimensional level-1 space of weight 2k (so k in {2, 4}).

    The narrow class number plays no part.  On the identity component the
    Hilbert Eisenstein series of parallel weight k has coefficients
    sigma_{k-1}((xi) * different) and constant term zeta_F(1-k)/4 for every
    real quadratic F, whatever h+ is (Dasgupta-Darmon-Pollack, "Hilbert
    modular forms and the Gross-Stark conjecture", Ann. of Math. 174, 2011,
    Prop. 2.1, with trivial characters; Bruinier, "Hilbert modular forms and
    their applications", 2008).  So the calibrated a0 is zeta_F(-1)/4 at
    k = 2, which `eisenstein_normalization_constant` checks field by field."""
    if 2 * k not in _EISENSTEIN_LEADING:
        raise QExpError("supported parallel weights: k in {2, 4}")
    dom = _domain(F)
    # the trace-1 coefficients calibrate a0, so they are computed even when
    # the trace bound is zero; (xi) * different is the ideal of xi*sqrt(D),
    # and its divisor sum is computed once per distinct ideal key
    by_key, sigmas = {}, []
    for a, b in dom.elements[: dom.size(max(T, 1))]:
        key = _ideal_key(F, *_times_sqrt_d(F, a, b))
        sigma = by_key.get(key)
        if sigma is None:
            sigma = by_key[key] = _divisor_sigma(F, *key, k - 1)
        sigmas.append(sigma)
    a0 = RATIONAL.store(Fraction(sum(sigmas[: dom.offsets[2]]), _EISENSTEIN_LEADING[2 * k]))
    return HilbertQExp._make(F, (k, k), T, a0, sigmas[: dom.size(T)], RATIONAL)


def eisenstein_normalization_constant(F: RealQuadraticField) -> Fraction:
    """The documented normalization constant: ratio of the independent
    finite-sum zeta value at -1 to the calibrated weight-2 constant term.
    A single constant must work for every field (cross-checked in tests)."""
    e = eisenstein_hilbert(F, 2, 1)
    return siegel_zeta_minus1(F.discriminant) / e.a0


# ---------------------------------------------------------------------------
# diagonal restriction


def diagonal_restrict(g: HilbertQExp) -> EllipticQExp:
    """b_n = sum of a(xi) over totally positive xi in the inverse different
    with trace n; b_0 = a0; the output has weight k1 + k2."""
    T, offsets, ring = g.trace_bound, _domain(g.F).offsets, g.ring
    sums = [g.a0] + [
        reduce(ring.add, g.coeffs[offsets[n] : offsets[n + 1]], ring.zero)
        for n in range(1, T + 1)
    ]
    return EllipticQExp._make(g.weights[0] + g.weights[1], 1, T, sums, g.ring)


# ---------------------------------------------------------------------------
# Hilbert operator calculus at a split prime


def _prime_context(g: HilbertQExp, prime_data: PrimeIdealData, padic_use: str = None):
    """g's domain, for an operator at the split prime prime_data of g's
    field.  An operator on p-adic coefficients names its use, and g's ring
    must then be the one of prime_data's p and m."""
    if padic_use and g.ring is RATIONAL:
        raise ExactRingUnsupported("%s p-adic coefficients" % padic_use)
    if g.F.d != prime_data.F.d:
        raise QExpError("prime data belongs to a different field")
    if padic_use and (g.ring.p, g.ring.m) != (prime_data.p, prime_data.m):
        raise QExpError("prime data precision must match the coefficient ring")
    return _domain(g.F)


def hilbert_deplete(g: HilbertQExp, prime_data: PrimeIdealData, which) -> HilbertQExp:
    """Remove coefficients whose ideal (xi)*different is divisible by the
    chosen prime(s); `which` is 1, 2 or "both".  Constant term dies."""
    dom = _prime_context(g, prime_data)
    p, zero = prime_data.p, g.ring.zero
    coeffs = g.coeffs
    for w in (1, 2) if which == "both" else (which,):
        res = dom.residues(prime_data, w, g.trace_bound)
        coeffs = [zero if r % p == 0 else v for v, r in zip(coeffs, res)]
    return g._derive(coeffs, zero)


def twist_star(g: HilbertQExp, chi: dict, prime_data: PrimeIdealData) -> HilbertQExp:
    """Coefficientwise twist: a(xi) -> chi(xi mod prime 1) a(xi) on the
    coefficients prime to the first prime, 0 elsewhere.  chi is a value
    table on the units modulo p, read through the residue map."""
    dom = _prime_context(g, prime_data)
    p = prime_data.p
    if prime_data.m < 1:
        raise CharacterDomainMismatch("residue precision below the conductor")
    ring, stored = g.ring, {}  # residue -> chi value in the stored form

    def twist(v, r):
        r %= p
        if not r:
            return ring.zero
        c = stored.get(r)
        if c is None:
            if r not in chi:
                raise CharacterDomainMismatch("character undefined at %d" % r)
            c = stored[r] = ring.store(chi[r])
        return ring.mul(c, v)

    res = dom.residues(prime_data, 1, g.trace_bound)
    return g._derive([twist(v, r) for v, r in zip(g.coeffs, res)], ring.zero)


def theta_d(g: HilbertQExp, i: int, prime_data: PrimeIdealData) -> HilbertQExp:
    """Theta operator at embedding i: multiply a(xi) by the image of xi
    under the residue map at prime i; raises the weight by 2 in slot i.
    p-adic coefficients only."""
    dom = _prime_context(g, prime_data, "theta operators act on")
    res = dom.residues(prime_data, i, g.trace_bound)
    w = list(g.weights)
    w[i - 1] += 2
    mul_residue = g.ring.mul_residue
    coeffs = [mul_residue(v, r) for v, r in zip(g.coeffs, res)]
    return g._derive(coeffs, g.ring.zero, weights=w)


def theta_d_inverse(g: HilbertQExp, i: int, prime_data: PrimeIdealData) -> HilbertQExp:
    """Inverse theta operator; defined only on expansions depleted at the
    prime i (every surviving coefficient sits at a unit residue)."""
    dom = _prime_context(g, prime_data, "theta operators act on")
    # a stored pair is zero exactly when its unit is, and an inverse residue
    # is 0 exactly at a non-unit residue
    if g.a0[0]:
        raise NotDepleted("nonzero constant term")
    inv = dom.inverses(prime_data, i, g.trace_bound)
    if any(v[0] and not u for v, u in zip(g.coeffs, inv)):
        raise NotDepleted("nonzero coefficient at a non-unit index")
    w = list(g.weights)
    w[i - 1] -= 2
    mul_unit = g.ring.mul_unit
    return g._derive([mul_unit(v, u) for v, u in zip(g.coeffs, inv)], g.ring.zero, weights=w)


def conjugate_ratio_partner(
    g1: HilbertQExp, prime_data: PrimeIdealData
) -> HilbertQExp:
    """For an expansion depleted at the first prime, the partner expansion
    whose coefficient at xi is (second embedding / first embedding) * a(xi).
    The pair then satisfies theta_1(partner) - theta_2(g1) = 0, and the
    diagonal restriction of their sum is a q-derivative (so its ordinary
    projection vanishes)."""
    dom = _prime_context(g1, prime_data, "partner construction needs")
    inv1 = dom.inverses(prime_data, 1, g1.trace_bound)
    res2 = dom.residues(prime_data, 2, g1.trace_bound)
    if any(v[0] and not u for v, u in zip(g1.coeffs, inv1)):
        raise NotDepleted("nonzero coefficient at a non-unit first residue")
    mul_unit, mul_residue = g1.ring.mul_unit, g1.ring.mul_residue
    coeffs = [mul_unit(mul_residue(v, r2), u) for v, u, r2 in zip(g1.coeffs, inv1, res2)]
    return g1._derive(coeffs, g1.ring.zero, weights=(g1.weights[1], g1.weights[0]))


# ---------------------------------------------------------------------------
# JSON round trip


def _over(num: int, den: int, D: int):
    """D*num/den, or None when that is not an integer (so no domain pair
    holds the coordinate num/den)."""
    q, r = divmod(D * num, den)
    return None if r else q


def _scaled(s: str, D: int):
    """D*n/d for the coordinate written "n/d", as `_over` gives it."""
    num, den = s.split("/")
    return _over(int(num), int(den), D)


def required_key(record: dict, key: str, error):
    """record[key]; raises `error` naming the key when the record has none."""
    if key not in record:
        raise error("missing record key %r" % (key,))
    return record[key]


def to_json(exp) -> dict:
    ring = exp.ring
    if isinstance(exp, EllipticQExp):
        return {
            "type": "elliptic",
            "weight": exp.weight,
            "level": exp.level,
            "bound": exp.bound,
            "ring": ring.to_json(),
            "character": None
            if exp.character is None
            else sorted([int(k), ring.dump(ring.store(v))] for k, v in exp.character.items()),
            "coeffs": [ring.dump(c) for c in exp.coeffs],
        }
    if isinstance(exp, HilbertQExp):
        D, pairs = exp.F.discriminant, _domain(exp.F).elements[: len(exp.coeffs)]
        # each distinct coordinate a of a pair (a, b) is written once, as a/D
        text = {a: _frac_str(Fraction(a, D)) for a in {a for pair in pairs for a in pair}}
        return {
            "type": "hilbert",
            "d": exp.F.d,
            "weights": list(exp.weights),
            "trace_bound": exp.trace_bound,
            "ring": ring.to_json(),
            "a0": ring.dump(exp.a0),
            "entries": [[[text[a], text[b]], ring.dump(v)] for (a, b), v in zip(pairs, exp.coeffs)],
        }
    raise QExpError("unknown expansion type")


def _ring_from_json(written):
    """The coefficient ring that a record's "ring" entry names."""
    if written == ["rational"]:
        return RATIONAL
    if type(written) is list and len(written) == 3 and written[0] == "padic":
        try:
            return padic_ring(written[1], written[2])
        except (PadicError, TypeError):  # TypeError: an unhashable entry
            pass
    raise QExpError("unsupported coefficient ring %r" % (written,))


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def from_json(obj: dict, field: RealQuadraticField = None):
    """The expansion that a `to_json` record describes.  QExpError when the
    record is not one: not an object, a missing key, an unknown ring, a value that the
    ring's `parse` refuses, a weight, level or bound that is not an int, or
    a Hilbert record whose "d" is not that of `field`."""
    if not isinstance(obj, dict):
        raise QExpError("an expansion record is a JSON object, not a %s" % type(obj).__name__)

    def need(key):
        return required_key(obj, key, QExpError)

    ring = _ring_from_json(need("ring"))
    parse = ring.parse
    try:
        if need("type") == "elliptic":
            character = None
            if obj.get("character") is not None:
                character = {_int(k, "a character key"): ring.load(parse(v))
                             for k, v in obj["character"]}
            coeffs = [parse(c) for c in need("coeffs")]
            return EllipticQExp._make(
                _int(need("weight"), "weight"), _int(need("level"), "level"),
                _int(need("bound"), "bound"), coeffs, ring, character,
            )
        if obj["type"] == "hilbert":
            weights = [_int(w, "a weight") for w in need("weights")]
            if len(weights) != 2:
                raise ValueError("weights must be two integers, got %r" % (weights,))
            T = _int(need("trace_bound"), "trace_bound")
            if field is None:
                field = make_field(need("d"))
            elif obj.get("d", field.d) != field.d:
                raise QExpError("the record is over d = %r, not d = %d" % (obj["d"], field.d))
            dom, D = _domain(field), field.discriminant
            n = dom.size(T)
            coeffs = [None] * n
            # "n/d" text -> D*n/d, so that each distinct coordinate string is
            # parsed once (a T = 60 record has 4,092 entries but 351 strings)
            scaled = {}
            # entries may come in any order; those beyond the bound are ignored
            for (xs, ys), v in need("entries"):
                x = scaled[xs] if xs in scaled else scaled.setdefault(xs, _scaled(xs, D))
                y = scaled[ys] if ys in scaled else scaled.setdefault(ys, _scaled(ys, D))
                i = dom.index.get((x, y), n)
                if i < n:
                    coeffs[i] = parse(v)
            a0 = parse(need("a0"))
            return HilbertQExp._make(field, weights, T, a0, _dense(field, coeffs), ring)
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise QExpError("malformed expansion record: %s" % exc) from None
    raise QExpError("unknown expansion type %r" % obj.get("type"))
