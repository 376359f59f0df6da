"""Arithmetic of a real quadratic field: integers, units, prime splitting,
narrow principality with explicit witnesses, and enumeration of totally
positive lattice elements by trace.

Conventions: the two real embeddings are ordered so that the first one
sends sqrt(d) to the positive square root.  "Totally positive" means
strictly positive under both embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .padic import factorize, lift_root, n_order


class RealQuadError(ArithmeticError):
    pass


class NotSquarefree(RealQuadError):
    pass


class NotSplit(RealQuadError):
    pass


class RealQuadraticField:
    """Q(sqrt(d)) for squarefree d > 1, with integral basis (1, omega).  Its
    totally positive fundamental unit is read off the rho-cycle of the
    principal form, the walk that also decides narrow principality."""

    def __init__(self, d: int):
        if d <= 1:
            raise NotSquarefree("need d > 1")
        if any(e > 1 for _, e in factorize(d)):
            raise NotSquarefree("d = %d is not squarefree" % d)
        self.d = d
        if d % 4 == 1:
            self.discriminant = d
            self.omega_trace = 1
            self.omega_norm = (1 - d) // 4
        else:
            self.discriminant = 4 * d
            self.omega_trace = 0
            self.omega_norm = -d
        self.totally_positive_fundamental_unit = _totally_positive_unit(self)
        # sqrt(D) = 2*omega - Tr(omega): 2*sqrt(d) for d = 2,3 mod 4, sqrt(d)
        # for d = 1 mod 4
        self.different_generator = QuadElement(self, Fraction(-self.omega_trace), Fraction(2))

    def element(self, x, y=0) -> "QuadElement":
        return QuadElement(self, Fraction(x), Fraction(y))

    def omega(self):
        return self.element(0, 1)

    def from_sqrt_basis(self, a, b) -> "QuadElement":
        """The element a + b*sqrt(d) for exact rationals a, b."""
        a, b = Fraction(a), Fraction(b)
        if self.d % 4 == 1:
            return QuadElement(self, a - b, 2 * b)
        return QuadElement(self, a, b)

    def __repr__(self):
        return "RealQuadraticField(d=%d)" % self.d


class QuadElement:
    """x + y*omega with exact rational coordinates."""

    __slots__ = ("F", "x", "y")

    def __init__(self, F: RealQuadraticField, x: Fraction, y: Fraction):
        self.F = F
        self.x = x if type(x) is Fraction else Fraction(x)
        self.y = y if type(y) is Fraction else Fraction(y)

    # value = a + b*sqrt(d)
    def sqrt_basis(self):
        t = self.F.omega_trace
        if self.F.d % 4 == 1:
            return (self.x + self.y * Fraction(t, 2), self.y / 2)
        return (self.x, self.y)

    def trace(self) -> Fraction:
        return 2 * self.x + self.y * self.F.omega_trace

    def norm(self) -> Fraction:
        a, b = self.sqrt_basis()
        return a * a - b * b * self.F.d

    def conjugate(self) -> "QuadElement":
        return QuadElement(
            self.F, self.x + self.y * self.F.omega_trace, -self.y
        )

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_totally_positive(self) -> bool:
        a, b = self.sqrt_basis()
        if a <= 0:
            return False
        return a * a > b * b * self.F.d

    def is_integral_unit(self) -> bool:
        return self.is_integral() and abs(self.norm()) == 1

    def _check(self, other):
        if isinstance(other, QuadElement):
            if other.F.d != self.F.d:
                raise RealQuadError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.F, Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.F, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.F, -self.x, -self.y)

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        t, n = self.F.omega_trace, self.F.omega_norm
        x = self.x * o.x - n * self.y * o.y
        y = self.x * o.y + self.y * o.x + t * self.y * o.y
        return QuadElement(self.F, x, y)

    __rmul__ = __mul__

    def __repr__(self):
        return "QuadElement(d=%d, %s + %s*w)" % (self.F.d, self.x, self.y)


# ---------------------------------------------------------------------------
# prime splitting


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a quadratic residue a modulo an odd prime p
    (Tonelli-Shanks)."""
    a %= p
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, x, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (e - i - 1), p)
        x, c = x * b % p, b * b % p
        t, e = t * c % p, i
    return x


@dataclass(frozen=True)
class PrimeIdealData:
    """The two primes above a rational prime p that splits in the quadratic
    field, as their residue maps O_L -> Z/p^m: these are determined by the
    two roots of the minimal polynomial of omega mod p^m, and root_1 is the
    smaller lift (a fixed, documented labeling).  Only `split_prime` makes
    one, so every holder has a split p."""

    F: RealQuadraticField
    p: int
    m: int
    roots: tuple  # (r1, r2) mod p^m

    def residue(self, z: QuadElement, which: int = 1) -> int:
        """Image of z under the residue map at prime ideal `which` (1 or 2),
        an integer mod p^m.  Requires coordinates p-integral."""
        pm = self.p**self.m
        r = self.roots[0] if which == 1 else self.roots[1]

        def frac_mod(q: Fraction) -> int:
            if q.denominator % self.p == 0:
                raise RealQuadError("coordinate not p-integral")
            return q.numerator * pow(q.denominator, -1, pm) % pm

        return (frac_mod(z.x) + frac_mod(z.y) * r) % pm


def splitting_type(F: RealQuadraticField, p: int) -> str:
    """How the rational prime p factors in F: "split", "inert" or
    "ramified"."""
    D = F.discriminant
    if D % p == 0:
        return "ramified"
    if p == 2:
        # d = 1 mod 4 here (else 2 | D): split iff x^2 - x + n has a root
        # mod 2, i.e. n even, i.e. d = 1 mod 8.
        split = F.omega_norm % 2 == 0
    else:
        split = pow(D, (p - 1) // 2, p) == 1  # Euler's criterion
    return "split" if split else "inert"


def split_prime(F: RealQuadraticField, p: int, m: int = 1) -> PrimeIdealData:
    """The residue maps mod p^m at the two primes above p when p splits in
    F; NotSplit when p is inert or ramified, which `splitting_type`
    tells apart."""
    if splitting_type(F, p) != "split":
        raise NotSplit("p = %d is not split in Q(sqrt(%d))" % (p, F.d))
    t, n = F.omega_trace, F.omega_norm
    # a root of x^2 - t x + n mod p; either one will do, since the two
    # lifted roots are sorted below
    r0 = 0 if p == 2 else (t + _sqrt_mod(F.discriminant, p)) * pow(2, -1, p) % p
    r1 = lift_root(t, n, r0, p, m)
    r2 = (t - r1) % p**m
    if r1 > r2:
        r1, r2 = r2, r1
    return PrimeIdealData(F, p, m, (r1, r2))


# ---------------------------------------------------------------------------
# indefinite binary quadratic forms: reduction and cycles


def _is_reduced(a: int, b: int, c: int, D: int) -> bool:
    if b <= 0 or b * b >= D:
        return False
    # |sqrt(D) - 2|a|| < b
    ta = 2 * abs(a)
    if ta - b >= 0 and (ta - b) * (ta - b) >= D:
        return False
    if (ta + b) * (ta + b) <= D:
        return False
    return True


def _rho(form, U, D: int):
    """One reduction step (a,b,c) -> (c, r, (r^2-D)/(4c)) with the standard
    choice of r = -b mod 2|c|, and U in GL2(Z) carried along: with
    r = -b + 2*c*s, the substitution x -> -y', y -> x' + s y' multiplies U
    on the right by [[0, -1], [1, s]]."""
    a, b, c = form
    sq = isqrt(D)
    ac = abs(c)
    if ac > sq:
        # -|c| < r <= |c|
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        # sqrt(D) - 2|c| < r < sqrt(D)
        r = (-b) % (2 * ac)
        r += ((sq - r) // (2 * ac)) * (2 * ac)
    s = (r + b) // (2 * c)
    (u, v), (w, x) = U
    return (c, r, (r * r - D) // (4 * c)), [[v, s * v - u], [x, s * x - w]]


def _reduce_form(a: int, b: int, c: int, D: int):
    """Reduce, tracking U in GL2(Z) with f_reduced(v) = f_original(U v).
    While |c| > sqrt(D) a rho step at least halves |c|, and from there a
    few steps reach a reduced form (Buchmann-Vollmer, ch. 6), so running
    past the limit below is an internal fault."""
    f, U = (a, b, c), [[1, 0], [0, 1]]
    for _ in range(max(abs(a), abs(c)).bit_length() + 2 * D):
        if _is_reduced(*f, D):
            return f, U
        f, U = _rho(f, U, D)
    raise RealQuadError("form reduction did not terminate")


def _cycle_of(form, D: int):
    """The rho-cycle through a reduced form, with transformations relative
    to the starting form.  rho permutes the reduced forms of discriminant
    D, and there are fewer than 2D of them (0 < b < sqrt(D) and
    0 < |a| < sqrt(D)), so the cycle closes within 2D steps (Buchmann-
    Vollmer, Binary Quadratic Forms, ch. 6; Cohen, GTM 138, 5.6)."""
    out = []
    f, U = form, [[1, 0], [0, 1]]
    for _ in range(2 * D):
        out.append((f, U))
        f, U = _rho(f, U, D)
        if f == form:
            return out
    raise RealQuadError("form cycle did not close")


def _totally_positive_unit(F: RealQuadraticField) -> QuadElement:
    """The totally positive fundamental unit eps = (t + u sqrt(D))/2.  One
    rho-period of the reduced principal form (a, b, c) closes with its
    fundamental proper automorph [[(t - bu)/2, -cu], [au, (t + bu)/2]]
    (Buchmann-Vollmer, ch. 6; Cohen, GTM 138, 5.7), from which t and u are
    read off."""
    D = F.discriminant
    f, _ = _reduce_form(1, D % 2, (D % 2 - D) // 4, D)
    _, [[x, _], [y, w]] = _rho(*_cycle_of(f, D)[-1], D)
    t = abs(x + w)
    u, rest = divmod(abs(y), abs(f[0]))
    if rest or t * t - D * u * u != 4:
        raise RealQuadError("the rho-period of the principal form of "
                            "discriminant %d is not a unit's automorph" % D)
    # sqrt(D) = 2*omega - Tr(omega)
    return QuadElement(F, Fraction((t - u * F.omega_trace) // 2), Fraction(u))


# ---------------------------------------------------------------------------
# narrow principality with witnesses


@dataclass
class NarrowPrincipalityResult:
    status: str  # "found" | "not-principal"
    generators: tuple = None  # (pi1, pi2) QuadElements when found


def narrowly_principal_split(F: RealQuadraticField, p: int):
    """Totally positive generators (pi1, pi2) of the two primes above a
    split p, or a certified negative verdict.

    A prime ideal is narrowly principal iff its norm form properly
    represents +1, iff the principal form occurs in its reduction cycle;
    the tracked transformation yields an explicit generator of norm +p."""
    data = split_prime(F, p, 2)
    D = F.discriminant
    t = F.omega_trace
    r = data.roots[0] % p
    # form of the ideal [p, omega - r]: N(p x + (r - omega) y)/p
    g_r = r * r - t * r + F.omega_norm
    a, b, c = p, (2 * r - t), g_r // p
    f0, U0 = _reduce_form(a, b, c, D)
    hit = None
    for g, U in _cycle_of(f0, D):
        if g[0] == 1:
            hit = U
            break
    if hit is None:
        return NarrowPrincipalityResult("not-principal")
    # total transformation: f_hit(v) = f_ideal(U0 @ hit @ v); f_hit(1,0) = 1
    x0 = U0[0][0] * hit[0][0] + U0[0][1] * hit[1][0]
    y0 = U0[1][0] * hit[0][0] + U0[1][1] * hit[1][0]
    z = F.element(p, 0) * F.element(x0, 0) + (F.element(r, 0) - F.omega()) * F.element(y0, 0)
    if z.norm() != p:
        raise RealQuadError("the witness for p = %d does not have norm p" % p)
    if not z.is_totally_positive():
        z = -z
    # assign to the ideal whose residue map kills it
    if split_prime(F, p, 1).residue(z, 1) % p == 0:
        pi1, pi2 = z, z.conjugate()
    else:
        pi1, pi2 = z.conjugate(), z
    if not pi2.is_totally_positive():
        pi2 = -pi2
    return NarrowPrincipalityResult("found", generators=(pi1, pi2))


# ---------------------------------------------------------------------------
# totally positive elements by trace


def totally_positive_by_trace(F: RealQuadraticField, t: int):
    """All totally positive elements xi of the inverse different with trace
    t, as the sorted pairs (a, b) with D*xi = a + b*omega: xi = z/sqrt(D) for
    z = x + t*omega, and with s = 2x + t*Tr(omega), 2z = s + t*sqrt(D), so
    xi >> 0 iff s^2 < t^2 D, and D*xi = -(Tr(omega) x + 2 N(omega) t) + s*omega."""
    if t < 1:
        return []
    D, tw, n = F.discriminant, F.omega_trace, F.omega_norm
    lim = isqrt(t * t * D)
    pairs = []
    for s in range(-lim, lim + 1):
        if (s - t * tw) % 2 == 0 and s * s < t * t * D:
            x = (s - t * tw) // 2
            pairs.append((-tw * x - 2 * n * t, s))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# unit order


def unit_order_mod(F: RealQuadraticField, prime_data: PrimeIdealData, u: QuadElement) -> int:
    """Multiplicative order of the image of a unit under the residue map at
    the first prime above a split p."""
    if not u.is_integral_unit():
        raise RealQuadError("u must be a unit of the ring of integers")
    p = prime_data.p
    if prime_data.m != 1:
        # the first prime is the one of the smaller root at precision 1
        prime_data = split_prime(F, p, 1)
    a = prime_data.residue(u, 1) % p
    return n_order(a, p)


# ---------------------------------------------------------------------------
# construction helpers


def make_field(d: int, h_plus=None) -> RealQuadraticField:
    """Q(sqrt(d)).  `h_plus` is accepted and ignored: nothing in hz reads
    the narrow class number, and the keyword stays only because
    perfbench/test_perfbench.py still passes it."""
    return RealQuadraticField(d)
