"""Finite-dimensional Hecke linear algebra: U_p matrices on supplied bases,
the ordinary projector, isotypic projection, p-stabilization, Euler-factor
reports, and the weight-2 L-value pipeline.

Spaces are certified by windows: a basis is validated through its leading
coefficient block, operator matrices are solved from that block and checked
against every later known coefficient prime to p.  Inner products are never
computed; the projection onto a target eigensystem is realized by
annihilating the other systems with Hecke operators and reading off the
first coefficient.  A space holds its basis as residues mod p^m and works
on ints mod p^m, reading an input of negative valuation once, as p^s phi
with s = -min v; PadicNumbers appear only at its edges."""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    PadicContext, PadicNumber, as_padic, bezout_projector, factorize, hensel_unit_root,
    int_valuation,
)
from .qexp import (
    EllipticQExp, HilbertQExp, diagonal_restrict, elliptic_twist, hecke_T, hilbert_deplete,
    required_key, theta_d_inverse, u_operator, v_operator,
)
from .realquad import PrimeIdealData


class HeckeError(ArithmeticError):
    pass


class NotInSpan(HeckeError):
    pass


class NotInvariant(HeckeError):
    pass


class NotSeparated(HeckeError):
    pass


class NotDerivative(HeckeError):
    pass


class SingularBlock(HeckeError):
    """The leading coefficient block of a basis is not invertible at the
    working precision."""


class LValueCheckFailed(HeckeError):
    """A check of the weight-2 L-value on its own stage values failed; the
    message names the check."""


# ---------------------------------------------------------------------------
# eigensystems and stabilization


@dataclass(frozen=True)
class EigenSystem:
    """Hecke eigenvalue data for one weight-2 newform with trivial
    character."""

    label: str
    level: int
    ap: dict  # prime (or prime index tag) -> eigenvalue

    def a(self, ell: int):
        if ell not in self.ap:
            raise HeckeError("no eigenvalue supplied at %d" % ell)
        return self.ap[ell]


def stabilize(system: EigenSystem, p: int, m: int):
    """The roots (alpha, beta) of X^2 - a_p X + p for a weight-2 eigensystem
    of trivial character and level prime to p, alpha the unit root: the
    U_p eigenvalues of its ordinary and its other p-stabilization."""
    if system.level % p == 0:
        raise HeckeError("level already divisible by %d" % p)
    alpha = hensel_unit_root(Fraction(system.a(p)), Fraction(p), p, m)
    return alpha, as_padic(p, p, m) / alpha


def stabilized_expansion(f: EllipticQExp, beta, p: int) -> EllipticQExp:
    """The stabilization transformer f(q) - beta f(q^p); an eigenvector of
    U_p with the complementary root as eigenvalue."""
    shifted = v_operator(f, p, storage_cap=f.bound)
    return f + shifted.scale(as_padic(beta, f.ring.p, f.ring.m) * (-1))


def expansion_from_eigensystem(
    system: EigenSystem, bound: int, ring
) -> EllipticQExp:
    """Normalized weight-2 expansion (a_1 = 1) over the p-adic `ring`, made
    mod p^m from prime eigenvalues by a_{l^{r+1}} = a_l a_{l^r} - l a_{l^{r-1}}
    and multiplicativity.  Those of a normalized eigenform are algebraic
    integers, so one with p in its denominator raises HeckeError."""
    pm = ring.pm
    a = [0, 1]
    for n in range(2, bound + 1):
        (q, e), *rest = factorize(n)
        if rest:
            a.append(a[q**e] * a[n // q**e] % pm)
        elif e == 1:
            a.append(_integral_residue(ring, system.a(q), "the eigenvalue at %d" % q))
        else:
            a.append((a[q] * a[n // q] - q * a[n // q**2]) % pm)
    return EllipticQExp._make(2, system.level, bound, [ring.normalize(v, 0) for v in a], ring)


# ---------------------------------------------------------------------------
# linear algebra mod p^m


def _integral_residue(ring, value, what: str) -> int:
    """The rational `value` mod p^m; HeckeError naming `what` when p divides
    its denominator."""
    unit, val = ring.store(value)
    if val < 0:
        raise HeckeError("%s has %d in its denominator: %s" % (what, ring.p, value))
    return unit * ring.p**val % ring.pm


def _solve_linear(A, b, stage: str, p: int, pm: int):
    """Solve A x = b mod p^m for residues A and b by elimination with unit
    pivots (x % p != 0); raises SingularBlock, naming the calling stage,
    when the leading block is not invertible mod p."""
    n = len(A)
    M = [list(row) + [bi] for row, bi in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] % p), None)
        if pivot is None:
            raise SingularBlock("%s: leading block not invertible at precision" % stage)
        M[col], M[pivot] = M[pivot], M[col]
        inv = pow(M[col][col], -1, pm)
        M[col] = [x * inv % pm for x in M[col]]
        for r in range(n):
            f = M[r][col]
            if r != col and f:
                M[r] = [(x - f * y) % pm for x, y in zip(M[r], M[col])]
    return [row[n] for row in M]


def _mat_vec(M, x, pm: int):
    return [sum(map(operator.mul, row, x)) % pm for row in M]


# ---------------------------------------------------------------------------
# Hecke spaces


class HeckeSpace:
    """Span of a supplied basis of p-adically integral expansions at common
    precision, held as residues mod p^m and certified through the leading
    dim x dim coefficient block (coefficients 1..dim); membership and
    operator matrices are validated on every later known coefficient prime
    to p."""

    def __init__(self, basis):
        if not basis:
            raise HeckeError("empty basis")
        ring = basis[0].ring
        if not isinstance(ring, PadicContext):
            raise HeckeError("Hecke spaces need p-adic coefficients")
        if any(f.ring is not ring for f in basis):
            raise HeckeError("mixed coefficient rings in basis")
        self.basis = list(basis)
        self.ring = ring
        self.dimension = len(basis)
        self.bound = min(f.bound for f in basis)
        if self.bound < 2 * self.dimension:
            raise HeckeError("basis bound below the certification window")
        columns = [self._read(f, self.bound) for f in basis]
        if any(s for _, s in columns):
            raise HeckeError("basis expansions must be p-adically integral")
        # row n holds the basis coefficients at n
        self._rows = list(zip(*(r for r, _ in columns)))
        self._block = self._rows[1 : self.dimension + 1]
        # certify invertibility of the leading block
        _solve_linear(self._block, [0] * self.dimension, "HeckeSpace certification",
                      ring.p, ring.pm)
        self._matrices = {}

    def _read(self, phi: EllipticQExp, top: int, floor: int = 0):
        """(r, s): r[n] the residue mod p^m of p^s times phi's coefficient
        n <= top, for the least s >= floor that makes them all integral."""
        p, pm = self.ring.p, self.ring.pm
        coeffs = phi.coeffs[: top + 1]
        s = max([floor] + [-v for _, v in coeffs if v < 0])
        return [u * p ** (v + s) % pm for u, v in coeffs], s

    def coordinates(self, phi: EllipticQExp):
        """(x, s): the coordinates x of p^s phi in the basis, as ints mod
        p^m, for the least s >= 0 that makes phi integral up to
        min(phi.bound, self.bound).  Solved from the leading block and
        certified on every later n <= min(phi.bound, self.bound) prime to p;
        the coefficients at multiples of p are not compared."""
        d, p, pm = self.dimension, self.ring.p, self.ring.pm
        if phi.ring is not self.ring:
            raise HeckeError("mixed coefficient rings")
        if phi.bound < 2 * d:
            raise HeckeError("expansion bound below the certification window")
        r, s = self._read(phi, min(phi.bound, self.bound))
        x = _solve_linear(self._block, r[1 : d + 1], "coordinates", p, pm)
        for n in range(d + 1, len(r)):
            if n % p and (sum(map(operator.mul, x, self._rows[n])) - r[n]) % pm:
                raise NotInSpan("residual nonzero at coefficient %d" % n)
        return x, s

    def combine(self, x, s: int) -> EllipticQExp:
        """p^-s times the span element with coordinates x."""
        normalize = self.ring.normalize
        out = [normalize(sum(map(operator.mul, x, row)), -s) for row in self._rows]
        f0 = self.basis[0]
        return EllipticQExp._make(f0.weight, f0.level, self.bound, out, self.ring)

    def operator_matrix(self, descriptor):
        """The matrix of U_p or T_l (descriptor ("U", p) or ("T", l)) on the
        basis, as ints mod p^m."""
        if descriptor not in self._matrices:
            kind, ell = descriptor
            if kind not in ("U", "T"):
                raise HeckeError("no operator %r on basis expansions" % kind)
            columns = []
            for f in self.basis:
                img = (u_operator if kind == "U" else hecke_T)(f, ell)
                if img.bound < 2 * self.dimension:
                    raise HeckeError("basis bound insufficient for %r" % (descriptor,))
                try:
                    x, s = self.coordinates(img)
                except NotInSpan as exc:
                    raise NotInvariant("span not stable under %r: %s" % (descriptor, exc)) from exc
                if s:
                    raise NotInvariant("%r takes the basis out of the integral span"
                                       % (descriptor,))
                columns.append(x)
            self._matrices[descriptor] = [list(row) for row in zip(*columns)]
        return self._matrices[descriptor]


def e_ord(space: HeckeSpace, phi: EllipticQExp) -> EllipticQExp:
    """Ordinary projection of an expansion in the span: the unit-root-space
    component of the U_p action.  Coefficients of phi at multiples of p are
    ignored (assumed: phi projects as the span element agreeing with it
    at every n prime to p; not machine-checkable)."""
    x, s = space.coordinates(phi)
    ring = space.ring
    E = bezout_projector(space.operator_matrix(("U", ring.p)), ring.p, ring.m)
    return space.combine(_mat_vec([[e.residue for e in row] for row in E], x, ring.pm), s)


def isotypic_project(space: HeckeSpace, phi: EllipticQExp, target: EigenSystem, annihilation):
    """Project onto the target eigensystem by annihilating the others:
    apply the product of (T_l - a_l(other)) / (a_l(target) - a_l(other))
    over the supplied (l, a_l(other)) pairs.  Returns (component, lambda1)
    where lambda1 is the first coefficient of the component (the
    coefficient of the normalized target eigenform)."""
    x, s = space.coordinates(phi)
    ring, pm = space.ring, space.ring.pm
    for ell, a_other in annihilation:
        M = space.operator_matrix(("T", ell))
        diff = ring.store(Fraction(target.a(ell)) - Fraction(a_other))
        if diff[1] or not diff[0]:  # the valuation is not 0
            raise NotSeparated("eigenvalues at %d not separated at precision" % ell)
        inv = pow(diff[0], -1, pm)
        a_o = _integral_residue(ring, a_other, "the annihilation eigenvalue at %d" % ell)
        x = [(y - a_o * xi) * inv % pm for y, xi in zip(_mat_vec(M, x, pm), x)]
    component = space.combine(x, s)
    return component, component[1]


def ordinary_projection_of_derivative(h: EllipticQExp) -> EllipticQExp:
    """Certified ordinary projection of a q-derivative: verifies that h has
    the shape (q d/dq) c for some expansion c at working precision (each
    coefficient h_n divisible by n in Z_p) and returns zero.  This is the
    operator identity U_p (q d/dq) = p (q d/dq) U_p: iterating U_p makes a
    derivative divisible by arbitrarily large powers of p, so the ordinary
    projector kills it."""
    if not isinstance(h.ring, PadicContext):
        raise HeckeError("certification needs p-adic coefficients")
    p = h.ring.p
    if h.coeffs[0][0]:  # a stored pair is zero exactly when its unit is
        raise NotDerivative("nonzero constant term")
    for n, (unit, v) in enumerate(h.coeffs[1:], 1):
        if unit and v < int_valuation(n, p):
            raise NotDerivative("coefficient %d not divisible by its index" % n)
    return EllipticQExp.zero(h.weight, h.level, h.bound, h.ring)


# ---------------------------------------------------------------------------
# Euler factors and interpolation constants


@dataclass(frozen=True)
class EulerFactorReport:
    """All interpolation and correction scalars at one arithmetic point.
    Values are p-adic with exact (possibly negative) valuations.  Entries
    that multiply a Gauss-sum token are (value, token exponent) pairs; the
    token itself lives in a ramified extension and is never evaluated."""

    ordinary_factor: PadicNumber  # 1 - beta/alpha for the projected form
    special_factor: PadicNumber  # product over the four root pairings
    depth_one_factor: PadicNumber  # 1 - a1 b1 a2 b2 / beta^2
    interpolation_at_point: tuple  # ((value), gauss token exponent)
    interpolation_at_base: PadicNumber
    twisted_unit_root: PadicNumber  # unit root after the norm twist
    localization_factor: tuple  # (value, metadata dict)
    comparison_factor: tuple  # (value, metadata dict)
    nonzero: dict  # name -> bool verdict at precision

    def valuations(self):
        return {
            "ordinary_factor": self.ordinary_factor.valuation(),
            "special_factor": self.special_factor.valuation(),
            "depth_one_factor": self.depth_one_factor.valuation(),
        }


ARCHIMEDEAN_NOTE = (
    "assumed: token has complex absolute value 1 while the unit root has "
    "complex absolute value p^(1/2), so the factor cannot vanish; "
    "not machine-checkable"
)


def euler_report(
    alphas,
    f_roots,
    ell: int,
    alpha_exp: int,
    p: int,
    m: int,
) -> EulerFactorReport:
    """Evaluate the interpolation and correction factors from the four
    stabilization roots (a1, b1, a2, b2) of the weight-one system and the
    two roots (alpha, beta) of the weight-2 Hecke quadratic, at an
    arithmetic point of weight ell and conductor exponent alpha_exp.  The
    character values and Hecke-ratio tokens of the localization and
    comparison factors are taken to be 1."""

    a1, b1, a2, b2 = (as_padic(x, p, m) for x in alphas)
    alpha_f, beta_f = (as_padic(x, p, m) for x in f_roots)
    one = PadicNumber.one(p, m)
    p_adic = as_padic(p, p, m)
    divisors = (("alpha", alpha_f), ("beta", beta_f), ("a1", a1), ("a2", a2),
                ("beta^2", beta_f * beta_f), ("a1*a2*p", a1 * a2 * p_adic))
    if alpha_exp < 0:  # the point value then inverts a1 a2 p^(2-ell) / alpha
        divisors += (("a1*a2*p^(2-ell)", a1 * a2 * p_adic ** (2 - ell)),)
    for name, divisor in divisors:
        if divisor.is_zero():
            raise HeckeError("the Euler report divides by %s, which is 0 modulo %d^%d"
                             % (name, p, m))

    ordinary = one - beta_f / alpha_f
    special = one
    for r1 in (a1, b1):
        for r2 in (a2, b2):
            special = special * (one - r1 * r2 / beta_f)
    depth_one = one - a1 * b1 * a2 * b2 / (beta_f * beta_f)

    point_value = (a1 * a2 / alpha_f * p_adic ** (2 - ell)) ** alpha_exp
    interpolation_at_point = (point_value, -1)
    interpolation_at_base = (one - a1 * a2 / alpha_f) / (
        one - alpha_f / (a1 * a2 * p_adic)
    )

    twisted_unit_root = beta_f / p_adic

    localization = (one - alpha_f) * (one - alpha_f)
    comparison = (-alpha_f) * (one - one / alpha_f)

    nonzero = {
        "ordinary_factor": not ordinary.is_zero(),
        "special_factor": not special.is_zero(),
        "depth_one_factor": not depth_one.is_zero(),
        "interpolation_at_base": not interpolation_at_base.is_zero(),
        "localization_factor": True,
        "comparison_factor": True,
    }
    return EulerFactorReport(
        ordinary_factor=ordinary,
        special_factor=special,
        depth_one_factor=depth_one,
        interpolation_at_point=interpolation_at_point,
        interpolation_at_base=interpolation_at_base,
        twisted_unit_root=twisted_unit_root,
        localization_factor=(localization, {"verdict": ARCHIMEDEAN_NOTE}),
        comparison_factor=(comparison, {"verdict": ARCHIMEDEAN_NOTE}),
        nonzero=nonzero,
    )


# ---------------------------------------------------------------------------
# weight-2 L-value pipeline


def lvalue_weight2(
    g: HilbertQExp,
    prime_data: PrimeIdealData,
    fstar: EigenSystem,
    fstar_roots,
    space: HeckeSpace,
    annihilation,
    verify: bool = False,
) -> PadicNumber:
    """The weight-2 crystalline L-value pipeline: deplete at both primes,
    invert the first theta operator, restrict to the diagonal, apply the
    weight-1 tame twist, project to the ordinary part and onto the target
    eigensystem, then divide the first coefficient by the ordinary factor
    1 - beta/alpha.  The twist by the trivial character is left out: it is
    depletion at the first prime, which the depleted expansion already
    has.  `e_ord` ignores the twisted expansion's coefficients at
    multiples of p (assumed; not machine-checkable).  With `verify`, the
    stage values are checked by `_check_lvalue` before the value returns."""
    p, m = prime_data.p, space.ring.m
    depleted = hilbert_deplete(g, prime_data, "both")
    inverted = theta_d_inverse(depleted, 1, prime_data)
    restricted = diagonal_restrict(inverted)
    tame = elliptic_twist(restricted, j=1)
    ordinary = e_ord(space, tame)
    component, lambda1 = isotypic_project(space, ordinary, fstar, annihilation)
    alpha_f, beta_f = (as_padic(root, p, m) for root in fstar_roots)
    E = PadicNumber.one(p, m) - beta_f / alpha_f
    value = lambda1 / E
    if verify:
        _check_lvalue(space, fstar, ordinary, component, lambda1, alpha_f, beta_f, value)
    return value


def _check_lvalue(space, fstar, ordinary, component, lambda1, alpha, beta, value):
    """Three checks of one `lvalue_weight2` run on its own stage values,
    each raising LValueCheckFailed that names it:
    - isotypic component: the component equals lambda1 times the target's
      stabilized expansion `space.basis[0]` at every n <= the space's bound;
    - Hecke polynomial: alpha + beta = a_p(target), alpha * beta = p and
      v(alpha) = 0.  This is X^2 - a_p X + chi(p) p^(k-1) at weight k = 2
      with trivial character chi, the only eigensystems
      `eigensystem_from_json` reads;
    - ordinary factor: value * (1 - beta * alpha^-1) = lambda1, by
      multiplication, not by the division that made the value."""
    ring, p = space.ring, space.ring.p
    # on residues of p^s times both sides, s at least the shift `ordinary` was read
    # with: the component read alone could take a smaller s, and compare unknown digits
    r, s = space._read(component, space.bound,
                       max(space._read(ordinary, space.bound)[1], -lambda1.val))
    lam = lambda1.unit * p ** (lambda1.val + s)
    for n, row in enumerate(space._rows):
        if (r[n] - lam * row[0]) % ring.pm:
            raise LValueCheckFailed("isotypic component check failed: the component "
                                    "is not lambda1 times the target at n = %d" % n)
    if alpha.valuation() != 0 or alpha + beta != Fraction(fstar.a(p)) or alpha * beta != p:
        raise LValueCheckFailed("Hecke polynomial check failed: alpha, beta are not the "
                                "unit root and the other root of X^2 - a_p X + p")
    if value * (PadicNumber.one(p, ring.m) - beta * alpha.inverse()) != lambda1:
        raise LValueCheckFailed("ordinary factor check failed: value * (1 - beta/alpha) "
                                "is not lambda1")


# ---------------------------------------------------------------------------
# eigendata JSON


def eigensystem_to_json(system: EigenSystem) -> dict:
    return {
        "label": system.label,
        "weight": 2,
        "level": system.level,
        "ap_table": sorted([k, str(v)] for k, v in system.ap.items()),
        "field": "elliptic",
        "character": None,
    }


# a rational as hz writes it: "n", or "n/d" with d != 0
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?\Z")


def read_rational(value, what: str) -> Fraction:
    """value, an int or an "n" or "n/d" string with d != 0, as a Fraction;
    HeckeError naming `what` otherwise."""
    if not (type(value) is int or type(value) is str and _RATIONAL_TEXT.match(value)):
        raise HeckeError("%s must be an integer or \"n\" or \"n/d\" with d != 0, "
                         "got %r" % (what, value))
    return Fraction(value)


def eigensystem_from_json(obj: dict) -> EigenSystem:
    """The eigensystem that an `eigensystem_to_json` record describes;
    HeckeError when the record is not one, or is not of weight 2 with
    trivial character."""
    if type(obj) is not dict:
        raise HeckeError("an eigensystem record is a JSON object, got %r" % (obj,))
    for key in ("weight", "level"):
        if type(required_key(obj, key, HeckeError)) is not int:
            raise HeckeError("an eigensystem %s must be an integer, got %r" % (key, obj[key]))
    if obj.get("field", "elliptic") != "elliptic":
        raise HeckeError("only elliptic eigensystems are read, got field %r" % (obj["field"],))
    if obj["weight"] != 2:
        raise HeckeError("only weight-2 eigensystems are read, got weight %d" % obj["weight"])
    if obj.get("character") is not None:
        raise HeckeError("only trivial-character eigensystems are read, got character %r"
                         % (obj["character"],))
    label = required_key(obj, "label", HeckeError)
    pairs = required_key(obj, "ap_table", HeckeError)
    if type(pairs) is not list or not all(
            type(pair) is list and len(pair) == 2 and type(pair[0]) in (int, str)
            for pair in pairs):
        raise HeckeError("ap_table must be a list of [key, value] pairs, got %r" % (pairs,))
    # a key is an int or a string, and a digit string reads as its int
    ap = {int(k) if str(k).isdigit() else k: read_rational(v, "an eigenvalue")
          for k, v in pairs}
    return EigenSystem(label, obj["level"], ap)
