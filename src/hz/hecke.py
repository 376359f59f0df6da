"""Finite-dimensional Hecke linear algebra: U_p matrices on supplied bases,
the ordinary projector, isotypic projection, p-stabilization, Euler-factor
reports, and the weight-2 L-value pipeline.

Spaces are certified by windows: a basis is validated through its leading
coefficient block, operator matrices are solved from that block and checked
against every later known coefficient prime to p.  Inner products are never
computed; the projection onto a target eigensystem is realized by
annihilating the other systems with Hecke operators and reading off the
first coefficient."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    PadicContext,
    PadicNumber,
    as_padic,
    bezout_projector,
    factorize,
    hensel_unit_root,
    int_valuation,
)
from .qexp import (
    EllipticQExp,
    HilbertQExp,
    diagonal_restrict,
    elliptic_twist,
    hecke_T,
    hilbert_deplete,
    required_key,
    theta_d_inverse,
    u_operator,
    v_operator,
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
    """Normalized weight-2 expansion (a_1 = 1) generated from prime
    eigenvalues by the recursion a_{l^{r+1}} = a_l a_{l^r} - l a_{l^{r-1}}
    and multiplicativity."""
    coeffs = [Fraction(0), Fraction(1)]
    vals = {1: Fraction(1)}
    for n in range(2, bound + 1):
        fac = factorize(n)
        if len(fac) > 1:
            v = Fraction(1)
            for q, e in fac:
                v *= vals[q**e]
            vals[n] = v
        else:
            (q, e), = fac
            if e == 1:
                vals[n] = Fraction(system.a(q))
            else:
                vals[n] = (
                    Fraction(system.a(q)) * vals[q ** (e - 1)]
                    - q * vals[q ** (e - 2)]
                )
        coeffs.append(vals[n])
    return EllipticQExp(2, system.level, bound, coeffs, ring)


# ---------------------------------------------------------------------------
# p-adic linear algebra helpers


def _solve_linear(A, b, stage: str):
    """Solve A x = b over the p-adic coefficients by elimination with unit
    pivots; raises SingularBlock, naming the calling stage, when the
    leading block is not invertible at precision."""
    n = len(A)
    M = [row[:] + [bi] for row, bi in zip(A, b)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            v = M[r][col].valuation()
            if v == 0:
                pivot = r
                break
        if pivot is None:
            raise SingularBlock("%s: leading block not invertible at precision" % stage)
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col].inverse()
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and not M[r][col].is_zero():
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def _mat_vec(M, x):
    return [
        sum((M[i][j] * x[j] for j in range(len(x))), M[i][0] * 0)
        for i in range(len(M))
    ]


# ---------------------------------------------------------------------------
# Hecke spaces


class HeckeSpace:
    """Span of a supplied basis of expansions at common p-adic precision,
    certified through the leading dim x dim coefficient block (coefficients
    1..dim); membership and operator matrices are validated on every later
    known coefficient prime to p."""

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
        self.zero = ring.load(ring.zero)
        self.dimension = len(basis)
        self.bound = min(f.bound for f in basis)
        if self.bound < 2 * self.dimension:
            raise HeckeError("basis bound below the certification window")
        self._block = [
            [basis[j][n] for j in range(self.dimension)]
            for n in range(1, self.dimension + 1)
        ]
        # certify invertibility of the leading block
        _solve_linear(self._block, [self.zero] * self.dimension, "HeckeSpace certification")
        self._matrices = {}

    def coordinates(self, phi: EllipticQExp):
        """Coordinates of phi in the basis, solved from the leading block
        and certified on every later n <= min(phi.bound, self.bound) prime
        to p; the coefficients at multiples of p are not compared."""
        d, p = self.dimension, self.ring.p
        if phi.ring is not self.ring:
            raise HeckeError("mixed coefficient rings")
        if phi.bound < 2 * d:
            raise HeckeError("expansion bound below the certification window")
        b = [phi[n] for n in range(1, d + 1)]
        x = _solve_linear(self._block, b, "coordinates")
        for n in range(d + 1, min(phi.bound, self.bound) + 1):
            if n % p == 0:
                continue
            recon = sum((x[j] * self.basis[j][n] for j in range(d)), self.zero)
            if not (recon - phi[n]).is_zero():
                raise NotInSpan("residual nonzero at coefficient %d" % n)
        return x

    def combine(self, x) -> EllipticQExp:
        out = [
            sum((x[j] * self.basis[j][n] for j in range(self.dimension)), self.zero)
            for n in range(self.bound + 1)
        ]
        f0 = self.basis[0]
        return EllipticQExp(f0.weight, f0.level, self.bound, out, self.ring)

    def operator_matrix(self, descriptor):
        if descriptor in self._matrices:
            return self._matrices[descriptor]
        kind = descriptor[0]
        d = self.dimension
        columns = []
        for j in range(d):
            if kind == "U":
                img = u_operator(self.basis[j], descriptor[1])
            elif kind == "T":
                img = hecke_T(self.basis[j], descriptor[1])
            else:
                raise HeckeError("no operator %r on basis expansions" % kind)
            if img.bound < 2 * d:
                raise HeckeError("basis bound insufficient for %r" % (descriptor,))
            try:
                columns.append(self.coordinates(img))
            except NotInSpan as exc:
                raise NotInvariant(
                    "span not stable under %r: %s" % (descriptor, exc)
                ) from exc
        M = [[columns[j][i] for j in range(d)] for i in range(d)]
        self._matrices[descriptor] = M
        return M


def e_ord(space: HeckeSpace, phi: EllipticQExp) -> EllipticQExp:
    """Ordinary projection of an expansion in the span: the unit-root-space
    component of the U_p action.  Coefficients of phi at multiples of p are
    ignored (assumed: phi projects as the span element agreeing with it
    at every n prime to p; not machine-checkable)."""
    x = space.coordinates(phi)
    p, m = space.ring.p, space.ring.m
    E = bezout_projector(space.operator_matrix(("U", p)), p, m)
    return space.combine(_mat_vec(E, x))


def isotypic_project(space: HeckeSpace, phi: EllipticQExp, target: EigenSystem, annihilation):
    """Project onto the target eigensystem by annihilating the others:
    apply the product of (T_l - a_l(other)) / (a_l(target) - a_l(other))
    over the supplied (l, a_l(other)) pairs.  Returns (component, lambda1)
    where lambda1 is the first coefficient of the component (the
    coefficient of the normalized target eigenform)."""
    x = space.coordinates(phi)
    d, p, m = space.dimension, space.ring.p, space.ring.m
    for ell, a_other in annihilation:
        M = space.operator_matrix(("T", ell))
        diff = as_padic(Fraction(target.a(ell)) - Fraction(a_other), p, m)
        if diff.valuation() != 0:
            raise NotSeparated(
                "eigenvalues at %d not separated at precision" % ell
            )
        a_o = as_padic(a_other, p, m)
        y = _mat_vec(M, x)
        x = [(y[i] - a_o * x[i]) / diff for i in range(d)]
    component = space.combine(x)
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
    if not h[0].is_zero():
        raise NotDerivative("nonzero constant term")
    for n in range(1, h.bound + 1):
        v = h[n].valuation()
        if v is not None and v < int_valuation(n, p):
            raise NotDerivative(
                "coefficient %d not divisible by its index" % n
            )
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
        _check_lvalue(space, fstar, component, lambda1, alpha_f, beta_f, value)
    return value


def _check_lvalue(space, fstar, component, lambda1, alpha, beta, value):
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
    residual = component - space.basis[0].scale(lambda1)
    for n, c in enumerate(residual.coeffs):
        if c != ring.zero:
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
