"""Admissible-prime search for the quintic desk instance: a prime passes
when it splits in the real quadratic resolvent field with narrowly
principal totally positive factors, the totally positive fundamental unit
has odd order modulo the prime, Frobenius acts on the quintic roots as a
5-cycle (so the induced eigenvalues stay distinct modulo p), and the
elliptic curve is ordinary at p.

Two routes are implemented for the unit condition: the direct order
computation and the congruence prefilter (p = 9 mod 16 together with the
unit being an 8th power modulo a prime factor), and the two are
cross-validated.  Results carry re-verifiable witnesses and serialize to
JSON lines and CSV.
"""

import csv
import json
from collections import Counter
from dataclasses import dataclass, field

import sympy

from .asai import (
    asai_frobenius_eigenvalues,
    frobenius_class_quintic,
    quintic_discriminant,
)
from .realquad import (
    NotSplit,
    RealQuadraticField,
    make_field,
    narrowly_principal_split,
    split_prime,
    unit_order_mod,
)


class SieveError(Exception):
    pass


class BadReduction(SieveError):
    """The prime divides the curve discriminant or conductor."""


class ExcludedPrime(SieveError):
    """The prime divides the conductor, quintic discriminant, or field
    discriminant and is outside the scope of the search."""


@dataclass(frozen=True)
class EllipticCurveData:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    conductor: int

    def __post_init__(self):
        if self.discriminant == 0:
            raise SieveError("singular Weierstrass equation")

    @property
    def discriminant(self):
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
              - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
              - self.a4 ** 2)
        return -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6


CURVE_11A1 = EllipticCurveData(0, -1, 1, -10, -20, conductor=11)

DESK_QUINTIC = (1, 0, 0, 0, -1, -1)
DESK_FIELD_D = 2869
# narrow class number of Q(sqrt 2869), computed once from the reduced-form
# cycle count of discriminant 2869 and pinned here
DESK_H_PLUS = 2


def desk_field(height_bound: int = 10**4) -> RealQuadraticField:
    return make_field(DESK_FIELD_D, h_plus=DESK_H_PLUS,
                      height_bound=height_bound)


def ap_count(E: EllipticCurveData, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p) by exhaustive counting."""
    if E.discriminant % p == 0 or E.conductor % p == 0:
        raise BadReduction("p = %d is a prime of bad reduction" % p)
    points = 1  # point at infinity
    if p == 2:
        for x in range(2):
            for y in range(2):
                lhs = y * y + E.a1 * x * y + E.a3 * y
                rhs = x ** 3 + E.a2 * x * x + E.a4 * x + E.a6
                if (lhs - rhs) % 2 == 0:
                    points += 1
    else:
        square = bytearray(p)
        for x in range((p + 1) // 2):
            square[x * x % p] = 1
        for x in range(p):
            rhs = (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6) % p
            # complete the square in y
            disc = ((E.a1 * x + E.a3) ** 2 + 4 * rhs) % p
            if disc == 0:
                points += 1
            elif square[disc]:
                points += 2
    ap = p + 1 - points
    assert ap * ap <= 4 * p, "Hasse bound violated"
    return ap


def unit_condition(F: RealQuadraticField, p: int):
    """Whether the group generated by the totally positive fundamental unit
    modulo a prime above p has odd order; returns (verdict, order)."""
    data = split_prime(F, p, 1)
    if data.splitting_type != "split":
        raise NotSplit("p = %d is not split in Q(sqrt(%d))" % (p, F.d))
    order = unit_order_mod(F, data, F.totally_positive_fundamental_unit)
    return order % 2 == 1, order


def _narrow_class_case(d: int) -> str:
    if d % 4 == 1:
        return "1 mod 4"
    if d % 4 == 3:
        return "3 mod 4"
    return "%d mod 8" % (d % 8)


def prefilter(F: RealQuadraticField, p: int) -> dict:
    """Congruence-route flags: the 9 mod 16 condition, and the direct test
    that the totally positive fundamental unit is an 8th power modulo a
    prime factor of p (in place of total splitness in the solvable closure
    of the 8th root of the unit)."""
    flags = {
        "congruence_9_mod_16": p % 16 == 9,
        "unit_eighth_power": False,
        "narrow_class_case": _narrow_class_case(F.d),
    }
    if p % 8 == 1:
        data = split_prime(F, p, 1)
        if data.splitting_type == "split":
            r = data.residue(F.totally_positive_fundamental_unit, 1) % p
            flags["unit_eighth_power"] = pow(r, (p - 1) // 8, p) == 1
    flags["congruence_route"] = (flags["congruence_9_mod_16"]
                                 and flags["unit_eighth_power"])
    return flags


NOT_MACHINE_CHECKABLE = (
    "assumed: the nonvanishing implication for the dual-exponential of the "
    "ordinary class is an analytic input, not machine-checkable",
    "assumed: semisimplicity of the weight-one specialization is a "
    "structural input, not machine-checkable",
)


@dataclass
class SieveResult:
    p: int
    split_narrow: bool
    unit_condition: bool
    frobenius_distinct: bool
    ordinary: bool
    witnesses: dict = field(default_factory=dict)
    prefilter_flags: dict = field(default_factory=dict)
    assumed: tuple = NOT_MACHINE_CHECKABLE

    @property
    def admissible(self):
        return (self.split_narrow and self.unit_condition
                and self.frobenius_distinct and self.ordinary)


def check_assumptions(F: RealQuadraticField, quintic, E: EllipticCurveData,
                      p: int, height_bound: int = 10**5) -> SieveResult:
    """All four verdicts for a single prime, with witnesses."""
    # primes ramified in the quadratic field simply fail assumption (1)
    if (E.conductor * quintic_discriminant(list(quintic))) % p == 0:
        raise ExcludedPrime("p = %d divides the instance data" % p)

    witnesses = {}
    data = split_prime(F, p, 1)
    split_narrow = False
    unit_ok = False
    if data.splitting_type == "split":
        principality = narrowly_principal_split(F, p, height_bound)
        if principality.status == "none-found-within-bound":
            raise SieveError("height bound exhausted at p = %d" % p)
        if principality.status == "found":
            split_narrow = True
            witnesses["generators"] = principality.generators
        unit_ok, order = unit_condition(F, p)
        witnesses["unit_order"] = order

    frob = frobenius_class_quintic(list(quintic), p)
    witnesses["cycle_type"] = frob.cycle_type
    eigen = asai_frobenius_eigenvalues(frob)
    witnesses["eigenvalue_labels"] = eigen.labels
    witnesses["eigenvalues_distinct_mod_p"] = eigen.distinct_mod(p)
    frobenius_distinct = frob.cycle_type == (5,) and p != 5

    ap = ap_count(E, p)
    witnesses["a_p"] = ap
    ordinary = ap % p != 0

    return SieveResult(
        p=p,
        split_narrow=split_narrow,
        unit_condition=unit_ok,
        frobenius_distinct=frobenius_distinct,
        ordinary=ordinary,
        witnesses=witnesses,
        prefilter_flags=prefilter(F, p),
    )


def reverify(F: RealQuadraticField, quintic, E: EllipticCurveData,
             result: SieveResult) -> bool:
    """Independent re-check of an admissible result's witnesses."""
    p = result.p
    if not result.admissible:
        return False
    pi1, pi2 = result.witnesses["generators"]
    data = split_prime(F, p, 1)
    for which, gen in ((1, pi1), (2, pi2)):
        if gen.norm() != p or not gen.is_totally_positive():
            return False
        if data.residue(gen, which) % p != 0:
            return False
    if result.witnesses["unit_order"] % 2 == 0:
        return False
    a = data.residue(F.totally_positive_fundamental_unit, 1) % p
    if pow(a, result.witnesses["unit_order"], p) != 1:
        return False
    if not sympy.Poly(list(quintic), sympy.Symbol("x"),
                      modulus=p).is_irreducible:
        return False
    if p == 5 or result.witnesses["a_p"] % p == 0:
        return False
    return ap_count(E, p) == result.witnesses["a_p"]


@dataclass
class SieveRun:
    admissible: list
    counts: Counter
    cycle_types: Counter
    checked: int
    excluded: int


def find_admissible(F: RealQuadraticField, quintic, E: EllipticCurveData,
                    start: int, stop: int,
                    height_bound: int = 10**5) -> SieveRun:
    """All admissible primes in [start, stop) with per-verdict counts."""
    admissible = []
    counts = Counter()
    cycle_types = Counter()
    checked = excluded = 0
    for p in sympy.primerange(start, stop):
        try:
            result = check_assumptions(F, quintic, E, p, height_bound)
        except ExcludedPrime:
            excluded += 1
            continue
        checked += 1
        cycle_types[result.witnesses["cycle_type"]] += 1
        for name in ("split_narrow", "unit_condition", "frobenius_distinct",
                     "ordinary"):
            if getattr(result, name):
                counts[name] += 1
        if result.prefilter_flags["congruence_route"]:
            counts["congruence_route"] += 1
        if result.admissible:
            counts["admissible"] += 1
            admissible.append(result)
    return SieveRun(admissible, counts, cycle_types, checked, excluded)


def intermediate_field_data(F: RealQuadraticField) -> dict:
    """Subfield data of the square root of the totally positive fundamental
    unit eps = a + b*sqrt(d): the norm-1 identity a^2 - 1 = b^2 d and the
    radicands 2(a+1), 2(a-1) of the two other quadratic subfields when the
    extension is biquadratic."""
    eps = F.totally_positive_fundamental_unit
    a, b = eps.sqrt_basis()
    biquadratic = F.fundamental_unit.norm() == 1
    return {
        "a": a,
        "b": b,
        "identity": a * a - 1 == b * b * F.d,
        "radicands": (2 * (a + 1), 2 * (a - 1)),
        "biquadratic": biquadratic,
    }


# ---------------------------------------------------------------------------
# serialization

def result_to_dict(result: SieveResult) -> dict:
    witnesses = dict(result.witnesses)
    if "generators" in witnesses:
        witnesses["generators"] = [
            [str(g.x), str(g.y)] for g in witnesses["generators"]]
    if "cycle_type" in witnesses:
        witnesses["cycle_type"] = list(witnesses["cycle_type"])
    if "eigenvalue_labels" in witnesses:
        witnesses["eigenvalue_labels"] = [
            list(l) for l in witnesses["eigenvalue_labels"]]
    return {
        "p": result.p,
        "split_narrow": result.split_narrow,
        "unit_condition": result.unit_condition,
        "frobenius_distinct": result.frobenius_distinct,
        "ordinary": result.ordinary,
        "admissible": result.admissible,
        "witnesses": witnesses,
        "prefilter": result.prefilter_flags,
        "assumed": list(result.assumed),
    }


def write_jsonl(results, fh):
    for result in results:
        fh.write(json.dumps(result_to_dict(result), sort_keys=True) + "\n")


CSV_COLUMNS = ("p", "split_narrow", "unit_condition", "frobenius_distinct",
               "ordinary", "admissible", "cycle_type", "unit_order", "a_p")


def write_csv(results, fh):
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for r in results:
        writer.writerow([
            r.p, r.split_narrow, r.unit_condition, r.frobenius_distinct,
            r.ordinary, r.admissible,
            "+".join(str(c) for c in r.witnesses.get("cycle_type", ())),
            r.witnesses.get("unit_order", ""),
            r.witnesses.get("a_p", ""),
        ])
