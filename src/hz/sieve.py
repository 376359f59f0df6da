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
import math
from collections import Counter
from dataclasses import dataclass, field

from .asai import (
    asai_frobenius_eigenvalues,
    frobenius_class_quintic,
    is_irreducible_modp,
    quintic_discriminant,
)
from .padic import factorize, primerange
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
    def c_invariants(self):
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6

    @property
    def discriminant(self):
        c4, c6 = self.c_invariants
        return (c4 ** 3 - c6 ** 2) // 1728


CURVE_11A1 = EllipticCurveData(0, -1, 1, -10, -20, conductor=11)

DESK_QUINTIC = (1, 0, 0, 0, -1, -1)
DESK_FIELD_D = 2869


def desk_field() -> RealQuadraticField:
    return make_field(DESK_FIELD_D)


# Mestre: above this prime the point orders on E and its twist always
# leave a single group order in the Hasse interval; at or below, they may not
MESTRE_BOUND = 229


def ap_count(E: EllipticCurveData, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p): exhaustive count for
    p <= 229, Shanks-Mestre baby-step giant-step above."""
    if E.discriminant % p == 0 or E.conductor % p == 0:
        raise BadReduction("p = %d is a prime of bad reduction" % p)
    if p <= MESTRE_BOUND:
        return _ap_exhaustive(E, p)
    return _ap_bsgs(E, p)


def _ap_exhaustive(E: EllipticCurveData, p: int) -> int:
    """a_p by counting the points of E(F_p) one x at a time: O(p), the
    oracle for the BSGS count."""
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


# -- Shanks-Mestre (Cohen, GTM 138, 7.4): affine points, None at infinity --


def _ec_add(P, Q, a, p):
    """P + Q on Y^2 = X^3 + a X + b over F_p (b is implicit)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n, P, a, p):
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, a, p)
        n >>= 1
        if n:
            P = _ec_add(P, P, a, p)
    return R


def _order_multiple(P, a, p, w):
    """A positive multiple of the order of P, on a curve whose group order
    lies in [p+1-w, p+1+w]: baby steps jP (j <= s) against giant steps
    (p+1+2sk)P, |k| <= K, which cover the interval as 2sK >= w."""
    s = math.isqrt(w) + 1
    baby = {}
    R = None
    for j in range(1, s + 1):
        R = _ec_add(R, P, a, p)
        if R is None:
            return j
        baby.setdefault(R[0], (j, R[1]))
    K = -(-w // (2 * s))
    step = _ec_mul(2 * s, P, a, p)
    m = p + 1 - 2 * s * K
    R = _ec_mul(m, P, a, p)
    for _ in range(2 * K + 1):
        if R is None:
            return m
        hit = baby.get(R[0])
        if hit is not None:  # R = +-jP
            return m - hit[0] if hit[1] == R[1] else m + hit[0]
        R = _ec_add(R, step, a, p)
        m += 2 * s
    raise SieveError("no multiple of a point order in the Hasse interval "
                     "at p = %d" % p)


def _point_order(P, a, p, w):
    order = multiple = _order_multiple(P, a, p, w)
    for q, _ in factorize(multiple):
        while order % q == 0 and _ec_mul(order // q, P, a, p) is None:
            order //= q
    return order


def _group_orders(p, w, n_curve, n_twist):
    """The N in [p+1-w, p+1+w] with n_curve | N and n_twist | 2p+2-N, the
    order of the twist; steps by the larger of the two moduli."""
    if n_curve < n_twist:
        # the interval is symmetric under N -> 2p+2-N
        return [2 * p + 2 - N for N in _group_orders(p, w, n_twist, n_curve)]
    lo = p + 1 - w
    return [N for N in range(-(-lo // n_curve) * n_curve, p + 2 + w, n_curve)
            if (2 * p + 2 - N) % n_twist == 0]


def _ap_bsgs(E: EllipticCurveData, p: int) -> int:
    """a_p for p > 229 from exact point orders on E and its quadratic
    twist, returned only once a single group order in the Hasse interval
    is compatible with all of them (Mestre's bound guarantees that one
    of the two curves has points that get there)."""
    c4, c6 = E.c_invariants
    # short model Y^2 = X^3 + A X + B, isomorphic to E for p > 3
    A, B = -27 * c4 % p, -54 * c6 % p
    w = math.isqrt(4 * p)
    n_curve = n_twist = 1
    for x0 in range(p):
        f = (x0 * x0 * x0 + A * x0 + B) % p
        if f == 0:
            continue
        # (x0 f, f^2) lies on Y^2 = X^3 + A f^2 X + B f^3, which is E when
        # f is a square and the quadratic twist of E otherwise
        f2 = f * f % p
        order = _point_order((x0 * f % p, f2), A * f2 % p, p, w)
        if pow(f, (p - 1) // 2, p) == 1:
            n_curve = math.lcm(n_curve, order)
        else:
            n_twist = math.lcm(n_twist, order)
        orders = _group_orders(p, w, n_curve, n_twist)
        if len(orders) == 1:
            return p + 1 - orders[0]
    raise SieveError("point orders never fixed #E(F_p) at p = %d" % p)


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
    if not is_irreducible_modp(list(reversed(quintic)), p):
        return False
    if p == 5 or result.witnesses["a_p"] % p == 0:
        return False
    # the exhaustive count, not the BSGS search that produced the witness
    return _ap_exhaustive(E, p) == result.witnesses["a_p"]


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
    for p in primerange(start, stop):
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
