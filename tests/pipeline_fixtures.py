"""Shared synthetic data for the weight-2 pipeline tests: two formal
eigensystems, their stabilized span, and the reverse-constructed Hilbert
input whose pipeline output is a chosen constant."""

from fractions import Fraction

from hz.hecke import (
    EigenSystem,
    HeckeSpace,
    expansion_from_eigensystem,
    stabilize,
    stabilized_expansion,
)
from hz.padic import PadicNumber, teichmuller
from hz.qexp import HilbertQExp, hilbert_domain, padic_ring
from hz.realquad import make_field, split_prime

P, M = 7, 4
RING = padic_ring(P, M)
BOUND = 30

def formal_ap(seed: int, overrides: dict, upto: int = 100) -> dict:
    """Deterministic formal eigenvalue table on primes up to `upto`; the
    value at 7 is always a 7-adic unit so the systems stay ordinary."""
    import random

    import sympy

    rng = random.Random(seed)
    ap = {}
    for ell in sympy.primerange(2, upto):
        a = rng.randrange(-5, 6)
        if ell == P and a % P == 0:
            a = 1
        ap[ell] = a
    ap.update(overrides)
    return ap


TARGET_SYS = EigenSystem(
    label="target",
    level=1,
    ap=formal_ap(101, {2: -2, 3: -1, 7: -2}),
)
OTHER_SYS = EigenSystem(
    label="other",
    level=1,
    ap=formal_ap(202, {2: 1, 3: 2, 7: 1}),
)

FIELD = make_field(2)
PRIME = split_prime(FIELD, P, M)


def build_space():
    """Two-dimensional ordinary span at p=7, precision 4, bound 30."""
    t_alpha, t_beta = stabilize(TARGET_SYS, P, M)
    o_alpha, o_beta = stabilize(OTHER_SYS, P, M)
    ft = expansion_from_eigensystem(TARGET_SYS, BOUND, RING)
    fo = expansion_from_eigensystem(OTHER_SYS, BOUND, RING)
    basis = [
        stabilized_expansion(ft, t_beta, P),
        stabilized_expansion(fo, o_beta, P),
    ]
    return {
        "space": HeckeSpace(basis),
        "basis": basis,
        "target": TARGET_SYS,
        "alphas": (t_alpha, o_alpha),
        "betas": (t_beta, o_beta),
        "annihilation": [(2, OTHER_SYS.ap[2])],
    }


def unit_support_keys():
    """One key per trace 1..BOUND whose two residues are both units."""
    keys = {}
    for xi in hilbert_domain(FIELD, BOUND):
        n = int(xi.trace())
        if n in keys:
            continue
        if PRIME.residue(xi, 1) % P and PRIME.residue(xi, 2) % P:
            keys[n] = xi
    assert sorted(keys) == list(range(1, BOUND + 1))
    return keys


def build_hilbert_input(c: PadicNumber, ctx) -> HilbertQExp:
    """Hilbert expansion whose pipeline image is c * target + other on the
    certification window: supported on one unit-residue key per trace, with
    coefficients chosen so that depletion is a no-op, inverse theta divides
    out the first residue, restriction recovers the planned coefficients,
    and the tame twist lands on the elliptic combination."""
    ft, fo = ctx["basis"]
    h = ft.scale(c) + fo
    keys = unit_support_keys()
    zero = PadicNumber.zero(P, M)
    coeffs = {(xi.x, xi.y): zero for xi in hilbert_domain(FIELD, BOUND)}
    for n in range(1, BOUND + 1):
        if n % P == 0:
            continue
        xi = keys[n]
        r = h[n] / teichmuller(n, P, M)
        res1 = PRIME.residue(xi, 1)
        coeffs[(xi.x, xi.y)] = r * PadicNumber(P, M, res1, 0)
    return HilbertQExp(FIELD, (2, 0), BOUND, zero, coeffs, RING)
