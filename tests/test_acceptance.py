"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS line when its assertions hold."""

import random
import time
from fractions import Fraction

import sympy
from sympy.functions.combinatorial.numbers import divisor_sigma

import pipeline_fixtures as fx
from hz.asai import (
    S5FrobeniusClass,
    asai_frobenius_eigenvalues,
    cover_center,
    ht_weight_table,
    s5_double_cover_rep,
    tensor_induce,
)
from hz.hecke import ordinary_projection_of_derivative, euler_report, lvalue_weight2
from hz.padic import PadicNumber, bezout_projector, ordinary_iterate_oracle
from hz.qexp import (
    EllipticQExp,
    HilbertQExp,
    conjugate_ratio_partner,
    deplete,
    diagonal_restrict,
    eisenstein_hilbert,
    eisenstein_normalization_constant,
    hilbert_deplete,
    hilbert_domain,
    padic_ring,
    siegel_zeta_minus1,
    theta_d,
    theta_d_inverse,
    twist_star,
    u_operator,
    v_operator,
)
from hz.realquad import make_field, split_prime
from hz.sieve import (
    CURVE_11A1,
    DESK_QUINTIC,
    check_assumptions,
    desk_field,
    find_admissible,
    reverify,
)


def report(n, text):
    print("CRITERION %02d PASS: %s" % (n, text))


def random_hilbert(rng, F, T, ring, weights=(2, 0)):
    p, m = ring.p, ring.m
    coeffs = {
        (xi.x, xi.y): PadicNumber.from_int(rng.randrange(p ** m), p, m)
        for xi in hilbert_domain(F, T)
    }
    return HilbertQExp(F, weights, T, PadicNumber.zero(p, m), coeffs, ring)


def test_criterion_01_diagonal_restriction_modularity():
    start = time.time()
    F = make_field(5)
    restricted = diagonal_restrict(eisenstein_hilbert(F, 2, 50))
    b1 = restricted[1]
    for n in range(1, 51):
        assert restricted[n] * int(divisor_sigma(1, 3)) == b1 * int(
            divisor_sigma(n, 3))
    elapsed = time.time() - start
    assert elapsed < 10, "runtime %.1fs exceeds 10s" % elapsed
    report(1, "restricted Eisenstein coefficients proportional to the "
              "third divisor sum for n <= 50 (%.1fs)" % elapsed)


def test_criterion_02_siegel_cross_check():
    expected = {5: Fraction(1, 30), 8: Fraction(1, 12),
                12: Fraction(1, 6), 13: Fraction(1, 6)}
    constants = set()
    for D, zeta in expected.items():
        assert siegel_zeta_minus1(D) == zeta
        d = D if D % 4 == 1 else D // 4
        F = make_field(d)
        g = eisenstein_hilbert(F, 2, 1)
        constant = eisenstein_normalization_constant(F)
        assert g.a0 * constant == zeta
        constants.add(constant)
    assert len(constants) == 1
    report(2, "Siegel oracle values match and the normalization constant "
              "is %s across all four discriminants" % constants.pop())


def test_criterion_03_primitive_vanishing_suite():
    F = make_field(5)
    p, m, T = 11, 5, 60
    prime = split_prime(F, p, m)
    ring = padic_ring(p, m)
    rng = random.Random(303)
    for _ in range(20):
        g1 = hilbert_deplete(random_hilbert(rng, F, T, ring), prime, 1)
        g2 = conjugate_ratio_partner(g1, prime)
        cross = theta_d(g2, 1, prime) - theta_d(g1, 2, prime)
        assert cross.is_zero()
        combo = diagonal_restrict(g1 + g2)
        projected = ordinary_projection_of_derivative(combo)
        assert projected.is_zero()
        for n in range(combo.bound + 1):
            assert projected[n].is_zero()
    report(3, "20 depleted pairs satisfy the cross identity exactly and "
              "their restricted combination is killed mod 11^5")


def test_criterion_04_operator_identities():
    rng = random.Random(404)
    ring7 = padic_ring(7, 3)

    def random_elliptic(bound):
        coeffs = [PadicNumber.from_int(rng.randrange(7 ** 3), 7, 3)
                  for _ in range(bound + 1)]
        return EllipticQExp(2, 1, bound, coeffs, ring7)

    for _ in range(100):
        f = random_elliptic(35)
        assert u_operator(v_operator(f, 7), 7).eq_at_precision(f)
    for _ in range(100):
        f = random_elliptic(35)
        assert u_operator(deplete(f, 7), 7).is_zero()
    for _ in range(100):
        f = random_elliptic(35)
        assert deplete(deplete(f, 7), 7).eq_at_precision(deplete(f, 7))

    F = make_field(5)
    p = 11
    prime = split_prime(F, p, 3)
    ring11 = padic_ring(p, 3)
    for _ in range(100):
        chi1 = {r: rng.randrange(1, p) for r in range(1, p)}
        chi2 = {r: rng.randrange(1, p) for r in range(1, p)}
        product = {r: chi1[r] * chi2[r] for r in range(1, p)}
        g = random_hilbert(rng, F, 15, ring11)
        lhs = twist_star(twist_star(g, chi1, prime), chi2, prime)
        assert lhs.eq_at_precision(twist_star(g, product, prime))
    for _ in range(100):
        g = random_hilbert(rng, F, 15, ring11)
        a = theta_d(theta_d(g, 1, prime), 2, prime)
        b = theta_d(theta_d(g, 2, prime), 1, prime)
        assert a.eq_at_precision(b)
    report(4, "U.V identity, U-kills-depleted, depletion idempotence, "
              "twist multiplicativity, theta commutation: 100 random "
              "cases each, exact")


def _random_mixed_matrix(rng, p, m):
    dim = rng.randrange(2, 7)
    pm = p ** m
    units = rng.randrange(1, dim)
    diag = []
    for i in range(dim):
        u = rng.randrange(1, pm)
        while u % p == 0:
            u = rng.randrange(1, pm)
        if i < units:
            diag.append(u)
        else:
            diag.append(u * p ** rng.randrange(1, 3) % pm)
    while True:
        S = [[rng.randrange(pm) for _ in range(dim)] for _ in range(dim)]
        try:
            S_inv = _inv_mod(S, pm, p)
            break
        except ValueError:
            continue
    D = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    return _mat_mul(_mat_mul(S, D, pm), S_inv, pm), dim


def _mat_mul(A, B, pm):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % pm
             for j in range(n)] for i in range(n)]


def _inv_mod(S, pm, p):
    M = sympy.Matrix(S)
    det = int(M.det())
    if det % p == 0:
        raise ValueError("not invertible")
    adj = M.adjugate()
    dinv = pow(det % pm, -1, pm)
    n = M.shape[0]
    return [[int(adj[i, j]) * dinv % pm for j in range(n)] for i in range(n)]


def test_criterion_05_ordinary_projector_oracle():
    rng = random.Random(505)
    for _ in range(50):
        p = rng.choice((3, 5, 7))
        m = 5
        pm = p ** m
        M, dim = _random_mixed_matrix(rng, p, m)
        proj = bezout_projector(M, p, m)
        oracle = ordinary_iterate_oracle(M, p, m)
        E = [[x.residue for x in row] for row in proj]
        O = [[x.residue for x in row] for row in oracle]
        assert E == O
        assert _mat_mul(E, E, pm) == E
        assert _mat_mul(E, M, pm) == _mat_mul(M, E, pm)
    report(5, "50 random mixed-slope matrices: algebraic projector equals "
              "the iterate limit, idempotent, and commutes, mod p^5")


def test_criterion_06_euler_factor_valuations():
    expected = {"ordinary_factor": 0, "special_factor": -4,
                "depth_one_factor": -2}
    rep = euler_report((2, 3, 4, 5), (2, 21), ell=1, alpha_exp=1, p=7, m=4)
    assert rep.valuations() == expected
    rng = random.Random(606)
    p, m = 7, 4
    for _ in range(10):
        units = []
        while len(units) < 5:
            u = rng.randrange(1, p ** m)
            if u % p:
                units.append(u)
        alphas = units[:4]
        beta = units[4] * p
        alpha_f = alphas[0]  # any unit works for the ordinary factor
        rep = euler_report(alphas, (alpha_f, beta), ell=1, alpha_exp=1,
                           p=p, m=m)
        assert rep.valuations() == expected
        assert rep.nonzero["ordinary_factor"]
        assert rep.nonzero["special_factor"]
        assert rep.nonzero["depth_one_factor"]
    report(6, "valuations (0, -4, -2) with unit weight-one roots and "
              "valuation-1 beta, nonzero verdicts true, 10 random draws")


def test_criterion_07_asai_suite():
    cover = s5_double_cover_rep()
    induced = tensor_induce(cover)
    induced.verify_homomorphism()
    from collections import Counter
    center = cover_center()
    counts = Counter(
        (induced.order_mod_center(g, center), induced.character(g))
        for g in cover.elements)
    assert dict(counts) == {(1, 4): 2, (2, 2): 20, (2, 0): 30, (3, 1): 40,
                            (6, -1): 40, (4, 0): 60, (5, -1): 48}
    ev = asai_frobenius_eigenvalues(S5FrobeniusClass((5,)))
    assert ev.labels == ((5, 1), (5, 2), (5, 3), (5, 4))
    for p in (2, 3, 7, 11, 13, 97, 101):
        assert ev.distinct_mod(p)
    assert not ev.distinct_mod(5)
    report(7, "full 240^2 homomorphism check, permutation character on all "
              "7 classes, 5-cycle eigenvalues distinct except at p = 5")


def test_criterion_08_hodge_tate_tables():
    expected = {
        1: (((-1,), (-1, -1), (-1,)),
            ((0,), (-1, 0, 0), (-1, -1, 0), (-1,))),
        2: (((0,), (-1, -1), (-2,)),
            ((1,), (0, 0, 0), (-1, -1, -1), (-2,))),
        3: (((1,), (-1, -1), (-3,)),
            ((2,), (1, 0, 0), (-1, -1, -2), (-3,))),
        4: (((2,), (-1, -1), (-4,)),
            ((3,), (2, 0, 0), (-1, -1, -3), (-4,))),
    }
    for ell, (three, four) in expected.items():
        table = ht_weight_table(ell)
        assert table["three_step"] == three
        assert table["four_step"] == four
    for ell in range(1, 7):
        assert ht_weight_table(ell)["fil2_strictly_negative"] == (ell >= 2)
    report(8, "tables verbatim for weights 1..4, middle-step negativity "
              "flips exactly at weight 2")


def test_criterion_09_sieve_round_trip():
    start = time.time()
    F = desk_field()
    run = find_admissible(F, DESK_QUINTIC, CURVE_11A1, 3, 10 ** 4)
    assert run.admissible, "no admissible prime below 10^4"
    for result in run.admissible:
        assert reverify(F, DESK_QUINTIC, CURVE_11A1, result)
    exceptions = []
    for p in sympy.primerange(3, 10 ** 4):
        if (11 * 2869) % p == 0:
            continue
        result = check_assumptions(F, DESK_QUINTIC, CURVE_11A1, p)
        if (result.prefilter_flags["congruence_route"]
                and not result.unit_condition):
            exceptions.append(p)
    assert exceptions == []
    elapsed = time.time() - start
    assert elapsed < 300, "runtime %.1fs exceeds 5 minutes" % elapsed
    report(9, "%d admissible primes below 10^4 (first %d), all witnesses "
              "re-verified, prefilter exception list empty (%.1fs)"
           % (len(run.admissible), run.admissible[0].p, elapsed))


def test_criterion_10_lvalue_pipeline():
    ctx = fx.build_space()
    alpha, beta = ctx["alphas"][0], ctx["betas"][0]
    one = PadicNumber.one(fx.P, fx.M)
    euler = one - beta / alpha
    rng = random.Random(1010)
    for _ in range(10):
        unit = rng.randrange(1, fx.P ** fx.M)
        while unit % fx.P == 0:
            unit = rng.randrange(1, fx.P ** fx.M)
        c = PadicNumber(fx.P, fx.M, unit, 0)
        g = fx.build_hilbert_input(c, ctx)
        value = lvalue_weight2(g, fx.PRIME, ctx["target"],
                               (alpha, beta), ctx["space"],
                               ctx["annihilation"])
        assert (value - c / euler).is_zero()
    report(10, "pipeline returns c divided by the ordinary Euler factor "
               "exactly for 10 random c at p = 7, precision 4")
