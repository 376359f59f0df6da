import contextlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest
import sympy

import hz.realquad
from sympy.functions.combinatorial.numbers import divisor_sigma

from hz import qexp
from hz.padic import PadicNumber, as_padic, factorize, teichmuller
from hz.qexp import (
    RATIONAL,
    BoundTooSmall,
    CharacterDomainMismatch,
    EllipticQExp,
    ExactRingUnsupported,
    HilbertQExp,
    NotDepleted,
    QExpError,
    conjugate_ratio_partner,
    deplete,
    diagonal_restrict,
    eisenstein_hilbert,
    eisenstein_normalization_constant,
    elliptic_twist,
    from_json,
    hecke_T,
    hilbert_deplete,
    hilbert_domain,
    ideal_divisor_sigma,
    padic_ring,
    q_derivative,
    siegel_zeta_minus1,
    theta_d,
    theta_d_inverse,
    to_json,
    trivial_character,
    twist_star,
    u_operator,
    v_operator,
)
from hz.realquad import (
    QuadElement,
    make_field,
    split_prime,
    splitting_type,
    totally_positive_by_trace,
)

F5 = make_field(5)
P11 = split_prime(F5, 11, 5)
R11 = padic_ring(11, 5)


def sigma(n, k):
    return int(divisor_sigma(n, k))


def random_elliptic(rng, bound=100, ring=RATIONAL, weight=4):
    if ring == RATIONAL:
        coeffs = [Fraction(rng.randrange(-50, 50)) for _ in range(bound + 1)]
    else:
        p, m = ring.p, ring.m
        coeffs = [
            PadicNumber.from_int(rng.randrange(p**m), p, m) for _ in range(bound + 1)
        ]
    return EllipticQExp(weight, 1, bound, coeffs, ring)


def random_hilbert(rng, F=F5, T=30, ring=R11, weights=(2, 0)):
    p, m = ring.p, ring.m
    coeffs = {
        (xi.x, xi.y): PadicNumber.from_int(rng.randrange(p**m), p, m)
        for xi in hilbert_domain(F, T)
    }
    return HilbertQExp(F, weights, T, PadicNumber.zero(p, m), coeffs, ring)


class TestEllipticOperators:
    def test_u_v_right_inverse(self):
        rng = random.Random(11)
        for _ in range(100):
            f = random_elliptic(rng, bound=40)
            g = u_operator(v_operator(f, 7), 7)
            assert g.coeffs == f.coeffs[: g.bound + 1]
            assert g.bound == f.bound

    def test_u_kills_depleted(self):
        rng = random.Random(12)
        for _ in range(100):
            f = random_elliptic(rng, bound=40)
            assert u_operator(deplete(f, 7), 7).is_zero()

    def test_deplete_idempotent(self):
        rng = random.Random(13)
        for _ in range(100):
            f = random_elliptic(rng, bound=30)
            d = deplete(f, 5)
            assert deplete(d, 5).coeffs == d.coeffs
            assert all(d.coeffs[n] == 0 for n in range(0, 31, 5))
            assert all(d.coeffs[n] == f.coeffs[n] for n in range(31) if n % 5)

    def test_v_supported_on_multiples(self):
        rng = random.Random(14)
        f = random_elliptic(rng, bound=10)
        g = v_operator(f, 3)
        assert g.bound == 30
        for n in range(31):
            assert g.coeffs[n] == (f.coeffs[n // 3] if n % 3 == 0 else 0)

    def test_bound_tracking(self):
        rng = random.Random(15)
        f = random_elliptic(rng, bound=20)
        assert u_operator(f, 7).bound == 2
        with pytest.raises(BoundTooSmall):
            u_operator(f, 21)
        with pytest.raises(BoundTooSmall):
            f[21]

    def test_hecke_on_divisor_sum_expansion(self):
        # weight-4 expansion with a_n = sigma_3(n): eigenvector of every
        # T_ell with eigenvalue sigma_3(ell), checked to bound 100
        f = EllipticQExp(
            4,
            1,
            100,
            [Fraction(1, 240)] + [Fraction(sigma(n, 3)) for n in range(1, 101)],
        )
        for ell in (2, 3, 5, 7):
            g = hecke_T(f, ell)
            ev = Fraction(sigma(ell, 3))
            assert all(g.coeffs[n] == ev * f.coeffs[n] for n in range(g.bound + 1))

    def test_hecke_zero_and_commutation(self):
        z = EllipticQExp.zero(4, 1, 100)
        assert hecke_T(z, 3).is_zero()
        rng = random.Random(16)
        f = random_elliptic(rng, bound=100)
        ab = hecke_T(hecke_T(f, 2), 3)
        ba = hecke_T(hecke_T(f, 3), 2)
        assert ab.coeffs[: ba.bound + 1] == ba.coeffs[: ab.bound + 1]

    def test_hecke_level_guard(self):
        f = EllipticQExp.zero(2, 11, 30)
        with pytest.raises(QExpError):
            hecke_T(f, 11)

    def test_q_derivative(self):
        f = EllipticQExp(2, 1, 3, [1, 2, 3, 4])
        assert q_derivative(f).coeffs == [0, 2, 6, 12]


class TestEllipticTwist:
    RING = padic_ring(5, 6)

    def test_trivial_is_depletion(self):
        rng = random.Random(21)
        for _ in range(20):
            f = random_elliptic(rng, bound=30, ring=self.RING)
            assert elliptic_twist(f).eq_at_precision(deplete(f, 5))

    def test_teichmuller_power(self):
        rng = random.Random(22)
        f = random_elliptic(rng, bound=10, ring=self.RING)
        g = elliptic_twist(f, j=1)
        assert g[2] == teichmuller(2, 5, 6) * f[2]

    def test_j_composes(self):
        rng = random.Random(23)
        f = random_elliptic(rng, bound=20, ring=self.RING)
        assert elliptic_twist(elliptic_twist(f, j=1), j=1).eq_at_precision(
            elliptic_twist(f, j=2)
        )

    def test_depletion_compatible(self):
        rng = random.Random(25)
        f = random_elliptic(rng, bound=20, ring=self.RING)
        assert elliptic_twist(deplete(f, 5), j=3).eq_at_precision(
            elliptic_twist(f, j=3)
        )

    def test_rejects_rational(self):
        f = EllipticQExp.zero(2, 1, 10)
        with pytest.raises(ExactRingUnsupported):
            elliptic_twist(f)


class TestHilbertContainer:
    def test_dense_storage_enforced(self):
        with pytest.raises(QExpError):
            HilbertQExp(F5, (2, 2), 3, 0, {}, RATIONAL)

    def test_zero_trace_bound(self):
        g = HilbertQExp(F5, (2, 2), 0, Fraction(7), {}, RATIONAL)
        assert g.domain() == ()
        assert g.a0 == 7

    def test_add_and_scale(self):
        rng = random.Random(31)
        g = random_hilbert(rng, T=10)
        h = random_hilbert(rng, T=8)
        s = g + h
        assert s.trace_bound == 8
        xi = hilbert_domain(F5, 8)[3]
        assert s.coefficient(xi) == g.coefficient(xi) + h.coefficient(xi)
        assert g.scale(3).coefficient(xi) == g.coefficient(xi) * 3

    def test_out_of_domain_lookup(self):
        g = random_hilbert(random.Random(32), T=4)
        far = hilbert_domain(F5, 9)[-1]
        with pytest.raises(BoundTooSmall):
            g.coefficient(far)


class TestEisenstein:
    def test_siegel_oracle_values(self):
        assert siegel_zeta_minus1(5) == Fraction(1, 30)
        assert siegel_zeta_minus1(8) == Fraction(1, 12)
        assert siegel_zeta_minus1(12) == Fraction(1, 6)
        assert siegel_zeta_minus1(13) == Fraction(1, 6)

    def test_trace_one_coefficients_d5(self):
        e = eisenstein_hilbert(F5, 2, 3)
        ones = [xi for xi in e.domain() if xi.trace() == 1]
        assert len(ones) == 2
        assert all(e.coefficient(xi) == 1 for xi in ones)

    def test_normalization_constant_uniform(self):
        consts = {
            d: eisenstein_normalization_constant(make_field(d)) for d in (5, 2, 3, 13)
        }
        assert set(consts.values()) == {Fraction(4)}

    def test_restriction_proportional_sigma3(self):
        e = eisenstein_hilbert(F5, 2, 50)
        r = diagonal_restrict(e)
        b1 = r.coeffs[1]
        assert b1 == 2
        for n in range(1, 51):
            assert r.coeffs[n] * sigma(1, 3) == b1 * sigma(n, 3)
        # constant term sits on the same line as the weight-4 basis
        assert r.coeffs[0] * 240 == b1

    def test_weight4_restriction(self):
        e = eisenstein_hilbert(F5, 4, 12)
        r = diagonal_restrict(e)
        ratio = r.coeffs[0]
        for n in range(1, 13):
            assert r.coeffs[n] == ratio * 480 * sigma(n, 7)

    def test_unsupported_weights(self):
        with pytest.raises(QExpError):
            eisenstein_hilbert(F5, 3, 4)

    @pytest.mark.parametrize("d", [401, 1601])  # h+ = 5 and 7
    def test_narrow_class_number_above_one(self, d):
        """The constant term is zeta_F(-1)/4 and the weight-4 restriction is
        a multiple of sigma_7, whatever the narrow class number."""
        F = make_field(d)
        assert siegel_zeta_minus1(F.discriminant) / eisenstein_hilbert(F, 2, 1).a0 == 4
        r = diagonal_restrict(eisenstein_hilbert(F, 4, 8))
        assert all(r.coeffs[n] == r.coeffs[1] * sigma(n, 7) for n in range(1, 9))

    def test_zero_trace_bound(self):
        e = eisenstein_hilbert(F5, 2, 0)
        assert e.domain() == ()
        assert e.a0 == Fraction(2, 240)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("d", [2, 3, 5, 13, 2869])
    def test_coefficients_match_the_unshared_divisor_sum(self, d, k):
        """Each coefficient is the divisor sum of its own ideal (xi)*different,
        computed element by element; a0 is the plain Fraction sum of the
        trace-1 ones over the leading coefficient 240 or 480."""
        F = make_field(d)
        e = eisenstein_hilbert(F, k, 12)
        domain = e.domain()
        sigmas = [ideal_divisor_sigma(F, xi * F.different_generator, k - 1) for xi in domain]
        assert len(e.coeffs) == len(domain)
        assert [e.coefficient(xi) for xi in domain] == sigmas
        ones = sum((Fraction(s) for xi, s in zip(domain, sigmas) if xi.trace() == 1), Fraction(0))
        assert e.a0 == ones / {2: 240, 4: 480}[k]

    def test_rationals_stay_exact_through_the_operators(self):
        """Integral rationals are stored as ints, others as Fractions; no
        operator on a rational expansion makes a float (or a bool)."""
        assert type(RATIONAL.parse("6/3")) is int and RATIONAL.parse("6/3") == 2
        assert RATIONAL.dump(2) == "2/1"
        assert type(RATIONAL.store(True)) is int and type(RATIONAL.store(0.5)) is Fraction
        e = eisenstein_hilbert(F5, 2, 24)
        r = diagonal_restrict(e)
        third = r.scale(Fraction(1, 3))
        results = [r, third, q_derivative(third), hecke_T(third, 2), u_operator(third, 3),
                   v_operator(third, 2), deplete(third, 5)]
        values = [e.a0, *e.coeffs] + [c for f in results for c in f.coeffs]
        assert {type(v) for v in values} == {int, Fraction}
        assert {type(v) for v in r.coeffs[1:]} == {int}  # b_0 = a0 = 1/120


class TestIdealDivisorSigma:
    def test_split_inert_ramified(self):
        two = F5.from_sqrt_basis(2, 0)
        three = F5.from_sqrt_basis(3, 0)
        eleven = F5.from_sqrt_basis(11, 0)
        root5 = F5.from_sqrt_basis(0, 1)
        assert ideal_divisor_sigma(F5, two, 1) == 5  # inert, norm 4
        assert ideal_divisor_sigma(F5, three, 1) == 10  # inert, norm 9
        assert ideal_divisor_sigma(F5, eleven, 1) == 144  # split: (1+11)^2
        assert ideal_divisor_sigma(F5, root5, 1) == 6  # ramified, norm 5
        assert ideal_divisor_sigma(F5, two * three * root5, 1) == 5 * 10 * 6

    def test_split_prime_powers(self):
        # (4+sqrt5) has norm 11: a prime of norm 11, so sigma_1 of its
        # square is 1 + 11 + 121
        z = F5.from_sqrt_basis(4, 1)
        assert abs(z.norm()) == 11
        assert ideal_divisor_sigma(F5, z * z, 1) == 133
        zbar = z.conjugate()
        assert ideal_divisor_sigma(F5, z * zbar, 1) == 144

    def test_multiplicative_on_coprime_norms(self):
        rng = random.Random(41)
        elems = [
            F5.from_sqrt_basis(3, 1),  # norm 4
            F5.from_sqrt_basis(4, 1),  # norm 11
            F5.from_sqrt_basis(5, 2),  # norm 5
            F5.from_sqrt_basis(7, 0),  # norm 49
        ]
        for a in elems:
            for b in elems:
                if a is b:
                    continue
                na, nb = abs(a.norm()), abs(b.norm())
                if sympy.gcd(na, nb) == 1:
                    assert ideal_divisor_sigma(F5, a * b, 2) == ideal_divisor_sigma(
                        F5, a, 2
                    ) * ideal_divisor_sigma(F5, b, 2)

    def test_rejects_nonintegral(self):
        with pytest.raises(QExpError):
            ideal_divisor_sigma(F5, F5.element(0, Fraction(1, 2)), 1)

    def test_odd_inert_exponent_is_a_typed_error(self, monkeypatch):
        # 11 splits in Q(sqrt5); declared inert, its exponent 1 in N(4 + sqrt5)
        # is impossible
        monkeypatch.setattr(qexp, "splitting_type", lambda F, q: "inert")
        with pytest.raises(QExpError, match="inert prime 11 "):
            ideal_divisor_sigma(F5, F5.from_sqrt_basis(4, 1), 1)

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 17, 2869])
    def test_matches_prime_lifting_oracle(self, d):
        F = make_field(d)
        sqrtD = F.different_generator
        for xi in hilbert_domain(F, 25):
            z = xi * sqrtD
            for power in (1, 3):
                assert ideal_divisor_sigma(F, z, power) == sigma_by_lifting(F, z, power)

    def test_cold_eisenstein_build_is_sympy_free(self, monkeypatch):
        """A cold build cannot import sympy, lifts no prime, and factors
        one norm, by trial division, per distinct pair (|N(z)|, gcd(x, y))
        of z = xi*sqrt(D) = x + y*omega over the domain: the pair fixes the
        ideal divisor sum."""
        def refuse(*args, **kwargs):
            raise AssertionError("called while building an Eisenstein series")

        fields = [(make_field(d), k) for d, k in ((5, 2), (13, 4))]
        factored = []
        monkeypatch.setitem(sys.modules, "sympy", None)  # every sympy import fails
        monkeypatch.setattr(qexp, "factorize", lambda n: factored.append(n) or factorize(n))
        for module in (hz.realquad, qexp):
            monkeypatch.setattr(module, "split_prime", refuse)
        with fresh_domains():
            for F, k in fields:
                factored.clear()
                eisenstein_hilbert(F, k, 20)
                pairs = set()
                for xi in hilbert_domain(F, 20):
                    z = xi * F.different_generator
                    pairs.add((int(abs(z.norm())), math.gcd(int(z.x), int(z.y))))
                assert len(pairs) < len(hilbert_domain(F, 20))
                assert sorted(factored) == sorted(norm for norm, _ in pairs)


def sigma_by_lifting(F, z, power):
    """Oracle for ideal_divisor_sigma: factor N(z) with sympy, split each
    prime q to precision e + 1 and read the exponent of the first prime
    above a split q off the residue of z at root 1."""
    total = 1
    for q, e in sympy.factorint(int(abs(z.norm()))).items():
        data = split_prime(F, q, e + 1)
        if data.splitting_type == "inert":
            assert e % 2 == 0
            total *= sum(q ** (2 * power * j) for j in range(e // 2 + 1))
        elif data.splitting_type == "ramified":
            total *= sum(q ** (power * j) for j in range(e + 1))
        else:
            r1 = data.residue(z, 1)
            v1 = 0
            while v1 < e and r1 % q ** (v1 + 1) == 0:
                v1 += 1
            total *= sum(q ** (power * j) for j in range(v1 + 1))
            total *= sum(q ** (power * j) for j in range(e - v1 + 1))
    return total


class TestDiagonalRestrict:
    def test_zero(self):
        g = random_hilbert(random.Random(50), T=10)
        assert diagonal_restrict(g.scale(0)).is_zero()

    def test_linearity(self):
        rng = random.Random(51)
        for _ in range(10):
            g = random_hilbert(rng, T=15)
            h = random_hilbert(rng, T=15)
            a = PadicNumber.from_int(rng.randrange(1, 11**5), 11, 5)
            lhs = diagonal_restrict(g.scale(a) + h)
            rhs = diagonal_restrict(g).scale(a) + diagonal_restrict(h)
            assert lhs.eq_at_precision(rhs)

    def test_weight_and_bound(self):
        g = random_hilbert(random.Random(52), T=9, weights=(2, 1))
        r = diagonal_restrict(g)
        assert r.weight == 3
        assert r.bound == 9


class TestHilbertOperators:
    def test_residue_map_multiplicative(self):
        # the depletion predicate reads residues of xi itself; consistency
        # with the ideal (xi * sqrtD) via multiplicativity of the residue map
        sqrtD = F5.different_generator
        for xi in hilbert_domain(F5, 12):
            for i in (1, 2):
                lhs = P11.residue(xi * sqrtD, i)
                rhs = P11.residue(xi, i) * P11.residue(sqrtD, i)
                assert (lhs - rhs) % 11**5 == 0

    def test_deplete_kills_exactly_prime_indices(self):
        rng = random.Random(61)
        g = random_hilbert(rng, T=25)
        d1 = hilbert_deplete(g, P11, 1)
        for xi in g.domain():
            if P11.residue(xi, 1) % 11 == 0:
                assert d1.coefficient(xi).is_zero()
            else:
                assert d1.coefficient(xi) == g.coefficient(xi)

    def test_depletions_commute(self):
        rng = random.Random(62)
        g = random_hilbert(rng, T=20)
        a = hilbert_deplete(hilbert_deplete(g, P11, 1), P11, 2)
        b = hilbert_deplete(hilbert_deplete(g, P11, 2), P11, 1)
        c = hilbert_deplete(g, P11, "both")
        assert a.eq_at_precision(b)
        assert a.eq_at_precision(c)


class TestTwistStar:
    def test_trivial_character_is_depletion(self):
        rng = random.Random(71)
        for _ in range(10):
            g = random_hilbert(rng, T=20)
            t = twist_star(g, trivial_character(11), P11)
            assert t.eq_at_precision(hilbert_deplete(g, P11, 1))

    def test_legendre_sign_flips(self):
        rng = random.Random(72)
        chi = {r: sympy.legendre_symbol(r, 11) for r in range(1, 11)}
        g = random_hilbert(rng, T=25)
        t = twist_star(g, chi, P11)
        for xi in g.domain():
            r = P11.residue(xi, 1) % 11
            if r == 0:
                assert t.coefficient(xi).is_zero()
            elif sympy.legendre_symbol(r, 11) == 1:
                assert t.coefficient(xi) == g.coefficient(xi)
            else:
                assert t.coefficient(xi) == -g.coefficient(xi)

    def test_multiplicativity(self):
        rng = random.Random(73)
        for _ in range(10):
            chi1 = {r: rng.randrange(1, 11) for r in range(1, 11)}
            chi2 = {r: rng.randrange(1, 11) for r in range(1, 11)}
            prod = {r: chi1[r] * chi2[r] for r in range(1, 11)}
            g = random_hilbert(rng, T=15)
            lhs = twist_star(twist_star(g, chi1, P11), chi2, P11)
            rhs = twist_star(g, prod, P11)
            assert lhs.eq_at_precision(rhs)

    def test_twist_already_depleted(self):
        rng = random.Random(74)
        g = random_hilbert(rng, T=15)
        t = twist_star(g, trivial_character(11), P11)
        assert hilbert_deplete(t, P11, 1).eq_at_precision(t)

    def test_domain_mismatch(self):
        rng = random.Random(75)
        g = random_hilbert(rng, T=10)
        with pytest.raises(CharacterDomainMismatch):
            twist_star(g, {1: 1}, P11)


class TestTheta:
    def test_commutation(self):
        rng = random.Random(81)
        for _ in range(10):
            g = random_hilbert(rng, T=15)
            a = theta_d(theta_d(g, 1, P11), 2, P11)
            b = theta_d(theta_d(g, 2, P11), 1, P11)
            assert a.eq_at_precision(b)
            assert a.weights == (4, 2)

    def test_inverse_roundtrip_on_depleted(self):
        rng = random.Random(82)
        for i in (1, 2):
            g = hilbert_deplete(random_hilbert(rng, T=20), P11, i)
            inv = theta_d_inverse(g, i, P11)
            assert theta_d(inv, i, P11).eq_at_precision(g)
            assert inv.weights[i - 1] == g.weights[i - 1] - 2

    def test_inverse_requires_depletion(self):
        rng = random.Random(83)
        g = random_hilbert(rng, T=15)
        with pytest.raises(NotDepleted):
            theta_d_inverse(g, 1, P11)

    def test_rejects_rational(self):
        g = eisenstein_hilbert(F5, 2, 5)
        with pytest.raises(ExactRingUnsupported):
            theta_d(g, 1, P11)
        with pytest.raises(ExactRingUnsupported):
            theta_d_inverse(g, 1, P11)


class TestConjugateRatioPair:
    def test_theta_identity_and_derivative_structure(self):
        rng = random.Random(91)
        for _ in range(5):
            g1 = hilbert_deplete(random_hilbert(rng, T=30), P11, 1)
            g2 = conjugate_ratio_partner(g1, P11)
            # the defining cross identity, exact at precision
            diff = theta_d(g2, 1, P11) - theta_d(g1, 2, P11)
            assert diff.is_zero()
            # restricted combination is the q-derivative of the restriction
            # of the inverse-theta form, so its ordinary projection vanishes
            combo = diagonal_restrict(g1 + g2)
            c = diagonal_restrict(theta_d_inverse(g1, 1, P11))
            assert combo.eq_at_precision(q_derivative(c))

    def test_rejects_undepleted(self):
        rng = random.Random(92)
        g = random_hilbert(rng, T=10)
        ones = {(xi.x, xi.y): 1 for xi in hilbert_domain(F5, 10)}
        g = g + HilbertQExp(F5, g.weights, 10, 0, ones, R11)  # nonzero everywhere
        with pytest.raises(NotDepleted):
            conjugate_ratio_partner(g, P11)


class TestJsonRoundTrip:
    def test_elliptic_rational(self):
        rng = random.Random(101)
        f = random_elliptic(rng, bound=20)
        f2 = from_json(json.loads(json.dumps(to_json(f))))
        assert json.dumps(to_json(f2), sort_keys=True) == json.dumps(
            to_json(f), sort_keys=True
        )
        assert f2.coeffs == f.coeffs

    def test_elliptic_padic(self):
        rng = random.Random(102)
        f = random_elliptic(rng, bound=20, ring=padic_ring(5, 6))
        f2 = from_json(json.loads(json.dumps(to_json(f))))
        assert f2.coeffs == f.coeffs
        assert f2.ring == f.ring

    def test_hilbert(self):
        rng = random.Random(103)
        g = random_hilbert(rng, T=12)
        g2 = from_json(json.loads(json.dumps(to_json(g))))
        assert g2.eq_at_precision(g)
        assert json.dumps(to_json(g2), sort_keys=True) == json.dumps(
            to_json(g), sort_keys=True
        )

    def test_hilbert_rational(self):
        e = eisenstein_hilbert(F5, 2, 10)
        e2 = from_json(json.loads(json.dumps(to_json(e))))
        assert e2.eq_at_precision(e)
        assert e2.a0 == e.a0

    @pytest.mark.parametrize(
        "ring",
        [["padic", 7], ["bogus"], ["padic", 0, 3], ["padic", 4, 3], ["padic", -7, 3],
         ["padic", 7, 0], ["padic", 7.0, 3], [["padic"], 7, 3], "rational", None],
        ids=repr,
    )
    def test_rejects_unsupported_rings(self, ring):
        for exp in (random_elliptic(random.Random(104), bound=4, ring=padic_ring(7, 3)),
                    eisenstein_hilbert(F5, 2, 3)):
            with pytest.raises(QExpError, match="unsupported coefficient ring"):
                from_json(dict(to_json(exp), ring=ring), F5)

    @pytest.mark.parametrize(
        "ring",
        [("padic", 7), ("bogus",), ("padic", 0, 3), ("padic", 4, 3), ("padic", -7, 3),
         ("padic", 7, 0), ("padic", 7.0, 3), ("padic", 7, True), ["padic", 7, 3], "rational",
         None],
        ids=repr,
    )
    def test_constructors_check_the_ring(self, ring):
        """The public constructors share from_json's check, and an equal
        ring of another type is refused although ("padic", 7, 1) and
        ("padic", 7, 3) are in use."""
        EllipticQExp.zero(2, 1, 2, padic_ring(7, 1))
        EllipticQExp.zero(2, 1, 2, padic_ring(7, 3))
        coeffs = {(xi.x, xi.y): 1 for xi in hilbert_domain(F5, 3)}
        with pytest.raises(QExpError, match="unsupported coefficient ring"):
            EllipticQExp(2, 1, 2, [1, 2, 4], ring)
        with pytest.raises(QExpError, match="unsupported coefficient ring"):
            EllipticQExp.zero(2, 1, 2, ring)
        with pytest.raises(QExpError, match="unsupported coefficient ring"):
            HilbertQExp(F5, (2, 2), 3, 0, coeffs, ring)


def mixed_value(rng):
    """A random zero, non-unit or negative-valuation value over R11."""
    p, m = 11, 5
    kind = rng.randrange(4)
    if kind == 0:
        return PadicNumber.zero(p, m)
    if kind == 1:
        return PadicNumber(p, m, rng.randrange(1, p**m) * p ** rng.randrange(1, m))
    return PadicNumber(p, m, rng.randrange(1, p**m), rng.randrange(-2, 3))


def mixed_hilbert(rng, T=15):
    """A random expansion over R11 whose coefficients and constant term
    include zeros, non-units and negative valuations."""
    coeffs = {(xi.x, xi.y): mixed_value(rng) for xi in hilbert_domain(F5, T)}
    return HilbertQExp(F5, (2, 0), T, mixed_value(rng), coeffs, R11)


def digits(x):
    return (x.unit, x.val)


def constant(g):
    return PadicNumber(11, 5, *g.a0)


class TestPairStorageOracle:
    """Every map on the stored (unit, val) pairs equals the coefficientwise
    map built from coefficient(xi) and PadicNumber operators, digit for
    digit, on expansions with non-unit and negative-valuation values."""

    @staticmethod
    def assert_map(out, reference, a0=None):
        for xi in out.domain():
            assert digits(out.coefficient(xi)) == digits(reference(xi))
        if a0 is not None:
            assert digits(constant(out)) == digits(a0)

    def test_ring_maps(self):
        rng = random.Random(121)
        g, h = mixed_hilbert(rng), mixed_hilbert(rng, T=12)
        c, e = g.coefficient, h.coefficient
        self.assert_map(g + h, lambda xi: c(xi) + e(xi), constant(g) + constant(h))
        self.assert_map(g - h, lambda xi: c(xi) - e(xi), constant(g) - constant(h))
        for k in (3, -1, PadicNumber(11, 5, 22 * 7), Fraction(5, 121)):
            self.assert_map(g.scale(k), lambda xi: c(xi) * k, constant(g) * k)
        tiny = HilbertQExp(F5, (2, 0), 12, 0, {(xi.x, xi.y): PadicNumber(11, 5, 1, 4)
                                                 for xi in h.domain()}, R11)
        for u, v in ((g, g), (g, h), (h, h + tiny), (h + tiny, h.scale(2))):
            pairs = [(constant(u), constant(v))] + [
                (u.coefficient(xi), v.coefficient(xi)) for xi in v.domain()]
            assert u.eq_at_precision(v) == all((a - b).is_zero() for a, b in pairs)
        for u in (g, g.scale(11**7), h.scale(0)):
            values = [constant(u)] + [u.coefficient(xi) for xi in u.domain()]
            assert u.is_zero() == all(v.is_zero() for v in values)

    def test_prime_maps(self):
        rng = random.Random(122)
        g = mixed_hilbert(rng)
        c, zero = g.coefficient, PadicNumber.zero(11, 5)

        def res(xi, i):
            return PadicNumber(11, 5, P11.residue(xi, i))

        for which in (1, 2, "both"):
            kill = (1, 2) if which == "both" else (which,)
            self.assert_map(
                hilbert_deplete(g, P11, which),
                lambda xi: zero if any(P11.residue(xi, i) % 11 == 0 for i in kill) else c(xi),
                zero,
            )
        chi = {r: (11 * r if r % 3 else Fraction(r, 11)) for r in range(1, 11)}
        self.assert_map(
            twist_star(g, chi, P11),
            lambda xi: zero if P11.residue(xi, 1) % 11 == 0
            else as_padic(chi[P11.residue(xi, 1) % 11], 11, 5) * c(xi),
            zero,
        )
        for i in (1, 2):
            self.assert_map(theta_d(g, i, P11), lambda xi: res(xi, i) * c(xi), zero)
            d = hilbert_deplete(g, P11, i)
            self.assert_map(
                theta_d_inverse(d, i, P11),
                lambda xi: d.coefficient(xi) if d.coefficient(xi).is_zero()
                else d.coefficient(xi) / res(xi, i),
                zero,
            )
        d = hilbert_deplete(g, P11, 1)
        self.assert_map(
            conjugate_ratio_partner(d, P11),
            lambda xi: d.coefficient(xi) if d.coefficient(xi).is_zero()
            else d.coefficient(xi) * res(xi, 2) / res(xi, 1),
            zero,
        )
        r = diagonal_restrict(g)
        assert digits(r[0]) == digits(constant(g))
        for n in range(1, g.trace_bound + 1):
            segment = sum((c(xi) for xi in g.domain() if xi.trace() == n), zero)
            assert digits(r[n]) == digits(segment)

    def test_json_maps(self):
        rng = random.Random(123)
        g = mixed_hilbert(rng)
        obj = to_json(g)
        assert obj["a0"] == list(digits(constant(g)))
        keys = [[qexp._frac_str(xi.x), qexp._frac_str(xi.y)] for xi in g.domain()]
        assert obj["entries"] == [[k, list(digits(g.coefficient(xi)))]
                                  for k, xi in zip(keys, g.domain())]
        raw = [(rng.randrange(-(11**7), 11**7), rng.randrange(-3, 7)) for _ in keys]
        loaded = from_json(dict(obj, entries=[[k, list(v)] for k, v in zip(keys, raw)]), F5)
        for xi, (u, v) in zip(g.domain(), raw):
            assert digits(loaded.coefficient(xi)) == digits(PadicNumber(11, 5, u, v))

    def test_bulk_maps_build_no_padic_numbers(self, monkeypatch):
        obj = to_json(mixed_hilbert(random.Random(124), T=20))

        def refuse(*args, **kwargs):
            raise AssertionError("a PadicNumber was built inside a vector map")

        monkeypatch.setattr(PadicNumber, "__init__", refuse)
        g = from_json(obj, F5)
        g1 = hilbert_deplete(g, P11, 1)
        g2 = conjugate_ratio_partner(g1, P11)
        theta_d(g2, 1, P11) - theta_d(g1, 2, P11)
        twist_star(g1 + g2, trivial_character(11), P11)


def mixed_elliptic(rng, bound=30, level=1, character=None):
    """A random elliptic expansion over R11 with zero, non-unit and
    negative-valuation coefficients."""
    coeffs = [mixed_value(rng) for _ in range(bound + 1)]
    return EllipticQExp(4, level, bound, coeffs, R11, character)


class TestEllipticStorageOracle:
    """Every elliptic operator on stored (unit, val) pairs equals the same
    operator written with PadicNumber arithmetic on f[n], digit for digit."""

    @staticmethod
    def assert_coeffs(out, reference):
        assert [digits(out[n]) for n in range(out.bound + 1)] == [digits(r) for r in reference]

    def test_index_maps(self):
        rng = random.Random(131)
        f, zero = mixed_elliptic(rng), PadicNumber.zero(11, 5)
        a = [f[n] for n in range(f.bound + 1)]
        self.assert_coeffs(u_operator(f, 3), a[::3])
        self.assert_coeffs(v_operator(f, 2), [a[n // 2] if n % 2 == 0 else zero for n in range(61)])
        self.assert_coeffs(deplete(f, 11), [zero if n % 11 == 0 else c for n, c in enumerate(a)])

    def test_ring_maps(self):
        rng = random.Random(132)
        f, g = mixed_elliptic(rng), mixed_elliptic(rng, bound=20)
        a, b = [f[n] for n in range(31)], [g[n] for n in range(21)]
        self.assert_coeffs(f + g, [x + y for x, y in zip(a, b)])
        self.assert_coeffs(f - g, [x - y for x, y in zip(a, b)])
        for k in (3, -1, PadicNumber(11, 5, 22 * 7), Fraction(5, 121)):
            self.assert_coeffs(f.scale(k), [as_padic(k, 11, 5) * x for x in a])
        self.assert_coeffs(q_derivative(f), [as_padic(n, 11, 5) * x for n, x in enumerate(a)])
        tiny = EllipticQExp(4, 1, 20, [PadicNumber(11, 5, 1, 4)] * 21, R11)
        for u, v in ((f, f), (f, g), (g, g + tiny), (g + tiny, g.scale(2))):
            assert u.eq_at_precision(v) == all((u[n] - v[n]).is_zero() for n in range(21))
        for u in (f, f.scale(11**7), EllipticQExp.zero(4, 1, 30, R11)):
            assert u.is_zero() == all(u[n].is_zero() for n in range(31))

    def test_hecke_and_twist(self):
        rng = random.Random(133)
        chi = {1: PadicNumber(11, 5, 1), 2: PadicNumber(11, 5, 3, -1)}
        f = mixed_elliptic(rng, bound=40, level=3, character=chi)
        a = [f[n] for n in range(41)]
        for ell in (2, 5):
            scale = chi[ell % 3] * as_padic(ell**3, 11, 5)
            self.assert_coeffs(
                hecke_T(f, ell),
                [a[ell * n] + scale * a[n // ell] if n % ell == 0 else a[ell * n]
                 for n in range(40 // ell + 1)],
            )
        for j in (0, 1, 3, 13):
            reference = [PadicNumber.zero(11, 5) if n % 11 == 0
                         else c * teichmuller(n, 11, 5) ** (j % 10)
                         for n, c in enumerate(a)]
            self.assert_coeffs(elliptic_twist(f, j=j), reference)

    def test_restriction_and_json(self):
        g = mixed_hilbert(random.Random(134))
        r = diagonal_restrict(g)
        assert digits(r[0]) == digits(constant(g))
        for n in range(1, g.trace_bound + 1):
            segment = sum((g.coefficient(xi) for xi in g.domain() if xi.trace() == n),
                          PadicNumber.zero(11, 5))
            assert digits(r[n]) == digits(segment)
        rng = random.Random(135)
        f = mixed_elliptic(rng)
        obj = to_json(f)
        assert obj["coeffs"] == [list(digits(f[n])) for n in range(31)]
        self.assert_coeffs(from_json(obj), [f[n] for n in range(31)])
        raw = [(rng.randrange(-(11**7), 11**7), rng.randrange(-3, 7)) for _ in range(31)]
        loaded = from_json(dict(obj, coeffs=[list(v) for v in raw]))
        # stored in normal form, not only read back through PadicNumber
        assert loaded.coeffs == [digits(PadicNumber(11, 5, u, v)) for u, v in raw]

    def test_operators_build_no_padic_numbers(self, monkeypatch):
        rng = random.Random(136)
        f = mixed_elliptic(rng, level=3, character={1: 1, 2: PadicNumber(11, 5, 4)})
        g = mixed_elliptic(rng, bound=20)
        obj, h = to_json(g), mixed_hilbert(rng)

        def refuse(*args, **kwargs):
            raise AssertionError("a PadicNumber was built inside an elliptic operator")

        monkeypatch.setattr(PadicNumber, "__init__", refuse)
        u_operator(f, 2), v_operator(f, 3), deplete(f, 11), q_derivative(f)
        hecke_T(f, 2), hecke_T(g, 5)
        (f + g) - g, f.scale(7), f.scale(Fraction(3, 22))
        f.eq_at_precision(g), f.is_zero()
        diagonal_restrict(h), from_json(obj)


@contextlib.contextmanager
def fresh_domains():
    """Grow every domain from nothing inside the block; the shared cache
    the other tests use is put back afterwards."""
    saved = qexp._domain_cache
    qexp._domain_cache = {}
    try:
        yield
    finally:
        qexp._domain_cache = saved


class TestGrowingDomain:
    def test_theta_and_partner_match_residue_oracle(self):
        # T = 20 first, then T = 40: the second pass reads residue vectors
        # that were extended after the domain grew
        rng = random.Random(111)
        with fresh_domains():
            for T in (20, 40):
                g = random_hilbert(rng, T=T)
                for i in (1, 2):
                    theta = theta_d(g, i, P11)
                    for xi in g.domain():
                        r = PadicNumber(11, 5, P11.residue(xi, i), 0)
                        assert theta.coefficient(xi) == r * g.coefficient(xi)
                g1 = hilbert_deplete(g, P11, 1)
                g2 = conjugate_ratio_partner(g1, P11)
                for xi in g1.domain():
                    v = g1.coefficient(xi)
                    r1 = PadicNumber(11, 5, P11.residue(xi, 1), 0)
                    r2 = PadicNumber(11, 5, P11.residue(xi, 2), 0)
                    expected = v if v.is_zero() else v * r2 / r1
                    assert g2.coefficient(xi) == expected

    @staticmethod
    def _chain_json(T):
        g = random_hilbert(random.Random(T), T=T)
        g1 = hilbert_deplete(g, P11, 1)
        g2 = conjugate_ratio_partner(g1, P11)
        outputs = (g, g2, theta_d(g2, 1, P11), diagonal_restrict(g1 + g2))
        return [json.dumps(to_json(e), sort_keys=True) for e in outputs]

    def test_build_order_does_not_matter(self):
        runs = []
        for order in ((60, 30), (30, 60)):
            with fresh_domains():
                runs.append({T: self._chain_json(T) for T in order})
        assert runs[0] == runs[1]

    def test_domains_are_prefixes_in_canonical_order(self):
        bounds = (9, 4, 15, 0, 12)
        with fresh_domains():
            doms = {T: hilbert_domain(F5, T) for T in bounds}
        coords = {T: [(xi.x, xi.y) for xi in doms[T]] for T in bounds}
        for T in bounds:
            D = F5.discriminant
            direct = [
                (Fraction(a, D), Fraction(b, D))
                for t in range(1, T + 1)
                for a, b in totally_positive_by_trace(F5, t)
            ]
            assert coords[T] == direct
            for T2 in bounds:
                if T < T2:
                    assert coords[T2][: len(coords[T])] == coords[T]

    def test_from_json_entry_order_and_bounds(self):
        rng = random.Random(112)
        with fresh_domains():
            g = random_hilbert(rng, T=12)
            obj = json.loads(json.dumps(to_json(g)))
            rng.shuffle(obj["entries"])
            # an unreduced coordinate names the same element
            x, y = obj["entries"][0][0]
            num, den = x.split("/")
            obj["entries"][0][0] = ["%d/%d" % (-3 * int(num), -3 * int(den)), y]
            assert to_json(from_json(obj, F5)) == to_json(g)
            # entries beyond a smaller declared bound are ignored
            g8 = from_json(dict(obj, trace_bound=8), F5)
            assert g8.trace_bound == 8
            assert g8.coeffs == g.coeffs[: len(hilbert_domain(F5, 8))]
            with pytest.raises(QExpError):
                from_json(dict(obj, entries=obj["entries"][1:]), F5)

    def test_from_json_reads_unreduced_keys_in_any_order(self):
        """Every key unreduced ("4/10" for "2/5"), by multipliers that vary
        from entry to entry so one element has several spellings, and the
        entries shuffled: the same coefficients load."""
        rng = random.Random(113)
        g = mixed_hilbert(rng, T=20)
        obj = to_json(g)
        # to_json writes each key as the element's reduced coordinates
        assert [key for key, _ in obj["entries"]] == [
            ["%d/%d" % (c.numerator, c.denominator) for c in (xi.x, xi.y)]
            for xi in hilbert_domain(F5, 20)]
        entries = []
        for key, value in obj["entries"]:
            scaled = []
            for text in key:
                k = rng.choice([2, 5, -3])
                num, den = text.split("/")
                scaled.append("%d/%d" % (k * int(num), k * int(den)))
            entries.append([scaled, value])
        rng.shuffle(entries)
        loaded = from_json(dict(obj, entries=entries), F5)
        assert (loaded.a0, loaded.coeffs) == (g.a0, g.coeffs)


class TestIntegerDomain:
    """The domain's integer pairs (a, b), D*xi = a + b*omega, against the
    element arithmetic of `hz.realquad` that they replace."""

    @pytest.mark.parametrize("d, p", [(2, 7), (3, 11), (5, 11), (13, 17)])
    def test_residues_match_the_element_residue_map(self, d, p):
        F = make_field(d)
        assert splitting_type(F, p) == "split"
        elements = hilbert_domain(F, 30)
        for m in (1, 4):
            data = split_prime(F, p, m)
            for which in (1, 2):
                got = qexp._domain(F).residues(data, which, 30)[: len(elements)]
                assert got == [data.residue(xi, which) for xi in elements]

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 17])
    def test_times_sqrt_d_matches_the_element_product(self, d):
        F = make_field(d)
        D = F.discriminant
        for a, b in qexp._domain(F).elements[: qexp._domain(F).size(30)]:
            z = F.element(Fraction(a, D), Fraction(b, D)) * F.different_generator
            assert qexp._times_sqrt_d(F, a, b) == (z.x, z.y)

    def test_cold_paths_build_no_quad_elements(self, monkeypatch):
        obj = to_json(random_hilbert(random.Random(125), T=20))
        built = []
        init = QuadElement.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(QuadElement, "__init__", counted)
        with fresh_domains():
            from_json(obj, F5)
            eisenstein_hilbert(F5, 2, 40)
            for which in (1, 2):
                qexp._domain(F5).residues(P11, which, 40)
        assert built == []
        hilbert_domain(F5, 1)  # the edge builds them
        assert len(built) == 2

    @pytest.mark.parametrize("op", [
        lambda g: hilbert_deplete(g, P11, 3), lambda g: hilbert_deplete(g, P11, 0),
        lambda g: theta_d(g, 3, P11), lambda g: theta_d(g, 0, P11),
        lambda g: theta_d_inverse(hilbert_deplete(g, P11, 1), 3, P11),
    ], ids=["deplete-3", "deplete-0", "theta-3", "theta-0", "theta-inverse-3"])
    def test_prime_index_is_one_or_two(self, op):
        with pytest.raises(QExpError, match="1 or 2"):
            op(random_hilbert(random.Random(126), T=4))

    def test_from_json_keys_off_the_lattice_and_other_fields(self):
        obj = to_json(eisenstein_hilbert(F5, 2, 4))
        assert to_json(from_json(obj, F5)) == obj
        # D * 1/7 is no integer, so no element has this coordinate
        off = json.loads(json.dumps(obj))
        off["entries"][0][0][0] = "1/7"
        with pytest.raises(QExpError, match="missing coefficient"):
            from_json(off, F5)
        with pytest.raises(QExpError, match="d = 13"):
            from_json(dict(obj, d=13), F5)
