import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hz.padic
from hz.padic import (
    NotOrdinary,
    PadicError,
    PadicNumber,
    PrecisionExhausted,
    _gcd_poly_modp,
    _padd,
    _pmul,
    _split_int_poly,
    _xgcd_poly_modp,
    as_padic,
    bezout_projector,
    hensel_unit_root,
    lift_root,
    ordinary_iterate_oracle,
    padic_ring,
    teichmuller,
)


def P(n, p=5, m=6):
    return PadicNumber.from_int(n, p, m)


class TestPadicNumber:
    def test_residue_reduced(self):
        x = P(5**6 + 7)
        assert x.residue == 7

    def test_zero_at_precision(self):
        # valuation >= m collapses to zero
        assert P(5**6).is_zero()
        assert P(5**7) == P(0)
        assert P(5**6) == PadicNumber.zero(5, 6)

    def test_negative_valuation(self):
        x = as_padic(Fraction(3, 25), 5, 6)
        assert x.valuation() == -2
        assert (x * 25).residue == 3
        with pytest.raises(PrecisionExhausted):
            x.residue

    def test_fraction_roundtrip(self):
        x = as_padic(Fraction(7, 3), 5, 6)
        assert x * 3 == P(7)

    def test_inverse(self):
        x = P(7)
        assert (x * x.inverse()) == P(1)
        assert (P(1) / x) * 7 == P(1)

    def test_precision_floor(self):
        with pytest.raises(PrecisionExhausted):
            PadicNumber(5, 0, 1)

    def test_mixed_context_rejected(self):
        with pytest.raises(PadicError):
            P(1, 5, 6) + P(1, 7, 6)

    def test_foreign_operand_is_not_implemented(self):
        x = PadicNumber(7, 2, 1)
        for method in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                       "__truediv__"):
            assert getattr(x, method)(object()) is NotImplemented
        with pytest.raises(TypeError, match="'object' and 'PadicNumber'"):
            object() / x
        with pytest.raises(TypeError, match="'object' and 'PadicNumber'"):
            object() - x

    def test_reflected_operations_match_forward_ones(self):
        x = P(7)
        assert 3 + x == x + 3 == P(10)
        assert Fraction(1, 2) * x == x * Fraction(1, 2) == P(7) / 2
        assert -(x - 3) == P(3) - x == P(-4)

    @given(
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.sampled_from([3, 5, 7, 11]),
    )
    @settings(max_examples=200)
    def test_product_valuations_add(self, a, b, p):
        m = 8
        x, y = PadicNumber.from_int(a, p, m), PadicNumber.from_int(b, p, m)
        z = x * y
        if (
            x.valuation() is not None
            and y.valuation() is not None
            and x.valuation() + y.valuation() < m
        ):
            assert z.valuation() == x.valuation() + y.valuation()

    @given(
        st.integers(-(10**9), 10**9),
        st.integers(-(10**9), 10**9),
        st.integers(-(10**9), 10**9),
    )
    @settings(max_examples=200)
    def test_ring_axioms_mod_pm(self, a, b, c):
        p, m = 7, 5
        x, y, z = (PadicNumber.from_int(t, p, m) for t in (a, b, c))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z

    def test_unhashable(self):
        # x equals both 1 and 50 at 7^2 while 1 != 50, so no hash agrees
        x = PadicNumber(7, 2, 1)
        assert x == 1 and x == 50
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)

    def test_teichmuller(self):
        p, m = 5, 6
        w = teichmuller(2, p, m)
        assert w.residue % 5 == 2
        assert w**4 == PadicNumber.one(p, m)


def digits_normal_form(x, floor, p, m):
    """Reference normal form of the rational x read from the digit p^floor
    upwards: the m base-p digits of x / p^floor, low zero digits moved into
    the valuation, and (0, 0) once the valuation reaches m."""
    y = Fraction(x) / Fraction(p) ** floor
    assert y.denominator % p != 0
    n = y.numerator * pow(y.denominator, -1, p**m) % p**m
    digits = []
    for _ in range(m):
        n, d = divmod(n, p)
        digits.append(d)
    zeros = next((k for k, d in enumerate(digits) if d), m)
    if zeros == m or floor + zeros >= m:
        return (0, 0)
    unit = sum(d * p**k for k, d in enumerate(digits[zeros:]))
    return (unit, floor + zeros)


def exact(pair, p):
    return Fraction(pair[0]) * Fraction(p) ** pair[1]


class TestPairKit:
    """The ring's (unit, val) methods against the digit reference: each
    result is the normal form of the exact result on its inputs'
    representatives, read from the lowest digit that the inputs carry."""

    @given(
        st.sampled_from([2, 3, 5, 7, 11]),
        st.integers(1, 6),
        st.tuples(st.integers(-(10**7), 10**7), st.integers(-3, 7)),
        st.tuples(st.integers(-(10**7), 10**7), st.integers(-3, 7)),
        st.integers(0, 10**7),
        st.integers(1, 10**4),
    )
    @settings(max_examples=200)
    def test_against_digit_reference(self, p, m, raw_a, raw_b, r, den):
        ring = padic_ring(p, m)

        def ref(x, floor):
            return digits_normal_form(x, floor, p, m)

        a, b = (ring.normalize(u, v) for u, v in (raw_a, raw_b))
        for (u, v), pair in ((raw_a, a), (raw_b, b)):
            assert pair == ref(exact((u, v), p), v)
        (ua, va), (ub, vb) = a, b
        # coercion: an int from the digit p^0, a rational from its
        # denominator's valuation
        assert ring.store(r) == ref(r, 0)
        q = Fraction(r, den)
        vd = next(k for k in range(40) if q.denominator % p ** (k + 1))
        assert ring.store(q) == ref(q, -vd)

        assert ring.neg(a) == ((0, 0) if not ua else ref(-exact(a, p), va))
        if ua and ub:
            assert ring.add(a, b) == ref(exact(a, p) + exact(b, p), min(va, vb))
            assert ring.mul(a, b) == ref(exact(a, p) * exact(b, p), va + vb)
        else:
            assert ring.add(a, b) == (b if not ua else a)
            assert ring.mul(a, b) == (0, 0)
        # the residue is put in normal form first: its p-factors move into
        # the valuation before the product is read
        rr = ref(r, 0)
        product = (0, 0) if not (ua and rr[0]) else ref(exact(a, p) * exact(rr, p), va + rr[1])
        assert ring.mul_residue(a, r) == product
        if r % p:
            quotient = (0, 0) if not ua else ref(exact(a, p) / r, va)
            assert ring.div_unit(a, r) == quotient


class TestPadicContext:
    def test_one_object_per_ring(self):
        assert padic_ring(7, 3) is padic_ring(7, 3)
        assert PadicNumber(7, 3, 1).ring is padic_ring(7, 3)
        assert padic_ring(7, 3) is not padic_ring(7, 2)

    def test_checked_once_when_made(self, monkeypatch):
        for p, m in ((4, 3), (0, 3), (-7, 3), (7.0, 3), (7, 3.0), (7, True)):
            with pytest.raises(PadicError, match="unsupported coefficient ring"):
                padic_ring(p, m)
        with pytest.raises(PrecisionExhausted):
            padic_ring(7, 0)
        # no other test uses 10007, so its context is made here, once
        calls = []
        monkeypatch.setattr(hz.padic, "isprime", lambda n: calls.append(n) or True)
        x = PadicNumber(10007, 3, 5)
        for _ in range(3):
            x = x * x + padic_ring(10007, 3).load((1, 0))
        assert as_padic(x, 10007, 3) is x
        assert calls == [10007]

    def test_other_context_is_mixed(self):
        x, y = PadicNumber(7, 3, 1), PadicNumber(7, 2, 1)
        for op in (lambda: x + y, lambda: x * y, lambda: x - y, lambda: x / y,
                   lambda: x == y, lambda: padic_ring(7, 3).store(y)):
            with pytest.raises(PadicError, match="mixed p-adic contexts"):
                op()


class TestHenselUnitRoot:
    def test_example_p3(self):
        # X^2 + X + 3 at p=3 (the Hecke polynomial of a curve with a_3 = -1).
        # The unit root is congruent to 2 mod 3 and its lift mod 81 is the
        # unique residue there with poly(alpha) = 0: direct substitution
        # over the integers pins it to 65.
        alpha = hensel_unit_root(-1, 3, 3, 4)
        assert alpha.residue % 3 == 2
        r = alpha.residue
        assert (r * r + r + 3) % 81 == 0
        roots = [x for x in range(81) if (x * x + x + 3) % 81 == 0 and x % 3 != 0]
        assert roots == [alpha.residue] == [65]
        beta = PadicNumber.from_int(3, 3, 4) / alpha
        assert alpha + beta == PadicNumber.from_int(-1, 3, 4)

    def test_degenerate_b_zero(self):
        # X^2 - X
        for p in (3, 7, 11):
            assert hensel_unit_root(Fraction(1), Fraction(0), p, 5) == PadicNumber.one(p, 5)

    def test_factorable_p2(self):
        # X^2 - 5X + 6 = (X-2)(X-3): unit root at p=2 is 3
        alpha = hensel_unit_root(5, 6, 2, 5)
        assert alpha.residue == 3
        beta = PadicNumber.from_int(6, 2, 5) / alpha
        assert alpha + beta == P(5, 2, 5)
        assert alpha * beta == P(6, 2, 5)

    def test_root_of_poly(self):
        # X^2 + 3X + 10
        p, m = 5, 6
        alpha = hensel_unit_root(-3, 10, p, m)
        val = alpha * alpha + 3 * alpha + 10
        assert val.is_zero()

    def test_not_ordinary(self):
        # X^2 - 3X + 3
        with pytest.raises(NotOrdinary):
            hensel_unit_root(3, 3, 3, 4)

    def test_precision_floor(self):
        with pytest.raises(PrecisionExhausted):
            hensel_unit_root(-1, 3, 3, 0)


class TestCoercion:
    def test_values_enter_the_context(self):
        p, m = 5, 6
        x = P(7)
        assert as_padic(x, p, m) is x
        assert as_padic(7, p, m) == x
        assert as_padic(Fraction(7, 25), p, m) * 25 == x

    def test_mixed_context_is_a_padic_error(self):
        from hz.qexp import EllipticQExp, padic_ring

        with pytest.raises(PadicError, match="mixed p-adic contexts"):
            as_padic(P(1, 5, 6), 5, 5)
        with pytest.raises(PadicError, match="mixed p-adic contexts"):
            EllipticQExp(2, 1, 0, [P(1, 5, 6)], padic_ring(7, 6))

    def test_zero_test(self):
        """Each ring answers the zero test on its stored form: a p-adic
        value at its precision, a rational exactly."""
        from hz.qexp import RATIONAL

        ring = padic_ring(5, 6)
        assert ring.store(P(5**6)) == ring.store(5**7) == ring.zero
        assert ring.store(P(5**5)) != ring.zero
        assert RATIONAL.store(0) == RATIONAL.zero != RATIONAL.store(Fraction(1, 5))


class TestLiftRoot:
    def test_random_simple_roots(self):
        rng = random.Random(1105)
        for p in (2, 3, 5, 7, 11):
            for m in range(1, 9):
                for _ in range(25):
                    r = rng.randrange(-(10**6), 10**6)
                    t = rng.randrange(-(10**6), 10**6)
                    if (2 * r - t) % p == 0:
                        t += 1  # 2r - t was 0 mod p, so now it is not
                    n = t * r - r * r + p * rng.randrange(-(10**6), 10**6)
                    x = lift_root(t, n, r, p, m)
                    assert 0 <= x < p**m
                    assert (x * x - t * x + n) % p**m == 0
                    assert x % p == r % p


class TestGcdPolyModp:
    def test_matches_extended_gcd(self):
        rng = random.Random(1729)
        for p in (2, 3, 5, 7, 853):
            for _ in range(60):
                # a shared factor makes nontrivial gcds common
                common = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
                f = _pmul(common, [rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
                g = _pmul(common, [rng.randrange(p) for _ in range(rng.randrange(1, 6))], p)
                if f == [0] and g == [0]:
                    continue
                assert _gcd_poly_modp(f, g, p) == _xgcd_poly_modp(f, g, p)[0]


class TestSplitIntPoly:
    @staticmethod
    def _random_mixed(rng, p, m, deg, sdeg):
        """A monic integer polynomial of degree deg whose reduction mod p is
        X^sdeg times a polynomial with nonzero constant term, so it has
        exactly sdeg roots of positive valuation."""
        pm = p**m
        f = [p * rng.randrange(pm) for _ in range(sdeg)]
        f.append(rng.randrange(1, p) + p * rng.randrange(pm))
        f += [rng.randrange(pm) for _ in range(deg - sdeg - 1)]
        return f[:deg] + [1]

    def test_random_mixed_slopes(self):
        rng = random.Random(2718)
        for p in (2, 3, 5, 7):
            for m in range(1, 9):
                pm = p**m
                for _ in range(8):
                    deg = rng.randrange(1, 8)
                    sdeg = rng.randrange(deg + 1)
                    f = self._random_mixed(rng, p, m, deg, sdeg)
                    g, h, s, t = _split_int_poly(f, p, m)
                    assert g[-1] == 1 and h[-1] == 1
                    assert (len(g) - 1, len(h) - 1) == (deg - sdeg, sdeg)
                    assert _pmul(g, h, pm) == [c % pm for c in f]
                    assert _padd(_pmul(s, g, pm), _pmul(t, h, pm), pm) == [1]
                    # g has the unit roots, h reduces to X^sdeg
                    assert g[0] % p != 0
                    assert all(c % p == 0 for c in h[:-1])

    def test_broken_lift_is_caught(self, monkeypatch):
        import hz.padic

        monkeypatch.setattr(hz.padic, "_hensel_step",
                            lambda f, g, h, s, t, old, new: (g, h, s, t))
        p, m = 5, 4
        f = [5, 1 + 5, 1]  # X^2 + 6X + 5 = (X + 1)(X + 5)
        with pytest.raises(PadicError, match=r"split of degree 1 \+ 1"):
            _split_int_poly(f, p, m)


def _poly_from_roots(roots, pm):
    """The monic integer polynomial with the given roots, low-to-high mod pm."""
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return [c % pm for c in coeffs]


def _at(f, x, pm):
    return sum(c * x**i for i, c in enumerate(f)) % pm


class TestNewtonPolygonSplit:
    """`_split_int_poly` separates the roots of valuation 0 from those of
    positive valuation, as the slopes of the Newton polygon do."""

    def test_trivial_split(self):
        p, m = 5, 6
        pm = p**m
        u, v, _, _ = _split_int_poly(_poly_from_roots([1, p], pm), p, m)
        assert len(u) == len(v) == 2
        assert _at(u, 1, pm) == 0
        assert _at(v, p, pm) == 0

    def test_all_nonunit(self):
        p, m = 5, 6
        u, v, _, _ = _split_int_poly([0, 0, 1], p, m)
        assert u == [1]
        assert len(v) - 1 == 2

    def test_rejects_non_monic(self):
        p, m = 5, 6
        with pytest.raises(PadicError, match="monic"):
            _split_int_poly([5, 1, 2], p, m)

    def test_random_cubics_against_root_valuations(self):
        rng = random.Random(7)
        p, m = 7, 6
        pm = p**m
        for _ in range(20):
            unit_root = rng.randrange(1, p) + p * rng.randrange(p ** (m - 1))
            r2 = p * rng.randrange(1, p ** (m - 1))
            r3 = p * rng.randrange(1, p ** (m - 1))
            f = _poly_from_roots([unit_root, r2, r3], pm)
            u, v, _, _ = _split_int_poly(f, p, m)
            assert len(u) - 1 == 1
            assert len(v) - 1 == 2
            assert _at(u, unit_root, pm) == 0
            assert _at(v, r2, pm) == 0
            assert _at(v, r3, pm) == 0
            # factors multiply back
            assert _pmul(u, v, pm) == f


def _pn_mat(entries, p, m):
    return [[PadicNumber.from_int(x, p, m) for x in row] for row in entries]


def _mats_equal(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


class TestBezoutProjector:
    def test_diag(self):
        p, m = 5, 6
        M = _pn_mat([[2, 0], [0, 5 * 3]], p, m)
        E = bezout_projector(M, p, m)
        assert E[0][0] == PadicNumber.one(p, m)
        assert E[1][1].is_zero()
        assert E[0][1].is_zero() and E[1][0].is_zero()

    def test_nilpotent(self):
        p, m = 5, 6
        M = _pn_mat([[0, 1], [0, 0]], p, m)
        E = bezout_projector(M, p, m)
        assert all(x.is_zero() for row in E for x in row)

    def test_identity_like(self):
        p, m = 3, 5
        M = _pn_mat([[1, 1], [0, 2]], p, m)
        E = bezout_projector(M, p, m)
        assert E[0][0] == PadicNumber.one(p, m)
        assert E[1][1] == PadicNumber.one(p, m)

    def test_2x2_against_iterate_oracle(self):
        p, m = 5, 6
        M = _pn_mat([[1, 3], [0, 5]], p, m)
        E = bezout_projector(M, p, m)
        O = ordinary_iterate_oracle(M, p, m)
        assert _mats_equal(E, O)

    def test_random_matrices_match_oracle(self):
        rng = random.Random(2024)
        for _ in range(50):
            p = rng.choice([3, 5, 7])
            m = 5
            dim = rng.randrange(1, 7)
            M = [[rng.randrange(p**m) for _ in range(dim)] for _ in range(dim)]
            Mp = _pn_mat(M, p, m)
            E = bezout_projector(Mp, p, m)
            O = ordinary_iterate_oracle(Mp, p, m)
            assert _mats_equal(E, O)
            # idempotence and commutation
            En = [[x.residue for x in row] for row in E]
            pm = p**m
            E2 = [
                [sum(En[i][k] * En[k][j] for k in range(dim)) % pm for j in range(dim)]
                for i in range(dim)
            ]
            assert E2 == En
            EM = [
                [sum(En[i][k] * M[k][j] for k in range(dim)) % pm for j in range(dim)]
                for i in range(dim)
            ]
            ME = [
                [sum(M[i][k] * En[k][j] for k in range(dim)) % pm for j in range(dim)]
                for i in range(dim)
            ]
            assert EM == ME

    def test_rejects_nonintegral(self):
        p, m = 5, 6
        bad = as_padic(Fraction(1, 5), p, m)
        with pytest.raises(PadicError):
            bezout_projector([[bad]], p, m)
