from fractions import Fraction
from math import isqrt

import pytest
import sympy
from sympy.solvers.diophantine.diophantine import diop_DN

from hz.realquad import (
    NotSplit,
    _cycle_of,
    _is_reduced,
    _sqrt_mod,
    NotSquarefree,
    QuadElement,
    RealQuadError,
    make_field,
    narrowly_principal_split,
    split_prime,
    splitting_type,
    totally_positive_by_trace,
    unit_order_mod,
)


def xy(z):
    """The (1, omega) coordinates of z, by which elements compare."""
    return (z.x, z.y)


def first_embedding(z):
    """Floating-point value of z under the embedding sqrt(d) > 0."""
    a, b = z.sqrt_basis()
    return float(a) + float(b) * z.F.d**0.5


def brute_force_fundamental_unit(F, coord_bound=250):
    """Oracle: smallest unit > 1 by scanning coordinates of bounded height."""
    t, n = F.omega_trace, F.omega_norm
    # real value of omega: (1+sqrt d)/2 or sqrt d
    w_real = (t + (F.d**0.5 if t == 1 else 2 * F.d**0.5)) / 2
    best = None
    best_v = None
    for y in range(-coord_bound, coord_bound + 1):
        for x in range(-coord_bound, coord_bound + 1):
            nm = x * x + x * y * t + y * y * n
            if nm != 1 and nm != -1:
                continue
            v = x + y * w_real
            if v > 1 + 1e-12 and (best_v is None or v < best_v - 1e-12):
                best, best_v = (x, y), v
    return None if best is None else F.element(*best)


class TestMakeField:
    def test_d5(self):
        F = make_field(5)
        eps = F.totally_positive_fundamental_unit
        assert xy(eps) == xy(F.from_sqrt_basis(Fraction(3, 2), Fraction(1, 2)))
        assert eps.norm() == 1 and eps.is_totally_positive()

    def test_d2(self):
        F = make_field(2)
        assert xy(F.totally_positive_fundamental_unit) == xy(F.from_sqrt_basis(3, 2))

    def test_d3(self):
        F = make_field(3)
        assert xy(F.totally_positive_fundamental_unit) == xy(F.from_sqrt_basis(2, 1))

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 29])
    def test_against_brute_force(self, d):
        F = make_field(d)
        eps = F.totally_positive_fundamental_unit
        u = brute_force_fundamental_unit(F)
        if u is not None:  # unit small enough for the scan
            # u > 1, so u is totally positive when N(u) = 1; else eps = u^2
            assert xy(eps) == xy(u if u.norm() == 1 else u * u)
        assert eps.norm() == 1 and eps.is_totally_positive()
        # minimality of eps: no totally positive unit strictly between 1 and
        # it (scan only when the window is small enough to search exactly)
        if first_embedding(eps) < 60:
            bound = int(first_embedding(eps)) + 2
            for y in range(-4 * bound, 4 * bound + 1):
                for x in range(-4 * bound, 4 * bound + 1):
                    z = F.element(x, y)
                    if (
                        z.is_integral_unit()
                        and z.is_totally_positive()
                        and 1 + 1e-9 < first_embedding(z) < first_embedding(eps) - 1e-9
                    ):
                        raise AssertionError("smaller totally positive unit %r" % z)

    def test_against_pell_solver(self):
        """eps = (t + u sqrt(D))/2 for the least positive solution (t, u) of
        t^2 - D u^2 = 4, as sympy's generalized Pell solver finds it."""
        for d in range(2, 2000):
            if sympy.ntheory.factor_.core(d) != d:
                continue
            F = make_field(d)
            t, u = min((t, u) for t, u in diop_DN(F.discriminant, 4) if u > 0)
            expected = (t + u * F.different_generator) * Fraction(1, 2)
            assert xy(F.totally_positive_fundamental_unit) == xy(expected), d

    def test_open_cycle_is_refused(self, monkeypatch):
        """A rho-period that does not close on the principal form gives no
        automorph, and make_field says so."""
        monkeypatch.setattr("hz.realquad._cycle_of",
                            lambda form, D: _cycle_of(form, D)[:-1])
        with pytest.raises(RealQuadError, match="discriminant 5"):
            make_field(5)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            make_field(12)
        with pytest.raises(NotSquarefree):
            make_field(1)

    def test_discriminant(self):
        assert make_field(5).discriminant == 5
        assert make_field(2).discriminant == 8
        assert make_field(3).discriminant == 12

    def test_different_generator(self):
        for d in (2, 3, 5, 13):
            F = make_field(d)
            g = F.different_generator
            a, b = g.sqrt_basis()
            assert a == 0
            assert b * b * d == F.discriminant


class TestQuadElement:
    def test_norm_trace(self):
        F = make_field(5)
        w = F.omega()
        assert w.trace() == 1
        assert w.norm() == -1
        z = F.element(2, 3)
        assert z.trace() == 2 * 2 + 3
        assert xy(z * z.conjugate()) == (z.norm(), 0)


class TestSplitPrime:
    def test_d5_p11_split(self):
        assert splitting_type(make_field(5), 11) == "split"
        data = split_prime(make_field(5), 11, 3)
        r1, r2 = data.roots
        n = make_field(5).omega_norm
        for r in (r1, r2):
            assert (r * r - r + n) % 11**3 == 0
        assert (r1 + r2) % 11 == 1

    def test_d5_p5_ramified(self):
        assert splitting_type(make_field(5), 5) == "ramified"
        with pytest.raises(NotSplit, match=r"^p = 5 is not split in Q\(sqrt\(5\)\)$"):
            split_prime(make_field(5), 5)

    def test_d5_p2_inert(self):
        assert splitting_type(make_field(5), 2) == "inert"
        with pytest.raises(NotSplit, match=r"^p = 2 is not split in Q\(sqrt\(5\)\)$"):
            split_prime(make_field(5), 2)

    def test_d17_p2_split(self):
        F = make_field(17)
        assert splitting_type(F, 2) == "split"
        r1, r2 = split_prime(F, 2, 4).roots
        assert r1 < r2
        for r in (r1, r2):
            assert (r * r - r + F.omega_norm) % 2**4 == 0

    def test_residue_maps_norm_trace(self):
        # residue1(z)*residue2(z) = N(z), residue1+residue2 = Tr(z) mod p^m
        F = make_field(5)
        data = split_prime(F, 11, 4)
        pm = 11**4
        for (x, y) in [(1, 0), (0, 1), (3, -2), (17, 5), (-4, 9)]:
            z = F.element(x, y)
            r1, r2 = data.residue(z, 1), data.residue(z, 2)
            assert (r1 * r2 - z.norm()) % pm == 0
            assert (r1 + r2 - z.trace()) % pm == 0


def narrow_class_number(D):
    """The number of rho-cycles of reduced indefinite forms of fundamental
    discriminant D.  hz reads no class number; this records which fields of
    the Eisenstein tests have h+ > 1.  Each cycle is no longer than the
    number of reduced forms, which is below the 2D steps `_cycle_of` allows."""
    forms = set()
    for b in range(D % 2 or 2, isqrt(D) + 1, 2):
        ac = (b * b - D) // 4
        for a in sympy.divisors(-ac):
            forms |= {f for f in ((a, b, ac // a), (-a, b, -ac // a)) if _is_reduced(*f, D)}
    reduced = len(forms)
    assert reduced < 2 * D
    cycles = 0
    while forms:
        cycles += 1
        cycle = _cycle_of(next(iter(forms)), D)
        assert len(cycle) <= reduced
        forms -= {g for g, _ in cycle}
    return cycles


class TestNarrowClassNumber:
    @pytest.mark.parametrize(
        "D,h",
        [(5, 1), (8, 1), (12, 2), (13, 1), (40, 2), (60, 4), (229, 3), (257, 3),
         (401, 5), (1601, 7)],
    )
    def test_known_values(self, D, h):
        assert narrow_class_number(D) == h


class TestNarrowlyPrincipal:
    def test_d5_p11(self):
        F = make_field(5)
        res = narrowly_principal_split(F, 11)
        assert res.status == "found"
        pi1, pi2 = res.generators
        for pi in (pi1, pi2):
            assert pi.norm() == 11
            assert pi.is_totally_positive()
        # they generate the two distinct primes
        d1 = split_prime(F, 11, 1)
        assert d1.residue(pi1, 1) % 11 == 0
        assert d1.residue(pi2, 2) % 11 == 0
        assert d1.residue(pi1, 2) % 11 != 0

    def test_not_split_error(self):
        with pytest.raises(NotSplit):
            narrowly_principal_split(make_field(5), 5)

    def test_d10_nonprincipal(self):
        # In Q(sqrt 10) the primes above 3 are split but not narrowly
        # principal (no element of norm +-3: x^2 - 10 y^2 = +-3 is
        # impossible mod 5).
        F = make_field(10)
        res = narrowly_principal_split(F, 3)
        assert res.status == "not-principal"

    def test_d10_principal_prime(self):
        # x^2 - 10 y^2 = -9... norm +41: 41 = 81 - 40: z = 9 + 2*sqrt(10)?
        # 81 - 40 = 41, so 41 is narrowly principal.
        F = make_field(10)
        res = narrowly_principal_split(F, 41)
        assert res.status == "found"
        assert res.generators[0].norm() == 41


def box_scan_by_trace(F, tmax):
    """Independent box-scan oracle: for each t <= tmax, the totally positive
    elements of the inverse different with trace t found in the box of t,
    |y| <= 10t + 10 and |x| <= 40t + 40.  The boxes are nested, so one scan
    of the largest serves every t."""
    d = F.d
    found = {t: [] for t in range(1, tmax + 1)}
    # scan numerators z = x + y*omega and test xi = z/sqrt(D) by exact
    # integer inequalities on the embeddings of z (sqrt(D) > 0 under the
    # first embedding, < 0 under the second, so xi >> 0 iff tau1(z) > 0
    # and tau2(z) < 0)
    tw = F.omega_trace
    sqrtD = F.different_generator
    for y in range(-10 * tmax - 10, 10 * tmax + 11):
        for x in range(-40 * tmax - 40, 40 * tmax + 41):
            A2 = 2 * x + y * tw  # twice the rational part of z
            B2 = y * (1 if d % 4 == 1 else 2)  # twice the sqrt(d) part
            # tau1(z) > 0 and tau2(z) < 0: B2 > 0 and B2^2 d > A2^2
            if B2 <= 0 or B2 * B2 * d <= A2 * A2:
                continue
            xi = F.element(x, y) * sqrtD * Fraction(1, F.discriminant)  # z / sqrt(D)
            t = xi.trace()
            if t in found and abs(y) <= 10 * t + 10 and abs(x) <= 40 * t + 40:
                assert xi.is_totally_positive()
                found[t].append(xi)
    for out in found.values():
        out.sort(key=lambda z: (z.x, z.y))
    return found


def by_trace(F, t):
    """totally_positive_by_trace(F, t) as elements: xi = (a + b*omega)/D for
    each pair (a, b)."""
    D = F.discriminant
    return [F.element(Fraction(a, D), Fraction(b, D))
            for a, b in totally_positive_by_trace(F, t)]


class TestTotallyPositiveByTrace:
    def test_d5_trace1_inverse_different(self):
        F = make_field(5)
        elems = by_trace(F, 1)
        assert len(elems) == 2
        for xi in elems:
            assert xi.trace() == 1
            assert xi.is_totally_positive()
            # xi * sqrt(D) integral
            assert (xi * F.different_generator).is_integral()

    def test_trace_zero_empty(self):
        F = make_field(5)
        assert totally_positive_by_trace(F, 0) == []

    # the test ids keep naming the lattice scanned
    @pytest.mark.parametrize("d", [2, 3, 5, 13, 17], ids="inverse_different-{}".format)
    def test_against_box_scan(self, d):
        F = make_field(d)
        want = box_scan_by_trace(F, 8)
        for t in range(1, 9):
            got = by_trace(F, t)
            assert list(map(xy, got)) == list(map(xy, want[t])), (d, t)

    def test_wider_range_small_fields(self):
        # spec-level range d <= 50, t <= 30 on a sample
        for d in (2, 5, 26, 47):
            F = make_field(d)
            for t in (15, 30):
                got = by_trace(F, t)
                for xi in got:
                    assert xi.trace() == t and xi.is_totally_positive()
                    assert (xi * F.different_generator).is_integral()


class TestUnitOrderMod:
    def test_d2_p7(self):
        F = make_field(2)
        data = split_prime(F, 7, 1)
        eps = F.totally_positive_fundamental_unit  # 3 + 2*sqrt(2)
        order = unit_order_mod(F, data, eps)
        assert order == 3  # image is 2 or 4 mod 7; both have order 3
        assert order % 2 == 1

    def test_identity(self):
        F = make_field(2)
        data = split_prime(F, 7, 1)
        assert unit_order_mod(F, data, F.element(1)) == 1

    def test_d5_p11_exhaustive(self):
        F = make_field(5)
        data = split_prime(F, 11, 1)
        eps = F.totally_positive_fundamental_unit
        order = unit_order_mod(F, data, eps)
        a = data.residue(eps, 1) % 11
        x, k = a, 1
        while x != 1:
            x = x * a % 11
            k += 1
        assert order == k

    def test_rejects_nonunit(self):
        F = make_field(5)
        data = split_prime(F, 11, 1)
        with pytest.raises(RealQuadError):
            unit_order_mod(F, data, F.element(2, 0))

    def test_not_split(self):
        # an inert prime has no prime data to take a unit order at
        F = make_field(5)
        with pytest.raises(NotSplit):
            unit_order_mod(F, split_prime(F, 2, 1), F.element(1))


class TestEighthPowerOddOrder:
    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_eighth_power_implies_odd_order(self, d):
        # if p = 9 mod 16, p split, and eps is an 8th power mod the first
        # prime, then the order of eps there is odd
        F = make_field(d)
        eps = F.totally_positive_fundamental_unit
        for p in sympy.primerange(3, 10**4):
            if p % 16 != 9 or splitting_type(F, p) != "split":
                continue
            data = split_prime(F, p, 1)
            a = data.residue(eps, 1) % p
            if pow(a, (p - 1) // 8, p) == 1:
                assert unit_order_mod(F, data, eps) % 2 == 1, (d, p)


class TestPlainIntegerSplitting:
    def test_sqrt_mod(self):
        for p in sympy.primerange(3, 2000):
            for a in range(1, min(p, 60)):
                if pow(a, (p - 1) // 2, p) == 1:
                    assert _sqrt_mod(a, p) ** 2 % p == a

    def test_split_prime_matches_sympy(self):
        for d in (2, 5, 13, 2869):
            F = make_field(d)
            D = F.discriminant
            t, n = F.omega_trace, F.omega_norm
            for p in sympy.primerange(3, 600):
                if D % p == 0:
                    kind = "ramified"
                else:
                    kind = "split" if sympy.legendre_symbol(D % p, p) == 1 else "inert"
                assert splitting_type(F, p) == kind
                if kind != "split":
                    with pytest.raises(NotSplit):
                        split_prime(F, p, 1)
                    continue
                roots = [r for r in range(p) if (r * r - t * r + n) % p == 0]
                assert list(split_prime(F, p, 1).roots) == roots
                r1, r2 = split_prime(F, p, 3).roots
                assert r1 < r2 and {r1 % p, r2 % p} == set(roots)
                assert (r1 * r1 - t * r1 + n) % p ** 3 == 0

    def test_unit_order_reuses_precision_one_data(self, monkeypatch):
        import hz.realquad
        F = make_field(2869)
        data = split_prime(F, 853, 1)
        u = F.totally_positive_fundamental_unit
        expected = unit_order_mod(F, data, u)

        def fail(*args):
            raise AssertionError("split_prime called again")

        monkeypatch.setattr(hz.realquad, "split_prime", fail)
        assert unit_order_mod(F, data, u) == expected
