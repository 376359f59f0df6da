import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
import sympy

import pipeline_fixtures as fx
from hz.hecke import (
    EigenSystem,
    EulerFactorReport,
    HeckeError,
    HeckeSpace,
    NotDerivative,
    NotInSpan,
    NotInvariant,
    NotSeparated,
    SingularBlock,
    _solve_linear,
    e_ord,
    eigensystem_from_json,
    eigensystem_to_json,
    euler_report,
    expansion_from_eigensystem,
    isotypic_project,
    lvalue_weight2,
    ordinary_projection_of_derivative,
    stabilize,
    stabilized_expansion,
)
from hz.padic import NotOrdinary, PadicNumber, as_padic, bezout_projector, ordinary_iterate_oracle
from hz.qexp import (
    EllipticQExp,
    conjugate_ratio_partner,
    diagonal_restrict,
    hecke_T,
    hilbert_deplete,
    padic_ring,
    q_derivative,
    u_operator,
)
from hz.realquad import make_field, split_prime

R75 = padic_ring(7, 5)
PM75 = 7**5


def eigsys(label, ap):
    return EigenSystem(label=label, level=1, ap=ap)


class TestStabilize:
    def test_curve_11a_at_3(self):
        sys = eigsys("11a", {3: -1})
        alpha, beta = stabilize(sys, 3, 4)
        assert alpha.residue == 65  # unit root of X^2 + X + 3 mod 81
        assert alpha * beta == PadicNumber.from_int(3, 3, 4)
        assert alpha + beta == PadicNumber.from_int(-1, 3, 4)

    def test_not_ordinary(self):
        with pytest.raises(NotOrdinary):
            stabilize(eigsys("bad", {3: 3}), 3, 4)

    def test_level_guard(self):
        sys = EigenSystem(label="x", level=7, ap={7: 1})
        with pytest.raises(HeckeError):
            stabilize(sys, 7, 4)

    def test_stabilized_expansion_is_u_eigenvector(self):
        sys = fx.TARGET_SYS
        alpha, beta = stabilize(sys, 7, 5)
        f = expansion_from_eigensystem(sys, 98, R75)
        g = stabilized_expansion(f, beta, 7)
        u = u_operator(g, 7)
        assert u.eq_at_precision(g.scale(alpha))


def two_eigen_space(bound=60, p=7, m=5, beta_other=False):
    ring = padic_ring(p, m)
    ta, tb = stabilize(fx.TARGET_SYS, p, m)
    oa, ob = stabilize(fx.OTHER_SYS, p, m)
    ft = expansion_from_eigensystem(fx.TARGET_SYS, bound, ring)
    fo = expansion_from_eigensystem(fx.OTHER_SYS, bound, ring)
    gt = stabilized_expansion(ft, tb, p)
    # beta-stabilization has the non-unit root as U_p eigenvalue
    go = stabilized_expansion(fo, oa if beta_other else ob, p)
    return {
        "space": HeckeSpace([gt, go]),
        "gt": gt,
        "go": go,
        "t_eig": ta,
        "o_eig": ob if beta_other else oa,
    }


def _shifted_at(phi, at, delta=1):
    """phi with delta added to its coefficient at n = at."""
    coeffs = [phi[n] + (delta if n == at else 0) for n in range(phi.bound + 1)]
    return EllipticQExp(phi.weight, phi.level, phi.bound, coeffs, phi.ring)


def fraction_solve(A, b):
    """x with A x = b over Q, by Gauss-Jordan elimination on Fractions."""
    n = len(A)
    M = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col])
        M[col], M[pivot] = M[pivot], M[col]
        M[col] = [v / M[col][col] for v in M[col]]
        for r in range(n):
            if r != col:
                M[r] = [v - M[r][col] * w for v, w in zip(M[r], M[col])]
    return [row[n] for row in M]


def mod_pm(q, pm):
    """The rational q, its denominator prime to p, mod pm = p^m."""
    return q.numerator * pow(q.denominator, -1, pm) % pm


# -- the PadicNumber reference ---------------------------------------------------
# The Hecke space as it ran on PadicNumber arithmetic, one allocation per
# product: the oracle of the int path on integral inputs.


def ref_solve(A, b):
    n = len(A)
    M = [row[:] + [bi] for row, bi in zip(A, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col].valuation() == 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col].inverse()
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and not M[r][col].is_zero():
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def ref_sum(terms, ring):
    return sum(terms, ring.load(ring.zero))


def ref_coordinates(basis, phi):
    d, ring = len(basis), phi.ring
    x = ref_solve([[f[n] for f in basis] for n in range(1, d + 1)],
                  [phi[n] for n in range(1, d + 1)])
    for n in range(d + 1, min([phi.bound] + [f.bound for f in basis]) + 1):
        if n % ring.p and not (ref_sum((xj * f[n] for xj, f in zip(x, basis)), ring)
                               - phi[n]).is_zero():
            raise NotInSpan("residual nonzero at coefficient %d" % n)
    return x


def ref_combine(basis, x):
    f0, ring = basis[0], basis[0].ring
    bound = min(f.bound for f in basis)
    return EllipticQExp(f0.weight, f0.level, bound, [
        ref_sum((xj * f[n] for xj, f in zip(x, basis)), ring) for n in range(bound + 1)], ring)


def ref_matrix(basis, op):
    columns = [ref_coordinates(basis, op(f)) for f in basis]
    return [list(row) for row in zip(*columns)]


def ref_mat_vec(M, x, ring):
    return [ref_sum((a * b for a, b in zip(row, x)), ring) for row in M]


def ref_e_ord(basis, phi):
    ring = phi.ring
    E = bezout_projector(ref_matrix(basis, lambda f: u_operator(f, ring.p)), ring.p, ring.m)
    return ref_combine(basis, ref_mat_vec(E, ref_coordinates(basis, phi), ring))


def ref_isotypic(basis, phi, target, annihilation):
    ring = phi.ring
    x = ref_coordinates(basis, phi)
    for ell, a_other in annihilation:
        M = ref_matrix(basis, lambda f: hecke_T(f, ell))
        diff = as_padic(Fraction(target.a(ell)) - Fraction(a_other), ring.p, ring.m)
        a_o = as_padic(a_other, ring.p, ring.m)
        y = ref_mat_vec(M, x, ring)
        x = [(yi - a_o * xi) / diff for yi, xi in zip(y, x)]
    component = ref_combine(basis, x)
    return component, component[1]


def random_span(rng, p, m, d):
    """A random d-dimensional Hecke-stable span at (p, m): d formal
    eigensystems, each stabilized at a random root, mixed by a random
    integer matrix invertible mod p; with the target (system 0) and an
    annihilation list that separates it from the others."""
    ring, bound = padic_ring(p, m), 2 * d * p + 6
    ells = [ell for ell in (2, 3, 5, 7, 11) if ell != p and bound // ell >= 2 * d]
    while True:
        systems = [eigsys("s%d" % j, {ell: rng.randrange(-9, 10)
                                      for ell in sympy.primerange(2, bound + 1)})
                   for j in range(d)]
        if any(s.ap[p] % p == 0 for s in systems):
            continue
        annihilation = []
        for other in systems[1:]:
            ell = next((ell for ell in ells if (systems[0].ap[ell] - other.ap[ell]) % p), None)
            annihilation.append((ell, other.ap.get(ell)))
        if None in (ell for ell, _ in annihilation):
            continue
        eigen = []
        for s in systems:
            roots = stabilize(s, p, m)
            f = expansion_from_eigensystem(s, bound, ring)
            eigen.append(stabilized_expansion(f, roots[rng.randrange(2)], p))
        S = [[rng.randrange(-3, 4) for _ in range(d)] for _ in range(d)]
        if int(sympy.Matrix(S).det()) % p == 0:
            continue
        basis = [reduce(add, (e.scale(c) for e, c in zip(eigen, row)))
                 for row in S]
        try:
            return HeckeSpace(basis), basis, systems[0], annihilation
        except SingularBlock:
            continue


class TestHeckeSpace:
    def test_u_matrix_diagonal_on_eigenbasis(self):
        ctx = two_eigen_space()
        M = ctx["space"].operator_matrix(("U", 7))
        assert M == [[ctx["t_eig"].residue, 0], [0, ctx["o_eig"].residue]]

    def test_t_matrix_diagonal_on_eigenbasis(self):
        ctx = two_eigen_space()
        M = ctx["space"].operator_matrix(("T", 3))
        assert M == [[-1 % 7**5, 0], [0, 2]]

    def test_similarity_under_change_of_basis(self):
        ctx = two_eigen_space()
        gt, go = ctx["gt"], ctx["go"]
        mixed = HeckeSpace([gt + go, go])
        M = mixed.operator_matrix(("U", 7))
        # S = [[1,0],[1,1]] maps mixed coordinates to eigen coordinates;
        # the eigenbasis matrix D must equal S M S^{-1}
        a, b, c, d = M[0][0], M[0][1], M[1][0], M[1][1]
        # S M = [[a, b], [a+c, b+d]]; then right-multiply by S^{-1} = [[1,0],[-1,1]]
        smsi = [[(a - b) % PM75, b], [(a + c - b - d) % PM75, (b + d) % PM75]]
        assert smsi == [[ctx["t_eig"].residue, 0], [0, ctx["o_eig"].residue]]

    def test_three_dim_direct_application_oracle(self):
        ring = padic_ring(7, 5)
        third = eigsys("third", fx.formal_ap(303, {2: 3, 3: 1, 7: 3}))
        exps = []
        for sys in (fx.TARGET_SYS, fx.OTHER_SYS, third):
            _, beta = stabilize(sys, 7, 5)
            exps.append(
                stabilized_expansion(expansion_from_eigensystem(sys, 60, ring), beta, 7)
            )
        basis = [exps[0] + exps[1], exps[1] + exps[2].scale(2), exps[2]]
        space = HeckeSpace(basis)
        M = space.operator_matrix(("T", 3))
        from hz.qexp import hecke_T

        for j in range(3):
            img = hecke_T(basis[j], 3)
            recon = [sum(M[i][j] * basis[i][n].residue for i in range(3)) % PM75
                     for n in range(img.bound + 1)]
            assert recon == [img[n].residue for n in range(img.bound + 1)]

    def test_not_invariant(self):
        rng = random.Random(5)
        ring = padic_ring(7, 5)
        junk = EllipticQExp(
            2,
            1,
            60,
            [PadicNumber.from_int(rng.randrange(7**5), 7, 5) for _ in range(61)],
            ring,
        )
        ctx = two_eigen_space()
        space = HeckeSpace([ctx["gt"], junk])
        with pytest.raises(NotInvariant):
            space.operator_matrix(("T", 3))

    def test_not_in_span(self):
        # d = 2, p = 7: every n prime to 7 is checked, not only 1..2d
        ctx = two_eigen_space()
        phi = ctx["gt"] + ctx["go"].scale(3)
        for n in (3, 5, 6, 8, 59, 60):
            with pytest.raises(NotInSpan, match="residual nonzero at coefficient %d$" % n):
                ctx["space"].coordinates(_shifted_at(phi, n))
        # the coefficients at multiples of p are not compared
        for n in (7, 14, 56):
            assert ctx["space"].coordinates(_shifted_at(phi, n)) == ([1, 3], 0)

    def test_basis_changed_past_the_leading_window_is_caught(self):
        # gt with its coefficient at n = 2d + 1 zeroed is no eigenform; the
        # T_3 images agree with the span on n <= 2d, so only a check past
        # that window can see it
        ctx = two_eigen_space()
        gt = ctx["gt"]
        bad = _shifted_at(gt, 5, -gt[5])
        with pytest.raises(NotInvariant, match="at coefficient 5$"):
            HeckeSpace([bad, ctx["go"]]).operator_matrix(("T", 3))

    def test_singular_block_names_the_stage(self):
        ctx = two_eigen_space()
        f = ctx["gt"] + ctx["go"]
        with pytest.raises(SingularBlock, match="^HeckeSpace certification: "):
            HeckeSpace([f, f.scale(2)])
        block = [[f[n].residue] * 2 for n in (1, 2)]
        with pytest.raises(SingularBlock, match="^coordinates: "):
            _solve_linear(block, [f[1].residue, f[2].residue], "coordinates", 7, PM75)

    def test_unknown_operator_is_refused(self):
        space = two_eigen_space()["space"]
        with pytest.raises(HeckeError, match="no operator 'diamond'"):
            space.operator_matrix(("diamond", 3))

    def test_rejects_rational_basis(self):
        f = EllipticQExp(2, 1, 20, [Fraction(n) for n in range(21)])
        with pytest.raises(HeckeError):
            HeckeSpace([f])


class TestIntPathOracle:
    """The int path against the PadicNumber reference on random 2- and
    3-dimensional spans, and the valuation shift."""

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_matches_padic_reference(self, p, m):
        rng, pm = random.Random(100 * p + m), p**m
        for d in (2, 3):
            space, basis, target, annihilation = random_span(rng, p, m, d)
            for descriptor, op in ((("U", p), lambda f: u_operator(f, p)),
                                   (("T", annihilation[0][0]),
                                    lambda f: hecke_T(f, annihilation[0][0]))):
                assert space.operator_matrix(descriptor) == [
                    [e.residue for e in row] for row in ref_matrix(basis, op)]
            cs = [rng.randrange(pm) for _ in range(d)]
            phi = reduce(add, (f.scale(c) for f, c in zip(basis, cs)))
            x = [c.residue for c in ref_coordinates(basis, phi)]
            assert space.coordinates(phi) == (x, 0) and x == cs
            assert e_ord(space, phi).eq_at_precision(ref_e_ord(basis, phi))
            comp, lam = isotypic_project(space, phi, target, annihilation)
            ref_comp, ref_lam = ref_isotypic(basis, phi, target, annihilation)
            assert comp.eq_at_precision(ref_comp) and lam == ref_lam
            # a coefficient prime to p past the window, changed: both refuse it
            n = rng.choice([n for n in range(d + 1, space.bound + 1) if n % p])
            for coordinates in (space.coordinates, lambda f: ref_coordinates(basis, f)):
                with pytest.raises(NotInSpan, match="coefficient %d$" % n):
                    coordinates(_shifted_at(phi, n))

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_valuation_shift(self, k):
        """phi / 7^k is read as 7^-k times phi: the same coordinates with
        shift k, and every output divided back by 7^k."""
        ctx = two_eigen_space(beta_other=True)
        space = ctx["space"]
        phi = ctx["gt"].scale(3) + ctx["go"].scale(5)
        scaled = phi.scale(Fraction(1, 7**k))
        x, s = space.coordinates(phi)
        assert (s, space.coordinates(scaled)) == (0, (x, k))

        def divided(f):
            return [(u, v - k) if u else (0, 0) for u, v in f.coeffs]

        assert e_ord(space, scaled).coeffs == divided(e_ord(space, phi))
        comp, lam = isotypic_project(space, scaled, fx.TARGET_SYS, [(2, fx.OTHER_SYS.ap[2])])
        comp0, lam0 = isotypic_project(space, phi, fx.TARGET_SYS, [(2, fx.OTHER_SYS.ap[2])])
        assert comp.coeffs == divided(comp0)
        assert (lam.unit, lam.val) == (lam0.unit, lam0.val - k) == (3, -k)

    def test_non_integral_basis_is_refused(self):
        ctx = two_eigen_space()
        with pytest.raises(HeckeError, match="p-adically integral"):
            HeckeSpace([ctx["gt"].scale(Fraction(1, 7)), ctx["go"]])


class TestExpansionFromEigensystem:
    def test_matches_the_rational_recursion(self):
        """Against the recursion over Q, reduced mod 7^4, with eigenvalues
        whose denominators are prime to 7."""
        ap = {**fx.TARGET_SYS.ap, 3: Fraction(1, 2), 5: Fraction(-4, 9)}
        q = [Fraction(0), Fraction(1)]
        for n in range(2, 61):
            (ell, e), *rest = sympy.factorint(n).items()
            if rest:
                q.append(q[ell**e] * q[n // ell**e])
            elif e == 1:
                q.append(Fraction(ap[ell]))
            else:
                q.append(ap[ell] * q[n // ell] - ell * q[n // ell**2])
        f = expansion_from_eigensystem(eigsys("t", ap), 60, padic_ring(7, 4))
        assert [f[n] for n in range(61)] == [as_padic(c, 7, 4) for c in q]

    def test_p_in_a_denominator_is_refused(self):
        ap = {**fx.TARGET_SYS.ap, 3: Fraction(1, 7)}
        with pytest.raises(HeckeError, match="^the eigenvalue at 3 has 7 in its denominator: 1/7$"):
            expansion_from_eigensystem(eigsys("t", ap), 30, padic_ring(7, 4))


class TestEOrd:
    def test_kills_nonunit_component(self):
        ctx = two_eigen_space(beta_other=True)
        assert ctx["o_eig"].valuation() == 1
        c1 = PadicNumber.from_int(123, 7, 5)
        phi = ctx["gt"].scale(c1) + ctx["go"]
        proj = e_ord(ctx["space"], phi)
        assert proj.eq_at_precision(ctx["gt"].scale(c1))

    def test_idempotent(self):
        ctx = two_eigen_space(beta_other=True)
        phi = ctx["gt"].scale(5) + ctx["go"].scale(9)
        once = e_ord(ctx["space"], phi)
        twice = e_ord(ctx["space"], once)
        assert once.eq_at_precision(twice)

    def test_matches_iterate_oracle_on_matrix(self):
        ctx = two_eigen_space(beta_other=True)
        space = ctx["space"]
        from hz.padic import bezout_projector

        M = space.operator_matrix(("U", 7))
        E = bezout_projector(M, 7, 5)
        O = ordinary_iterate_oracle(M, 7, 5)
        assert all(a == b for ra, rb in zip(E, O) for a, b in zip(ra, rb))

    def test_identity_on_fully_ordinary_space(self):
        ctx = two_eigen_space()
        phi = ctx["gt"].scale(2) + ctx["go"].scale(3)
        assert e_ord(ctx["space"], phi).eq_at_precision(phi)


class TestIsotypic:
    def test_two_dim_projection(self):
        ctx = two_eigen_space()
        c = PadicNumber.from_int(4321, 7, 5)
        phi = ctx["gt"].scale(c) + ctx["go"]
        comp, lam = isotypic_project(
            ctx["space"], phi, fx.TARGET_SYS, [(2, fx.OTHER_SYS.ap[2])]
        )
        assert lam == c
        assert comp.eq_at_precision(ctx["gt"].scale(c))

    def test_kills_other_eigenform(self):
        ctx = two_eigen_space()
        comp, lam = isotypic_project(
            ctx["space"], ctx["go"], fx.TARGET_SYS, [(2, fx.OTHER_SYS.ap[2])]
        )
        assert lam.is_zero()
        assert comp.is_zero()

    def test_annihilated_by_target_difference(self):
        from hz.qexp import hecke_T

        ctx = two_eigen_space()
        phi = ctx["gt"].scale(7) + ctx["go"].scale(2)
        comp, _ = isotypic_project(
            ctx["space"], phi, fx.TARGET_SYS, [(2, fx.OTHER_SYS.ap[2])]
        )
        killed = hecke_T(comp, 2) + comp.scale(-Fraction(fx.TARGET_SYS.ap[2]))
        assert killed.is_zero()

    def test_not_separated(self):
        ctx = two_eigen_space()
        with pytest.raises(NotSeparated):
            isotypic_project(
                ctx["space"],
                ctx["gt"],
                fx.TARGET_SYS,
                [(2, Fraction(fx.TARGET_SYS.ap[2]) + 7**5)],
            )

    def test_three_system_lambda_matches_direct_solve(self):
        ring = padic_ring(7, 5)
        third = eigsys("third", fx.formal_ap(303, {2: 3, 3: 1, 7: 3}))
        systems = (fx.TARGET_SYS, fx.OTHER_SYS, third)
        exps = []
        for sys in systems:
            _, beta = stabilize(sys, 7, 5)
            exps.append(
                stabilized_expansion(expansion_from_eigensystem(sys, 60, ring), beta, 7)
            )
        space = HeckeSpace(exps)
        rng = random.Random(9)
        cs = [PadicNumber.from_int(rng.randrange(1, 7**5), 7, 5) for _ in range(3)]
        phi = exps[0].scale(cs[0]) + exps[1].scale(cs[1]) + exps[2].scale(cs[2])
        comp, lam = isotypic_project(
            space,
            phi,
            fx.TARGET_SYS,
            [(2, fx.OTHER_SYS.ap[2]), (3, third.ap[3])],
        )
        # direct oracle: solve the full 3x3 leading system of residues over
        # Q, then reduce mod 7^5
        A = [[exps[j][n].residue for j in range(3)] for n in (1, 2, 3)]
        direct = fraction_solve(A, [phi[n].residue for n in (1, 2, 3)])
        assert lam.residue == mod_pm(direct[0], PM75) == cs[0].residue


class TestDerivativeProjection:
    def test_accepts_q_derivative(self):
        rng = random.Random(13)
        ring = padic_ring(11, 5)
        f = EllipticQExp(
            2,
            1,
            60,
            [PadicNumber.from_int(rng.randrange(11**5), 11, 5) for _ in range(61)],
            ring,
        )
        out = ordinary_projection_of_derivative(q_derivative(f))
        assert out.is_zero()

    def test_rejects_non_derivative(self):
        ring = padic_ring(11, 5)
        coeffs = [PadicNumber.zero(11, 5)] * 61
        coeffs[11] = PadicNumber.one(11, 5)
        h = EllipticQExp(2, 1, 60, coeffs, ring)
        with pytest.raises(NotDerivative):
            ordinary_projection_of_derivative(h)

    def test_rejects_constant_term(self):
        ring = padic_ring(11, 5)
        coeffs = [PadicNumber.one(11, 5)] + [PadicNumber.zero(11, 5)] * 60
        with pytest.raises(NotDerivative):
            ordinary_projection_of_derivative(EllipticQExp(2, 1, 60, coeffs, ring))

    def test_depleted_pair_restriction_vanishes(self):
        F5 = make_field(5)
        P11 = split_prime(F5, 11, 5)
        ring = padic_ring(11, 5)
        rng = random.Random(17)
        from hz.qexp import HilbertQExp, hilbert_domain

        for _ in range(3):
            coeffs = {
                (xi.x, xi.y): PadicNumber.from_int(rng.randrange(11**5), 11, 5)
                for xi in hilbert_domain(F5, 60)
            }
            g1 = hilbert_deplete(
                HilbertQExp(F5, (2, 0), 60, PadicNumber.zero(11, 5), coeffs, ring),
                P11,
                1,
            )
            g2 = conjugate_ratio_partner(g1, P11)
            combo = diagonal_restrict(g1 + g2)
            assert ordinary_projection_of_derivative(combo).is_zero()


class TestEulerReport:
    def test_weight_one_valuations(self):
        rep = euler_report((2, 3, 4, 5), (2, 21), ell=1, alpha_exp=1, p=7, m=4)
        vals = rep.valuations()
        assert vals["ordinary_factor"] == 0
        assert vals["special_factor"] == -4
        assert vals["depth_one_factor"] == -2
        assert rep.nonzero["ordinary_factor"]
        assert rep.nonzero["special_factor"]
        assert rep.nonzero["depth_one_factor"]

    def test_valuations_stable_in_precision(self):
        for m in (4, 6, 9):
            rep = euler_report((2, 3, 4, 5), (2, 21), ell=1, alpha_exp=1, p=7, m=m)
            assert rep.valuations() == {
                "ordinary_factor": 0,
                "special_factor": -4,
                "depth_one_factor": -2,
            }

    def test_base_point_hand_evaluation(self):
        # exact rational oracle: (1 - 2*4/2) / (1 - 2/(2*4*7)) = -3/(27/28)
        rep = euler_report((2, 3, 4, 5), (2, 21), ell=2, alpha_exp=2, p=7, m=4)
        expected = as_padic(Fraction(-28, 9), 7, 4)
        assert rep.interpolation_at_base == expected

    def test_point_value_and_gauss_token(self):
        rep = euler_report((2, 3, 4, 5), (2, 21), ell=2, alpha_exp=2, p=7, m=4)
        value, token_exp = rep.interpolation_at_point
        assert value == as_padic(Fraction(2 * 4, 2) ** 2, 7, 4)
        assert token_exp == -1

    def test_point_value_includes_weight_power(self):
        rep = euler_report((2, 3, 4, 5), (2, 21), ell=4, alpha_exp=1, p=7, m=6)
        value, _ = rep.interpolation_at_point
        assert value == as_padic(Fraction(4, 49), 7, 6)

    def test_twisted_unit_root(self):
        rep = euler_report((2, 3, 4, 5), (2, 21), ell=1, alpha_exp=1, p=7, m=4)
        assert rep.twisted_unit_root == PadicNumber.from_int(3, 7, 4)

    def test_correction_factors_with_tokens(self):
        # every token is 1: (1 - alpha)^2 and -alpha (1 - 1/alpha) at alpha = 2
        rep = euler_report((2, 3, 4, 5), (2, 21), ell=2, alpha_exp=1, p=7, m=4)
        loc, meta = rep.localization_factor
        assert loc == as_padic((1 - 2) * (1 - 2), 7, 4)
        assert "assumed" in meta["verdict"]
        comp, meta2 = rep.comparison_factor
        assert comp == as_padic(Fraction(-2) * (1 - Fraction(1, 2)), 7, 4)
        assert "assumed" in meta2["verdict"]
        assert rep.nonzero["localization_factor"]
        assert rep.nonzero["comparison_factor"]

    @pytest.mark.parametrize("alphas, froots, m, name", [
        ((2, 3, 4, 5), (0, 21), 4, "alpha"),
        ((2, 3, 4, 5), (2, 7**4), 4, "beta"),
        ((0, 0, 0, 0), (2, 21), 4, "a1"),
        ((2, 3, 7**5, 5), (2, 21), 4, "a2"),
        ((2, 3, 4, 5), (2, 21), 1, "beta"),
        ((2, 3, 4, 5), (2, 21), 2, "beta\\^2"),
        ((49, 3, 49, 5), (2, 21), 5, "a1\\*a2\\*p"),
    ])
    def test_zero_divisor_is_named(self, alphas, froots, m, name):
        with pytest.raises(HeckeError, match="divides by %s, which is 0 modulo 7\\^%d" % (name, m)):
            euler_report(alphas, froots, ell=1, alpha_exp=1, p=7, m=m)


class TestLValuePipeline:
    def test_zero_input(self):
        ctx = fx.build_space()
        zero = fx.build_hilbert_input(PadicNumber.one(fx.P, fx.M), ctx).scale(0)
        out = lvalue_weight2(
            zero,
            fx.PRIME,
            ctx["target"],
            ctx["alphas"][0:1] + ctx["betas"][0:1],
            ctx["space"],
            ctx["annihilation"],
        )
        assert out.is_zero()

    def test_reverse_constructed_instances(self):
        ctx = fx.build_space()
        alpha, beta = ctx["alphas"][0], ctx["betas"][0]
        E = PadicNumber.one(fx.P, fx.M) - beta / alpha
        rng = random.Random(23)
        for _ in range(3):
            c = PadicNumber.from_int(rng.randrange(1, 7**4), fx.P, fx.M)
            g = fx.build_hilbert_input(c, ctx)
            out = lvalue_weight2(
                g,
                fx.PRIME,
                ctx["target"],
                (alpha, beta),
                ctx["space"],
                ctx["annihilation"],
            )
            assert out == c / E

    def test_linearity(self):
        ctx = fx.build_space()
        alpha, beta = ctx["alphas"][0], ctx["betas"][0]
        c1 = PadicNumber.from_int(17, fx.P, fx.M)
        c2 = PadicNumber.from_int(1009, fx.P, fx.M)
        g1 = fx.build_hilbert_input(c1, ctx)
        g2 = fx.build_hilbert_input(c2, ctx)
        args = (fx.PRIME, ctx["target"], (alpha, beta), ctx["space"], ctx["annihilation"])
        assert lvalue_weight2(g1 + g2, *args) == lvalue_weight2(
            g1, *args
        ) + lvalue_weight2(g2, *args)


class TestEigendataJson:
    def test_roundtrip(self):
        sys = fx.TARGET_SYS
        again = eigensystem_from_json(eigensystem_to_json(sys))
        assert again.label == sys.label
        assert again.level == sys.level
        assert {k: Fraction(v) for k, v in sys.ap.items()} == again.ap

    def test_non_elliptic_field_is_refused(self):
        record = eigensystem_to_json(fx.TARGET_SYS)
        assert record["field"] == "elliptic"
        with pytest.raises(HeckeError, match="got field 'hilbert'"):
            eigensystem_from_json(dict(record, field="hilbert"))
        # a record without the tag reads as elliptic
        del record["field"]
        assert eigensystem_from_json(record).label == fx.TARGET_SYS.label

    def test_other_weight_or_character_is_refused(self):
        record = eigensystem_to_json(fx.TARGET_SYS)
        assert (record["weight"], record["character"]) == (2, None)
        with pytest.raises(HeckeError, match="got weight 4"):
            eigensystem_from_json(dict(record, weight=4))
        with pytest.raises(HeckeError, match="trivial-character"):
            eigensystem_from_json(dict(record, character=[[0, "1"]]))
