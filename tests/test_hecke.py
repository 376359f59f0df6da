import random
from fractions import Fraction

import pytest

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
from hz.padic import NotOrdinary, PadicNumber, as_padic, ordinary_iterate_oracle
from hz.qexp import (
    EllipticQExp,
    conjugate_ratio_partner,
    diagonal_restrict,
    hilbert_deplete,
    padic_ring,
    q_derivative,
    u_operator,
)
from hz.realquad import make_field, split_prime

R75 = padic_ring(7, 5)


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


class TestHeckeSpace:
    def test_u_matrix_diagonal_on_eigenbasis(self):
        ctx = two_eigen_space()
        M = ctx["space"].operator_matrix(("U", 7))
        assert M[0][0] == ctx["t_eig"] and M[1][1] == ctx["o_eig"]
        assert M[0][1].is_zero() and M[1][0].is_zero()

    def test_t_matrix_diagonal_on_eigenbasis(self):
        ctx = two_eigen_space()
        M = ctx["space"].operator_matrix(("T", 3))
        assert M[0][0] == PadicNumber.from_int(-1, 7, 5)
        assert M[1][1] == PadicNumber.from_int(2, 7, 5)
        assert M[0][1].is_zero() and M[1][0].is_zero()

    def test_similarity_under_change_of_basis(self):
        ctx = two_eigen_space()
        gt, go = ctx["gt"], ctx["go"]
        mixed = HeckeSpace([gt + go, go])
        M = mixed.operator_matrix(("U", 7))
        # S = [[1,0],[1,1]] maps mixed coordinates to eigen coordinates;
        # the eigenbasis matrix D must equal S M S^{-1}
        a, b, c, d = M[0][0], M[0][1], M[1][0], M[1][1]
        # S M = [[a, b], [a+c, b+d]]; then right-multiply by S^{-1} = [[1,0],[-1,1]]
        smsi = [[a - b, b], [a + c - b - d, b + d]]
        assert smsi[0][0] == ctx["t_eig"]
        assert smsi[1][1] == ctx["o_eig"]
        assert smsi[0][1].is_zero() and smsi[1][0].is_zero()

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
            recon = [
                sum(
                    (M[i][j] * basis[i][n] for i in range(3)),
                    PadicNumber.zero(7, 5),
                )
                for n in range(img.bound + 1)
            ]
            assert all((x - img[n]).is_zero() for n, x in enumerate(recon))

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
        ctx = two_eigen_space()
        phi = ctx["gt"] + ctx["go"].scale(3)
        tampered = EllipticQExp(
            phi.weight,
            phi.level,
            phi.bound,
            [phi[n] + (1 if n == 3 else 0) for n in range(phi.bound + 1)],
            phi.ring,
        )
        with pytest.raises(NotInSpan):
            ctx["space"].coordinates(tampered)

    def test_singular_block_names_the_stage(self):
        ctx = two_eigen_space()
        f = ctx["gt"] + ctx["go"]
        with pytest.raises(SingularBlock, match="^HeckeSpace certification: "):
            HeckeSpace([f, f.scale(2)])
        block = [[f[n], f[n]] for n in (1, 2)]
        with pytest.raises(SingularBlock, match="^coordinates: "):
            _solve_linear(block, [f[1], f[2]], "coordinates")

    def test_unknown_operator_is_refused(self):
        space = two_eigen_space()["space"]
        with pytest.raises(HeckeError, match="no operator 'diamond'"):
            space.operator_matrix(("diamond", 3))

    def test_rejects_rational_basis(self):
        f = EllipticQExp(2, 1, 20, [Fraction(n) for n in range(21)])
        with pytest.raises(HeckeError):
            HeckeSpace([f])


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
        # direct oracle: solve the full 3x3 leading system
        A = [[exps[j][n] for j in range(3)] for n in (1, 2, 3)]
        direct = _solve_linear(A, [phi[n] for n in (1, 2, 3)], "coordinates")
        assert lam == direct[0] == cs[0]


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
