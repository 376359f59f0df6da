"""Tests for tensor induction, the quintic Frobenius calculus, Hodge-Tate
tables, and the symbolic filtration characters."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from sympy.abc import x

import hz.asai
from hz.asai import (
    AsaiError,
    AsaiRep,
    CharacterMonomial,
    ENTRY_SCALE,
    FiniteRep2,
    NotHomomorphism,
    RamifiedPrime,
    S5FrobeniusClass,
    ThetaInSubgroup,
    _gg_mul,
    _icosian_units,
    _quat_mul,
    _quat_neg,
    _sigma,
    _QUAT_ONE,
    asai_frobenius_eigenvalues,
    cover_center,
    elliptic_graded_characters,
    filtration_characters,
    frobenius_class_quintic,
    ht_weight_table,
    induced_determinant,
    ordinary_summand,
    quintic_discriminant,
    rep_from_json,
    s5_double_cover_rep,
    tensor_induce,
)

QUINTIC = [1, 0, 0, 0, -1, -1]


@pytest.fixture(scope="module")
def cover():
    return s5_double_cover_rep()


@pytest.fixture(scope="module")
def induced(cover):
    return tensor_induce(cover)


def gg_to_sympy(t, scale):
    s5 = sympy.sqrt(5)
    return ((t[0] + t[1] * s5) + (t[2] + t[3] * s5) * sympy.I) / scale


class TestCoefficientRing:
    def test_product_matches_symbolic_arithmetic(self):
        rng = random.Random(11)
        for _ in range(40):
            a = tuple(rng.randrange(-6, 7) for _ in range(4))
            b = tuple(rng.randrange(-6, 7) for _ in range(4))
            lhs = gg_to_sympy(_gg_mul(a, b), 1)
            rhs = sympy.expand(gg_to_sympy(a, 1) * gg_to_sympy(b, 1))
            assert sympy.simplify(lhs - rhs) == 0

    def test_product_is_associative(self):
        rng = random.Random(12)
        for _ in range(40):
            a, b, c = (tuple(rng.randrange(-4, 5) for _ in range(4))
                       for _ in range(3))
            assert _gg_mul(_gg_mul(a, b), c) == _gg_mul(a, _gg_mul(b, c))


class TestIcosians:
    def test_count_and_closure(self):
        units = _icosian_units()
        assert len(units) == 120
        uset = set(units)
        for q in units:
            for r in units:
                assert _quat_mul(q, r) in uset

    def test_unit_norms(self):
        for q in _icosian_units():
            conj = (q[0],) + tuple((-a, -b) for a, b in q[1:])
            assert _quat_mul(q, conj) == _QUAT_ONE

    def test_swap_is_an_involution_preserving_the_units(self):
        units = set(_icosian_units())
        for q in units:
            assert _sigma(q) in units
            assert _sigma(_sigma(q)) == q

    def test_swap_equals_twisted_conjugation(self):
        # conjugation by i+... the unit quaternion along the last two axes,
        # composed with the coefficient-field automorphism
        t = ((0, 0), (0, 0), (4, 0), (4, 0))
        t_inv_half = ((0, 0), (0, 0), (-2, 0), (-2, 0))
        for q in _icosian_units():
            gal = tuple((a, -b) for a, b in q)
            assert _quat_mul(_quat_mul(t, gal), t_inv_half) == _sigma(q)

    def test_swap_moves_a_trace(self):
        # an inner automorphism preserves the real part, so the swap is outer
        moved = [q for q in _icosian_units() if _sigma(q)[0] != q[0]]
        assert moved


class TestDoubleCover:
    def test_order_and_identity(self, cover):
        assert len(cover.elements) == 240
        assert sum(1 for g in cover.elements if cover.in_subgroup(g)) == 120
        for g in random.Random(3).sample(cover.elements, 24):
            assert cover.multiply(g, cover.identity) == g
            assert cover.multiply(cover.identity, g) == g

    def test_associativity_sample(self, cover):
        rng = random.Random(4)
        for _ in range(2000):
            a, b, c = (rng.choice(cover.elements) for _ in range(3))
            lhs = cover.multiply(cover.multiply(a, b), c)
            rhs = cover.multiply(a, cover.multiply(b, c))
            assert lhs == rhs

    def test_coset_representative(self, cover):
        assert not cover.in_subgroup(cover.theta)
        sq = cover.multiply(cover.theta, cover.theta)
        assert cover.in_subgroup(sq)
        assert sq == cover.identity

    def test_inverses(self, cover):
        rng = random.Random(5)
        for g in rng.sample(cover.elements, 16):
            assert cover.multiply(g, cover.inverse(g)) == cover.identity

    def test_matrix_table_is_a_homomorphism(self, cover):
        cover.verify_homomorphism()

    def test_corrupted_table_is_rejected(self, cover):
        bad = dict(cover.matrices)
        key = next(k for k in bad if k != cover.identity)
        bad[key] = bad[cover.identity]
        broken = FiniteRep2(cover.elements, cover.multiply, cover.identity,
                            cover.in_subgroup, cover.theta, bad)
        with pytest.raises(NotHomomorphism):
            broken.verify_homomorphism()


EXPECTED_CLASS_DATA = {
    (1, 4): 2,
    (2, 2): 20,
    (2, 0): 30,
    (3, 1): 40,
    (6, -1): 40,
    (4, 0): 60,
    (5, -1): 48,
}

# quotient order and fixed points of each permutation class on 5 points
CLASS_CYCLE_TYPES = {
    (1, 4): (1, 1, 1, 1, 1),
    (2, 2): (2, 1, 1, 1),
    (2, 0): (2, 2, 1),
    (3, 1): (3, 1, 1),
    (6, -1): (3, 2),
    (4, 0): (4, 1),
    (5, -1): (5,),
}


class TestTensorInduction:
    def test_identity_maps_to_identity(self, cover, induced):
        m = induced.matrix(cover.identity)
        scale = ENTRY_SCALE ** 2
        for i in range(4):
            for j in range(4):
                want = (scale, 0, 0, 0) if i == j else (0, 0, 0, 0)
                assert m[i][j] == want

    def test_subgroup_blocks_are_kronecker_products(self, cover, induced):
        rng = random.Random(6)
        sub = cover.subgroup_elements()
        ti = cover.inverse(cover.theta)
        for h in rng.sample(sub, 20):
            m1 = cover.matrices[h]
            m2 = cover.matrices[
                cover.multiply(ti, cover.multiply(h, cover.theta))]
            m = induced.matrix(h)
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        for d in range(2):
                            assert m[2 * a + b][2 * c + d] == _gg_mul(
                                m1[a][c], m2[b][d])

    def test_full_homomorphism_check(self, induced):
        induced.verify_homomorphism()

    def test_theta_in_subgroup_rejected(self, cover):
        with pytest.raises(ThetaInSubgroup):
            tensor_induce(cover, theta=cover.identity)

    def test_character_table_matches_permutation_character(self, cover,
                                                           induced):
        center = cover_center()
        counts = Counter(
            (induced.order_mod_center(g, center), induced.character(g))
            for g in cover.elements)
        assert dict(counts) == EXPECTED_CLASS_DATA

    def test_character_is_fixed_points_minus_one(self):
        for (order, trace), ctype in CLASS_CYCLE_TYPES.items():
            cls = S5FrobeniusClass(ctype)
            assert cls.fixed_points - 1 == trace
            import math
            assert math.lcm(*ctype) == order

    def test_character_matches_explicit_matrix_products(self, cover,
                                                        induced):
        # brute-force oracle: multiply the induced matrices along a word
        # and compare the trace with the table value at the word's product
        from hz.asai import _mat4_mul
        rng = random.Random(7)
        scale = ENTRY_SCALE ** 2
        for _ in range(30):
            a, b, c = (rng.choice(cover.elements) for _ in range(3))
            prod = _mat4_mul(_mat4_mul(induced.matrix(a), induced.matrix(b)),
                             induced.matrix(c))
            acc = (0, 0, 0, 0)
            for i in range(4):
                e = prod[i][i]
                acc = (acc[0] + e[0], acc[1] + e[1], acc[2] + e[2],
                       acc[3] + e[3])
            word = cover.multiply(cover.multiply(a, b), c)
            assert acc == (induced.character(word) * scale ** 3, 0, 0, 0)


class TestJsonIngestion:
    def build_c4(self):
        # cyclic group of order 4 with the order-2 subgroup; the subgroup
        # representation sends the involution to minus the identity
        one = (ENTRY_SCALE, 0, 0, 0)
        zero = (0, 0, 0, 0)
        neg = (-ENTRY_SCALE, 0, 0, 0)
        return rep_from_json({
            "elements": [0, 1, 2, 3],
            "identity": 0,
            "theta": 1,
            "subgroup": [0, 2],
            "table": [[a, b, (a + b) % 4] for a in range(4)
                      for b in range(4)],
            "matrices": [
                [0, [[one, zero], [zero, one]]],
                [2, [[neg, zero], [zero, neg]]],
            ],
        })

    def test_small_group_induction(self):
        rep = self.build_c4()
        induced = tensor_induce(rep)
        induced.verify_homomorphism()
        assert induced.character(0) == 4
        assert induced.character(2) == 4
        assert induced.character(1) == -2
        assert induced.character(3) == -2


def search_inverse(rep, g):
    # oracle: scan every element for the right inverse
    return next(h for h in rep.elements
                if rep.multiply(g, h) == rep.identity)


def corrupt_outside(matrices, keep):
    # a copy of the table with one entry outside `keep` replaced by another
    # element's matrix
    bad = dict(matrices)
    victim, donor = [k for k in bad if k not in keep][:2]
    bad[victim] = bad[donor]
    return bad


class TestGeneratorProof:
    def test_inverse_matches_search_oracle(self, cover):
        for g in cover.elements:
            assert cover.inverse(g) == search_inverse(cover, g)

    def test_generating_sets_generate(self, cover):
        for elems in (cover.elements, cover.subgroup_elements()):
            gens = cover.generating_set(elems)
            assert set(gens) <= set(elems)
            assert cover.closure(gens) == set(elems)

    def test_generating_set_of_a_non_subgroup_is_refused(self, cover):
        g = next(h for h in cover.elements
                 if cover.multiply(h, h) != cover.identity)
        with pytest.raises(AsaiError):
            cover.generating_set([cover.identity, g])

    def test_accepts_cover_and_induced_table(self, cover, induced):
        cover.verify_homomorphism(
            cover.generating_set(cover.subgroup_elements()))
        induced.verify_homomorphism(cover.generating_set(cover.elements))

    def test_accepts_json_group(self):
        rep = TestJsonIngestion().build_c4()
        induced = tensor_induce(
            rep, generators=rep.generating_set(rep.subgroup_elements()))
        induced.verify_homomorphism(rep.generating_set(rep.elements))

    def test_subgroup_table_corrupted_off_generators(self, cover):
        gens = cover.generating_set(cover.subgroup_elements())
        bad = corrupt_outside(cover.matrices, set(gens) | {cover.identity})
        broken = FiniteRep2(cover.elements, cover.multiply, cover.identity,
                            cover.in_subgroup, cover.theta, bad)
        with pytest.raises(NotHomomorphism):
            broken.verify_homomorphism(gens)

    def test_induced_table_corrupted_off_generators(self, cover, induced):
        gens = cover.generating_set(cover.elements)
        bad = corrupt_outside(induced.matrices, set(gens) | {cover.identity})
        with pytest.raises(NotHomomorphism):
            AsaiRep(cover, bad).verify_homomorphism(gens)

    def test_non_generating_sets_rejected(self, cover, induced):
        with pytest.raises(NotHomomorphism):
            cover.verify_homomorphism([cover.identity])
        with pytest.raises(NotHomomorphism):
            induced.verify_homomorphism([cover.identity])
        with pytest.raises(NotHomomorphism):
            induced.verify_homomorphism(
                cover.generating_set(cover.subgroup_elements()))
        with pytest.raises(NotHomomorphism):
            cover.verify_homomorphism([cover.theta])

    def test_generator_path_of_induction_rejects_corrupted_table(self,
                                                                 cover):
        # the corruption of test_corrupted_table_is_rejected
        bad = dict(cover.matrices)
        key = next(k for k in bad if k != cover.identity)
        bad[key] = bad[cover.identity]
        broken = FiniteRep2(cover.elements, cover.multiply, cover.identity,
                            cover.in_subgroup, cover.theta, bad)
        with pytest.raises(NotHomomorphism):
            tensor_induce(broken, generators=broken.generating_set(
                broken.subgroup_elements()))


class TestFrobeniusClass:
    def test_discriminant(self):
        assert quintic_discriminant(QUINTIC) == 2869
        assert sympy.factorint(2869) == {19: 1, 151: 1}

    def test_factorization_mod_two(self):
        assert frobenius_class_quintic(QUINTIC, 2).cycle_type == (3, 2)

    def test_irreducible_gives_five_cycle(self):
        assert sympy.Poly(QUINTIC, x, modulus=5).is_irreducible
        assert frobenius_class_quintic(QUINTIC, 5).cycle_type == (5,)

    def test_matches_direct_factorization(self):
        for p in [3, 7, 11, 13, 17, 23, 29]:
            got = frobenius_class_quintic(QUINTIC, p).cycle_type
            degrees = sorted(
                (f.degree() for f, _ in
                 sympy.Poly(QUINTIC, x, modulus=p).factor_list()[1]),
                reverse=True)
            assert list(got) == degrees

    def test_ramified_primes_rejected(self):
        for p in (19, 151):
            with pytest.raises(RamifiedPrime):
                frobenius_class_quintic(QUINTIC, p)

    def test_input_validation(self):
        with pytest.raises(AsaiError):
            frobenius_class_quintic([2, 0, 0, 0, -1, -1], 3)
        with pytest.raises(AsaiError):
            S5FrobeniusClass((3, 3))


def exact_root(label):
    m, j = label
    return sympy.exp(2 * sympy.pi * sympy.I * sympy.Rational(j, m))


ALL_CYCLE_TYPES = [
    (1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1),
    (5,),
]


class TestEigenvalueLabels:
    def test_five_cycle_labels(self):
        ev = asai_frobenius_eigenvalues(S5FrobeniusClass((5,)))
        assert ev.labels == ((5, 1), (5, 2), (5, 3), (5, 4))
        for p in (2, 3, 7, 11, 13, 101):
            assert ev.distinct_mod(p)
        assert not ev.distinct_mod(5)

    def test_identity_labels_never_distinct(self):
        ev = asai_frobenius_eigenvalues(S5FrobeniusClass((1, 1, 1, 1, 1)))
        assert ev.labels == ((1, 0),) * 4
        for p in (2, 3, 5, 7):
            assert not ev.distinct_mod(p)

    def test_two_three_labels(self):
        ev = asai_frobenius_eigenvalues(S5FrobeniusClass((3, 2)))
        assert set(ev.labels) == {(1, 0), (2, 1), (3, 1), (3, 2)}
        assert not ev.distinct_mod(2)   # -1 meets 1 in characteristic 2
        assert not ev.distinct_mod(3)   # the cube roots collapse
        assert ev.distinct_mod(7)

    def test_sum_and_product_against_exact_roots(self):
        for ctype in ALL_CYCLE_TYPES:
            cls = S5FrobeniusClass(ctype)
            ev = asai_frobenius_eigenvalues(cls)
            roots = [exact_root(l) for l in ev.labels]
            total = sympy.simplify(sympy.expand_complex(sum(roots)))
            assert total == ev.trace() == cls.fixed_points - 1
            prod = sympy.simplify(sympy.expand_complex(sympy.prod(roots)))
            assert prod == exact_root(ev.product())
            assert prod == cls.sign

    def test_product_is_trivial_on_even_classes(self):
        for ctype in ALL_CYCLE_TYPES:
            cls = S5FrobeniusClass(ctype)
            ev = asai_frobenius_eigenvalues(cls)
            if cls.sign == 1:
                assert ev.product() == (1, 0)
            else:
                assert ev.product() == (2, 1)

    def test_padic_evaluation(self):
        ev = asai_frobenius_eigenvalues(S5FrobeniusClass((5,)))
        values = ev.evaluate_padic(11, 6)
        assert len(set((v.unit, v.val) for v in values)) == 4
        for v in values:
            w = v
            for _ in range(4):
                w = w * v
            assert w.unit == 1 and w.val == 0
        with pytest.raises(AsaiError):
            ev.evaluate_padic(7, 4)


class TestHtWeights:
    def test_tables_small_weights(self):
        t1 = ht_weight_table(1)
        assert t1["three_step"] == ((-1,), (-1, -1), (-1,))
        assert t1["four_step"] == ((0,), (-1, 0, 0), (-1, -1, 0), (-1,))
        assert not t1["fil2_strictly_negative"]
        t2 = ht_weight_table(2)
        assert t2["three_step"] == ((0,), (-1, -1), (-2,))
        assert t2["four_step"] == ((1,), (0, 0, 0), (-1, -1, -1), (-2,))
        assert t2["fil2_strictly_negative"]
        t4 = ht_weight_table(4)
        assert t4["three_step"] == ((2,), (-1, -1), (-4,))
        assert t4["four_step"] == ((3,), (2, 0, 0), (-1, -1, -3), (-4,))
        assert t4["fil2_strictly_negative"]

    def test_predicate_flips_at_two(self):
        for ell in range(1, 11):
            assert ht_weight_table(ell)["fil2_strictly_negative"] == (
                ell >= 2)

    def test_four_step_weights_are_self_dual(self):
        for ell in range(1, 11):
            weights = [w for piece in ht_weight_table(ell)["four_step"]
                       for w in piece]
            assert sorted(weights) == sorted(-1 - w for w in weights)
            assert sum(weights) == -4

    def test_rejects_weight_zero(self):
        with pytest.raises(AsaiError):
            ht_weight_table(0)


class TestCharacterMonomials:
    def test_algebra(self):
        a = CharacterMonomial({"frob1": 2, "neb1": -1})
        b = CharacterMonomial({"frob1": -2, "neb1": 1})
        assert a * b == CharacterMonomial({})
        assert a.inverse() == b
        assert (a ** 3).powers == {"frob1": 6, "neb1": -3}

    def test_unknown_token_rejected(self):
        with pytest.raises(AsaiError):
            CharacterMonomial({"mystery": 1})

    def test_cyclotomic_relation(self):
        assert CharacterMonomial({"cyc": 1}) == CharacterMonomial(
            {"cyc_tame": 1, "cyc_half": 1})

    def test_evaluation(self):
        m = CharacterMonomial({"frob1": 2, "frob2": -1})
        values = {"frob1": Fraction(3), "frob2": Fraction(2)}
        assert m.evaluate(values) == Fraction(9, 2)
        assert CharacterMonomial({}).evaluate(values) == 1


class TestFiltrationCharacters:
    def test_dimensions(self):
        assert [len(p) for p in filtration_characters("asai")] == [1, 2, 1]
        assert [len(p) for p in
                filtration_characters("self_dual")] == [1, 3, 3, 1]

    def test_unknown_filtration(self):
        with pytest.raises(AsaiError):
            filtration_characters("other")

    def test_three_step_product_is_the_determinant(self):
        product = CharacterMonomial({})
        for piece in filtration_characters("asai"):
            for m in piece:
                product = product * m
        assert product == induced_determinant()

    def test_first_piece_frobenius_value(self):
        gr0 = filtration_characters("asai")[0][0]
        values = {t: Fraction(1) for t in
                  ("neb1", "neb2", "cyc_wt", "cyc_tame")}
        values.update({"frob1": Fraction(3), "frob2": Fraction(5)})
        assert gr0.evaluate(values) == Fraction(15)

    def test_ordinary_summand_sits_in_the_middle(self):
        graded = filtration_characters("self_dual")
        assert ordinary_summand() in graded[2]

    def test_four_step_is_the_twisted_tensor_product(self):
        # the four-step graded pieces must be exactly the products of the
        # three-step pieces, twisted into the self-dual normalization, with
        # the two graded characters of the elliptic factor
        twist = CharacterMonomial({"cyc_wt": -1, "cyc_tame": -1})
        asai = filtration_characters("asai")
        elliptic = elliptic_graded_characters()
        expected = [Counter() for _ in range(4)]
        for i, piece in enumerate(asai):
            for m in piece:
                for j, e in enumerate(elliptic):
                    expected[i + j][m * twist * e] += 1
        got = [Counter(piece) for piece in filtration_characters("self_dual")]
        assert got == expected

    def test_prime_swap_is_an_involution_fixing_the_multisets(self):
        for filt in ("asai", "self_dual"):
            plain = filtration_characters(filt)
            swapped = filtration_characters(filt, swap_primes=True)
            assert [Counter(p) for p in plain] == [
                Counter(p) for p in swapped]
            assert plain[0][0] == swapped[0][0]

    def test_elliptic_determinant(self):
        # the two elliptic graded characters multiply to the nebentypus
        # times the cyclotomic character
        a, b = elliptic_graded_characters()
        assert a * b == CharacterMonomial({"neb1": 1, "neb2": 1, "cyc": 1})


class TestDistinctDegreeFrobenius:
    """Cycle types from gcd(x^(p^k) - x, f), k = 1, 2, against sympy's
    factorization over F_p."""

    @staticmethod
    def sympy_degrees(coeffs, p):
        degrees = []
        for f, mult in sympy.Poly(coeffs, x, modulus=p).factor_list()[1]:
            degrees += [f.degree()] * mult
        return tuple(sorted(degrees, reverse=True))

    def test_random_quintics(self):
        rng = random.Random(5151)
        primes = list(sympy.primerange(7, 10 ** 4))
        seen = Counter()
        for _ in range(120):
            coeffs = [1] + [rng.randrange(-30, 31) for _ in range(5)]
            disc = quintic_discriminant(coeffs)
            if disc == 0:
                continue
            for p in [2, 3, 5] + rng.sample(primes, 6):
                if disc % p == 0:
                    continue
                got = frobenius_class_quintic(coeffs, p).cycle_type
                assert got == self.sympy_degrees(coeffs, p), (coeffs, p)
                seen[got] += 1
        # every cycle type of S5 occurs, (1,1,1,1,1) included
        assert len(seen) == 7

    def test_discriminant_is_cached(self, monkeypatch):
        coeffs = [1, 0, 0, 0, 3, -7]
        expected = quintic_discriminant(coeffs)

        def fail(*args, **kwargs):
            raise AssertionError("discriminant recomputed")

        monkeypatch.setattr(hz.asai, "_resultant", fail)
        assert quintic_discriminant(tuple(coeffs)) == expected
        frobenius_class_quintic(coeffs, 13)
