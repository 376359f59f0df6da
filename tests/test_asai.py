"""Tests for tensor induction, the quintic Frobenius calculus, and Hodge-Tate
tables."""

import functools
import math
import random
from collections import Counter

import pytest
import sympy
from sympy.abc import x

import hz.asai
from hz.asai import (
    AsaiError,
    AsaiRep,
    ENTRY_SCALE,
    FiniteRep2,
    NotHomomorphism,
    RamifiedPrime,
    S5FrobeniusClass,
    ThetaInSubgroup,
    _gg_add,
    _gg_mul,
    _icosian_units,
    _quat_mul,
    _quat_neg,
    _regular,
    _rho_matrix,
    _sigma,
    _QUAT_ONE,
    asai_frobenius_eigenvalues,
    cover_center,
    frobenius_class_quintic,
    ht_weight_table,
    quintic_discriminant,
    s5_double_cover_rep,
    tensor_induce,
)
from hz.cli import main

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


def mat_mul(a, b):
    # naive oracle: the schoolbook product, one _gg_mul per scalar product;
    # entries at denominator s times entries at s give entries at s**2
    n = len(b)
    return tuple(
        tuple(functools.reduce(_gg_add, (_gg_mul(row[k], b[k][j])
                                         for k in range(n)))
              for j in range(len(b[0])))
        for row in a)


def scan_verdict(rep, elements, matrices, scale, generators=None):
    # naive oracle for the generator check: the message of the first pair
    # (a, b), in generator order and then element order, with
    # M(a)M(b) != M(ab), or None
    for a in elements if generators is None else generators:
        for b in elements:
            target = tuple(tuple(tuple(scale * t for t in e) for e in row)
                           for row in matrices[rep.multiply(a, b)])
            if mat_mul(matrices[a], matrices[b]) != target:
                return "matrix table fails at the pair (%r, %r)" % (a, b)
    return None


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

    def test_regular_matrix_applies_the_product(self):
        rng = random.Random(13)
        for _ in range(40):
            a, b = (tuple(rng.randrange(-50, 51) for _ in range(4))
                    for _ in range(2))
            assert tuple(sum(r * t for r, t in zip(row, b))
                         for row in _regular(a)) == _gg_mul(a, b)


class TestIcosians:
    def test_count_and_closure(self):
        units = _icosian_units()
        assert len(units) == 120
        uset = set(units)
        for q in units:
            for r in units:
                assert _quat_mul(q, r) in uset

    def test_product_matches_symbolic_quaternions(self):
        # even coordinates keep the product in the lattice
        def to_sympy(q):
            s5 = sympy.sqrt(5)
            return sympy.Quaternion(*((x + y * s5) / 4 for x, y in q))

        rng = random.Random(14)
        for _ in range(20):
            p, q = (tuple((2 * rng.randrange(-5, 6), 2 * rng.randrange(-5, 6))
                          for _ in range(4)) for _ in range(2))
            got = to_sympy(_quat_mul(p, q))
            want = to_sympy(p) * to_sympy(q)
            for g, w in zip((got.a, got.b, got.c, got.d),
                            (want.a, want.b, want.c, want.d)):
                assert sympy.expand(g - w) == 0

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
        m = induced.matrices[cover.identity]
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
            m = induced.matrices[h]
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        for d in range(2):
                            assert m[2 * a + b][2 * c + d] == _gg_mul(
                                m1[a][c], m2[b][d])

    def test_full_homomorphism_check(self, induced):
        induced.verify_homomorphism()

    def test_theta_in_subgroup_rejected(self, cover):
        inside = FiniteRep2(cover.keys, cover.multiply, cover.identity,
                            cover.in_subgroup, cover.identity, cover.matrices)
        with pytest.raises(ThetaInSubgroup):
            tensor_induce(inside)

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
            assert cls.cycle_type.count(1) - 1 == trace
            import math
            assert math.lcm(*ctype) == order

    def test_character_matches_explicit_matrix_products(self, cover,
                                                        induced):
        # brute-force oracle: multiply the induced matrices along a word
        # and compare the trace with the table value at the word's product
        rng = random.Random(7)
        scale = ENTRY_SCALE ** 2
        for _ in range(30):
            a, b, c = (rng.choice(cover.elements) for _ in range(3))
            prod = mat_mul(mat_mul(induced.matrices[a], induced.matrices[b]),
                           induced.matrices[c])
            acc = (0, 0, 0, 0)
            for i in range(4):
                e = prod[i][i]
                acc = (acc[0] + e[0], acc[1] + e[1], acc[2] + e[2],
                       acc[3] + e[3])
            word = cover.multiply(cover.multiply(a, b), c)
            assert acc == (induced.character(word) * scale ** 3, 0, 0, 0)


class TestSmallGroups:
    ONE, ZERO = (ENTRY_SCALE, 0, 0, 0), (0, 0, 0, 0)
    NEG = (-ENTRY_SCALE, 0, 0, 0)

    def build_c4(self, keys=range(4), involution=((NEG, ZERO), (ZERO, NEG))):
        # cyclic group of order 4 with the order-2 subgroup, the power k of
        # the generator at index k; the subgroup representation sends the
        # involution to minus the identity unless told otherwise
        return FiniteRep2(keys, lambda a, b: (a + b) % 4, 0,
                          lambda g: g % 2 == 0, 1,
                          {0: ((self.ONE, self.ZERO), (self.ZERO, self.ONE)),
                           2: involution})

    @pytest.mark.parametrize("keys", [["e", "a", "a2", "a3"],
                                      [(0, 0), (0, 1), (1, 0), (1, 1)]],
                             ids=["strings", "tuples"])
    def test_failing_pair_is_named_by_keys(self, keys):
        # M(a2) = i: its square is -1, not M(e) = 1
        i = (0, 0, ENTRY_SCALE, 0)
        rep = self.build_c4(keys, ((i, self.ZERO), (self.ZERO, i)))
        message = "matrix table fails at the pair (%r, %r)" % (keys[2],
                                                                keys[2])
        with pytest.raises(NotHomomorphism) as exc:
            rep.verify_homomorphism()
        assert str(exc.value) == message
        with pytest.raises(NotHomomorphism) as exc:
            tensor_induce(rep, generators=rep.generating_set(
                rep.subgroup_elements()))
        assert str(exc.value) == message

    def test_small_group_induction(self):
        rep = self.build_c4()
        induced = tensor_induce(rep)
        induced.verify_homomorphism()
        assert induced.character(0) == 4
        assert induced.character(2) == 4
        assert induced.character(1) == -2
        assert induced.character(3) == -2

    # a law on {0, 1, 2, 3} with identity 0 that is not associative:
    # (1 * 2) * 3 = 1 * 3 = 2 but 1 * (2 * 3) = 1 * 0 = 1
    LOOP = {(1, 1): 1, (1, 2): 1, (1, 3): 2, (2, 1): 2, (2, 2): 1,
            (2, 3): 0, (3, 1): 3, (3, 2): 0, (3, 3): 0}
    LOOP_SIGNS = (1, 1, -1, -1)

    def test_non_associative_table_is_refused(self):
        # the loop times the group of order 2, as x + 4 s: on this law the
        # generator check accepts a table the exhaustive check rejects
        def law(a, b):
            x, y = a % 4, b % 4
            xy = x if y == 0 else y if x == 0 else self.LOOP[x, y]
            return xy + 4 * ((a // 4) ^ (b // 4))

        def scalar(s):
            return tuple(s * t for t in self.ONE)

        loop = FiniteRep2(
            range(8), law, 0, lambda g: g < 4, 4,
            {g: ((scalar(s), self.ZERO), (self.ZERO, scalar(s)))
             for g, s in enumerate(self.LOOP_SIGNS)})
        loop.verify_homomorphism([3, 2])
        with pytest.raises(NotHomomorphism, match=r"pair \(1, 2\)"):
            loop.verify_homomorphism()


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


# _quat_mul calls of one `hz asai --verify`, each a distinct product of two
# icosians: 360 for the 3 subgroup generators acting on the 120 icosians,
# 1 for theta^2 in the inverse of theta = (1, 1), and tensor_induce's
# conjugates g theta = (q 1, .) for the 116 other q and theta^-1 x =
# (1 sigma(q), .) for the 119 other q; the full group's generators (theta
# and two of the subgroup's icosians with the bit set) then make none
QUAT_MULS_PER_VERIFY = 596


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

    def test_accepts_cyclic_group(self):
        rep = TestSmallGroups().build_c4()
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

    # the failing pair is named by its elements' names, whatever the
    # encoding of the elements inside the check
    PAIR = "matrix table fails at the pair ((%r, 0), (%r, 0))"
    MINUS_ONE = ((-4, 0), (0, 0), (0, 0), (0, 0))
    HALVES = ((2, 0), (2, 0), (2, 0), (2, 0))

    def corrupted_cover(self, cover):
        # the corruption of test_corrupted_table_is_rejected
        bad = dict(cover.matrices)
        key = next(k for k in bad if k != cover.identity)
        bad[key] = bad[cover.identity]
        return FiniteRep2(cover.keys, cover.multiply, cover.identity,
                          cover.in_subgroup, cover.theta, bad)

    @staticmethod
    def failure(check, generators=None):
        with pytest.raises(NotHomomorphism) as exc:
            check.verify_homomorphism(generators)
        return str(exc.value)

    def test_corrupted_cover_message_exhaustive(self, cover):
        assert self.failure(self.corrupted_cover(cover)) == self.PAIR % (
            self.MINUS_ONE, tuple((-2, 0) for _ in range(4)))

    def test_corrupted_cover_message_on_generators(self, cover):
        broken = self.corrupted_cover(cover)
        assert self.failure(broken, broken.generating_set(
            broken.subgroup_elements())) == self.PAIR % (
                self.HALVES, self.MINUS_ONE)

    def test_corrupted_induced_message_on_generators(self, cover, induced):
        bad = dict(induced.matrices)
        bad[cover.elements[-1]] = bad[cover.identity]
        assert self.failure(AsaiRep(cover, bad), cover.generating_set(
            cover.elements)) == (
                "matrix table fails at the pair ((%r, 1), (%r, 0))"
                % (_QUAT_ONE, self.MINUS_ONE))


    def test_one_cayley_pass_and_no_scalar_products_in_the_check(
            self, monkeypatch, capsys):
        """One `hz asai --verify` call walks the Cayley graph once: each
        product the proof needs is made once, and the checks multiply
        packed blocks, never single ring entries."""
        calls = Counter()
        in_check = []
        quat_products = []
        quat_mul, gg_mul = hz.asai._quat_mul, hz.asai._gg_mul
        check = hz.asai._check_multiplicative

        def counted_quat_mul(p, q):
            quat_products.append((p, q))
            return quat_mul(p, q)

        def counted_gg_mul(a, b):
            calls["_gg_mul in a check" if in_check else "_gg_mul"] += 1
            return gg_mul(a, b)

        def marked_check(*args):
            in_check.append(True)
            try:
                return check(*args)
            finally:
                in_check.pop()

        monkeypatch.setattr(hz.asai, "_quat_mul", counted_quat_mul)
        monkeypatch.setattr(hz.asai, "_gg_mul", counted_gg_mul)
        monkeypatch.setattr(hz.asai, "_check_multiplicative", marked_check)
        assert main(["asai", "--p", "101", "--verify"]) == 0
        capsys.readouterr()
        assert calls["_gg_mul in a check"] == 0
        assert calls["_gg_mul"] == 240 * 16  # the induced table itself
        assert len(quat_products) <= QUAT_MULS_PER_VERIFY
        assert len(set(quat_products)) == len(quat_products)

    def test_tensor_induce_opens_one_row_of_the_record(self):
        """The products g theta are not recorded: of the 240 rows of the
        product record, tensor_induce opens only the one for theta^-1."""
        cover = s5_double_cover_rep()
        gens = cover.generating_set(cover.subgroup_elements())
        opened = sum(row is not None for row in cover.products)
        tensor_induce(cover, generators=gens)
        assert sum(row is not None for row in cover.products) <= opened + 1


def icosian_order(q):
    h, n = q, 1
    while h != _QUAT_ONE:
        h, n = _quat_mul(h, q), n + 1
    return n


def cyclic_rep(order):
    # the cyclic group of twice the order, its even subgroup sent to the
    # powers of an icosian of that order by the 2x2 icosian matrices
    q = next(u for u in _icosian_units() if icosian_order(u) == order)
    powers = [_QUAT_ONE]
    while len(powers) < order:
        powers.append(_quat_mul(powers[-1], q))
    n = 2 * order
    return FiniteRep2(range(n), lambda a, b: (a + b) % n, 0,
                      lambda g: g % 2 == 0, 1,
                      {2 * k: _rho_matrix(p) for k, p in enumerate(powers)})


class PackedCase:
    """A homomorphic table of dimension 2 (on the subgroup) or 4 (induced)
    of a cyclic group, and the packed check of any other table on the
    same domain."""

    def __init__(self, dim):
        self.rep = rep = cyclic_rep(10)
        if dim == 2:
            self.elements = rep.subgroup_elements()
            self.matrices, self.scale = rep.matrices, ENTRY_SCALE
        else:
            self.elements = rep.elements
            self.matrices = tensor_induce(rep).matrices
            self.scale = ENTRY_SCALE ** 2
        self.dim = dim
        self.generators = rep.generating_set(self.elements)

    def verdict(self, matrices, generators):
        rep = self.rep
        if self.dim == 2:
            check = FiniteRep2(rep.elements, rep.multiply, rep.identity,
                               rep.in_subgroup, rep.theta, matrices)
        else:
            check = AsaiRep(rep, matrices)
        try:
            check.verify_homomorphism(generators)
        except NotHomomorphism as exc:
            return str(exc)
        return None

    def assert_matches_scan(self, matrices):
        """The packed verdicts, exhaustive and on generators, are the naive
        scan's; returns the exhaustive one."""
        verdicts = []
        for generators in (None, self.generators):
            got = self.verdict(matrices, generators)
            assert got == scan_verdict(self.rep, self.elements, matrices,
                                       self.scale, generators)
            verdicts.append(got)
        return verdicts[0]


def with_entry(matrices, g, i, j, c, value):
    # a copy of the table with coordinate c of entry (i, j) of M(g) replaced
    m = [[list(e) for e in row] for row in matrices[g]]
    m[i][j][c] = value
    bad = dict(matrices)
    bad[g] = tuple(tuple(tuple(e) for e in row) for row in m)
    return bad


@pytest.fixture(scope="module", params=[2, 4], ids=["dim2", "dim4"])
def packed_case(request):
    return PackedCase(request.param)


class TestPackedCheck:
    def test_homomorphic_table_passes(self, packed_case):
        assert packed_case.assert_matches_scan(packed_case.matrices) is None

    def test_random_entries_match_the_scan(self, packed_case):
        rng = random.Random(15)
        case = packed_case
        others = [g for g in case.elements if g != case.rep.identity]
        failed = 0
        for _ in range(12):
            bad = dict(case.matrices)
            for g in rng.sample(others, rng.randrange(1, 4)):
                bad[g] = tuple(
                    tuple(tuple(rng.randrange(-2 ** 20, 2 ** 20 + 1)
                                for _ in range(4)) for _ in range(case.dim))
                    for _ in range(case.dim))
            failed += case.assert_matches_scan(bad) is not None
        assert failed == 12

    def test_every_single_coordinate_perturbation_is_caught(self,
                                                            packed_case):
        case = packed_case
        for g in (case.generators[0], case.elements[-1]):
            for i in range(case.dim):
                for j in range(case.dim):
                    for c in range(4):
                        value = case.matrices[g][i][j][c] + 1
                        bad = with_entry(case.matrices, g, i, j, c, value)
                        assert case.assert_matches_scan(bad) is not None

    def test_product_digit_at_the_bound(self, packed_case):
        # M(a) has one row of entries (t, t, t, -t) and M(b) one column of
        # (t, t, -t, t): the corner of M(a)M(b) is (12 dim t^2, 0, 0, 0),
        # at the bound.  Against its target it differs by a multiple of
        # 2^w, for w the width a wrong bound would choose:
        # t = 2^T and target 0 for a bound too small for the widths W - 8,
        # and t just below sqrt(2^W / 12 dim), target 12 dim t^2 - 2^W
        # for a bound without the sign bit.  Either error carries the
        # difference into the next element's digits and names a later pair
        case = packed_case
        dim, e = case.dim, case.rep.identity
        a, b = case.elements[3], case.elements[1]
        zero_row = ((0, 0, 0, 0),) * dim
        cases = [(2 ** power, 0)
                 for power in ((2, 6, 10) if dim == 4 else (3, 7, 11))]
        for width in range(8, 100, 8):
            t = math.isqrt((2 ** width - 1) // (12 * dim))
            if 12 * dim * t * t + case.scale * t >= 2 ** width:
                cases.append((t, (12 * dim * t * t - 2 ** width)
                              // case.scale))
        assert len(cases) > 3
        for t, target in cases:
            bad = {g: m if g == e else (zero_row,) * dim
                   for g, m in case.matrices.items()}
            bad[a] = (((t, t, t, -t),) * dim,) + (zero_row,) * (dim - 1)
            bad[b] = (zero_row[1:] + ((t, t, -t, t),),) * dim
            bad[case.rep.multiply(a, b)] = (
                (zero_row[1:] + ((target, 0, 0, 0),),)
                + (zero_row,) * (dim - 1))
            got = case.verdict(bad, [a])
            assert got == scan_verdict(case.rep, case.elements, bad,
                                       case.scale, [a])
            assert got == "matrix table fails at the pair (%r, %r)" % (a, b)
            assert case.assert_matches_scan(bad) is not None

    def test_conjugated_tables_with_large_entries(self, packed_case):
        # P M(g) P^-1 with P = 1 + N E_{0, dim-1} is again a homomorphism,
        # with entries of size about N^2; a unit change in the largest
        # coordinate then breaks it
        case = packed_case
        one, zero = (1, 0, 0, 0), (0, 0, 0, 0)
        for n in (3, 2 ** 10 - 1, 2 ** 21 + 1, 2 ** 40, 2 ** 70 - 3):
            p, p_inv = ([[one if i == j else zero for j in range(case.dim)]
                         for i in range(case.dim)] for _ in range(2))
            p[0][-1], p_inv[0][-1] = (n, 0, 0, 0), (-n, 0, 0, 0)
            conj = {h: mat_mul(mat_mul(p, m), p_inv)
                    for h, m in case.matrices.items()}
            assert case.assert_matches_scan(conj) is None
            g = case.elements[-1]
            _, i, j, c = max((abs(t), i, j, c)
                             for i, row in enumerate(conj[g])
                             for j, e in enumerate(row)
                             for c, t in enumerate(e))
            for step in (1, -1):
                bad = with_entry(conj, g, i, j, c, conj[g][i][j][c] + step)
                assert case.assert_matches_scan(bad) is not None


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
            assert total == ev.trace() == cls.cycle_type.count(1) - 1
            prod = sympy.simplify(sympy.expand_complex(sympy.prod(roots)))
            assert prod == (-1) ** (5 - len(ctype))  # the sign of the class


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
