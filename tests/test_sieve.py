"""Tests for the admissible-prime sieve and its witnesses."""

import io
import json
import math
import random

import pytest
import sympy

import hz.asai
import hz.sieve
from hz.realquad import NotSplit, make_field, narrowly_principal_split, split_prime
from hz.sieve import (
    BadReduction,
    CURVE_11A1,
    DESK_FIELD_D,
    DESK_QUINTIC,
    EllipticCurveData,
    ExcludedPrime,
    SieveError,
    _ap_bsgs,
    _ap_exhaustive,
    ap_count,
    check_assumptions,
    desk_field,
    find_admissible,
    prefilter,
    result_to_dict,
    reverify,
    unit_condition,
    write_csv,
    write_jsonl,
)


@pytest.fixture(scope="module")
def desk():
    return desk_field()


def eta_product_coefficients(bound):
    """q * prod (1-q^n)^2 (1-q^11n)^2, the weight-2 newform of level 11."""
    coeffs = [0] * (bound + 1)
    coeffs[0] = 1
    for n in range(1, bound + 1):
        for rep in range(2):
            for m in (n, 11 * n):
                if m > bound:
                    continue
                for k in range(bound - m, -1, -1):
                    coeffs[k + m] -= coeffs[k]
    return {n: coeffs[n - 1] for n in range(1, bound + 1)}


class TestCurveData:
    def test_discriminant(self):
        assert CURVE_11A1.discriminant == -(11 ** 5)

    def test_singular_curve_rejected(self):
        with pytest.raises(SieveError):
            EllipticCurveData(0, 0, 0, 0, 0, conductor=1)


class TestApCount:
    def test_small_prime(self):
        assert ap_count(CURVE_11A1, 3) == -1

    def test_against_modular_form_oracle(self):
        an = eta_product_coefficients(30)
        for p in sympy.primerange(2, 31):
            if p == 11:
                continue
            assert ap_count(CURVE_11A1, p) == an[p]

    def test_against_brute_force_count(self):
        E = EllipticCurveData(0, 0, 1, -1, 0, conductor=37)
        for p in (3, 5, 7, 13):
            points = 1
            for x in range(p):
                for y in range(p):
                    lhs = y * y + E.a1 * x * y + E.a3 * y
                    rhs = x ** 3 + E.a2 * x * x + E.a4 * x + E.a6
                    if (lhs - rhs) % p == 0:
                        points += 1
            assert ap_count(E, p) == p + 1 - points

    def test_hasse_bound(self):
        for p in sympy.primerange(3, 200):
            if p == 11:
                continue
            ap = ap_count(CURVE_11A1, p)
            assert ap * ap <= 4 * p

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReduction):
            ap_count(CURVE_11A1, 11)

    def test_supersingular_prime(self):
        # level-11 form has a_19 = 0, confirmed by the eta-product oracle
        assert eta_product_coefficients(19)[19] == 0
        assert ap_count(CURVE_11A1, 19) == 0


class TestUnitCondition:
    def test_odd_order_passes(self):
        ok, order = unit_condition(make_field(2), 7)
        assert ok and order == 3

    def test_power_of_two_order_fails(self):
        # 3 + 2*sqrt(2) reduces to 15 mod a prime above 17, of order 8
        ok, order = unit_condition(make_field(2), 17)
        assert not ok and order == 8

    def test_inert_prime_rejected(self):
        with pytest.raises(NotSplit):
            unit_condition(make_field(2), 3)


class TestPrefilter:
    def test_congruence_flag(self, desk):
        assert prefilter(desk, 41)["congruence_9_mod_16"]
        assert not prefilter(desk, 43)["congruence_9_mod_16"]

    def test_narrow_class_case_labels(self):
        assert prefilter(make_field(5), 3)["narrow_class_case"] == "1 mod 4"
        assert prefilter(make_field(3), 5)["narrow_class_case"] == "3 mod 4"
        assert prefilter(make_field(2), 5)["narrow_class_case"] == "2 mod 8"
        assert prefilter(make_field(6), 5)["narrow_class_case"] == "6 mod 8"

    def test_congruence_route_implies_odd_order(self):
        # soundness scan; any violation would land in the paper's finite
        # exception set and must be surfaced
        for F in (make_field(5), desk_field()):
            violations = []
            for p in sympy.primerange(3, 10**4):
                if F.discriminant % p == 0:
                    continue
                flags = prefilter(F, p)
                if not flags["congruence_route"]:
                    continue
                ok, _ = unit_condition(F, p)
                if not ok:
                    violations.append(p)
            assert violations == []


class TestCheckAssumptions:
    def test_first_admissible_prime(self, desk):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 853)
        assert result.admissible
        assert result.witnesses["cycle_type"] == (5,)
        assert result.witnesses["unit_order"] % 2 == 1
        pi1, pi2 = result.witnesses["generators"]
        assert pi1.norm() == pi2.norm() == 853
        assert pi1.is_totally_positive() and pi2.is_totally_positive()
        assert result.witnesses["eigenvalues_distinct_mod_p"]

    def test_five_is_not_admissible(self, desk):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 5)
        assert result.witnesses["cycle_type"] == (5,)
        assert not result.frobenius_distinct
        assert not result.admissible

    def test_excluded_primes(self, desk):
        for p in (11, 19, 151):
            with pytest.raises(ExcludedPrime):
                check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, p)

    def test_ramified_in_the_quadratic_field(self):
        F = make_field(5)
        result = check_assumptions(F, DESK_QUINTIC, CURVE_11A1, 5)
        assert not result.split_narrow
        assert not result.admissible

    def test_split_but_not_narrowly_principal(self, desk):
        # the desk field has narrow class number 2, so some split primes
        # must fail narrow principality
        found = None
        for p in sympy.primerange(3, 500):
            if desk.discriminant % p == 0 or p == 11:
                continue
            if split_prime(desk, p).splitting_type != "split":
                continue
            if narrowly_principal_split(desk, p).status == "not-principal":
                found = p
                break
        assert found is not None
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, found)
        assert not result.split_narrow

    def test_assumed_metadata(self, desk):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 13)
        assert len(result.assumed) == 2
        for note in result.assumed:
            assert note.startswith("assumed:")
            assert "not machine-checkable" in note


class TestFindAdmissible:
    def test_empty_range(self, desk):
        run = find_admissible(desk, DESK_QUINTIC, CURVE_11A1, 3, 3)
        assert run.admissible == [] and run.checked == 0

    def test_small_run(self, desk):
        run = find_admissible(desk, DESK_QUINTIC, CURVE_11A1, 3, 1000)
        assert [r.p for r in run.admissible] == [853]
        assert run.counts["admissible"] == 1
        assert run.excluded == 3
        assert all(reverify(desk, DESK_QUINTIC, CURVE_11A1, r)
                   for r in run.admissible)

    def test_monotone_in_the_bound(self, desk):
        small = find_admissible(desk, DESK_QUINTIC, CURVE_11A1, 3, 1500)
        large = find_admissible(desk, DESK_QUINTIC, CURVE_11A1, 3, 3000)
        small_ps = [r.p for r in small.admissible]
        large_ps = [r.p for r in large.admissible]
        assert large_ps[:len(small_ps)] == small_ps

    def test_cycle_type_frequencies(self, desk):
        run = find_admissible(desk, DESK_QUINTIC, CURVE_11A1, 3, 3000)
        freq = run.cycle_types[(5,)] / run.checked
        sigma = math.sqrt(0.2 * 0.8 / run.checked)
        assert abs(freq - 0.2) <= 3 * sigma


class TestReverify:
    def test_tampered_witness_fails(self, desk):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 853)
        result.witnesses["a_p"] += 1
        assert not reverify(desk, DESK_QUINTIC, CURVE_11A1, result)

    def test_non_admissible_fails(self, desk):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 13)
        assert not reverify(desk, DESK_QUINTIC, CURVE_11A1, result)


class TestSerialization:
    def test_jsonl_round_trip(self, desk):
        results = [check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, p)
                   for p in (13, 853)]
        buf = io.StringIO()
        write_jsonl(results, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["p"] == 13
        assert records[1]["admissible"]
        assert records[1]["witnesses"]["cycle_type"] == [5]

    def test_csv_output(self, desk):
        results = [check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 853)]
        buf = io.StringIO()
        write_csv(results, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("p,split_narrow")
        assert lines[1].split(",")[0] == "853"

    def test_result_dict_is_json_safe(self, desk):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 853)
        json.dumps(result_to_dict(result))


class TestDeskConstants:
    def test_quintic_discriminant_factors(self):
        from hz.asai import quintic_discriminant
        assert quintic_discriminant(list(DESK_QUINTIC)) == DESK_FIELD_D
        assert sympy.factorint(DESK_FIELD_D) == {19: 1, 151: 1}


CURVE_37A1 = EllipticCurveData(0, 0, 1, -1, 0, conductor=37)


def _good(E, p):
    return E.discriminant % p != 0 and E.conductor % p != 0


class TestBabyStepGiantStep:
    """The Shanks-Mestre count against the exhaustive O(p) count, which
    `reverify` keeps as its oracle, and against the level-11 newform."""

    @pytest.mark.parametrize("E", [CURVE_11A1, CURVE_37A1], ids=["11a", "37a"])
    def test_every_good_prime_below_3000(self, E):
        for p in sympy.primerange(3, 3000):
            if not _good(E, p):
                continue
            expected = _ap_exhaustive(E, p)
            assert ap_count(E, p) == expected, p
            if p > 229:
                assert _ap_bsgs(E, p) == expected, p

    def test_random_curves(self):
        rng = random.Random(20240)
        primes = list(sympy.primerange(230, 5000))
        curves = []
        while len(curves) < 20:
            a = [rng.randrange(-60, 61) for _ in range(5)]
            try:
                curves.append(EllipticCurveData(*a, conductor=1))
            except SieveError:
                continue
        on_twist = 0
        for E in curves:
            c6 = E.c_invariants[1]
            for p in rng.sample(primes, 6):
                if not _good(E, p):
                    continue
                # the first point, at x0 = 0, lies on the twist exactly
                # when the constant term -54 c6 of the short model is a
                # non-residue
                B = -54 * c6 % p
                on_twist += B != 0 and pow(B, (p - 1) // 2, p) != 1
                assert ap_count(E, p) == _ap_exhaustive(E, p), (E, p)
        assert on_twist > 0

    def test_newform_coefficients_to_1000(self):
        an = eta_product_coefficients(1000)
        for p in sympy.primerange(2, 1001):
            if p != 11:
                assert ap_count(CURVE_11A1, p) == an[p], p

    def test_reverify_uses_the_exhaustive_count(self, desk, monkeypatch):
        result = check_assumptions(desk, DESK_QUINTIC, CURVE_11A1, 853)

        def fail(*args):
            raise AssertionError("reverify reran the BSGS count")

        monkeypatch.setattr(hz.sieve, "ap_count", fail)
        monkeypatch.setattr(hz.sieve, "_ap_bsgs", fail)
        assert reverify(desk, DESK_QUINTIC, CURVE_11A1, result)


class TestSympyFreeLoop:
    def test_no_polynomial_factoring_in_the_sieve(self, desk, monkeypatch):
        """The per-prime loop reads the cycle type off one distinct-degree
        factorization per prime: the quintic's discriminant is computed
        once, and the Berlekamp test kept for `reverify` never runs."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("the search ran the Berlekamp test")

        hz.asai._discriminant.cache_clear()
        monkeypatch.setattr(hz.asai, "_resultant", counted(hz.asai._resultant))
        monkeypatch.setattr(hz.sieve, "frobenius_class_quintic",
                            counted(hz.sieve.frobenius_class_quintic))
        monkeypatch.setattr(hz.sieve, "is_irreducible_modp", refuse)
        run = find_admissible(desk, DESK_QUINTIC, CURVE_11A1, 10000, 10500)
        assert run.checked == len(list(sympy.primerange(10000, 10500)))
        assert calls.count("_resultant") == 1
        assert calls.count("frobenius_class_quintic") == run.checked
        assert sum(run.cycle_types.values()) == run.checked
