"""Oracles for the plain-integer number theory of hz: every helper that
replaced a sympy call is checked against sympy on exhaustive small ranges
(and, for Miller-Rabin, at the edge of its proved range)."""

import itertools
import random

import pytest
import sympy
from sympy.abc import x
from sympy.functions.combinatorial.numbers import divisor_sigma as sympy_sigma

from hz.asai import _discriminant, is_irreducible_modp
from hz.padic import (
    _MR_BASES,
    _MR_LIMIT,
    OutOfRange,
    divisor_sigma,
    divisors,
    factorize,
    isprime,
    n_order,
    primerange,
)

SMALL_PRIMES = list(sympy.primerange(2, 10**5))


class TestPrimality:
    def test_isprime_below_1e5(self):
        assert [n for n in range(-5, 10**5) if isprime(n)] == SMALL_PRIMES

    @staticmethod
    def strong_probable_prime(n, a):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        y = pow(a, d, n)
        return y in (1, n - 1) or any(pow(y, 2**r, n) == n - 1 for r in range(1, s))

    def test_the_limit_is_sharp(self):
        """The limit is the least composite that passes all 13 bases, so
        the test must refuse it rather than call it prime."""
        assert not sympy.isprime(_MR_LIMIT)
        assert all(self.strong_probable_prime(_MR_LIMIT, a) for a in _MR_BASES)
        with pytest.raises(OutOfRange):
            isprime(_MR_LIMIT)
        with pytest.raises(OutOfRange):
            isprime(_MR_LIMIT + 2)

    @pytest.mark.parametrize("n", [
        3825123056546413051,          # strong pseudoprime to the first 9 prime bases
        318665857834031151167461,     # ... to the first 12
        2**61 - 1, 2**79 - 67, 1208925819614629174706111,  # primes, the last below 2^80
    ])
    def test_pseudoprimes_and_large_primes(self, n):
        assert isprime(n) == sympy.isprime(n)

    def test_just_below_the_limit(self):
        for n in range(_MR_LIMIT - 300, _MR_LIMIT):
            assert isprime(n) == sympy.isprime(n), n


class TestPrimerange:
    def test_every_small_window(self):
        for start in range(-3, 60):
            for stop in range(start - 2, 90):
                assert list(primerange(start, stop)) == list(sympy.primerange(start, stop)), (
                    start, stop)

    def test_across_segments(self):
        assert list(primerange(0, 10**5)) == SMALL_PRIMES
        assert list(primerange(10**6 - 70000, 10**6 + 1000)) == list(
            sympy.primerange(10**6 - 70000, 10**6 + 1000))


class TestDivisors:
    def test_factorize_divisors_and_sigma(self):
        for n in range(1, 2001):
            assert dict(factorize(n)) == sympy.factorint(n), n
            assert divisors(n) == sympy.divisors(n), n
            for k in range(4):
                assert divisor_sigma(n, k) == sympy_sigma(n, k), (n, k)


class TestPrimeModuli:
    PRIMES = list(sympy.primerange(2, 3000))

    def test_n_order(self):
        rng = random.Random(11)
        for p in self.PRIMES:
            units = range(1, p) if p < 200 else {2, 3, p - 1, rng.randrange(1, p)}
            for a in units:
                assert n_order(a, p) == sympy.n_order(a, p), (a, p)
                assert n_order(a + 5 * p, p) == n_order(a, p)
        with pytest.raises(ValueError):
            n_order(14, 7)


class TestPolynomials:
    def test_discriminant(self):
        rng = random.Random(5)
        for degree in range(1, 7):
            for trial in range(40):
                coeffs = [rng.randint(-20, 20) for _ in range(degree + 1)]
                coeffs[0] = 1 if trial % 2 else rng.choice([-7, -2, 3, 12])
                assert _discriminant(tuple(coeffs)) == sympy.discriminant(
                    sympy.Poly(coeffs, x)), coeffs
        # repeated roots, leading zeros and constants follow sympy too
        for coeffs in ((1, -2, 1), (0, 0, 2, 0, -2), (4, 4, 1, 0), (5,), (0, 3)):
            assert _discriminant(coeffs) == sympy.discriminant(sympy.Poly(coeffs, x))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_monic_quintic_small_p(self, p):
        """Gauss's count (p^5 - p)/5 of monic irreducible quintics, and at
        p <= 3 sympy's verdict on each of them."""
        found = 0
        for tail in itertools.product(range(p), repeat=5):
            got = is_irreducible_modp(list(reversed(tail)) + [1], p)
            found += got
            if p <= 3:
                assert got == sympy.Poly((1,) + tail, x, modulus=p).is_irreducible, tail
        assert found == (p**5 - p) // 5

    def test_sampled_quintics_below_50(self):
        """Random monic quintics, and products of random lower-degree
        factors, for every prime p < 50."""
        rng = random.Random(7)
        for p in sympy.primerange(2, 50):
            polys = [[1] + [rng.randrange(p) for _ in range(5)] for _ in range(12)]
            for d in (1, 2):
                a = [1] + [rng.randrange(p) for _ in range(d)]
                b = [1] + [rng.randrange(p) for _ in range(5 - d)]
                polys.append(sympy.Poly(a, x, modulus=p).mul(
                    sympy.Poly(b, x, modulus=p)).all_coeffs())
            for coeffs in polys:
                expected = sympy.Poly(coeffs, x, modulus=p).is_irreducible
                # a unit multiple (non-monic for p > 2), coefficients outside [0, p)
                scaled = [c * (p - 1) - 3 * p for c in reversed(coeffs)]
                assert is_irreducible_modp(list(reversed(coeffs)), p) == expected, (p, coeffs)
                assert is_irreducible_modp(scaled, p) == expected, (p, coeffs)

    def test_degenerate_inputs(self):
        assert is_irreducible_modp([3, 1], 5)            # degree 1
        assert not is_irreducible_modp([5, 10], 5)       # a constant mod p
        assert not is_irreducible_modp([0, 0, 1], 7)     # x^2
        assert not is_irreducible_modp([-1, 0, 0, 0, 0, 1], 5)  # x^5 - 1 = (x - 1)^5
