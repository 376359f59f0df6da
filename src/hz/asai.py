"""Tensor induction of two-dimensional representations along an index-2
subgroup, with the quintic S5 specialization.

The coefficient ring for all matrices is the exact ring generated over the
rationals by i and sqrt(5).  An entry is stored as a 4-tuple of integers
(x, y, u, v) denoting ((x + y*sqrt5) + (u + v*sqrt5)*i) / ENTRY_SCALE, so
all arithmetic is integral and equality tests are exact.

Besides the matrix calculus the module provides root-of-unity eigenvalue
labels for Frobenius acting through a degree-5 permutation action and the
Hodge-Tate weight tables of the local filtrations.
"""

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations

from .padic import (
    _gcd_poly_modp,
    _padd,
    _pdivmod_monic,
    _pmulmod,
    _ppowmod,
    _psub,
    _ptrim,
)


class AsaiError(Exception):
    pass


class NotHomomorphism(AsaiError):
    """Matrix assignment fails multiplicativity on some pair."""


class ThetaInSubgroup(AsaiError):
    """The distinguished coset representative lies in the subgroup."""


class RamifiedPrime(AsaiError):
    """The prime divides the discriminant of the quintic."""


# ---------------------------------------------------------------------------
# exact arithmetic in Q(i, sqrt5)

ENTRY_SCALE = 4

def _gg_mul(a, b):
    """Product of two ring elements given as integer 4-tuples (common
    denominator handled by the caller)."""
    x1, y1, u1, v1 = a
    x2, y2, u2, v2 = b
    return (
        x1 * x2 + 5 * y1 * y2 - u1 * u2 - 5 * v1 * v2,
        x1 * y2 + y1 * x2 - u1 * v2 - v1 * u2,
        x1 * u2 + 5 * y1 * v2 + u1 * x2 + 5 * v1 * y2,
        x1 * v2 + y1 * u2 + u1 * y2 + v1 * x2,
    )


def _gg_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


_GG_ZERO = (0, 0, 0, 0)


def _regular(t):
    """Matrix of multiplication by the ring element t on (x, y, u, v)
    coordinates: row c holds the coefficients of coordinate c of t*s."""
    x, y, u, v = t
    return ((x, 5 * y, -u, -5 * v),
            (y, x, -v, -u),
            (u, 5 * v, x, 5 * y),
            (v, u, y, x))


def _check_multiplicative(rep, elements, matrices, scale, generators):
    """Raise NotHomomorphism unless the matrices (entries at denominator
    scale) send the identity to the unit matrix and satisfy M(a)M(b) = M(ab)
    for every b and every a in generators (default: all elements), whose
    closure must be all elements.

    For each a the products M(a)M(b) over all b are one block product
    (Kronecker substitution): coordinate c of row k of every M(b) is
    packed into one integer, with signed base-2^W digits at positions
    (place of b in elements) * dim + column, so M(a) acts on the packed
    rows through the regular matrices of its entries, in 16 dim^2 products
    of a small by a big integer.  The targets scale M(ab) are packed
    alike, in the order of b, with ab read from the product record.  A
    product digit is at most 12 dim max|entry|^2 and a
    target digit scale max|entry| in absolute value; W keeps both below
    2^(W-1), where signed digits are unique, so equal integers mean equal
    entries, and the lowest set bit of a difference lies in its lowest
    differing digit, which names the first failing b.  The failing pair is
    reported by the names of its elements."""
    if set(matrices) != set(elements):
        raise NotHomomorphism("matrix table does not cover its domain")
    unit, dim = (scale, 0, 0, 0), len(matrices[rep.identity])
    if matrices[rep.identity] != tuple(
            tuple(unit if i == j else _GG_ZERO for j in range(dim))
            for i in range(dim)):
        raise NotHomomorphism("identity is not assigned the unit matrix")
    if generators is None:
        generators = elements
    if rep.closure(generators) != set(elements):
        raise NotHomomorphism("the generators do not generate the domain")
    table = [matrices[g] for g in elements]
    lines = list(chain.from_iterable(table))
    entries = list(chain.from_iterable(lines))
    if set(map(len, table)) | set(map(len, lines)) != {dim} or set(
            map(len, entries)) != {4}:
        raise NotHomomorphism("the matrices are not all %d x %d" % (dim, dim))
    flat = list(chain.from_iterable(entries))
    top = max(max(flat), -min(flat))
    size = (max(12 * dim * top * top, scale * top).bit_length() + 8) // 8
    half = 1 << (8 * size - 1)
    digits = [(t + half).to_bytes(size, "little") for t in flat]
    block = 4 * dim * dim  # one matrix, in (row, column, coordinate) order
    # rows[4 r + c][n]: coordinate c of row r of the n-th matrix
    rows = [list(map(b"".join, zip(*(digits[(r * dim + j) * 4 + c::block]
                                     for j in range(dim)))))
            for r in range(dim) for c in range(4)]
    offset = int.from_bytes(
        half.to_bytes(size, "little") * (len(elements) * dim), "little")

    def pack(chunks):
        return int.from_bytes(b"".join(chunks), "little") - offset

    sources = [pack(chunks) for chunks in rows]
    index = {g: n for n, g in enumerate(elements)}
    for a in generators:
        regular = [[_regular(e) for e in row] for row in matrices[a]]
        ab = rep.products[a]
        targets = [index[ab[b]] for b in elements]
        diffs = [sum(map(operator.mul, [r for reg in regular[t // 4]
                                        for r in reg[t % 4]], sources))
                 - scale * pack(map(chunks.__getitem__, targets))
                 for t, chunks in enumerate(rows)]
        low = min(((d & -d).bit_length() for d in diffs if d), default=0)
        if low:
            b = elements[(low - 1) // (8 * size) // dim]
            raise NotHomomorphism("matrix table fails at the pair (%r, %r)" % (
                rep.keys[a], rep.keys[b]))


# ---------------------------------------------------------------------------
# representations

class FiniteRep2:
    """A finite group together with an index-2 subgroup, a coset
    representative, and a 2x2 matrix assignment on the subgroup.

    The elements are the indices range(n) into keys, and everything but
    the names speaks in indices.
    keys: the element names, in which an element is reported.
    multiply: callable (g, h) -> gh.
    identity: the identity.
    in_subgroup: callable g -> bool; must cut out exactly half the elements.
    theta: coset representative outside the subgroup.
    matrices: dict mapping subgroup elements to 2x2 nested tuples whose
        entries are integer 4-tuples at denominator ENTRY_SCALE.
    products: the record of every product sh made, in int rows:
        products[s][h] is sh, or None where it is not made yet, and row s
        is None until s first acts.
    """

    def __init__(self, keys, multiply, identity, in_subgroup, theta,
                 matrices):
        self.keys = list(keys)
        self.elements = range(len(self.keys))
        self.multiply = multiply
        self.identity = identity
        self.in_subgroup = in_subgroup
        self.theta = theta
        self.matrices = matrices
        self.products = [None] * len(self.keys)

    def product(self, s, h):
        """sh, from the record, or made once into it."""
        row = self.products[s]
        if row is None:
            row = self.products[s] = [None] * len(self.keys)
        sh = row[h]
        if sh is None:
            sh = row[h] = self.multiply(s, h)
        return sh

    def subgroup_elements(self):
        return [g for g in self.elements if self.in_subgroup(g)]

    def powers(self, g):
        """g, g^2, ..., stopping with an error past the group order."""
        h = g
        for _ in self.elements:
            yield h
            h = self.product(h, g)
        raise AsaiError("element order exceeds the group order")

    def inverse(self, g):
        """g^(ord g - 1), the last power before the identity."""
        prev = self.identity
        for h in self.powers(g):
            if h == self.identity:
                return prev
            prev = h

    def closure(self, generators):
        """Everything reached from the identity by repeated left
        multiplication with the generators."""
        return self._extend({self.identity}, [], generators)

    def _extend(self, reached, generators, added):
        """Close `reached`, closed under left multiplication by the
        generators, under the added generators too: the added ones act on
        all of it, then every generator on each newly reached element.
        Each product sh is recorded in self.products and made only once."""
        product = self.product
        frontier, acting = reached, added
        generators = [*generators, *added]
        while frontier:
            found = set()
            for s in acting:
                found.update(product(s, h) for h in frontier)
            frontier = found - reached
            reached = reached | frontier
            acting = generators
        return reached

    def generating_set(self, elements):
        """Greedy generators of the subgroup formed by the elements: from
        the end of the list (the nontrivial coset, in the cover), each
        element not yet reached joins, and the closure grows by it, until
        it is all of them."""
        generators, reached = [], {self.identity}
        for g in reversed(elements):
            if g not in reached:
                reached = self._extend(reached, generators, [g])
                generators.append(g)
        if reached != set(elements):
            raise AsaiError("the elements do not form a subgroup")
        return generators

    def verify_homomorphism(self, generators=None):
        """Exact multiplicativity of the matrix table on the subgroup: on
        every pair, or, given a set S of subgroup elements, on the pairs
        (s, h) with s in S once the closure of S from the identity is the
        whole subgroup.  With rho(e) = 1, induction on word length in S
        makes the second check a proof (|S| n products instead of n^2)
        for an associative law.  The icosian law
        (q1, s1)(q2, s2) = (q1 sigma^s1(q2), s1 xor s2) is one, because
        sigma is a ring automorphism of order 2."""
        _check_multiplicative(self, self.subgroup_elements(), self.matrices,
                              ENTRY_SCALE, generators)


def _kron(m1, m2):
    """Kronecker product of two 2x2 matrices over the ring, in the basis
    e1e1', e1e2', e2e1', e2e2': entry (2a + b, 2c + d) is m1[a][c] m2[b][d]."""
    (p, q), (r, s) = m1
    (w, x), (y, z) = m2
    mul = _gg_mul
    return ((mul(p, w), mul(p, x), mul(q, w), mul(q, x)),
            (mul(p, y), mul(p, z), mul(q, y), mul(q, z)),
            (mul(r, w), mul(r, x), mul(s, w), mul(s, x)),
            (mul(r, y), mul(r, z), mul(s, y), mul(s, z)))


class AsaiRep:
    """4x4 matrix assignment on the full group obtained by tensor induction;
    entries are integer 4-tuples at denominator ENTRY_SCALE**2."""

    def __init__(self, rep, matrices):
        self.rep = rep
        self.matrices = matrices

    def character(self, g):
        """Trace of the induced matrix; the result must be a rational
        integer for the representations handled here."""
        m = self.matrices[g]
        acc = _GG_ZERO
        for i in range(4):
            acc = _gg_add(acc, m[i][i])
        scale = ENTRY_SCALE ** 2
        if acc[1] or acc[2] or acc[3] or acc[0] % scale:
            raise AsaiError("trace is not a rational integer")
        return acc[0] // scale

    def order_mod_center(self, g, center):
        """Order of g in the quotient by the given central subset."""
        for n, h in enumerate(self.rep.powers(g), 1):
            if h in center:
                return n

    def verify_homomorphism(self, generators=None):
        """Exact check that As(g)As(h) = As(gh): over every pair, or, given
        generators S of the whole group, by the closure and generator
        argument of FiniteRep2.verify_homomorphism (|S| n products)."""
        _check_multiplicative(self.rep, self.rep.elements, self.matrices,
                              ENTRY_SCALE ** 2, generators)


def tensor_induce(rho, generators=None):
    """Tensor induction of a 2-dimensional subgroup representation to the
    full group, in the basis e_i (x) e_j' with the second slot moved through
    the coset representative.  The subgroup table is verified first, on
    the given subgroup generators when there are any.  The products by
    theta^-1 go into the product record's one row for it; each g theta is
    made by the group law, not recorded, since a row of the record for g
    would hold only that one product."""
    theta = rho.theta
    if rho.in_subgroup(theta):
        raise ThetaInSubgroup("coset representative lies in the subgroup")
    rho.verify_homomorphism(generators)
    theta_inv = rho.inverse(theta)
    product, multiply, local = rho.product, rho.multiply, rho.matrices
    matrices = {}
    for g in rho.elements:
        g_theta = multiply(g, theta)
        if rho.in_subgroup(g):
            matrices[g] = _kron(local[g], local[product(theta_inv, g_theta)])
        else:
            # the two tensor slots are exchanged off the subgroup: entry
            # (2a + b, 2c + d) is m1[a][d] m2[b][c], so the middle columns
            # of the Kronecker product swap
            matrices[g] = tuple(
                (r0, r2, r1, r3) for r0, r1, r2, r3 in _kron(
                    local[g_theta], local[product(theta_inv, g)]))
    return AsaiRep(rho, matrices)


# ---------------------------------------------------------------------------
# the binary icosahedral model of the double cover of S5

def _quat_mul(p, q):
    """Product of quaternions whose coordinates are (x, y) integer pairs
    denoting (x + y*sqrt5)/4."""
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = p
    (e0, e1), (f0, f1), (g0, g1), (h0, h1) = q
    out = (
        a0 * e0 - b0 * f0 - c0 * g0 - d0 * h0
        + 5 * (a1 * e1 - b1 * f1 - c1 * g1 - d1 * h1),
        a0 * e1 + a1 * e0 - b0 * f1 - b1 * f0 - c0 * g1 - c1 * g0
        - d0 * h1 - d1 * h0,
        a0 * f0 + b0 * e0 + c0 * h0 - d0 * g0
        + 5 * (a1 * f1 + b1 * e1 + c1 * h1 - d1 * g1),
        a0 * f1 + a1 * f0 + b0 * e1 + b1 * e0 + c0 * h1 + c1 * h0
        - d0 * g1 - d1 * g0,
        a0 * g0 - b0 * h0 + c0 * e0 + d0 * f0
        + 5 * (a1 * g1 - b1 * h1 + c1 * e1 + d1 * f1),
        a0 * g1 + a1 * g0 - b0 * h1 - b1 * h0 + c0 * e1 + c1 * e0
        + d0 * f1 + d1 * f0,
        a0 * h0 + b0 * g0 - c0 * f0 + d0 * e0
        + 5 * (a1 * h1 + b1 * g1 - c1 * f1 + d1 * e1),
        a0 * h1 + a1 * h0 + b0 * g1 + b1 * g0 - c0 * f1 - c1 * f0
        + d0 * e1 + d1 * e0,
    )
    if functools.reduce(operator.or_, out) & 3:
        raise AsaiError("quaternion product left the lattice")
    return ((out[0] >> 2, out[1] >> 2), (out[2] >> 2, out[3] >> 2),
            (out[4] >> 2, out[5] >> 2), (out[6] >> 2, out[7] >> 2))


def _quat_neg(q):
    return tuple((-c[0], -c[1]) for c in q)


_QUAT_ONE = ((4, 0), (0, 0), (0, 0), (0, 0))


def _icosian_units():
    """The 120 unit icosians: the 24 half-integer units together with the
    96 even coordinate rearrangements of (golden, 1, 1/golden, 0)/2."""
    units = set()
    for i in range(4):
        for s in (4, -4):
            coords = [(0, 0)] * 4
            coords[i] = (s, 0)
            units.add(tuple(coords))
    for sa in (2, -2):
        for sb in (2, -2):
            for sc in (2, -2):
                for sd in (2, -2):
                    units.add(((sa, 0), (sb, 0), (sc, 0), (sd, 0)))
    base = ((1, 1), (2, 0), (-1, 1), (0, 0))
    for perm in permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4)
            if perm[i] > perm[j])
        if inversions % 2:
            continue
        arranged = tuple(base[perm.index(i)] for i in range(4))
        for mask in range(8):
            coords = []
            bit = 0
            for c in arranged:
                if c == (0, 0):
                    coords.append(c)
                else:
                    sign = -1 if (mask >> bit) & 1 else 1
                    coords.append((sign * c[0], sign * c[1]))
                    bit += 1
            units.add(tuple(coords))
    if len(units) != 120:
        raise AsaiError("icosian construction produced %d units" % len(units))
    return sorted(units)


def _sigma(q):
    """Conjugate each coordinate over the quadratic subfield, then swap the
    last two quaternion coordinates with a sign flip on the second."""
    a, b, c, d = ((c0, -c1) for (c0, c1) in q)
    return (a, (-b[0], -b[1]), d, c)


def _rho_matrix(q):
    (xa, ya), (xb, yb), (xc, yc), (xd, yd) = q
    return (
        ((xa, ya, xb, yb), (xc, yc, xd, yd)),
        ((-xc, -yc, xd, yd), (xa, ya, -xb, -yb)),
    )


def s5_double_cover_rep():
    """A 240-element double cover of S5 realized on pairs (icosian, bit),
    with the nontrivial bit acting through the outer swap; the extension by
    the swap is split, which makes the induced character equal to the
    permutation character on 5 points minus its trivial summand.  Element
    g = k + 120 s is keys[g] = (the icosian at place k of the sorted
    units, s).  times[k][l], the place of the product of the icosians at
    places k and l, is made at most once, and (k, s)(l, t) is
    (times[k][sigma^s(l)], s xor t): the icosian part ignores t."""
    icosians = _icosian_units()
    n = len(icosians)
    position = {q: k for k, q in enumerate(icosians)}
    sigma = [position.get(_sigma(q)) for q in icosians]
    if None in sigma:
        raise AsaiError("outer swap does not preserve the icosians")
    times = [[None] * n for _ in icosians]

    def multiply(g, h):
        s, k = divmod(g, n)
        t, l = divmod(h, n)
        if s:
            l = sigma[l]
        row = times[k]
        kl = row[l]
        if kl is None:
            kl = row[l] = position[_quat_mul(icosians[k], icosians[l])]
        return kl + n * (s ^ t)

    one = position[_QUAT_ONE]
    return FiniteRep2(
        keys=[(q, s) for s in (0, 1) for q in icosians],
        multiply=multiply,
        identity=one,
        in_subgroup=lambda g: g < n,
        theta=one + n,
        matrices={k: _rho_matrix(q) for k, q in enumerate(icosians)},
    )


def cover_center():
    """The two central elements of the double cover, for quotient orders:
    the places of 1 and -1 among the sorted icosians."""
    icosians = _icosian_units()
    return {icosians.index(_QUAT_ONE), icosians.index(_quat_neg(_QUAT_ONE))}


# ---------------------------------------------------------------------------
# Frobenius classes of a quintic and their eigenvalue labels

@dataclass(frozen=True)
class S5FrobeniusClass:
    cycle_type: tuple

    def __post_init__(self):
        if sum(self.cycle_type) != 5:
            raise AsaiError("cycle type must partition 5")


def quintic_discriminant(coeffs):
    return _discriminant(tuple(coeffs))


@functools.lru_cache(maxsize=None)
def _discriminant(coeffs):
    """Discriminant of the integer polynomial with coefficients `coeffs`
    (high to low), (-1)^(n(n-1)/2) Res(f, f') / lead(f) for degree n >= 1
    and 0 for a constant.  Cached: the sieve asks for it at every prime."""
    f = coeffs[next((i for i, c in enumerate(coeffs) if c), len(coeffs)):]
    n = len(f) - 1
    if n < 1:
        return 0
    df = [c * (n - i) for i, c in enumerate(f[:-1])]
    return (-1) ** (n * (n - 1) // 2) * _resultant(f, df) // f[0]


def _resultant(f, g):
    """Res(f, g) for integer polynomials (high to low, nonzero leading
    coefficients): the determinant of the Sylvester matrix, by
    fraction-free Bareiss elimination, in which every division is exact."""
    n, m = len(f) - 1, len(g) - 1
    M = [[0] * i + list(f) + [0] * (m - 1 - i) for i in range(m)]
    M += [[0] * i + list(g) + [0] * (n - 1 - i) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n + m - 1):
        pivot = next((i for i in range(k, n + m) if M[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            M[k], M[pivot], sign = M[pivot], M[k], -sign
        for i in range(k + 1, n + m):
            for j in range(k + 1, n + m):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1]


def is_irreducible_modp(f, p):
    """Whether f (coefficients low to high) is irreducible over F_p, by
    Berlekamp: f mod p has degree >= 1, gcd(f, f') = 1, and Q - I has
    nullity 1, the rows of Q being x^(ip) mod f for 0 <= i < deg f.  The
    nullity counts the irreducible factors of a squarefree f, so this is
    independent of the distinct-degree factorization of the search."""
    f = _ptrim([c % p for c in f])
    n = len(f) - 1
    if n < 1 or len(_gcd_poly_modp(f, [i * c for i, c in enumerate(f)][1:], p)) > 1:
        return False
    frob, row, rows = _ppowmod([0, 1], p, f, p), [1], []
    for i in range(n):
        rows.append(row + [0] * (n - len(row)))
        rows[i][i] -= 1
        row = _pmulmod(row, frob, f, p)
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, n):
            c = rows[i][col] * inv % p
            rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank == n - 1


def frobenius_class_quintic(coeffs, p):
    """Cycle type of Frobenius at p acting on the roots of a monic integer
    quintic, from its factor degrees modulo p by distinct-degree
    factorization: f is squarefree mod p because p does not divide the
    discriminant, gcd(x^p - x, f) is the product of the linear factors and
    gcd(x^(p^2) - x, f / linear) that of the quadratic ones, and what is
    left is irreducible (two factors of degree >= 3 would need degree 6)."""
    if len(coeffs) != 6 or coeffs[0] != 1:
        raise AsaiError("expected a monic degree-5 coefficient list")
    if quintic_discriminant(coeffs) % p == 0:
        raise RamifiedPrime("p divides the quintic discriminant")
    f = [c % p for c in reversed(coeffs)]  # low-to-high, as in hz.padic
    x = [0, 1]
    frob = _ppowmod(x, p, f, p)
    linear = _gcd_poly_modp(f, _psub(frob, x, p), p)
    rest = _pdivmod_monic(f, linear, p)[0]
    degrees = [1] * (len(linear) - 1)
    if len(rest) > 1:
        # x^(p^2) = frob(x)^p = frob(frob(x)): frob has coefficients in F_p
        frob = _pdivmod_monic(frob, rest, p)[1]
        frob2 = [frob[-1]]
        for c in reversed(frob[:-1]):
            frob2 = _padd(_pmulmod(frob2, frob, rest, p), [c], p)
        quadratic = _gcd_poly_modp(rest, _psub(frob2, x, p), p)
        rest = _pdivmod_monic(rest, quadratic, p)[0]
        degrees += [2] * ((len(quadratic) - 1) // 2)
        if len(rest) > 1:
            degrees.append(len(rest) - 1)
    return S5FrobeniusClass(tuple(sorted(degrees, reverse=True)))


def _canonical_root(order, exponent):
    exponent %= order
    if exponent == 0:
        return (1, 0)
    g = math.gcd(order, exponent)
    return (order // g, exponent // g)


def _ratio_order(l1, l2):
    # order of the quotient of the two labelled roots of unity
    diff = Fraction(l1[1], l1[0]) - Fraction(l2[1], l2[0])
    return (diff % 1).denominator if diff % 1 else 1


@dataclass(frozen=True)
class AsaiEigenvalues:
    """Eigenvalue labels (order, exponent) of the permutation action on 5
    points with one trivial summand removed."""

    cycle_type: tuple
    labels: tuple

    def trace(self):
        return sum(1 for c in self.cycle_type if c == 1) - 1

    def distinct_mod(self, p):
        """Whether the four labels stay pairwise distinct after reduction
        to characteristic p: the quotient of two roots of unity reduces to
        1 exactly when its order is a power of p."""
        labels = self.labels
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                order = _ratio_order(labels[i], labels[j])
                while order % p == 0:
                    order //= p
                if order == 1:
                    return False
        return True


def asai_frobenius_eigenvalues(frob_class):
    labels = []
    for c in frob_class.cycle_type:
        labels.extend(_canonical_root(c, k) for k in range(c))
    labels.remove((1, 0))
    return AsaiEigenvalues(frob_class.cycle_type, tuple(sorted(labels)))


# ---------------------------------------------------------------------------
# Hodge-Tate weight tables

def ht_weight_table(ell):
    """Graded Hodge-Tate weights of the two local filtrations at parallel
    weight ell, plus the sign predicate for the middle step."""
    if ell < 1:
        raise AsaiError("weight must be at least 1")
    four_step = ((ell - 1,), (ell - 2, 0, 0), (-1, -1, 1 - ell), (-ell,))
    return {
        "three_step": ((ell - 2,), (-1, -1), (-ell,)),
        "four_step": four_step,
        "fil2_strictly_negative": all(
            w < 0 for piece in four_step[2:] for w in piece),
    }
