"""The four benchmark workloads: seeded input generation, the item each
one times, and the output check each item must pass.

Input generation and the checks use plain integers and Fractions (plus
sympy where a check names it), never the hz code path being timed, so a
wrong result cannot confirm itself.  hz is reached only through the
module objects handed in by `load_hz`, looked up at call time, so the
traced run sees its wrappers.

Every workload is a sequence of rounds.  A round is a balanced set of
items (every stratum of input size once), so a run that stops at a round
boundary does the same mix of work whatever the seed draws inside the
strata.
"""

import contextlib
import functools
import io
import json
import math
import os
import random
import time
from fractions import Fraction

# ---------------------------------------------------------------------------
# plain-integer helpers shared by generation and checks


def primes_below(n):
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def divisor_sum(n, power):
    return sum(e ** power for e in range(1, n + 1) if n % e == 0)


def frac_str(q):
    return "%d/%d" % (q.numerator, q.denominator)


@functools.lru_cache(maxsize=None)
def hilbert_keys(d, T):
    """Totally positive elements of the inverse different of Q(sqrt d)
    (d squarefree) with trace 1..T, as (x, y) coordinates in the basis
    (1, omega), omega = (1 + sqrt d)/2 for d = 1 mod 4 and sqrt d otherwise.
    Each is t/2 + (u / 2d) sqrt d with trace t and u^2 < d t^2, and
    u = t mod 2 when d = 1 mod 4."""
    keys = []
    for t in range(1, T + 1):
        lim = math.isqrt(d * t * t)
        for u in range(-lim, lim + 1):
            if u * u == d * t * t:
                continue
            if d % 4 != 1:
                keys.append((Fraction(t, 2), Fraction(u, 2 * d)))
            elif (u - t) % 2 == 0:
                keys.append((Fraction(t, 2) - Fraction(u, 2 * d),
                             Fraction(u, d)))
    return tuple(keys)


def sqrt_mod_prime_power(a, p, m):
    """The smaller of the two square roots of a modulo p^m (odd p, a a
    nonzero square mod p), found by search mod p and Newton lifting."""
    r = next(x for x in range(1, p) if (x * x - a) % p == 0)
    mod = p
    for _ in range(m - 1):
        mod *= p
        r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
    return min(r, mod - r)


# ---------------------------------------------------------------------------
# the hz entry points


def load_hz():
    """Import the toolkit (hz.cli imports every layer); returns the
    package, whose submodules the workloads call into."""
    import hz.cli
    import hz.hecke
    import hz.qexp
    import hz.realquad
    return hz


def run_cli(hz, argv):
    """One command through hz.cli.main with its stdout and stderr captured;
    returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hz.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class CheckFailed(Exception):
    """An item's output disagrees with the benchmark's oracle."""


def expect(condition, what):
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# sieve: seeded prime windows over [3, 20003)

DESK_QUINTIC = (1, 0, 0, 0, -1, -1)
CURVE_11A1 = (0, -1, 1, -10, -20)
FIELD_D = 2869
# primes dividing the conductor 11 times the quintic discriminant 2869
EXCLUDED_PRODUCT = 11 * 2869
# the admissible primes below 10^4 of the desk instance (first 853)
ADMISSIBLE_BELOW_1E4 = (853, 1201, 1453, 1613, 2213, 2437, 2857, 3541, 3709,
                        4253, 4349, 4621, 6277, 6389, 6661, 7369, 7853,
                        8293, 8669)
SIEVE_LO, SIEVE_HI = 3, 20003
SIEVE_STRATA = 8
SIEVE_WIDTH = 250
_PRIMES = primes_below(SIEVE_HI + 1)


def naive_ap(p):
    """a_p = p + 1 - #E(F_p) of 11a1 for odd p, counting y-solutions per x
    with Euler's criterion on the discriminant of the quadratic in y."""
    a1, a2, a3, a4, a6 = CURVE_11A1
    points = 1
    half = (p - 1) // 2
    for x in range(p):
        rhs = x * x * x + a2 * x * x + a4 * x + a6
        disc = ((a1 * x + a3) ** 2 + 4 * rhs) % p
        if disc == 0:
            points += 1
        elif pow(disc, half, p) == 1:
            points += 2
    return p + 1 - points


class Sieve:
    name = "sieve"
    unit = "primes checked"
    trace_rounds = 2
    repeatable = True

    def rounds(self, seed):
        """One window of SIEVE_WIDTH per stratum of [3, 20003), shuffled."""
        rng = random.Random("sieve-%d" % seed)
        stratum = (SIEVE_HI - SIEVE_LO) // SIEVE_STRATA
        while True:
            windows = []
            for j in range(SIEVE_STRATA):
                lo = SIEVE_LO + j * stratum
                a = rng.randrange(lo, lo + stratum - SIEVE_WIDTH + 1)
                windows.append((a, a + SIEVE_WIDTH))
            rng.shuffle(windows)
            yield windows

    def prepare(self, item, workdir):
        a, b = item
        argv = ["sieve", "--pmin", str(a), "--pmax", str(b), "--verify"]
        return argv, [p for p in _PRIMES if a <= p < b]

    def run(self, hz, ctx, argv):
        return run_cli(hz, argv)

    def check(self, hz, item, primes, output):
        """Returns the primes checked; raises CheckFailed on a mismatch."""
        import sympy

        a, b = item
        rc, stdout, stderr = output
        summary = [line for line in stderr.splitlines()
                   if line.startswith("checked=")]
        expect(len(summary) == 1, "no funnel summary on stderr")
        counts = dict(f.split("=") for f in summary[0].split())
        checked, excluded = int(counts["checked"]), int(counts["excluded"])
        records = [json.loads(line) for line in stdout.splitlines() if line]
        expect(checked + excluded == len(primes), "funnel misses primes")
        expect(excluded == sum(EXCLUDED_PRODUCT % p == 0 for p in primes),
               "excluded count")
        expect(int(counts["admissible"]) == len(records), "admissible count")
        expect(rc == (0 if records else 3), "exit code %r" % rc)
        found = [r["p"] for r in records]
        expect(found == sorted(found) and set(found) <= set(primes),
               "admissible primes outside the window")
        if primes and primes[-1] < 10 ** 4:
            expect(found == [p for p in ADMISSIBLE_BELOW_1E4 if a <= p < b],
                   "admissible primes below 10^4 differ")
        x = sympy.Symbol("x")
        for r in records:
            p, w = r["p"], r["witnesses"]
            ap = naive_ap(p)
            expect(r["admissible"] and w["a_p"] == ap and ap % p,
                   "a_p at %d" % p)
            expect(w["cycle_type"] == [5] and sympy.Poly(
                list(DESK_QUINTIC), x, modulus=p).is_irreducible,
                "quintic not irreducible at %d" % p)
            expect(w["unit_order"] % 2 == 1, "unit order at %d" % p)
            for gx, gy in w["generators"]:
                gx, gy = Fraction(gx), Fraction(gy)
                norm = gx * gx + gx * gy + gy * gy * Fraction(1 - FIELD_D, 4)
                expect(norm == p and 2 * gx + gy > 0,
                       "generator at %d" % p)
        return checked


# ---------------------------------------------------------------------------
# hilbert: random expansions over Q(sqrt 5) at p = 11, m = 5

HILBERT_D, HILBERT_P, HILBERT_M = 5, 11, 5
HILBERT_RING = ("padic", HILBERT_P, HILBERT_M)
# two of the three items per round at the larger bound, so the median
# item is a T = 60 pair
HILBERT_BOUNDS = (30, 60, 60)


def hilbert_json(d, T, ring, values):
    """An expansion in the hz JSON format with the given coefficients on
    the domain of Q(sqrt d) up to trace T (in `hilbert_keys` order)."""
    return {
        "type": "hilbert", "d": d, "h_plus": 1, "weights": [2, 0],
        "trace_bound": T, "ring": list(ring), "a0": [0, 0],
        "entries": [[[frac_str(x), frac_str(y)], [v, 0]]
                    for (x, y), v in zip(hilbert_keys(d, T), values)],
    }


class Hilbert:
    name = "hilbert"
    unit = "expansion pairs"
    trace_rounds = 3
    repeatable = True  # the domains are warm from set-up either way

    def setup(self, hz):
        """The field, the prime above 11, and the domain cache for both
        trace bounds, warmed through from_json.  Returns the context and
        the seconds spent generating the warm-up inputs."""
        F = hz.realquad.make_field(HILBERT_D)
        prime = hz.realquad.split_prime(F, HILBERT_P, HILBERT_M)
        generating = 0.0
        for T in sorted(set(HILBERT_BOUNDS)):
            t0 = time.perf_counter()
            zero = hilbert_json(HILBERT_D, T, HILBERT_RING,
                                [0] * len(hilbert_keys(HILBERT_D, T)))
            generating += time.perf_counter() - t0
            hz.qexp.from_json(zero, F)
        return {"F": F, "prime": prime}, generating

    def rounds(self, seed):
        rng = random.Random("hilbert-%d" % seed)
        while True:
            bounds = list(HILBERT_BOUNDS)
            rng.shuffle(bounds)
            yield [(T, rng.randrange(2 ** 32)) for T in bounds]

    def prepare(self, item, workdir):
        T, sub = item
        rng = random.Random(sub)
        pm = HILBERT_P ** HILBERT_M
        values = [rng.randrange(pm) for _ in hilbert_keys(HILBERT_D, T)]
        return hilbert_json(HILBERT_D, T, HILBERT_RING, values), T

    def run(self, hz, ctx, obj):
        """The criterion-03 chain on one loaded expansion."""
        q = hz.qexp
        prime = ctx["prime"]
        g1 = q.hilbert_deplete(q.from_json(obj, ctx["F"]), prime, 1)
        g2 = q.conjugate_ratio_partner(g1, prime)
        cross = q.theta_d(g2, 1, prime) - q.theta_d(g1, 2, prime)
        combo = q.diagonal_restrict(g1 + g2)
        return cross, hz.hecke.ordinary_projection_of_derivative(combo)

    def check(self, hz, item, T, output):
        cross, projected = (hz.qexp.to_json(e) for e in output)
        expect(cross["a0"][0] == 0
               and all(v[0] == 0 for _, v in cross["entries"]),
               "cross difference is not zero")
        expect(len(cross["entries"]) == len(hilbert_keys(HILBERT_D, T)),
               "cross difference lost coefficients")
        expect(projected["bound"] == T
               and all(v[0] == 0 for v in projected["coeffs"]),
               "ordinary projection is not zero")
        return 1


# ---------------------------------------------------------------------------
# pipeline: cold diag-restrict builds interleaved with lvalue instances

LV_P, LV_M, LV_BOUND, LV_D = 7, 4, 30, 2
# (d, k, lowest trace bound); each slot draws T in [lo, lo + DIAG_WIDTH), so
# no (d, T) pair repeats within a run and d = 2 never meets the lvalue T = 30
DIAG_SLOTS = ((5, 2, 20), (2, 4, 31), (13, 2, 40), (3, 4, 40))
DIAG_WIDTH = 10


def formal_ap(rng, a2, a7, upto=100):
    """A formal weight-2 level-1 eigenvalue table on the primes below
    `upto`, with a_2 and a_7 fixed."""
    ap = {ell: rng.randrange(-5, 6) for ell in primes_below(upto)}
    ap[2], ap[LV_P] = a2, a7
    return ap


def coefficients(ap, bound):
    """[a_0, ..., a_bound] of the normalized weight-2 trivial-character
    expansion: a_{l^(r+1)} = a_l a_{l^r} - l a_{l^(r-1)}, multiplicative."""
    a = [0, 1] + [None] * (bound - 1)
    for n in range(2, bound + 1):
        q = next(ell for ell in range(2, n + 1) if n % ell == 0)
        qe = q
        while n % (qe * q) == 0:
            qe *= q
        if qe != n:
            a[n] = a[qe] * a[n // qe]
        elif qe == q:
            a[n] = ap[q]
        else:
            a[n] = ap[q] * a[n // q] - q * a[n // (q * q)]
    return a


def lvalue_instance(rng):
    """An lvalue input built as the pipeline test fixtures build theirs,
    in plain integers modulo 7^4, and the residue the pipeline must return:
    c / (1 - beta/alpha) for the target's stabilization roots."""
    p, pm = LV_P, LV_P ** LV_M
    a2_target = rng.randrange(-3, 4)
    a2_other = rng.choice([a for a in range(-3, 4) if (a - a2_target) % p])
    a7 = [rng.choice([a for a in range(-5, 6) if a % p]) for _ in range(2)]
    target = formal_ap(rng, a2_target, a7[0])
    other = formal_ap(rng, a2_other, a7[1])
    c = rng.choice([u for u in range(1, pm) if u % p])
    # alpha: the unit root of X^2 - a_7 X + 7, Newton-lifted from a_7 mod 7
    alpha, mod = a7[0] % p, p
    for _ in range(LV_M - 1):
        mod *= p
        f = alpha * alpha - a7[0] * alpha + p
        alpha = (alpha - f * pow(2 * alpha - a7[0], -1, mod)) % mod
    beta = (a7[0] - alpha) % pm
    value = c * alpha * pow(alpha - beta, -1, pm) % pm

    ft, fo = coefficients(target, LV_BOUND), coefficients(other, LV_BOUND)
    r1 = sqrt_mod_prime_power(LV_D, p, LV_M)  # omega = sqrt 2 at prime 1
    r2 = pm - r1

    def residue(key, r):
        x, y = key
        return (x.numerator * pow(x.denominator, -1, pm)
                + y.numerator * pow(y.denominator, -1, pm) * r) % pm

    keys = hilbert_keys(LV_D, LV_BOUND)
    by_trace = {}
    for key in keys:
        if residue(key, r1) % p and residue(key, r2) % p:
            by_trace.setdefault(int(2 * key[0]), []).append(key)
    values = dict.fromkeys(keys, 0)
    for n in range(1, LV_BOUND + 1):
        if n % p:
            key = rng.choice(by_trace[n])
            teich = pow(n, p ** (LV_M - 1), pm)
            h = c * ft[n] + fo[n]
            values[key] = h * pow(teich, -1, pm) * residue(key, r1) % pm

    def system(label, ap):
        return {"label": label, "weight": 2, "level": 1, "field": "elliptic",
                "character": None,
                "ap_table": sorted([ell, str(a)] for ell, a in ap.items())}

    record = {
        "p": p, "m": LV_M, "bound": LV_BOUND, "d": LV_D, "h_plus": 1,
        "hilbert": hilbert_json(LV_D, LV_BOUND, ("padic", p, LV_M),
                                [values[k] for k in keys]),
        "target": system("target", target),
        "others": [system("other", other)],
        "annihilation": [[2, str(a2_other)]],
    }
    return record, value


class Pipeline:
    name = "pipeline"
    unit = "commands"
    trace_rounds = 1
    repeatable = False  # a repeated (d, T) would find its domain cached

    def rounds(self, seed):
        """Each round is two halves with antithetic trace bounds per slot,
        lo + delta and lo + 9 - delta, so every round costs about the same.
        Each half interleaves the four diag-restrict slots with five lvalue
        instances: lvalue latencies form one tight cluster, and holding
        more than half the items it keeps the median item inside it.
        Deltas never repeat, which caps a run at five rounds."""
        rng = random.Random("pipeline-%d" % seed)
        rounds = DIAG_WIDTH // 2
        deltas = [rng.sample(range(rounds), rounds) for _ in DIAG_SLOTS]
        for r in range(rounds):
            items = []
            for half in (0, 1):
                diag = []
                for (d, k, lo), slot in zip(DIAG_SLOTS, deltas):
                    delta = slot[r] if half == 0 else DIAG_WIDTH - 1 - slot[r]
                    diag.append(("diag", d, k, lo + delta))
                rng.shuffle(diag)
                for slot in diag:
                    items += [("lvalue", rng.randrange(2 ** 32)), slot]
                items.append(("lvalue", rng.randrange(2 ** 32)))
            yield items

    def prepare(self, item, workdir):
        if item[0] == "diag":
            _, d, k, T = item
            argv = ["diag-restrict", "--d", str(d), "--eisenstein", str(k),
                    "--trace-bound", str(T), "--verify"]
            return argv, None
        record, value = lvalue_instance(random.Random(item[1]))
        path = os.path.join(workdir, "lvalue-%d.json" % item[1])
        with open(path, "w") as fh:
            json.dump(record, fh)
        return ["lvalue", "--input", path, "--verify"], value

    def run(self, hz, ctx, argv):
        return run_cli(hz, argv)

    def check(self, hz, item, value, output):
        rc, stdout, _ = output
        expect(rc == 0, "exit code %r" % rc)
        record = json.loads(stdout)
        if item[0] == "diag":
            _, d, k, T = item
            expect((record["d"], record["weight"], record["bound"])
                   == (d, 2 * k, T), "restriction header")
            coeffs = {int(n): Fraction(v)
                      for n, v in record["coefficients"].items()}
            b1 = coeffs[1]
            expect(b1 != 0 and all(
                coeffs[n] == b1 * divisor_sum(n, 2 * k - 1)
                for n in range(1, T + 1)),
                "restriction not proportional to sigma_%d" % (2 * k - 1))
        else:
            unit, val = record["value"]
            expect(val >= 0 and unit * LV_P ** val % LV_P ** LV_M == value,
                   "lvalue differs from c / (1 - beta/alpha)")
        return 1


# ---------------------------------------------------------------------------
# asai: the induced-representation check at seeded primes

ASAI_PRIMES = [p for p in primes_below(3000) if p > 2 and EXCLUDED_PRODUCT % p]


class Asai:
    name = "asai"
    unit = "commands"
    trace_rounds = 2
    repeatable = True

    def rounds(self, seed):
        rng = random.Random("asai-%d" % seed)
        for p in rng.sample(ASAI_PRIMES, len(ASAI_PRIMES)):
            yield [p]

    def prepare(self, item, workdir):
        return ["asai", "--p", str(item), "--verify"], None

    def run(self, hz, ctx, argv):
        return run_cli(hz, argv)

    def check(self, hz, item, _, output):
        import sympy

        rc, stdout, _ = output
        expect(rc == 0, "exit code %r" % rc)
        record = json.loads(stdout)
        factors = sympy.Poly(list(DESK_QUINTIC), sympy.Symbol("x"),
                             modulus=item).factor_list()[1]
        degrees = sorted((f.degree() for f, e in factors for _ in range(e)),
                         reverse=True)
        expect(record["p"] == item and record["cycle_type"] == degrees,
               "cycle type at %d" % item)
        return 1


WORKLOADS = {w.name: w for w in (Sieve(), Hilbert(), Pipeline(), Asai())}


def setup(hz, workload):
    """The workload's one-time objects; returns the context and the
    seconds of input generation inside set-up."""
    if hasattr(workload, "setup"):
        return workload.setup(hz)
    return {}, 0.0
