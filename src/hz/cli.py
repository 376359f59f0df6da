"""Command-line front end: admissible-prime sieve, Eisenstein diagonal
restriction, the weight-2 p-adic L-value pipeline, Euler-factor reports,
quintic Frobenius analysis, Hodge-Tate tables, and q-expansion operators.

Machine output is JSON (sorted keys, no timestamps) so runs with identical
inputs are byte-identical; --format table renders the same data as aligned
plain text (qexp-op prints JSON only).  Every subcommand accepts --verify to
run its independent cross-checks; a failed check prints nothing on stdout
and exits 1 with one "error:" line on stderr.  qexp-op has checks for --op
u, deplete and derive, and refuses --verify with the others.

Exit codes: 0 success, 1 input or verification error, 3 for a sieve run
that finds no admissible prime.
"""

import argparse
import functools
import json
import os
import sys

from . import qexp
from .asai import (
    AsaiError,
    asai_frobenius_eigenvalues,
    frobenius_class_quintic,
    ht_weight_table,
    quintic_discriminant,
    s5_double_cover_rep,
    tensor_induce,
)
from .hecke import (
    HeckeError,
    HeckeSpace,
    eigensystem_from_json,
    euler_report,
    expansion_from_eigensystem,
    lvalue_weight2,
    read_rational,
    stabilize,
    stabilized_expansion,
)
from .padic import PadicError, PadicNumber, divisor_sigma, isprime
from .qexp import (
    EllipticQExp,
    QExpError,
    deplete,
    diagonal_restrict,
    eisenstein_hilbert,
    eisenstein_normalization_constant,
    elliptic_twist,
    from_json,
    hecke_T,
    q_derivative,
    required_key,
    to_json,
    u_operator,
    v_operator,
)
from .realquad import RealQuadError, make_field, split_prime
from .sieve import (
    CURVE_11A1,
    DESK_FIELD_D,
    DESK_QUINTIC,
    EllipticCurveData,
    SieveError,
    find_admissible,
    result_to_dict,
    reverify,
    write_csv,
    write_jsonl,
)

CURVES = {
    "11a": CURVE_11A1,
    "37a": EllipticCurveData(0, 0, 1, -1, 0, conductor=37),
}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY = 3


class CliError(Exception):
    pass


def _int_list(text):
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise CliError("expected a comma-separated integer list, got %r"
                       % text)


def _prime(n, flag):
    if not isprime(n):
        raise CliError("%s must be a prime, got %d" % (flag, n))
    return n


def _load_json(path):
    if not os.path.exists(path):
        raise CliError("input file does not exist: %s" % path)
    if not os.path.isfile(path):
        raise CliError("input is not a regular file: %s" % path)
    with open(path) as fh:
        return json.load(fh)


def _emit(record, fmt):
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
    else:
        _print_table(record)


def _print_table(record, indent=""):
    for key in sorted(record):
        value = record[key]
        if isinstance(value, dict):
            print("%s%s:" % (indent, key))
            _print_table(value, indent + "  ")
        else:
            print("%s%-24s %s" % (indent, key, value))


def _padic_json(v: PadicNumber):
    return [v.unit, v.val]


# ---------------------------------------------------------------------------
# sieve


def _resolve_curve(args):
    if args.weierstrass:
        if args.conductor is None:
            raise CliError("--weierstrass requires --conductor")
        a = _int_list(args.weierstrass)
        if len(a) != 5:
            raise CliError("--weierstrass needs 5 coefficients")
        return EllipticCurveData(*a, conductor=args.conductor)
    label = args.curve
    if label not in CURVES:
        raise CliError("unknown curve label %r (known: %s)"
                       % (label, ", ".join(sorted(CURVES))))
    return CURVES[label]


def cmd_sieve(args):
    quintic = _int_list(args.quintic)
    E = _resolve_curve(args)
    F = make_field(args.d)
    run = find_admissible(F, quintic, E, args.pmin, args.pmax)
    if args.verify:
        for result in run.admissible:
            if not reverify(F, quintic, E, result):
                raise CliError("verification failed at p = %d" % result.p)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            write_csv(run.admissible, fh)
    if args.format == "json":
        write_jsonl(run.admissible, sys.stdout)
    else:
        for result in run.admissible:
            _print_table(result_to_dict(result))
            print()
    print("checked=%d excluded=%d admissible=%d"
          % (run.checked, run.excluded, len(run.admissible)),
          file=sys.stderr)
    return EXIT_OK if run.admissible else EXIT_EMPTY


# ---------------------------------------------------------------------------
# Eisenstein diagonal restriction


def cmd_diag_restrict(args):
    F = make_field(args.d)
    g = eisenstein_hilbert(F, args.eisenstein, args.trace_bound)
    r = diagonal_restrict(g)
    record = {
        "d": args.d,
        "weight": r.weight,
        "bound": r.bound,
        "coefficients": {str(n): str(r[n]) for n in range(r.bound + 1)},
        "normalization_constant":
            str(eisenstein_normalization_constant(F)),
    }
    if args.verify:
        k2 = 2 * args.eisenstein - 1
        b1 = r[1]
        for n in range(1, r.bound + 1):
            if r[n] != b1 * divisor_sigma(n, k2):
                raise CliError("restriction is not proportional to the "
                               "divisor sum at n = %d" % n)
    _emit(record, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# weight-2 L-value pipeline


def _required(record, key):
    """record[key]; CliError when the record has no such key."""
    return required_key(record, key, CliError)


def _space_from_record(record, p, m, bound, ring):
    others = _required(record, "others")
    if type(others) is not list:
        raise CliError("others must be a list of eigensystem records, got %r" % (others,))
    target = eigensystem_from_json(_required(record, "target"))
    systems = [target] + [eigensystem_from_json(o) for o in others]
    roots = [stabilize(system, p, m) for system in systems]
    basis = [stabilized_expansion(expansion_from_eigensystem(system, bound, ring),
                                  beta, p)
             for system, (_, beta) in zip(systems, roots)]
    return HeckeSpace(basis), target, roots[0]


def _int_field(record, key, default=None):
    """record[key], or the default when the key is absent; CliError unless
    it is an int."""
    value = _required(record, key) if default is None else record.get(key, default)
    if type(value) is not int:
        raise CliError("%s must be an integer, got %r" % (key, value))
    return value


def _annihilation(record):
    """The (ell, a_ell) pairs of record["annihilation"]: ell an int prime,
    a_ell read by `read_rational`."""
    pairs = _required(record, "annihilation")
    if type(pairs) is not list or not all(
            type(pair) is list and len(pair) == 2 for pair in pairs):
        raise CliError("annihilation must be a list of [ell, a_ell] pairs, "
                       "got %r" % (pairs,))
    for ell, a in pairs:
        if type(ell) is not int:
            raise CliError("an annihilation ell must be an integer, got %r"
                           % (ell,))
        _prime(ell, "an annihilation ell")
    return [(ell, read_rational(a, "an annihilation eigenvalue")) for ell, a in pairs]


def cmd_lvalue(args):
    record = _load_json(args.input)
    if not isinstance(record, dict):
        raise CliError("the lvalue input must be a JSON object")
    p = _int_field(record, "p")
    m = _int_field(record, "m", 4)
    bound = _int_field(record, "bound")
    ring = qexp.padic_ring(p, m)
    F = make_field(_int_field(record, "d"))
    prime = split_prime(F, p, m)
    g = from_json(_required(record, "hilbert"), F)
    space, target, roots = _space_from_record(record, p, m, bound, ring)
    annihilation = _annihilation(record)
    value = lvalue_weight2(g, prime, target, roots, space, annihilation,
                           verify=args.verify)
    _emit({"p": p, "m": m, "value": _padic_json(value)}, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Euler-factor report


def cmd_euler(args):
    _prime(args.p, "-p")
    alphas = _int_list(args.alphas)
    froots = _int_list(args.froots)
    if len(alphas) != 4 or len(froots) != 2:
        raise CliError("--alphas needs 4 entries and --froots needs 2")
    report = euler_report(alphas, froots, args.ell, args.alpha_exp,
                          args.p, args.m)
    if args.verify:
        refined = euler_report(alphas, froots, args.ell, args.alpha_exp,
                               args.p, args.m + 2)
        if refined.valuations() != report.valuations():
            raise CliError("valuations unstable under precision refinement")
    record = {
        "p": args.p,
        "m": args.m,
        "ordinary_factor": _padic_json(report.ordinary_factor),
        "special_factor": _padic_json(report.special_factor),
        "depth_one_factor": _padic_json(report.depth_one_factor),
        "interpolation_at_point": {
            "value": _padic_json(report.interpolation_at_point[0]),
            "gauss_token_exponent": report.interpolation_at_point[1],
        },
        "interpolation_at_base": _padic_json(report.interpolation_at_base),
        "twisted_unit_root": _padic_json(report.twisted_unit_root),
        "localization_factor": {
            "value": _padic_json(report.localization_factor[0]),
            "note": report.localization_factor[1]["verdict"],
        },
        "comparison_factor": {
            "value": _padic_json(report.comparison_factor[0]),
            "note": report.comparison_factor[1]["verdict"],
        },
        "valuations": report.valuations(),
        "nonzero": report.nonzero,
    }
    _emit(record, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# quintic Frobenius analysis


def cmd_asai(args):
    quintic = _int_list(args.quintic)
    frob = frobenius_class_quintic(quintic, _prime(args.p, "--p"))
    eigen = asai_frobenius_eigenvalues(frob)
    record = {
        "p": args.p,
        "quintic": quintic,
        "discriminant": quintic_discriminant(quintic),
        "cycle_type": list(frob.cycle_type),
        "eigenvalue_labels": [list(l) for l in eigen.labels],
        "trace": eigen.trace(),
        "distinct_mod_p": eigen.distinct_mod(args.p),
    }
    if args.verify:
        cover = s5_double_cover_rep()
        induced = tensor_induce(cover, generators=cover.generating_set(
            cover.subgroup_elements()))
        induced.verify_homomorphism(cover.generating_set(cover.elements))
    _emit(record, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Hodge-Tate tables


def cmd_ht_table(args):
    table = ht_weight_table(args.weight)
    record = {
        "weight": args.weight,
        "three_step": [list(piece) for piece in table["three_step"]],
        "four_step": [list(piece) for piece in table["four_step"]],
        "fil2_strictly_negative": table["fil2_strictly_negative"],
    }
    if args.verify:
        weights = [w for piece in table["four_step"] for w in piece]
        if sorted(weights) != sorted(-1 - w for w in weights):
            raise CliError("four-step weights are not self-dual")
        if sum(weights) != -4:
            raise CliError("four-step weight sum is off")
    _emit(record, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# stored-expansion operators


def cmd_qexp_op(args):
    if args.verify and args.op in ("v", "twist", "hecke"):
        raise CliError("--verify has no check for --op %s" % args.op)
    record = _load_json(args.input)
    f = from_json(record)
    if not isinstance(f, EllipticQExp):
        raise CliError("qexp-op needs an elliptic expansion, not a %s one"
                       % record["type"])
    p = args.p
    if args.op in ("u", "v", "deplete"):
        if p is None:
            raise CliError("--op %s requires -p" % args.op)
        _prime(p, "-p")
    if args.op == "u":
        out = u_operator(f, p)
        if args.verify and not (u_operator(v_operator(f, p), p)
                                .eq_at_precision(f)):
            raise CliError("U after V is not the identity")
    elif args.op == "v":
        out = v_operator(f, p)
    elif args.op == "deplete":
        out = deplete(f, p)
        if args.verify and not deplete(out, p).eq_at_precision(out):
            raise CliError("depletion is not idempotent")
    elif args.op == "twist":
        out = elliptic_twist(f, j=args.j, p=p)
    elif args.op == "derive":
        out = q_derivative(f)
        if args.verify:
            for n in range(out.bound + 1):
                if out[n] != f[n] * n:
                    raise CliError("derivative mismatch at n = %d" % n)
    elif args.op == "hecke":
        if args.ell is None:
            raise CliError("--op hecke requires --ell")
        out = hecke_T(f, _prime(args.ell, "--ell"))
    else:
        raise CliError("unknown operator %r" % args.op)
    print(json.dumps(to_json(out), sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser():
    """The `hz` parser, built on the first call and shared by later ones
    (`parse_args` keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="hz",
        description="exact arithmetic toolkit: sieve, q-expansions, "
                    "ordinary projections, induced representations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "table"),
                       default="json")
        p.add_argument("--verify", action="store_true",
                       help="run the subcommand's cross-checks")

    desk_quintic = ",".join(map(str, DESK_QUINTIC))
    p = sub.add_parser("sieve", help="search for admissible primes")
    p.add_argument("--d", type=int, default=DESK_FIELD_D)
    p.add_argument("--quintic", default=desk_quintic)
    p.add_argument("--curve", default="11a")
    p.add_argument("--weierstrass", default=None,
                   help="a1,a2,a3,a4,a6 (needs --conductor)")
    p.add_argument("--conductor", type=int, default=None)
    p.add_argument("--pmin", type=int, default=3)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--csv", default=None, help="also write a CSV summary")
    add_common(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("diag-restrict",
                       help="restrict an Eisenstein series to the diagonal")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--eisenstein", type=int, required=True,
                   help="parallel weight (2 or 4)")
    p.add_argument("--trace-bound", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_diag_restrict)

    p = sub.add_parser("lvalue",
                       help="run the weight-2 p-adic L-value pipeline")
    p.add_argument("--input", required=True,
                   help="JSON file with field, prime, expansion, and "
                        "eigensystem data")
    add_common(p)
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("euler", help="Euler-factor and interpolation report")
    p.add_argument("--alphas", required=True,
                   help="the four stabilization roots a1,b1,a2,b2")
    p.add_argument("--froots", required=True,
                   help="the two roots alpha,beta of the Hecke quadratic")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--alpha-exp", type=int, default=1)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-m", type=int, default=4)
    add_common(p)
    p.set_defaults(func=cmd_euler)

    p = sub.add_parser("asai", help="quintic Frobenius class and induced "
                                    "eigenvalues")
    p.add_argument("--quintic", default=desk_quintic)
    p.add_argument("--p", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_asai)

    p = sub.add_parser("ht-table", help="graded Hodge-Tate weight tables")
    p.add_argument("--weight", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_ht_table)

    p = sub.add_parser("qexp-op",
                       help="apply an operator to a stored expansion")
    p.add_argument("--input", required=True)
    p.add_argument("--op", required=True,
                   choices=("u", "v", "deplete", "twist", "derive", "hecke"))
    p.add_argument("-p", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="run the operator's cross-check (u, deplete, derive)")
    p.set_defaults(func=cmd_qexp_op)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, AsaiError, QExpError, RealQuadError, PadicError,
            SieveError, HeckeError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
