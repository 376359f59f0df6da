"""End-to-end tests of the command-line interface."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pipeline_fixtures as fx
from hz import cli, hecke
from hz.cli import EXIT_EMPTY, EXIT_ERROR, EXIT_OK, main
from hz.hecke import eigensystem_to_json
from hz.padic import PadicNumber
from hz.qexp import (RATIONAL, EllipticQExp, eisenstein_hilbert, padic_ring,
                     q_derivative, to_json)
from hz.realquad import make_field
from fractions import Fraction


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestHtTable:
    def test_weight_two(self, capsys):
        code, out, _ = run(capsys, ["ht-table", "--weight", "2", "--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["three_step"] == [[0], [-1, -1], [-2]]
        assert record["four_step"] == [[1], [0, 0, 0], [-1, -1, -1], [-2]]
        assert record["fil2_strictly_negative"]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, ["ht-table", "--weight", "4",
                                    "--format", "table"])
        assert code == EXIT_OK
        assert "three_step" in out and "[2, 0, 0]" in out

    def test_bad_weight(self, capsys):
        code, _, err = run(capsys, ["ht-table", "--weight", "0"])
        assert code == EXIT_ERROR
        assert "error:" in err


class TestAsai:
    def test_cycle_type(self, capsys):
        code, out, _ = run(capsys, ["asai", "--p", "2"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["cycle_type"] == [3, 2]
        assert record["trace"] == -1
        assert not record["distinct_mod_p"]

    def test_five_cycle(self, capsys):
        code, out, _ = run(capsys, ["asai", "--p", "7"])
        record = json.loads(out)
        if record["cycle_type"] == [5]:
            assert record["distinct_mod_p"]

    def test_ramified_prime(self, capsys):
        code, _, err = run(capsys, ["asai", "--p", "19"])
        assert code == EXIT_ERROR
        assert "discriminant" in err

    def test_verify_leaves_stdout_unchanged(self, capsys):
        plain = run(capsys, ["asai", "--p", "7"])
        verified = run(capsys, ["asai", "--p", "7", "--verify"])
        assert verified[0] == plain[0] == EXIT_OK
        assert verified[1] == plain[1]


class TestDiagRestrict:
    def test_weight_two_restriction(self, capsys):
        code, out, _ = run(capsys, ["diag-restrict", "--d", "5",
                                    "--eisenstein", "2",
                                    "--trace-bound", "20", "--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["normalization_constant"] == "4"
        coeffs = record["coefficients"]
        assert Fraction(coeffs["2"]) == 9 * Fraction(coeffs["1"])

    def test_odd_weight_rejected(self, capsys):
        code, _, err = run(capsys, ["diag-restrict", "--d", "5",
                                    "--eisenstein", "3",
                                    "--trace-bound", "10"])
        assert code == EXIT_ERROR

    def test_narrow_class_number_five(self, capsys):
        """Q(sqrt 401) has h+ = 5; the series needs no class number."""
        code, out, _ = run(capsys, ["diag-restrict", "--d", "401",
                                    "--eisenstein", "2",
                                    "--trace-bound", "5", "--verify"])
        assert code == EXIT_OK
        assert json.loads(out)["normalization_constant"] == "4"


@pytest.mark.parametrize("argv, flag", [
    (["sieve", "--pmax", "10"], "--h-plus"),
    (["diag-restrict", "--d", "5", "--eisenstein", "2", "--trace-bound", "5"],
     "--h-plus"),
    (["sieve", "--pmax", "1000"], "--height-bound"),
], ids=["sieve-h-plus", "diag-restrict-h-plus", "sieve-height-bound"])
def test_retired_flag_is_refused(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


def _doubled(fn):
    def mutant(*args):
        out = fn(*args)
        return out + out
    return mutant


def _four_step(pieces):
    """An `ht_weight_table` whose four-step weights at ell are `pieces(ell)`."""
    return lambda fn: lambda ell: dict(fn(ell), four_step=pieces(ell))


QEXP_OP = ["qexp-op", "--input", "{input}", "--op"]


# one mutant per `--verify` failure branch: (patched name, mutant from the
# original, argv, the message of the failed check)
@pytest.mark.parametrize("target, mutate, argv, message", [
    pytest.param("hz.sieve._ap_exhaustive", _plus_one,
                 ["sieve", "--pmin", "850", "--pmax", "860"],
                 "verification failed at p = 853", id="sieve"),
    pytest.param("hz.cli.diagonal_restrict",
                 lambda fn: lambda g: q_derivative(fn(g)),
                 ["diag-restrict", "--d", "5", "--eisenstein", "2",
                  "--trace-bound", "6"],
                 "restriction is not proportional to the divisor sum at n = 2",
                 id="diag-restrict"),
    # a Hecke root off by 7^5 is right at m = 4 and shows at m + 2
    pytest.param("hz.cli.euler_report",
                 lambda fn: lambda alphas, froots, *rest: fn(
                     alphas, [froots[0], froots[1] + 7 ** 5], *rest),
                 ["euler", "--alphas", "2,3,4,5", "--froots", "2,2", "-p", "7"],
                 "valuations unstable under precision refinement", id="euler"),
    pytest.param("hz.cli.ht_weight_table",
                 _four_step(lambda ell: ((ell,), (ell - 2, 0, 0),
                                         (-1, -1, 1 - ell), (-ell,))),
                 ["ht-table", "--weight", "2"],
                 "four-step weights are not self-dual", id="ht-table-dual"),
    pytest.param("hz.cli.ht_weight_table",
                 _four_step(lambda ell: ((ell - 1,), (ell - 2, 0),
                                         (-1, 1 - ell), (-ell,))),
                 ["ht-table", "--weight", "2"],
                 "four-step weight sum is off", id="ht-table-sum"),
    pytest.param("hz.cli.u_operator", _doubled, QEXP_OP + ["u", "-p", "2"],
                 "U after V is not the identity", id="qexp-op-u"),
    pytest.param("hz.cli.deplete", _doubled, QEXP_OP + ["deplete", "-p", "3"],
                 "depletion is not idempotent", id="qexp-op-deplete"),
    pytest.param("hz.cli.q_derivative", _doubled, QEXP_OP + ["derive"],
                 "derivative mismatch at n = 1", id="qexp-op-derive"),
])
def test_verify_failures_are_errors(capsys, tmp_path, monkeypatch, target,
                                    mutate, argv, message):
    f = EllipticQExp(2, 1, 12, [Fraction(n * n + 1) for n in range(13)], RATIONAL)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(to_json(f)))
    argv = [str(path) if a == "{input}" else a for a in argv] + ["--verify"]
    assert run(capsys, argv)[0] == EXIT_OK
    module, name = target.rsplit(".", 1)
    monkeypatch.setattr(sys.modules[module], name,
                        mutate(getattr(sys.modules[module], name)))
    assert run(capsys, argv) == (EXIT_ERROR, "", "error: %s\n" % message)


class TestEuler:
    ARGS = ["euler", "--alphas", "2,3,4,5", "--froots", "2,21", "-p", "7"]

    def test_valuations(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["valuations"] == {"ordinary_factor": 0,
                                        "special_factor": -4,
                                        "depth_one_factor": -2}
        assert record["interpolation_at_point"]["gauss_token_exponent"] == -1
        assert "not machine-checkable" in record["localization_factor"][
            "note"]

    def test_default_precision(self, capsys):
        for extra, m in (([], 4), (["-m", "6"], 6)):
            code, out, _ = run(capsys, self.ARGS + extra)
            assert code == EXIT_OK
            assert json.loads(out)["m"] == m

    def test_input_shape_checked(self, capsys):
        code, _, err = run(capsys, ["euler", "--alphas", "2,3",
                                    "--froots", "2,21", "-p", "7"])
        assert code == EXIT_ERROR

    def test_zero_root_is_named(self, capsys):
        code, out, err = run(capsys, ["euler", "--alphas", "0,0,0,0",
                                      "--froots", "2,21", "-p", "7", "-m", "4"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: the Euler report divides by a1, which is 0 modulo 7^4\n"


class TestSieve:
    def test_small_run(self, capsys):
        code, out, err = run(capsys, ["sieve", "--pmax", "1000", "--verify"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["p"] == 853 and record["admissible"]
        assert "checked=" in err

    def test_no_admissible_prime(self, capsys):
        code, out, _ = run(capsys, ["sieve", "--pmax", "20"])
        assert code == EXIT_EMPTY
        assert out.strip() == ""

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["sieve", "--pmax", "1200"])
        _, second, _ = run(capsys, ["sieve", "--pmax", "1200"])
        assert first == second

    def test_unknown_curve(self, capsys):
        code, _, err = run(capsys, ["sieve", "--pmax", "100",
                                    "--curve", "997z"])
        assert code == EXIT_ERROR
        assert "997z" in err

    def test_weierstrass_needs_conductor(self, capsys):
        code, _, err = run(capsys, ["sieve", "--pmax", "100",
                                    "--weierstrass", "0,-1,1,-10,-20"])
        assert code == EXIT_ERROR

    def test_csv_summary(self, capsys, tmp_path):
        path = tmp_path / "summary.csv"
        code, _, _ = run(capsys, ["sieve", "--pmax", "1000",
                                  "--csv", str(path)])
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0].startswith("p,")
        assert lines[1].startswith("853,")


def _lvalue_record(c_unit=123, **changes):
    """An `hz lvalue` record whose value is c / (1 - beta/alpha) for the
    7-adic unit c = c_unit, with `changes` applied."""
    c = PadicNumber(fx.P, fx.M, c_unit, 0)
    record = {
        "d": 2, "h_plus": 1, "p": fx.P, "m": fx.M,
        "bound": fx.BOUND,
        "hilbert": to_json(fx.build_hilbert_input(c, fx.build_space())),
        "target": eigensystem_to_json(fx.TARGET_SYS),
        "others": [eigensystem_to_json(fx.OTHER_SYS)],
        "annihilation": [[2, str(fx.OTHER_SYS.ap[2])]],
    }
    record.update(changes)
    return record


class TestLValue:
    def make_input(self, tmp_path, c_unit):
        ctx = fx.build_space()
        path = tmp_path / "input.json"
        path.write_text(json.dumps(_lvalue_record(c_unit)))
        expected = PadicNumber(fx.P, fx.M, c_unit, 0) / (
            PadicNumber.one(fx.P, fx.M) - ctx["betas"][0] / ctx["alphas"][0])
        return str(path), expected

    def test_pipeline_value(self, capsys, tmp_path):
        path, expected = self.make_input(tmp_path, 123)
        code, out, _ = run(capsys, ["lvalue", "--input", path, "--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["value"] == [expected.unit, expected.val]
        # h_plus is ignored, whatever it holds
        ignored = tmp_path / "h_plus.json"
        ignored.write_text(json.dumps(_lvalue_record(h_plus="x")))
        assert run(capsys, ["lvalue", "--input", str(ignored), "--verify"])[:2] == (EXIT_OK, out)

    def test_singular_basis_exits_with_the_stage(self, capsys, tmp_path):
        path, _ = self.make_input(tmp_path, 123)
        with open(path) as fh:
            record = json.load(fh)
        record["others"] = [record["target"]]  # the basis repeats itself
        with open(path, "w") as fh:
            json.dump(record, fh)
        code, out, err = run(capsys, ["lvalue", "--input", path])
        assert (code, out) == (EXIT_ERROR, "")
        assert "HeckeSpace certification: leading block not invertible" in err

    def test_int_eigenvalues_print_as_their_strings(self, capsys, tmp_path):
        outputs = []
        for read in (str, int):
            target = eigensystem_to_json(fx.TARGET_SYS)
            target["ap_table"] = [[ell, read(a)] for ell, a in target["ap_table"]]
            path = tmp_path / ("%s.json" % read.__name__)
            path.write_text(json.dumps(_lvalue_record(target=target)))
            outputs.append(run(capsys, ["lvalue", "--input", str(path)]))
        assert outputs[0][0] == EXIT_OK and outputs[1] == outputs[0]

    def test_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, _, err = run(capsys, ["lvalue", "--input", missing])
        assert code == EXIT_ERROR
        assert "nope.json" in err

    def test_verify_runs_the_pipeline_once(self, capsys, tmp_path, monkeypatch):
        path, expected = self.make_input(tmp_path, 123)
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return hecke.lvalue_weight2(*args, **kwargs)

        monkeypatch.setattr(cli, "lvalue_weight2", counted)
        code, out, _ = run(capsys, ["lvalue", "--input", path, "--verify"])
        assert (code, json.loads(out)["value"]) == (EXIT_OK, [expected.unit, expected.val])
        assert calls == [{"verify": True}]

    @pytest.mark.parametrize("owner, name, mutant, check", [
        (hecke, "isotypic_project", lambda: _no_annihilation, "isotypic component"),
        (cli, "lvalue_weight2", lambda: _swapped_roots, "Hecke polynomial"),
        (cli, "lvalue_weight2", lambda: _times_ordinary_factor(), "ordinary factor"),
    ], ids=["no-annihilation", "swapped-roots", "times-ordinary-factor"])
    def test_verify_catches_a_wrong_value(self, capsys, tmp_path, monkeypatch,
                                          owner, name, mutant, check):
        """Each mutant prints a wrong value without --verify, and --verify
        exits 1 naming the check that failed."""
        path, expected = self.make_input(tmp_path, 123)
        monkeypatch.setattr(owner, name, mutant())
        code, out, _ = run(capsys, ["lvalue", "--input", path])
        assert code == EXIT_OK and json.loads(out)["value"] != [expected.unit, expected.val]
        code, out, err = run(capsys, ["lvalue", "--input", path, "--verify"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: %s check failed" % check) and err.count("\n") == 1

    def test_a_key_error_inside_the_pipeline_propagates(self, tmp_path, monkeypatch):
        """A KeyError from a bug is not taken for a missing record key."""
        path, _ = self.make_input(tmp_path, 123)

        def broken(*args, **kwargs):
            raise KeyError("a bug, not an input error")

        monkeypatch.setattr(cli, "lvalue_weight2", broken)
        with pytest.raises(KeyError, match="a bug"):
            main(["lvalue", "--input", path])


def _no_annihilation(space, phi, target, annihilation):
    """`isotypic_project` without its annihilation loop."""
    component = space.combine(space.coordinates(phi))
    return component, component[1]


def _swapped_roots(g, prime, target, roots, *args, **kwargs):
    """`lvalue_weight2` given (beta, alpha) in place of (alpha, beta)."""
    return hecke.lvalue_weight2(g, prime, target, roots[::-1], *args, **kwargs)


def _times_ordinary_factor():
    """`lvalue_weight2` with lambda1 * E in place of lambda1 / E."""
    source = inspect.getsource(hecke.lvalue_weight2)
    assert source.count("lambda1 / E") == 1
    namespace = dict(vars(hecke))
    exec(source.replace("lambda1 / E", "lambda1 * E"), namespace)
    return namespace["lvalue_weight2"]


def test_parser_is_built_once(capsys):
    """Later `main` calls reuse the first call's parser, also after one that
    ends in an argparse error, and print what a fresh process prints."""
    cli.build_parser.cache_clear()
    argv = ["ht-table", "--weight", "3"]
    first = run(capsys, argv)
    with pytest.raises(SystemExit):
        main(["ht-table"])  # --weight is required
    assert "required" in capsys.readouterr().err
    assert run(capsys, ["asai", "--p", "7"])[0] == EXIT_OK
    last = run(capsys, argv)
    assert cli.build_parser.cache_info().misses == 1
    fresh = subprocess.run([sys.executable, "-m", "hz.cli"] + argv,
                           capture_output=True, text=True, env=src_env())
    assert [fresh.returncode, fresh.stdout] == list(last[:2]) == list(first[:2])


class TestQExpOp:
    def store(self, tmp_path):
        coeffs = [Fraction(n * n + 1) for n in range(13)]
        f = EllipticQExp(2, 1, 12, coeffs, RATIONAL)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(to_json(f)))
        return str(path), f

    def test_deplete(self, capsys, tmp_path):
        path, f = self.store(tmp_path)
        code, out, _ = run(capsys, ["qexp-op", "--input", path,
                                    "--op", "deplete", "-p", "3",
                                    "--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["coeffs"][3] == "0/1"
        assert record["coeffs"][2] == "5/1"

    def test_u_operator(self, capsys, tmp_path):
        path, f = self.store(tmp_path)
        code, out, _ = run(capsys, ["qexp-op", "--input", path,
                                    "--op", "u", "-p", "2", "--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["bound"] == 6
        assert Fraction(record["coeffs"][1]) == f[2]

    def test_derivative(self, capsys, tmp_path):
        path, f = self.store(tmp_path)
        code, out, _ = run(capsys, ["qexp-op", "--input", path,
                                    "--op", "derive", "--verify"])
        assert code == EXIT_OK
        record = json.loads(out)
        assert Fraction(record["coeffs"][4]) == 4 * f[4]

    @pytest.mark.parametrize("op, flags", [("v", ["-p", "3"]),
                                           ("twist", ["-p", "5"]),
                                           ("hecke", ["--ell", "2"])])
    def test_verify_without_a_check_is_refused(self, capsys, tmp_path, op, flags):
        path, _ = self.store(tmp_path)
        code, out, err = run(capsys, ["qexp-op", "--input", path, "--op", op,
                                      "--verify"] + flags)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: --verify has no check for --op %s\n" % op

    def test_format_is_refused(self, capsys, tmp_path):
        path, _ = self.store(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["qexp-op", "--input", path, "--op", "derive", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_missing_prime_flag(self, capsys, tmp_path):
        path, _ = self.store(tmp_path)
        code, _, err = run(capsys, ["qexp-op", "--input", path,
                                    "--op", "u"])
        assert code == EXIT_ERROR

    def test_hilbert_expansion_rejected(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(to_json(eisenstein_hilbert(make_field(5), 2, 6))))
        code, out, err = run(capsys, ["qexp-op", "--input", str(path),
                                      "--op", "u", "-p", "5"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "error: qexp-op needs an elliptic expansion, not a hilbert one\n"

    def test_unsupported_ring(self, capsys, tmp_path):
        path, _ = self.store(tmp_path)
        with open(path) as fh:
            record = json.load(fh)
        record["ring"] = ["padic", 4, 3]
        with open(path, "w") as fh:
            json.dump(record, fh)
        code, out, err = run(capsys, ["qexp-op", "--input", path,
                                      "--op", "derive"])
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("error: unsupported coefficient ring")


def _malformed(ring, **changes):
    """A stored elliptic expansion record over ring with `changes` applied;
    a change to "coeffs" replaces coefficient 1."""
    record = to_json(EllipticQExp(2, 1, 4, [0, 1, 2, 3, 4], ring))
    if "coeffs" in changes:
        record["coeffs"][1] = changes.pop("coeffs")
    record.update(changes)
    return record


def _eigen_changed(**changes):
    """The target eigensystem record of `_lvalue_record` with `changes`
    applied; a change to "ap_table" replaces the eigenvalue at 2."""
    target = eigensystem_to_json(fx.TARGET_SYS)
    if "ap_table" in changes:
        target["ap_table"][0][1] = changes.pop("ap_table")
    target.update(changes)
    return target


DERIVE = ["qexp-op", "--op", "derive"]
# the whole stderr of the cases below whose message is pinned, by case id
_MALFORMED_ERRORS = {
    # 3 is inert in Q(sqrt 2): refused before any stage runs
    "lvalue-p-inert": "error: p = 3 is not split in Q(sqrt(2))\n",
    # the pipeline assumes weight 2 and trivial character: refused when read
    "lvalue-eigen-weight-4":
        "error: only weight-2 eigensystems are read, got weight 4\n",
    "lvalue-eigen-character-minus-one":
        "error: only trivial-character eigensystems are read, got character [[0, '-1']]\n",
}
HECKE = ["qexp-op", "--op", "hecke", "--ell", "2"]


@pytest.mark.parametrize("record, argv", [
    pytest.param(_malformed(padic_ring(5, 3), coeffs=[1.5, 0]), DERIVE, id="padic-float-unit"),
    pytest.param(_malformed(padic_ring(5, 3), coeffs=[1, 0.5]), DERIVE, id="padic-float-val"),
    pytest.param(_malformed(padic_ring(5, 3), coeffs=[True, 0]), DERIVE, id="padic-bool-unit"),
    pytest.param(_malformed(padic_ring(5, 3), coeffs=[1]), DERIVE, id="padic-short-pair"),
    pytest.param(_malformed(padic_ring(5, 3), coeffs="1/1"), DERIVE, id="padic-string"),
    pytest.param(_malformed(RATIONAL, coeffs=[1, 0]), DERIVE, id="rational-pair"),
    pytest.param(_malformed(RATIONAL, coeffs="x"), DERIVE, id="rational-word"),
    pytest.param(_malformed(RATIONAL, coeffs="1/0"), DERIVE, id="rational-zero-den"),
    pytest.param(_malformed(RATIONAL, coeffs="1"), DERIVE, id="rational-no-den"),
    pytest.param(_malformed(RATIONAL, character=[[1]]), DERIVE, id="character-short"),
    pytest.param(_malformed(RATIONAL, weight="2"), HECKE, id="weight-string"),
    pytest.param(_malformed(RATIONAL, bound=4.0), DERIVE, id="bound-float"),
    pytest.param([1, 2], DERIVE, id="not-an-object"),
    pytest.param(None, DERIVE, id="qexp-op-directory"),
    pytest.param([1], ["lvalue"], id="lvalue-not-an-object"),
    pytest.param({"p": "x"}, ["lvalue"], id="lvalue-p-word"),
    pytest.param({"p": 7, "m": "x"}, ["lvalue"], id="lvalue-m-word"),
    pytest.param({"p": 7, "bound": [1]}, ["lvalue"], id="lvalue-bound-list"),
    pytest.param({"p": 7, "bound": 9, "d": None}, ["lvalue"], id="lvalue-d-null"),
    pytest.param(None, ["lvalue"], id="lvalue-directory"),
    pytest.param(_lvalue_record(p=7.9), ["lvalue"], id="lvalue-p-float"),
    pytest.param(_lvalue_record(m=4.5), ["lvalue"], id="lvalue-m-float"),
    pytest.param(_lvalue_record(d=2.5), ["lvalue"], id="lvalue-d-float"),
    pytest.param(_lvalue_record(p=3), ["lvalue"], id="lvalue-p-inert"),
    pytest.param(_lvalue_record(bound="30"), ["lvalue"], id="lvalue-bound-string"),
    pytest.param(_lvalue_record(annihilation=[["x", "1"]]), ["lvalue"],
                 id="lvalue-annihilation-ell-word"),
    pytest.param(_lvalue_record(annihilation=[[3]]), ["lvalue"],
                 id="lvalue-annihilation-short-pair"),
    pytest.param(_lvalue_record(annihilation=[[2, "x"]]), ["lvalue"],
                 id="lvalue-annihilation-value-word"),
    pytest.param(_lvalue_record(annihilation=[[2, "1/0"]]), ["lvalue"],
                 id="lvalue-annihilation-zero-den"),
    pytest.param(_lvalue_record(annihilation=5), ["lvalue"],
                 id="lvalue-annihilation-not-a-list"),
    pytest.param(_lvalue_record(annihilation=[[2.7, "1"]]), ["lvalue"],
                 id="lvalue-annihilation-ell-float"),
    pytest.param(_lvalue_record(hilbert=dict(_lvalue_record()["hilbert"], d=3)),
                 ["lvalue"], id="lvalue-hilbert-other-field"),
    *(pytest.param(_lvalue_record(hilbert={k: v for k, v in _lvalue_record()["hilbert"].items()
                                           if k != key}),
                   ["lvalue"], id="lvalue-hilbert-no-%s" % key)
      for key in ("entries", "ring", "a0")),
    pytest.param(_lvalue_record(others=5), ["lvalue"], id="lvalue-others-int"),
    pytest.param(_lvalue_record(target=5), ["lvalue"], id="lvalue-target-int"),
    pytest.param(_lvalue_record(target=_eigen_changed(weight="2")), ["lvalue"],
                 id="lvalue-eigen-weight-string"),
    pytest.param(_lvalue_record(target=_eigen_changed(ap_table="x")), ["lvalue"],
                 id="lvalue-eigenvalue-word"),
    pytest.param(_lvalue_record(target=_eigen_changed(character=[])), ["lvalue"],
                 id="lvalue-eigen-character-empty"),
    pytest.param(_lvalue_record(target=_eigen_changed(weight=4)), ["lvalue"],
                 id="lvalue-eigen-weight-4"),
    pytest.param(_lvalue_record(target=_eigen_changed(character=[[0, "-1"]])), ["lvalue"],
                 id="lvalue-eigen-character-minus-one"),
])
def test_malformed_records_are_input_errors(capsys, tmp_path, request, record, argv):
    path = tmp_path  # no record: the input is a directory
    if record is not None:
        path = tmp_path / "f.json"
        path.write_text(json.dumps(record))
    code, out, err = run(capsys, argv + ["--input", str(path)])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    expected = _MALFORMED_ERRORS.get(request.node.callspec.id)
    assert expected is None or err == expected


@pytest.mark.parametrize("key", [[1, "1/1"], [None, "1/1"], [1.5, "0/1"],
                                 ["1/0", "1/1"]],
                         ids=["int", "null", "float", "zero-den"])
def test_malformed_hilbert_keys_are_input_errors(capsys, tmp_path, key):
    record = to_json(eisenstein_hilbert(make_field(5), 2, 2))
    record["entries"][0][0] = key
    path = tmp_path / "g.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["qexp-op", "--input", str(path),
                                  "--op", "derive"])
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# -- lvalue records with one field deleted or replaced --------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)
_LVALUE_RECORD = _lvalue_record()
_EIGEN_FIELDS = sorted(_LVALUE_RECORD["target"])


@st.composite
def _changed_lvalue_records(draw):
    """A valid `hz lvalue` record with one top-level field, or one field of
    its target or other eigensystem, deleted or replaced by a JSON value."""
    record = json.loads(json.dumps(_LVALUE_RECORD))
    where = draw(st.sampled_from(["record", "target", "other"]))
    obj = {"record": record, "target": record["target"],
           "other": record["others"][0]}[where]
    key = draw(st.sampled_from(sorted(record) if where == "record" else _EIGEN_FIELDS))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(_JSON_VALUES)
    return record


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=_changed_lvalue_records())
def test_changed_lvalue_records_exit_cleanly(capsys, tmp_path, record):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, ["lvalue", "--input", str(path)])
    assert code in (EXIT_OK, EXIT_ERROR)
    assert "Traceback" not in err
    if out:
        json.loads(out)


@pytest.mark.parametrize("argv, flag, value", [
    (["asai", "--p", "4"], "--p", 4),
    (["asai", "--p", "0"], "--p", 0),
    (["asai", "--p", "-3"], "--p", -3),
    (TestEuler.ARGS[:-1] + ["4"], "-p", 4),
    (TestEuler.ARGS[:-1] + ["1"], "-p", 1),
    (["qexp-op", "--op", "hecke", "--ell", "4"], "--ell", 4),
    (["qexp-op", "--op", "u", "-p", "0"], "-p", 0),
    (["qexp-op", "--op", "v", "-p", "0"], "-p", 0),
    (["qexp-op", "--op", "deplete", "-p", "0"], "-p", 0),
    (["qexp-op", "--op", "deplete", "-p", "9"], "-p", 9),
])
def test_prime_arguments_are_checked(capsys, tmp_path, argv, flag, value):
    if argv[0] == "qexp-op":
        path = tmp_path / "f.json"
        path.write_text(json.dumps(to_json(
            EllipticQExp(2, 1, 12, list(range(13)), RATIONAL))))
        argv = argv + ["--input", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: %s must be a prime, got %d\n" % (flag, value)


def test_commands_never_import_sympy(tmp_path):
    """One process runs every command that used to call sympy, and sympy
    is still not imported when it ends."""
    lvalue_input, _ = TestLValue().make_input(tmp_path, 123)
    expansion = tmp_path / "f.json"
    expansion.write_text(json.dumps(to_json(
        EllipticQExp(2, 1, 12, list(range(13)), RATIONAL))))
    argvs = [
        ["sieve", "--pmax", "900", "--verify"],
        ["lvalue", "--input", lvalue_input, "--verify"],
        ["diag-restrict", "--d", "5", "--eisenstein", "2", "--trace-bound", "12",
         "--verify"],
        ["asai", "--p", "7", "--verify"],
        TestEuler.ARGS + ["--verify"],
        ["qexp-op", "--input", str(expansion), "--op", "deplete", "-p", "3", "--verify"],
    ]
    script = ("import contextlib, io, json, sys\n"
              "from hz.cli import main\n"
              "codes = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        codes.append(main(argv))\n"
              "print(json.dumps([codes, 'sympy' in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=src_env(), check=True)
    assert json.loads(done.stdout) == [[EXIT_OK] * len(argvs), False], done.stderr


# -- golden stdout ----------------------------------------------------------------
# The exact stdout and exit code of one small argv per subcommand, recorded
# in golden_stdout.json.  A refactor must leave every byte of it unchanged.

GOLDEN = Path(__file__).with_name("golden_stdout.json")
QEXP_OPS = {
    "u": ["-p", "2", "--verify"],
    "v": ["-p", "3"],
    "deplete": ["-p", "5", "--verify"],
    "twist": ["-p", "5", "--j", "1"],
    "derive": ["--verify"],
    "hecke": ["--ell", "2"],
}


def golden_argvs(tmp_path):
    """Name -> argv of each pinned command, with the input files it reads
    written under tmp_path: the pipeline fixture's lvalue record, and one
    p-adic (5^4) and one rational elliptic expansion whose coefficients
    include zeros, non-units and negative valuations."""
    lvalue_input, _ = TestLValue().make_input(tmp_path, 123)
    coeffs = [Fraction(n * n - 3 * n + 5, 5 ** (n % 3)) for n in range(13)]
    argvs = {
        "sieve": ["sieve", "--pmax", "3000", "--verify"],
        "sieve-table": ["sieve", "--pmax", "3000", "--verify", "--format", "table"],
        "diag-restrict-5": ["diag-restrict", "--d", "5", "--eisenstein", "2",
                            "--trace-bound", "12", "--verify"],
        "diag-restrict-13": ["diag-restrict", "--d", "13", "--eisenstein", "4",
                             "--trace-bound", "8", "--verify"],
        "lvalue": ["lvalue", "--input", lvalue_input, "--verify"],
        "euler": ["euler", "-p", "7", "--alphas", "1,2,3,4", "--froots", "3,7",
                  "--verify"],
        "asai": ["asai", "--p", "853", "--verify"],
        "ht-table": ["ht-table", "--weight", "3"],
    }
    for ring in (RATIONAL, padic_ring(5, 4)):
        kind = "rational" if ring is RATIONAL else "padic"
        path = tmp_path / ("%s.json" % kind)
        path.write_text(json.dumps(to_json(EllipticQExp(2, 1, 12, coeffs, ring))))
        for op, flags in QEXP_OPS.items():
            argvs["qexp-op-%s-%s" % (op, kind)] = [
                "qexp-op", "--input", str(path), "--op", op] + flags
    return argvs


def test_golden_stdout(capsys, tmp_path):
    pinned = json.loads(GOLDEN.read_text())
    argvs = golden_argvs(tmp_path)
    assert sorted(argvs) == sorted(pinned)
    for name, argv in argvs.items():
        code, out, _ = run(capsys, argv)
        assert [code, out] == pinned[name], name


def test_golden_padic_repr():
    """The 7^2 digit is invented (the difference is known only mod 7^2);
    pinned so that a change to it is deliberate."""
    assert repr(PadicNumber(7, 2, 8) - PadicNumber(7, 2, 1)) == "1*7^1 + O(7^3)"


# the 40 diag-restrict argvs of the benchmark's pipeline workload: for each
# (d, k, lo), trace bounds lo .. lo + 9
DIAG_SLOTS = ((5, 2, 20), (2, 4, 31), (13, 2, 40), (3, 4, 40))
DIAG_SLOTS_SHA256 = "107805b33e16dfe6db4250814bec15d0a5e5e3828f713dd3b595c1b1aca6088c"


def test_diag_restrict_slots_digest(capsys):
    """One sha256 over the exit code and stdout of every slot, in order."""
    digest = hashlib.sha256()
    for d, k, lo in DIAG_SLOTS:
        for T in range(lo, lo + 10):
            code, out, _ = run(capsys, ["diag-restrict", "--d", str(d), "--eisenstein", str(k),
                                        "--trace-bound", str(T), "--verify"])
            digest.update(b"%d\n%s\n" % (code, out.encode()))
    assert digest.hexdigest() == DIAG_SLOTS_SHA256
