"""Tests of the benchmark's own logic: the tail-percentile rule, self-time
subtraction, wrapper install/restore, seeded input generation, and the
oracles the checks rely on.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

hz = workloads.load_hz()


# -- the tail-percentile rule ------------------------------------------------


def test_tail_needs_eleven_samples():
    assert run.tail_percentile(list(range(10))) is None
    value, pct = run.tail_percentile(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n", [11, 12, 40, 100, 257])
def test_tail_keeps_exactly_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, pct = run.tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_hundred_is_p90():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90.0)


# -- machine-speed correction -----------------------------------------------


def test_correction_scales_to_the_reference_machine():
    ref = run.CAL_REFERENCE_S
    assert run.corrected(1.5, ref, ref) == pytest.approx(1.5)
    # the machine runs the kernel at half speed: the item took twice as long
    assert run.corrected(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert run.corrected(3.0, ref, 3 * ref) == pytest.approx(1.5)
    assert 0 < run.calibrate() < 10 * ref


def test_longer_measurements_get_more_calibration_samples():
    assert [run.calibration_samples(s) for s in (0.0, 0.2, 1.0, 7.0, 60.0)] \
        == [1, 1, 2, 9, 9]


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
             ("c", 5.0, 9.0, 0, 0), ("d", 6.0, 7.0, 2, 0),
             ("b", 11.0, 12.5, -1, 1)]
    times = tracing.self_times(spans)
    assert times["a"] == (1, pytest.approx(3.0))
    assert times["b"] == (2, pytest.approx(4.5))
    assert times["c"] == (1, pytest.approx(3.0))
    assert times["d"] == (1, pytest.approx(1.0))


# -- wrappers -------------------------------------------------------------------


def _hz_state():
    state = {}
    for name, module in sys.modules.items():
        if name == "hz" or name.startswith("hz."):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for key, member in vars(value).items():
                        state[(name, attr, key)] = member
    return state


def test_install_and_restore_leave_hz_unchanged():
    before = _hz_state()
    original = hz.realquad.split_prime
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every module that imported the name holds the same wrapper
        wrapped = hz.realquad.split_prime
        assert wrapped is not original
        assert hz.sieve.split_prime is wrapped
        assert hz.qexp.split_prime is wrapped
        assert hz.cli.split_prime is wrapped
        assert hz.qexp.PadicNumber.__init__ is not before[
            ("hz.padic", "PadicNumber", "__init__")]
    finally:
        tracer.restore()
    after = _hz_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_record_nested_spans_counts_and_raises():
    F = hz.realquad.make_field(2869, h_plus=2)
    E = hz.sieve.CURVE_11A1
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.item = 7
        hz.sieve.check_assumptions(F, workloads.DESK_QUINTIC, E, 853)
        with pytest.raises(hz.sieve.ExcludedPrime):
            hz.sieve.check_assumptions(F, workloads.DESK_QUINTIC, E, 19)
    finally:
        tracer.restore()
    names = [s[0] for s in tracer.spans]
    assert names.count("sieve.check_assumptions") == 2
    assert "realquad.split_prime" in names and "sieve.ap_count" in names
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["sieve.check_assumptions"] * 2
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.raised == {"sieve.check_assumptions": 1}
    metrics = tracing.layer_metrics(tracer, run.RAISED)
    assert metrics["sieve.funnel.checked"] == 1
    assert metrics["sieve.funnel.excluded"] == 1
    assert metrics["sieve.funnel.admissible"] == 1
    assert metrics["sieve.check_assumptions.raised"] == 1
    assert metrics["padic.PadicNumber.new.calls"] == 0
    assert set(metrics) == {n for n, _ in tracing.metric_names()} | {
        "sieve.check_assumptions.raised"}


def test_metric_names_fit_the_per_layer_limit():
    names = [n for n, _ in tracing.metric_names()] + [
        n + ".raised" for n in run.RAISED] + ["trace.overhead"]
    assert len(names) == len(set(names)) <= 128
    assert all(len(n) <= 64 for n in names)


# -- seeded inputs ----------------------------------------------------------------


def _first_round_inputs(workload, seed, workdir):
    workdir.mkdir(exist_ok=True)
    rounds = workload.rounds(seed)
    out = []
    for item in next(rounds):
        inp, expected = workload.prepare(item, str(workdir))
        if isinstance(inp, list) and "--input" in inp:
            # compare the instance file's bytes, not its path
            at = inp.index("--input") + 1
            inp[at] = Path(inp[at]).read_bytes().decode()
        out.append(json.dumps([item, inp, expected], sort_keys=True))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = _first_round_inputs(workload, 5, tmp_path / "a")
    assert first == _first_round_inputs(workload, 5, tmp_path / "b")
    assert first != _first_round_inputs(workload, 6, tmp_path / "b")


def test_pipeline_items_never_repeat_a_domain():
    items = [i for r in workloads.WORKLOADS["pipeline"].rounds(3) for i in r]
    domains = [(i[1], i[3]) for i in items if i[0] == "diag"]
    assert len(domains) == len(set(domains))
    assert (workloads.LV_D, workloads.LV_BOUND) not in domains


# -- oracles ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_generated_domain_matches_the_toolkit(d):
    domain = hz.qexp.hilbert_domain(hz.realquad.make_field(d), 9)
    assert sorted((xi.x, xi.y) for xi in domain) == sorted(
        workloads.hilbert_keys(d, 9))


def test_naive_ap_matches_11a1():
    # a_p of 11a1 (the newform q prod (1-q^n)^2 (1-q^11n)^2)
    known = {3: -1, 5: 1, 7: -2, 13: 4, 17: -2, 19: 0, 23: -1}
    assert {p: workloads.naive_ap(p) for p in known} == known


def test_lvalue_instance_reproduces_c_over_euler_factor(tmp_path):
    pipeline = workloads.WORKLOADS["pipeline"]
    item = ("lvalue", 12345)
    argv, value = pipeline.prepare(item, str(tmp_path))
    output = workloads.run_cli(hz, argv)
    assert pipeline.check(hz, item, value, output) == 1
    with pytest.raises(workloads.CheckFailed):
        pipeline.check(hz, item, (value + 1) % 7 ** 4, output)


def test_sieve_check_catches_a_wrong_exit_code(tmp_path):
    sieve = workloads.WORKLOADS["sieve"]
    item = (800, 900)
    argv, primes = sieve.prepare(item, str(tmp_path))
    rc, stdout, stderr = workloads.run_cli(hz, argv)
    assert rc == 0 and sieve.check(hz, item, primes, (rc, stdout, stderr))
    with pytest.raises(workloads.CheckFailed):
        sieve.check(hz, item, primes, (3, stdout, stderr))
    with pytest.raises(workloads.CheckFailed):
        sieve.check(hz, item, primes, (rc, "", stderr))
