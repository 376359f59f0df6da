"""Benchmark for the hz toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see perfbench/README.md):
sieve, hilbert, pipeline, asai.  One run is one single-threaded process
driving the toolkit in a closed loop: one caller, each item starting when
the previous one ends.  Inputs come from the seed alone; input generation
and every output check happen between items, outside the timed region.

--trace 0 times whole rounds of items until their summed latency reaches
--seconds and reports the end-to-end metrics.  --trace 1 runs a fixed
number of rounds, each item once untraced and once with a span around
every public function of each hz layer, and reports the per-layer metrics
of the traced runs plus trace.overhead (traced over untraced throughput).

Spans and a full report go to .perfbench_out/ under the repository root;
the last line of stdout is the JSON result.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# functions that an exception leaves on some workload; see README.md
RAISED = ("sieve.check_assumptions",)
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s",
                    "item_p50_ms": "ms", "peak_rss_mb": "MB"}
# Machine-speed correction.  On a shared machine the same code runs tens of
# percent faster or slower from one minute to the next.  A fixed
# pure-Python kernel, timed before and after every item and every set-up,
# measures that drift, and each reported time is the wall time scaled to a
# reference machine on which the kernel takes CAL_REFERENCE_S.
CAL_REFERENCE_S = 0.02


def calibrate(samples=1):
    """Median seconds of `samples` runs of the calibration kernel, right
    now: Fraction sums, dict stores and modular powers, the toolkit's kind
    of work."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        table = {}
        acc = Fraction(0)
        for i in range(1, 3500):
            acc += Fraction(i % 97 + 1, i % 89 + 1)
            table[i, i * 7 % 13] = pow(i, 65537, 161051)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibration_samples(seconds):
    """Kernel runs to take around a measurement of about `seconds`: one per
    half second, 1 to 9, so a long item's speed estimate is not one 20 ms
    sample."""
    return max(1, min(9, round(seconds / 0.5)))


def corrected(seconds, cal_before, cal_after):
    """Wall seconds scaled to the reference machine, taking the machine's
    speed as the mean of the two calibrations around the measurement."""
    return seconds * CAL_REFERENCE_S * 2 / (cal_before + cal_after)


def tail_percentile(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples above it, or None below 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    k = n - 11  # sorted index with exactly ten samples beyond it
    return sorted(latencies)[k], 100.0 * (k + 1) / n


class Phase:
    """Items attempted in one closed-loop phase."""

    def __init__(self):
        self.latencies = []  # wall seconds
        self.corrected = []  # the same, scaled to the reference machine
        self.item_units = []  # work units per item, 0 if it failed
        self.rounds = []  # index of each round's first item
        self.failed = 0

    @property
    def units(self):
        return sum(self.item_units)

    @property
    def busy_s(self):
        return sum(self.latencies)

    @property
    def rate(self):
        """Work units per corrected second."""
        return self.units / sum(self.corrected) if self.latencies else 0.0

    def run(self, hz, ctx, workload, item, workdir, tracer=None,
            item_id=None):
        """Time one item, then check its output outside the timed region."""
        inp, expected = workload.prepare(item, workdir)
        cal_before = calibrate(calibration_samples(
            self.latencies[-1] if self.latencies else 0.0))
        if tracer is not None:
            tracer.item = item_id
        t0 = time.perf_counter()
        try:
            output = workload.run(hz, ctx, inp)
        except Exception:
            output = None
            traceback.print_exc()
        latency = time.perf_counter() - t0
        self.latencies.append(latency)
        cal_after = calibrate(calibration_samples(latency))
        self.corrected.append(corrected(latency, cal_before, cal_after))
        self.item_units.append(0)
        if tracer is not None:
            tracer.item = None
        if output is None:
            self.failed += 1
            return
        try:
            self.item_units[-1] = workload.check(hz, item, expected, output)
        except Exception as exc:  # a wrong output, whatever its shape
            self.failed += 1
            print("item %r failed its check: %r" % (item, exc),
                  file=sys.stderr)


def run_phase(hz, ctx, workload, rounds, workdir, seconds):
    """Run whole rounds until the summed item latency reaches `seconds`
    or the rounds run out."""
    phase = Phase()
    for items in rounds:
        phase.rounds.append(len(phase.latencies))
        for item in items:
            phase.run(hz, ctx, workload, item, workdir)
        if phase.busy_s >= seconds:
            break
    return phase


def run_traced(hz, ctx, workload, rounds, workdir):
    """The workload's fixed number of trace rounds, each item run once
    untraced and once traced, back to back, so drift in machine speed
    cancels out of the overhead ratio; which run goes first alternates, so
    neither side gets the warmer caches.  A workload whose repeats would
    find warm caches pairs each item with the same slot of a fresh round
    instead.  Returns (untraced phase, traced phase, tracer)."""
    n = workload.trace_rounds
    untraced = [i for r in itertools.islice(rounds, n) for i in r]
    repeat = untraced if workload.repeatable else [
        i for r in itertools.islice(rounds, n) for i in r]
    base, traced, tracer = Phase(), Phase(), tracing.Tracer()

    def run_spanned(item, item_id):
        tracer.install()
        try:
            traced.run(hz, ctx, workload, item, workdir, tracer, item_id)
        finally:
            tracer.restore()

    for item_id, (plain, spanned) in enumerate(zip(untraced, repeat)):
        if item_id % 2:
            run_spanned(spanned, item_id)
        base.run(hz, ctx, workload, plain, workdir)
        if not item_id % 2:
            run_spanned(spanned, item_id)
    return base, traced, tracer


def measure_setup(workload_name):
    """Corrected seconds from process start to the first item being ready,
    in fresh processes: imports, then the workload's one-time objects.
    Input generation inside set-up is subtracted."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal_before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload_name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=120)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise SystemExit("set-up process failed (exit %r)"
                             % proc.returncode)
        samples.append(corrected(ready - float(line.split()[1]),
                                 cal_before, calibrate(
                                     calibration_samples(ready))))
    return samples


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp():
    import sympy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "nproc": nproc, "git_sha": git_sha()}


def end_to_end(phase, setup_samples):
    """The gated metrics (times corrected to the reference machine) and a
    detail record with the wall-clock figures, samples and the ungated
    item_tail_ms and error_rate."""
    latencies_ms = [x * 1000.0 for x in phase.corrected]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": phase.rate,
        "item_p50_ms": statistics.median(latencies_ms),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s_samples": setup_samples,
        "item_p50_ms_samples": len(latencies_ms),
        "error_rate": phase.failed / len(latencies_ms),
        "units": phase.units,
        "busy_s": phase.busy_s,
        "wall_items_per_s": phase.units / phase.busy_s,
        "wall_item_p50_ms": 1000.0 * statistics.median(phase.latencies),
        "latencies_ms": latencies_ms,
        "wall_latencies_ms": [x * 1000.0 for x in phase.latencies],
        "item_units": phase.item_units,
        "round_starts": phase.rounds,
    }
    tail = tail_percentile(latencies_ms)
    if tail is not None:
        detail["item_tail_ms"] = tail[0]
        detail["item_tail_percentile"] = tail[1]
    return metrics, detail


def print_report(workload, args, metrics, detail, units):
    print("perfbench %s seed=%d trace=%d  %s" % (
        workload.name, args.seed, args.trace,
        " ".join("%s=%s" % kv for kv in detail["stamp"].items())))
    if args.trace == 0:
        n = detail["item_p50_ms_samples"]
        print("  %-14s %12.4f s    median of %d fresh processes"
              % ("setup_s", metrics["setup_s"], SETUP_SAMPLES))
        print("  %-14s %12.4f 1/s  %s per second (%.4f by wall clock)"
              % ("items_per_s", metrics["items_per_s"], workload.unit,
                 detail["wall_items_per_s"]))
        print("  %-14s %12.4f ms   %d items (%.4f by wall clock)"
              % ("item_p50_ms", metrics["item_p50_ms"], n,
                 detail["wall_item_p50_ms"]))
        if "item_tail_ms" in detail:
            print("  %-14s %12.4f ms   p%.1f of %d items" % (
                "item_tail_ms", detail["item_tail_ms"],
                detail["item_tail_percentile"], n))
        else:
            print("  %-14s %12s      omitted: %d items, need 11"
                  % ("item_tail_ms", "-", n))
        print("  %-14s %12.4f MB" % ("peak_rss_mb", metrics["peak_rss_mb"]))
        print("  %-14s %12.4f      %d failed of %d"
              % ("error_rate", detail["error_rate"], detail["failed"], n))
    else:
        for name, value in metrics.items():
            print("  %-58s %14.6g %s" % (name, value, units[name]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hz" / "__init__.py").is_file():
        print("perfbench: no hz sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_child:
        _, generating = workloads.setup(workloads.load_hz(), workload)
        print("ready %r" % generating, flush=True)
        return 0

    setup_samples = measure_setup(workload.name) if args.trace == 0 else None
    hz = workloads.load_hz()
    ctx, _ = workloads.setup(hz, workload)
    workdir = OUT / ("%s-seed%d" % (workload.name, args.seed))
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = workload.rounds(args.seed)

    if args.trace == 0:
        phase = run_phase(hz, ctx, workload, rounds, workdir,
                          seconds=args.seconds)
        metrics, detail = end_to_end(phase, setup_samples)
        units = END_TO_END_UNITS
        attempted, failed = len(phase.latencies), phase.failed
    else:
        base, traced, tracer = run_traced(hz, ctx, workload, rounds, workdir)
        tracer.write_spans(workdir / "spans.jsonl")
        metrics = tracing.layer_metrics(tracer, RAISED)
        metrics["trace.overhead"] = (traced.rate / base.rate
                                     if base.rate else 0.0)
        units = dict(tracing.metric_names())
        units.update({name + ".raised": "count" for name in RAISED})
        units["trace.overhead"] = "ratio"
        detail = {"untraced_items": len(base.latencies),
                  "traced_items": len(traced.latencies),
                  "untraced_items_per_s": base.rate,
                  "traced_items_per_s": traced.rate,
                  "spans": len(tracer.spans),
                  "raised": dict(tracer.raised)}
        attempted = len(base.latencies) + len(traced.latencies)
        failed = base.failed + traced.failed

    detail.update({"workload": workload.name, "unit": workload.unit,
                   "seed": args.seed, "trace": args.trace,
                   "failed": failed, "stamp": stamp()})
    print_report(workload, args, metrics, detail, units)
    report = dict(detail, metrics=metrics)
    (workdir / ("report-trace%d.json" % args.trace)).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
