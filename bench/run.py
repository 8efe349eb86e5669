"""Benchmark for ultraherz: one workload per run, closed loop, one caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep,oracle,norms} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-check

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the script exits with status 2 and prints no
result. Each operation starts only after the previous one has finished, in
this one single-threaded process.

A run sets up (import once, then input generation, JSON files and one
untimed warm-up operation, repeated five times), then runs whole passes over
the workload's operations until at least S seconds and at least 100
operations have gone by. The first output of every operation is checked
against ``reference.py``; every later output must equal the first.

``--trace 0`` prints the end-to-end metrics:

    setup_s       import time plus the median of the five set-ups
    ops_per_s     operations over their summed latencies
    op_p50_ms     median latency over every operation of the run
    op_p90_ms     90th percentile of the same
    peak_rss_mib  ru_maxrss of this process

Times are scaled to a reference host (see ``HostClock``): a shared host can
run this process at two speeds for minutes at a time, and without the
scaling a run's figures depend more on the host's state than on the code.
``error_rate`` (failed over attempted) is printed but is not a metric of the
result line, since it is 0 on every workload; ``failed`` carries it.

``--trace 1`` alternates untraced and traced passes over the same operations
and prints per-layer metrics (see ``tracer.py``); spans go to
``.bench_out/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays as git left it
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is import time plus their median.
SETUP_REPS = 5
#: Time of ``calibration_loop`` in ms on a host that gives this process a
#: core to itself; every reported time is scaled to such a host.
CAL_REF_MS = 4.0
#: The host is measured again before an operation once this many seconds
#: have passed since the last measurement.
CAL_EVERY_S = 0.25
#: A run keeps adding passes until it has at least this many operations.
MIN_OPS = 100

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def load_library():
    """Import ultraherz from ``src/`` of this checkout; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "ultraherz" / "__init__.py").is_file():
        print(f"bench: no ultraherz package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    package = importlib.import_module("ultraherz")
    names = ("cli", "serialize", "harness", "operators", "norms", "radial", "oracle", "padic", "errors")
    modules = {name: importlib.import_module(f"ultraherz.{name}") for name in names}
    import_s = time.perf_counter() - start
    if Path(package.__file__).resolve().parent != (src / "ultraherz").resolve():
        print(f"bench: imported ultraherz from {package.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(package=package, **modules), import_s


def calibration_loop():
    """Fixed pure-Python work like the library's: rational sums, float powers, dicts."""
    total, power, table = Fraction(0), 0.0, {}
    for i in range(1, 1500):
        total += Fraction(i, 2 ** (i % 40 + 1))
        power += math.pow(1.0001, i)
        table[i % 97] = (table.get(i % 97, 0) + i) % 1009
    return total, power, table


class HostClock:
    """Scales measured times to a host whose calibration loop takes CAL_REF_MS.

    On a 2-core VM of a shared host, this process ran for minutes at a time
    either at full speed or about 1.75 times slower, with its CPU time
    growing alike, so the cause lies outside the VM. The calibration loop
    and the library slowed down by the same factor (to within a few
    percent). So the loop is timed before and after each stretch of
    operations (at most CAL_EVERY_S long), and every time measured in the
    stretch is scaled by CAL_REF_MS over the median loop time at its two ends.
    """

    def __init__(self):
        self.loops_ms = self._measure()
        self.last = time.perf_counter()
        self.pending: list[tuple[list, float]] = []
        self.factors: list[float] = []

    @staticmethod
    def _measure() -> list[float]:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            calibration_loop()
            times.append((time.perf_counter() - start) * 1e3)
        return times

    def due(self) -> bool:
        return time.perf_counter() - self.last >= CAL_EVERY_S

    def record(self, samples: list, measured_ms: float) -> None:
        """Append ``measured_ms`` to ``samples``, scaled, at the next ``calibrate``."""
        self.pending.append((samples, measured_ms))

    def calibrate(self) -> None:
        loops = self._measure()
        factor = CAL_REF_MS / statistics.median(self.loops_ms + loops)
        for samples, measured_ms in self.pending:
            samples.append(measured_ms * factor)
        self.pending.clear()
        self.loops_ms = loops
        self.factors.append(factor)
        self.last = time.perf_counter()


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def execute(op):
    """Run one operation; exceptions are outputs (and failures), not crashes."""
    try:
        return op.run()
    except Exception as exc:  # the loop must survive a failing operation
        return exc


def is_bad(output) -> bool:
    return isinstance(output, BaseException) or (
        isinstance(output, tuple) and isinstance(output[0], int) and output[0] != 0)


class Run:
    """One workload run: set-up, timed passes, checks."""

    def __init__(self, lib, import_s, workload, seed, tiny=False):
        self.workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.clock = HostClock()
        import_ms = import_s * 1e3 * CAL_REF_MS / statistics.median(self.clock.loops_ms)
        reps: list[float] = []
        for _ in range(SETUP_REPS):
            self.clock.calibrate()
            start = time.perf_counter()
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            self.ops = workloads.build(lib, workload, seed, str(self.workdir), tiny)
            execute(self.ops[0])
            self.clock.record(reps, (time.perf_counter() - start) * 1e3)
        self.clock.calibrate()
        self.setup_s = (import_ms + statistics.median(reps)) / 1e3
        self.first = [None] * len(self.ops)
        self.repeat_mismatch = [0] * len(self.ops)
        self.executions = [0] * len(self.ops)
        self.latencies_ms: list[list[float]] = [[] for _ in self.ops]

    def run_pass(self, op_id_base=None, tracer=None) -> tuple[float, float]:
        """One pass over all operations; returns its (measured, scaled) time in ms."""
        measured = 0.0
        for i, op in enumerate(self.ops):
            if self.clock.due():
                self.clock.calibrate()
            if tracer is not None:
                tracer.op_id = op_id_base + i
            t0 = time.perf_counter_ns()
            output = execute(op)
            elapsed = (time.perf_counter_ns() - t0) / 1e6
            self.clock.record(self.latencies_ms[i], elapsed)
            measured += elapsed
            self.executions[i] += 1
            text = workloads.canonical(output)
            if self.first[i] is None:
                self.first[i] = (output, text)
            elif text != self.first[i][1]:
                self.repeat_mismatch[i] += 1
        self.clock.calibrate()
        return measured, sum(samples[-1] for samples in self.latencies_ms)

    def verdicts(self) -> list[bool]:
        """Per operation: first output is good and checks against the reference."""
        return [not is_bad(out) and op.check(out) for op, (out, _) in zip(self.ops, self.first)]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def run_workload(lib, import_s, workload, seed, seconds, trace, tiny=False, min_ops=MIN_OPS):
    """Returns (result object for the last line, human-readable lines, the run)."""
    run = Run(lib, import_s, workload, seed, tiny)
    try:
        passes = 0
        untraced_ms = traced_ms = traced_measured_ms = 0.0
        tracer = Tracer(lib) if trace else None
        start = time.perf_counter()
        while True:
            untraced_ms += run.run_pass()[1]
            passes += 1
            if tracer is not None:
                tracer.install()
                try:
                    measured, scaled = run.run_pass(passes * len(run.ops), tracer)
                    traced_ms += scaled
                    traced_measured_ms += measured
                finally:
                    tracer.uninstall()
            if time.perf_counter() - start >= seconds and (trace or sum(run.executions) >= min_ops):
                break
        verdicts = run.verdicts()
        probes = workloads.edge_probes(lib)
    finally:
        run.close()

    attempted = sum(run.executions)
    failed = sum(
        mismatches if ok else executions
        for ok, mismatches, executions in zip(verdicts, run.repeat_mismatch, run.executions))
    lines = [f"workload {workload} seed {seed} trace {trace}: {passes} passes of "
             f"{len(run.ops)} operations, {attempted} attempted, {failed} failed"]
    for op, ok, (_, text) in zip(run.ops, verdicts, run.first):
        if not ok:
            lines.append(f"  FAILED {op.label}: {text[:200]}")
    lines.append(f"output digest {digest(text for _, text in run.first)}")
    lines.append(f"input digest {digest(json.dumps(op.inputs, sort_keys=True) for op in run.ops)}")
    defects = sum(still for _, still, _ in probes)
    lines.append(f"known defects (edge probes, not timed): {defects} of {len(probes)} still present")
    lines += [f"  {'present' if still else 'fixed'}: {name}: {what}" for name, still, what in probes]

    if trace:
        traced_ops = attempted // 2
        metrics = layer_metrics(tracer, traced_ops, traced_measured_ms, traced_ms / untraced_ms - 1)
        metrics["norms.edge_defects"] = float(defects)
        units = PER_LAYER_UNITS
        os.makedirs(ROOT / ".bench_out", exist_ok=True)
        tracer.write_spans(str(ROOT / ".bench_out" / f"trace-{workload}-{seed}.csv"))
    else:
        latencies = [x for samples in run.latencies_ms for x in samples]
        metrics = {
            "setup_s": run.setup_s,
            "ops_per_s": len(latencies) * 1e3 / sum(latencies),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        lines.append(f"{'error_rate':<40} {failed / attempted:.6g} ratio")
        lines.append(f"{'host slowdown (median, not a metric)':<40} "
                     f"{1 / statistics.median(run.clock.factors):.4g} x")
    lines += [f"{name:<40} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines, run


def _per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_ms": "ms", f"{layer}.share": "ratio",
                      f"{layer}.errors_typed": "count", f"{layer}.errors_untyped": "count"})
    units.update({
        "cli.calls": "count", "serialize.loads": "count",
        "harness.validate_hypotheses.self_ms": "ms", "harness.random_family.self_ms": "ms",
        "harness.ms_per_row": "ms",
        "operators.hardy.calls": "count", "operators.hardy.us_per_shell": "us",
        "operators.commutator.self_ms": "ms",
        "radial.ball_integral.calls": "count", "radial.ball_integral.self_ms": "ms",
        "radial.ball_integral.shell_terms": "count", "radial.combine.self_ms": "ms",
        "radial.value_at.calls": "count",
        "norms.luxemburg_norm.calls": "count", "norms.luxemburg_norm.us_per_call": "us",
        "norms.modular_evals": "count",
        "norms.herz_norm.self_ms": "ms", "norms.morrey_herz_norm.self_ms": "ms",
        "norms.morrey_herz_norm.scan_shells": "count", "norms.cmo_norm.self_ms": "ms",
        "norms.cmo_norm.scan_shells": "count", "norms.ball_indicator_norm.calls": "count",
        "oracle.mc_operator_probe.self_ms": "ms", "oracle.mc_integrate.self_ms": "ms",
        "oracle.mc_luxemburg.self_ms": "ms", "oracle.draws": "count",
        "padic.sample_uniform.calls": "count", "padic.sample_uniform.us_per_point": "us",
        "padic.points_per_s": "1/s", "padic.sample_uniform.accept_ratio": "ratio",
        "padic.ppow.calls": "count", "padic.shell.calls": "count",
        "norms.edge_defects": "count", "trace.overhead": "ratio",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def self_check(lib, import_s) -> int:
    """Tiny runs of every workload that prove the harness itself works."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for name in workloads.WORKLOADS:
        untraced, lines0, run = run_workload(lib, import_s, name, 7, 0, 0, tiny=True, min_ops=0)
        traced, lines1, _ = run_workload(lib, import_s, name, 7, 0, 1, tiny=True, min_ops=0)
        got_e2e = {k: v["unit"] for k, v in untraced["metrics"].items()}
        got_layer = {k: v["unit"] for k, v in traced["metrics"].items()}
        if got_e2e != want_e2e:
            problems.append(f"{name}: end-to-end metrics {got_e2e} != {want_e2e}")
        if got_layer != want_layer:
            problems.append(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got_layer.items()) ^ set(want_layer.items()))}")
        printed = "\n".join(lines0)
        for metric, unit in list(END_TO_END.items()) + [("error_rate", "ratio")]:
            if not any(line.startswith(metric + " ") and line.endswith(" " + unit)
                       for line in lines0):
                problems.append(f"{name}: {metric} not printed with unit {unit}")
        in0 = [line for line in lines0 if line.startswith("input digest")]
        in1 = [line for line in lines1 if line.startswith("input digest")]
        if in0 != in1:
            problems.append(f"{name}: traced and untraced inputs differ: {in0} vs {in1}")
        if not (untraced["correct"] and traced["correct"]):
            problems.append(f"{name}: tiny run not correct:\n{printed}")
        for op, (output, _) in zip(run.ops, run.first):
            if not op.check(output):
                problems.append(f"{name}: check rejects the real output of {op.label}")
            if op.check(op.perturb(output)):
                problems.append(f"{name}: check accepts a 1e-6 perturbation of {op.label}")
        print(f"self-check {name}: {len(run.ops)} operations checked and perturbed")
    for problem in problems:
        print("self-check FAILED:", problem)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    lib, import_s = load_library()
    if args.self_check:
        return self_check(lib, import_s)
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, _ = run_workload(lib, import_s, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
