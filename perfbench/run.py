"""fanodelta benchmark: four closed-loop workloads, end to end or traced.

    python3 perfbench/run.py --workload dispatch --seed 1 --seconds 10 --trace 0

runs one workload with one caller for --seconds seconds of whole rounds,
checks every output against checks.py, prints each metric by name and unit,
and ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and gives the per-layer metrics with the tracing overhead.
--workload all (the default) runs every workload in its own process.
The benchmark is stdlib-only and drives src/ without installing it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import tracer as tracing
from checks import CheckFailed
from workloads import HERE, PREPARE, ROOT, SRC, Outcome, check_op, child_env, child_executor

WORKLOADS = tuple(PREPARE)
SETUP_PROBES = 11         # fresh interpreters per set-up median
IMPORT_PROBES = 5         # fresh interpreters per -X importtime median
TAIL_PERCENTILE = {"dispatch": 99, "cold": 80}  # scale and oracles: too few ops

# Spans each workload must reach in a traced run.
REACHES = {
    "dispatch": {"cli.build_parser", "cli.parse_args", "cli.render_json", "cli.run_check",
                 "bundle.bundle_delta", "cone.cone_delta", "cone.iterated_hypersurface_chain",
                 "angle.interval", "calabi.solve_profile", "calabi.futaki_invariant",
                 "exactarith.format_rational", "exactarith.polynomial_call",
                 "oracles.telescoping_iterated_cone"},
    "scale": {"cli.build_parser", "cli.parse_args", "cli.render_json", "bundle.bundle_delta",
              "cone.cone_delta", "cone.iterated_hypersurface_chain", "calabi.solve_profile",
              "calabi.phi", "calabi.futaki_invariant", "exactarith.format_rational",
              "exactarith.polynomial_call", "oracles.telescoping_iterated_cone"},
    "oracles": {"cli.build_parser", "cli.parse_args", "cli.render_json", "bundle.bundle_delta",
                "cone.cone_delta", "calabi.futaki_invariant", "exactarith.format_rational",
                "exactarith.polynomial_call", "oracles.run_verification",
                *tracing.KERNELS, "oracles.branch_min_bruteforce",
                "oracles.cone_bundle_consistency", "oracles.telescoping_iterated_cone"},
}
REACHES["cold"] = REACHES["dispatch"] | REACHES["oracles"]

IMPORT_MODULES = ("fanodelta", "fanodelta.errors", "fanodelta.exactarith", "fanodelta.bundle",
                  "fanodelta.cone", "fanodelta.angle", "fanodelta.calabi", "fanodelta.oracles",
                  "fanodelta.cli")


def say(workload: str, text: str) -> None:
    print(f"[{workload}] {text}", flush=True)


def make_tmp(workload: str) -> Path:
    tmp = ROOT / ".bench_tmp" / f"{workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    return tmp


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# Set-up time.


def probe_setup(workload: str, seed: int) -> float:
    """In a fresh interpreter: import the entry point and warm up."""
    start = perf_counter()
    tmp = make_tmp(workload + "-probe")
    try:
        PREPARE[workload](seed, tmp)
        return perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_prober(workload: str, seed: int):
    """Returns a function that times set-up once in a fresh interpreter.
    The first call's interpreter also fills the bytecode cache, so it is
    run once, untimed, before the prober is returned."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]

    def probe() -> float:
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=120, check=True)
        return json.loads(done.stdout.splitlines()[-1])["setup_s"]
    probe()
    return probe


# Closed loop.


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = Counter()
        self.known = Counter()
        self.latencies: list[float] = []
        self.busy = 0.0
        self.kind_seconds: dict[str, float] = defaultdict(float)

    def record(self, op, outcome: Outcome, seconds: float) -> None:
        self.attempted += 1
        self.busy += seconds
        self.kind_seconds[op.kind] += seconds
        try:
            check_op(op, outcome)
        except CheckFailed as exc:
            self.failed += 1
            (self.known if op.known_fault else self.unexpected)[f"{op.kind}: {exc}"] += 1
            return
        self.latencies.append(seconds)

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def report_failures(self, workload: str) -> None:
        for label, counter in (("known fault", self.known), ("UNEXPECTED", self.unexpected)):
            for reason, count in counter.items():
                say(workload, f"failed {count}x ({label}) {reason}")


def closed_loop(prepared, seconds: float, rounds) -> Tally:
    """Repeat whole rounds until `seconds` have passed; `rounds` yields one
    (execute, tracer or None) per round."""
    tally = Tally()
    start = perf_counter()
    for execute, tracer in rounds:
        for op in prepared.ops:
            outcome, elapsed = execute(op.argv)
            tally.record(op, outcome, elapsed)
            if tracer is not None:
                tracer.record_op(elapsed)
        if perf_counter() - start >= seconds:
            break
    return tally


def untraced_rounds(prepared, seconds: float, probe, setup: list[float]):
    """Rounds with the set-up probes spread evenly over the run, between
    rounds and outside the timed ops, so that they sample the machine over
    the same span as the ops do."""
    start = perf_counter()
    due = [start + seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    while True:
        while due and perf_counter() >= due[0]:
            due.pop(0)
            setup.append(probe())
        yield prepared.execute, None


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    probe = setup_prober(workload, seed)
    setup: list[float] = []
    tmp = make_tmp(workload)
    try:
        prepared = PREPARE[workload](seed, tmp)
        tally = closed_loop(prepared, seconds, untraced_rounds(prepared, seconds, probe, setup))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
    tally.report_failures(workload)
    lat = sorted(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": ((tally.attempted - tally.failed) / tally.busy, "ops/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "peak_rss_mib": (peak_rss_mib(prepared.children), "MiB"),
    }
    say(workload, f"seed={seed} ops/round={len(prepared.ops)} attempted={tally.attempted} "
                  f"failed={tally.failed} timed={tally.busy:.3f}s")
    say(workload, "setup_s samples: " + " ".join(f"{x:.4f}" for x in setup))
    pct = TAIL_PERCENTILE.get(workload)
    if pct and len(lat) * (100 - pct) / 100 >= 10:
        say(workload, f"latency_tail_ms = {1000 * percentile(lat, pct):.4f} ms "
                      f"(p{pct} of {len(lat)} ops)")
    elif pct:
        say(workload, f"latency_tail_ms: only {len(lat)} ops, too few for p{pct}")
    for kind, spent in sorted(tally.kind_seconds.items(), key=lambda kv: -kv[1]):
        say(workload, f"share {kind}: {100 * spent / tally.busy:.1f} % of op time")
    return result(workload, tally, metrics)


# Traced run.


def traced_child_executor(tmp: Path, tracer: tracing.Tracer):
    """One-shot traced CLI process; its span totals are merged into tracer."""
    out = tmp / "trace.json"
    run = child_executor([sys.executable, str(HERE / "traced_cli.py")],
                         child_env({"PERFBENCH_TRACE_OUT": str(out)}))

    def execute(argv):
        outcome, elapsed = run(argv)
        tracer.merge(json.loads(out.read_text(encoding="utf-8")))
        out.unlink()
        return outcome, elapsed
    return execute


def alternating_rounds(prepared, tracer: tracing.Tracer, timings: dict):
    """Untraced and traced rounds in turn; op time per round goes to timings."""
    traced_execute = (traced_child_executor(prepared.tmp, tracer) if prepared.children
                      else prepared.execute)

    def timed(execute, key):
        def run(argv):
            outcome, elapsed = execute(argv)
            timings[key].append(elapsed)
            return outcome, elapsed
        return run

    while True:
        yield timed(prepared.execute, "untraced"), None
        if not prepared.children:
            tracer.install()
        try:
            yield timed(traced_execute, "traced"), tracer
        finally:
            tracer.uninstall()


def import_profile() -> tuple[dict, float]:
    """Median self time per fanodelta module, and the median total, of
    `import fanodelta.cli` under -X importtime in fresh interpreters."""
    command = [sys.executable, "-X", "importtime", "-c", "import fanodelta.cli"]
    selfs: dict[str, list[float]] = defaultdict(list)
    totals = []
    for _ in range(IMPORT_PROBES + 1):
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=120, check=True)
        seen = {}
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = (part.strip() for part in line[12:].split("|"))
            if name in IMPORT_MODULES and own.isdigit():
                seen[name] = (int(own) / 1000, int(cumulative) / 1000)
        if len(seen) != len(IMPORT_MODULES):
            raise RuntimeError("-X importtime did not list every fanodelta module")
        for name, (own, _) in seen.items():
            selfs[name].append(own)
        totals.append(seen["fanodelta.cli"][1])
    # The first interpreter may compile bytecode; drop it.
    return ({name: statistics.median(v[1:]) for name, v in selfs.items()},
            statistics.median(totals[1:]))


def interpreter_floor_ms() -> float:
    times = []
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, timeout=60)
        times.append(1000 * (perf_counter() - start))
    return statistics.median(times)


def traced(workload: str, seed: int, seconds: float) -> dict | None:
    tracer = tracing.Tracer()
    timings = {"untraced": [], "traced": []}
    tmp = make_tmp(workload)
    try:
        prepared = PREPARE[workload](seed, tmp)
        tally = closed_loop(prepared, seconds, alternating_rounds(prepared, tracer, timings))
    finally:
        tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
    tally.report_failures(workload)
    missing = sorted(name for name in REACHES[workload] if tracer.calls[name] == 0)
    if missing:
        print(f"error: traced {workload} run never reached: {', '.join(missing)}",
              file=sys.stderr)
        return None
    metrics = tracer.per_op()
    untraced_mean = statistics.fmean(timings["untraced"])
    traced_mean = statistics.fmean(timings["traced"])
    metrics["trace.overhead_pct"] = (100 * (traced_mean / untraced_mean - 1), "%")
    modules, total = import_profile()
    metrics["import.total_ms"] = (total, "ms")
    for name, own in modules.items():
        metrics[f"import.{name.rpartition('.')[2]}_ms"] = (own, "ms")
    say(workload, f"seed={seed} traced ops={tracer.ops} untraced ops={len(timings['untraced'])}; "
                  f"mean op {1000 * untraced_mean:.3f} ms untraced, "
                  f"{1000 * traced_mean:.3f} ms traced")
    if workload == "cold":
        say(workload, f"python -c pass floor = {interpreter_floor_ms():.1f} ms")
    return result(workload, tally, metrics)


def result(workload: str, tally: Tally, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        say(workload, f"{name} = {value:.6g} {unit}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return 1
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "fanodelta" / "cli.py").is_file():
        print(f"error: {SRC / 'fanodelta'} is missing; run from a fanodelta checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
        return 0
    run = traced if args.trace else end_to_end
    outcome = run(args.workload, args.seed, args.seconds)
    if outcome is None:
        return 1
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
