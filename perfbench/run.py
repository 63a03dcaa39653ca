"""Benchmark of ``streamring simulate`` on seeded, generated meetings.

    python3 perfbench/run.py --workload handoff-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each call is the one a user makes, ``streamring.cli.main(["simulate",
"--scenario", F, "--format", "json", "--out", O])``, run in this process in a
closed loop: one client, each call starting when the previous one ended, no
extra threads.  The meetings come from ``workloads.py`` and the seed.

``--trace 0`` reports the end-to-end metrics, all in host time.  Times are
wall times scaled to a host of fixed speed (see ``REF_SECONDS``):

* ``run_s_p50``, ``run_s_p90``: median and p90 time of one call.  A run
  makes whole passes over the workload's scenarios until ``--seconds`` have
  passed and at least 100 calls were made, so at least ten lie beyond p90;
  the call count is printed.
* ``sim_s_per_s``: simulated ``run_duration`` summed over one pass through
  the scenarios, divided by the pass's summed call time; the median over
  the run's passes.
* ``peak_mem_mb``: largest ``tracemalloc`` peak of one call, over one untimed
  call per scenario made apart from the timed ones.
* ``setup_s``: import ``streamring``, write the scenario files and make one
  warm-up call; done nine times in a fresh import each, the median reported.

The error rate is ``failed / attempted`` in the result line.  A call fails
when it exits non-zero, raises, or its output fails a check in
``checks.py``; the digest check uses ``reference.json`` when it holds the
seed.  One checked call per scenario also runs ``verify_invariants`` on a
seeded subset of orchestration passes.  The command exits 1 when any call
failed.

``--trace 1`` spends half of ``--seconds`` untraced and half with spans
around the layers' entry points (see ``tracing.py``), and reports the
per-layer metrics, the layer shares of call time (on standard error) and
``trace.overhead``, the traced over the untraced median call time.  Layer
times are medians over traced calls of span self times (a span's duration
minus its child spans), scaled like call times; counts are means per call
over whole passes.  ``core.tag_eq_calls`` and ``orchestrator.verify_us``
come from the checked calls, where ``LanguageTag.__eq__`` is counted with
verification excluded.  The spans are written to
``perfbench/_work/<workload>-<seed>/spans.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are also
printed by name with their units on standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import logging
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

MIN_CALLS = 100  # so that at least ten calls lie beyond p90
# Nominal time of ``reference_loop``.  On a shared two-core host the
# interpreter's speed was measured to drift by up to 1.8x over tens of
# seconds, and that drift moves the reference loop and a ``simulate`` call
# alike.  Every reported time is therefore the wall time scaled by
# REF_SECONDS over the reference loop's time measured around it: seconds on
# a host that runs the loop in REF_SECONDS.
REF_SECONDS = 0.003
SETUP_REPS = 9
VERIFY_PASSES = 4  # orchestration passes checked per scenario
REFERENCE = HERE / "reference.json"


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start


class _Sink:
    """Standard output of a call: the human summary is rendered, not shown."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class Program:
    """The ``streamring`` modules of one fresh import."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m.split(".")[0] == "streamring"]:
            del sys.modules[name]
        src = ROOT / "src"
        if not (src / "streamring").is_dir():  # never fall back to an installed copy
            raise ImportError(f"no streamring package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        self.cli = importlib.import_module("streamring.cli")
        self.core = sys.modules["streamring.core"]
        self.latency = sys.modules["streamring.latency"]
        self.orchestrator = sys.modules["streamring.orchestrator"]
        self.simulator = sys.modules["streamring.simulator"]

    def simulate(self, scenario: Path, out: Path, tracer: Optional[Tracer] = None) -> int:
        argv = ["simulate", "--scenario", str(scenario), "--format", "json",
                "--out", str(out)]
        with contextlib.redirect_stdout(_Sink()):
            if tracer is None:
                return self.cli.main(argv)
            return tracer.call("cli.main", self.cli.main, argv)


class Bench:
    """One workload at one seed: its scenario files, what their reports must
    satisfy, and the tally of attempted and failed calls."""

    def __init__(self, workload: str, seed: int, digests: Optional[list[str]],
                 work: Optional[Path] = None, setup_reps: int = SETUP_REPS) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work or WORK / f"{workload}-{seed}"
        self.attempted = 0
        self.failures: list[str] = []
        self._failed_calls: set[int] = set()
        self.setup_s = self._setup(setup_reps)
        self.outs = [p.with_suffix(".out.json") for p in self.paths]
        data = [json.loads(p.read_bytes()) for p in self.paths]
        self.run_durations = [s["run_duration"] for s in data]
        self.facts = [
            checks.scenario_facts(s, self._tau(s)) for s in data
        ]
        # recorded reference digests, else those of the first checked reports
        self.digests: list[Optional[str]] = list(digests or [None] * len(self.paths))
        self.verified: list[Optional[bytes]] = [None] * len(self.paths)
        self.verify_sample = [
            set(random.Random(f"verify/{workload}/{seed}/{i}").sample(
                range(len(s["events"])), min(VERIFY_PASSES, len(s["events"]))))
            for i, s in enumerate(data)
        ]

    def _setup(self, reps: int) -> float:
        times = []
        for _ in range(reps):
            ref = reference_loop()
            start = time.perf_counter()
            self.prog = Program()
            self.paths = workloads.write(self.workload, self.seed, self.work)
            rc = self.prog.simulate(self.paths[0], self.paths[0].with_suffix(".out.json"))
            wall = time.perf_counter() - start
            times.append(wall * 2 * REF_SECONDS / (ref + reference_loop()))
            self.attempted += 1
            if rc != 0:
                self.fail(f"warm-up call exited {rc}")
        return statistics.median(times)

    def _tau(self, scenario: dict) -> float:
        model = self.prog.simulator.resolve_model(scenario["latency_model"])
        return model.tau(float(scenario["segment_duration"]))

    @property
    def failed(self) -> int:
        return len(self._failed_calls)

    def fail(self, message: str) -> None:
        """Count the latest call as failed and keep the reason."""
        self._failed_calls.add(self.attempted)
        self.failures.append(message)

    def call(self, index: int, tracer: Optional[Tracer] = None) -> float:
        """One checked call; returns its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            rc = self.prog.simulate(self.paths[index], self.outs[index], tracer)
        except Exception as exc:  # a raising call is a failed call
            elapsed = time.perf_counter() - start
            self.fail(f"{self.paths[index].name}: raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.fail(f"{self.paths[index].name}: exit code {rc}")
        else:
            self._check_output(index)
        return elapsed

    def _check_output(self, index: int) -> None:
        data = self.outs[index].read_bytes()
        if data == self.verified[index]:
            return
        report = json.loads(data)
        found = checks.check_report(report, self.facts[index], self.digests[index])
        for failure in found:
            self.fail(f"{self.paths[index].name}: {failure}")
        if found:
            return
        if self.verified[index] is None:
            self.verified[index] = data
            self.digests[index] = checks.report_digest(report)

    def checked_pass(self) -> tuple[float, list[float]]:
        """One call per scenario with ``verify_invariants`` after a seeded
        subset of orchestration passes and ``LanguageTag.__eq__`` counted.
        Returns the mean equality calls per call (verification excluded) and
        every verification's time in microseconds."""
        prog = self.prog
        eq_calls = 0
        verify_us: list[float] = []
        for index in range(len(self.paths)):
            count = {"eq": 0, "pass": 0}
            sample = self.verify_sample[index]
            problems: list[str] = []

            def counting(original):
                def eq(tag, other):
                    count["eq"] += 1
                    return original(tag, other)
                return eq

            def verifying(original):
                def update(meeting, *args, **kwargs):
                    result = original(meeting, *args, **kwargs)
                    if count["pass"] in sample:
                        before = count["eq"]
                        start = time.perf_counter()
                        problems.extend(prog.orchestrator.verify_invariants(
                            meeting,
                            translate_same_language=kwargs.get(
                                "translate_same_language", False)))
                        verify_us.append((time.perf_counter() - start) * 1e6)
                        count["eq"] = before
                    count["pass"] += 1
                    return result
                return update

            with Patches() as patches:
                patches.replace(prog.core.LanguageTag, "__eq__", counting)
                patches.replace(prog.simulator, "update_orchestration", verifying)
                self.call(index)
            eq_calls += count["eq"]
            for problem in problems:
                self.fail(f"{self.paths[index].name}: verify_invariants: {problem}")
        return eq_calls / len(self.paths), verify_us

    def loop(self, seconds: float, tracer: Optional[Tracer] = None,
             min_calls: int = MIN_CALLS) -> tuple[list[float], list[float]]:
        """Closed loop of whole passes over the scenarios until ``seconds``
        passed and ``min_calls`` were made.  Returns each call's scaled time
        and each call's scale factor (see REF_SECONDS)."""
        gc.collect()
        durations: list[float] = []
        scales: list[float] = []
        deadline = time.perf_counter() + seconds
        ref = reference_loop()
        while len(durations) < min_calls or time.perf_counter() < deadline:
            for index in range(len(self.paths)):
                wall = self.call(index, tracer)
                after = reference_loop()
                scales.append(2 * REF_SECONDS / (ref + after))
                durations.append(wall * scales[-1])
                ref = after
        return durations, scales

    def peak_mem_mb(self) -> float:
        gc.collect()
        peak = 0
        tracemalloc.start()
        try:
            for index in range(len(self.paths)):
                tracemalloc.reset_peak()
                self.call(index)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return peak / 2**20


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(bench: Bench, seconds: float) -> dict:
    bench.checked_pass()
    durations, _ = bench.loop(seconds)
    n = len(bench.paths)
    print(f"{bench.workload}: {len(durations)} timed calls", file=sys.stderr)
    return {
        "run_s_p50": (statistics.median(durations), "s"),
        "run_s_p90": (p90(durations), "s"),
        "sim_s_per_s": (statistics.median(
            sum(bench.run_durations) / sum(durations[i:i + n])
            for i in range(0, len(durations), n)), "sim_s/s"),
        "peak_mem_mb": (bench.peak_mem_mb(), "MiB"),
        "setup_s": (bench.setup_s, "s"),
    }


def _after_pass(tracer: Tracer, args: tuple, result) -> None:
    meeting, events = result
    tracer.add("events", len(events))
    for event in events:
        kind = event.kind.value
        if kind in ("pipeline-reused", "pipeline-allocated", "allocation-failed"):
            tracer.add(kind)
    tracer.counters[-1]["retained"] = len(meeting.pipelines)


def _after_schedule(tracer: Tracer, args: tuple, result) -> None:
    jobs, playback = result
    tracer.add("segments", len(jobs))
    if playback.stall_total > 0:
        tracer.add("stalled")


def _after_report(tracer: Tracer, args: tuple, result) -> None:
    report = args[0]
    tracer.add("samples", len(report.series.samples))
    tracer.add("sessions", len(report.series.turn_startups))
    tracer.add("max_k", report.max_k)


def traced_patches(prog: Program, tracer: Tracer) -> Patches:
    """Wrap the names callers look up at call time."""
    patches = Patches()
    patches.replace(prog.cli, "load_scenario", tracer.wrap("load_scenario"))
    patches.replace(prog.cli, "run_scenario", tracer.wrap("run_scenario"))
    patches.replace(prog.cli, "report_to_json",
                    tracer.wrap("report_to_json", _after_report))
    patches.replace(prog.simulator, "validate_scenario",
                    tracer.wrap("validate_scenario"))
    patches.replace(prog.simulator, "resolve_model", tracer.wrap("resolve_model"))
    patches.replace(prog.simulator, "update_orchestration",
                    tracer.wrap("update_orchestration", _after_pass))
    patches.replace(prog.simulator, "schedule_stream",
                    tracer.wrap("schedule_stream", _after_schedule))
    patches.replace(prog.latency.LatencyModel, "evaluate", tracer.wrap("evaluate"))
    return patches


# Layers as sums of span self times; together they cover the whole call.
LAYERS = {
    "cli": ("cli.main",),
    "simulator": ("load_scenario", "validate_scenario", "run_scenario", "report_to_json"),
    "orchestrator": ("update_orchestration",),
    "segproc": ("schedule_stream",),
    "latency": ("evaluate", "resolve_model"),
}


def purpose(workload: str, share: dict[str, float], run_self: float) -> str:
    """Whether the traced run shows the load each workload was built for."""
    if workload == "handoff-large":
        ok = share["orchestrator"] + run_self > 0.5
        claim = "orchestrator + simulator self > 50%"
    elif workload == "churn-large":
        ok = max(share, key=share.get) == "orchestrator"
        claim = "orchestrator is the largest layer"
    else:
        ok = share["segproc"] + share["latency"] + share["cli"] > 0.5 and share["orchestrator"] < 0.05
        claim = "segproc + latency + cli > 50% and orchestrator < 5%"
    return f"{claim}: {'confirmed' if ok else 'NOT confirmed'}"


def per_layer(bench: Bench, seconds: float) -> dict:
    eq_calls, verify_us = bench.checked_pass()
    plain, _ = bench.loop(seconds / 2, min_calls=len(bench.paths))
    tracer = Tracer()
    with traced_patches(bench.prog, tracer):
        traced, scales = bench.loop(seconds / 2, tracer, min_calls=len(bench.paths))
    tracer.write(bench.work / "spans.csv")
    for index, out in enumerate(bench.outs):
        if bench.verified[index] is not None and out.read_bytes() != bench.verified[index]:
            bench.fail(f"{out.name}: traced output differs from untraced")

    # span times are scaled like call times, by their call's factor
    selfs = [{name: t * scale for name, t in c.items()}
             for c, scale in zip(tracer.self_times(), scales)]
    counters = tracer.counters
    calls = len(selfs)

    def spans_s(name: str) -> list[float]:
        return [t * scales[call] for call, t in tracer.spans(name)]

    def self_s(*names: str) -> float:
        return statistics.median(sum(c.get(n, 0.0) for n in names) for c in selfs)

    def per_call(counter: str) -> float:
        return sum(c.get(counter, 0) for c in counters) / calls

    passes_us = [t * 1e6 for t in spans_s("update_orchestration")]
    schedule_total = sum(spans_s("schedule_stream"))
    segments = sum(c.get("segments", 0) for c in counters)
    reused = sum(c.get("pipeline-reused", 0) for c in counters)
    allocated = sum(c.get("pipeline-allocated", 0) for c in counters)
    totals = {layer: sum(sum(c.get(n, 0.0) for n in names) for c in selfs)
              for layer, names in LAYERS.items()}
    whole = sum(totals.values())
    share = {layer: t / whole for layer, t in totals.items()}
    run_self = sum(c.get("run_scenario", 0.0) for c in selfs) / whole
    print(f"{bench.workload}: {len(traced)} traced calls, {len(plain)} untraced; "
          "layer shares " + ", ".join(f"{k} {v:.1%}" for k, v in share.items())
          + f" (simulator self {run_self:.1%})", file=sys.stderr)
    print(f"{bench.workload}: {purpose(bench.workload, share, run_self)}", file=sys.stderr)
    return {
        "cli.self_s": (self_s("cli.main"), "s"),
        "cli.out_bytes": (sum(o.stat().st_size for o in bench.outs) / len(bench.outs), "bytes"),
        "simulator.load_s": (self_s("load_scenario"), "s"),
        "simulator.validate_s": (self_s("validate_scenario"), "s"),
        "simulator.run_self_s": (self_s("run_scenario"), "s"),
        "simulator.report_to_json_s": (self_s("report_to_json"), "s"),
        "simulator.samples": (per_call("samples"), "count"),
        "simulator.sessions": (per_call("sessions"), "count"),
        "orchestrator.passes": (len(passes_us) / calls, "count"),
        "orchestrator.pass_s": (self_s("update_orchestration"), "s"),
        "orchestrator.pass_us_p50": (statistics.median(passes_us), "us"),
        "orchestrator.pass_us_p90": (p90(passes_us), "us"),
        "orchestrator.events": (per_call("events"), "count"),
        "orchestrator.reuse_ratio": (reused / max(1, reused + allocated), "ratio"),
        "orchestrator.alloc_failed": (per_call("allocation-failed"), "count"),
        "orchestrator.retained_pipelines": (per_call("retained"), "count"),
        "orchestrator.max_k": (per_call("max_k"), "count"),
        "orchestrator.verify_us": (statistics.median(verify_us), "us"),
        "core.tag_eq_calls": (eq_calls, "count"),
        "segproc.schedule_self_s": (self_s("schedule_stream"), "s"),
        "segproc.segments": (segments / calls, "count"),
        "segproc.segments_per_s": (segments / schedule_total, "1/s"),
        "segproc.stalled_sessions": (per_call("stalled"), "count"),
        "latency.evaluate_calls": (len(tracer.spans("evaluate")) / calls, "count"),
        "latency.evaluate_s": (self_s("evaluate"), "s"),
        "latency.resolve_calls": (len(tracer.spans("resolve_model")) / calls, "count"),
        "latency.resolve_s": (self_s("resolve_model"), "s"),
        "trace.overhead": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }


def load_references() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    recorded = load_references().get(workload, {}).get(str(seed))
    if recorded is None:
        print(f"{workload}: seed {seed} has no recorded reference digests; "
              "reports are checked for self-consistency only", file=sys.stderr)
    bench = Bench(workload, seed, recorded)
    metrics = per_layer(bench, seconds) if trace else end_to_end(bench, seconds)
    for path in bench.work.glob("*.json"):
        path.unlink()
    if not any(bench.work.iterdir()):
        bench.work.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:34s} {value:.6g} {unit}", file=sys.stderr)
    print(f"{workload}  error_rate {bench.failed}/{bench.attempted}", file=sys.stderr)
    for failure in bench.failures[:20]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A library caller's setup: without a handler, each allocation failure's
    # logger.error would reach stderr through logging's last resort.
    logging.getLogger("streamring").addHandler(logging.NullHandler())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except ImportError as exc:
        print(f"perfbench: cannot import streamring from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    result = results[args.workload] if args.workload != "all" else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
