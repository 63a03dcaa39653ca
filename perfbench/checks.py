"""Output checks on ``simulate`` reports.

Each check returns a list of failure messages; an empty list means the report
passed.  The checks hold the paper's guarantees (k never exceeds the pool or
the language count; zero stalls, exactly, when tau < 1; stalls when tau > 1
and a session spans several segments) plus a digest that pins every
simulated statistic, so a change meant to save host time cannot alter a
report unnoticed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

# The report keys present when the benchmark was written.  The digest covers
# only these, so a key added later leaves it unchanged.
_SAMPLE = ("time_s", "k", "token_cost", "naive_cost", "alloc_failures", "stalls_cum")
_STARTUP = ("time", "language", "startup_delay", "cold")
_AGGREGATES = ("max_k", "mean_k", "total_stall_seconds", "cost_ratio")


def report_digest(report: dict) -> str:
    """sha256 of the report restricted to the keys it had when the
    benchmark was written."""
    pinned = {
        "scenario_digest": report["scenario_digest"],
        "resolved_segment_duration": report["resolved_segment_duration"],
        "aggregates": {key: report["aggregates"][key] for key in _AGGREGATES},
        "warnings": report["warnings"],
        "samples": [{key: s[key] for key in _SAMPLE} for s in report["samples"]],
        "listener_stalls": report["listener_stalls"],
        "turn_startups": [{key: t[key] for key in _STARTUP} for t in report["turn_startups"]],
    }
    canonical = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioFacts:
    """What a correct report must agree with, taken from the scenario file
    and the latency model it names."""

    pool: int
    languages: int
    segment_duration: float
    tau: float
    longest_session_s: float  # longest span between consecutive events


def scenario_facts(scenario: dict, tau: float) -> ScenarioFacts:
    languages = {p["language"] for p in scenario["participants"]}
    languages |= {e["language"] for e in scenario["events"] if "language" in e}
    marks = sorted({e["time"] for e in scenario["events"]} | {scenario["run_duration"]})
    return ScenarioFacts(
        pool=scenario["pool_capacity"],
        languages=len(languages),
        segment_duration=float(scenario["segment_duration"]),
        tau=tau,
        longest_session_s=max(b - a for a, b in zip(marks, marks[1:])),
    )


def check_report(
    report: dict, facts: ScenarioFacts, expected_digest: Optional[str]
) -> list[str]:
    failures: list[str] = []
    samples = report["samples"]
    agg = report["aggregates"]
    if not samples:
        failures.append("report has no samples")
    over = [s for s in samples if s["k"] > facts.pool]
    if over:
        failures.append(f"{len(over)} samples have k > pool ({facts.pool})")
    if agg["max_k"] > facts.languages:
        failures.append(
            f"max_k {agg['max_k']} exceeds the {facts.languages} distinct languages"
        )
    if facts.tau < 1.0 and agg["total_stall_seconds"] != 0.0:
        failures.append(
            f"tau={facts.tau:.4f} < 1 but total_stall_seconds="
            f"{agg['total_stall_seconds']!r}"
        )
    if (
        facts.tau > 1.0
        and facts.longest_session_s >= 2 * facts.segment_duration
        and not agg["total_stall_seconds"] > 0.0
    ):
        failures.append(
            f"tau={facts.tau:.4f} > 1 over multi-segment sessions but no stall"
        )
    for field in ("time_s", "stalls_cum"):
        values = [s[field] for s in samples]
        if any(b < a for a, b in zip(values, values[1:])):
            failures.append(f"sample {field} decreases")
    if expected_digest is not None and report_digest(report) != expected_digest:
        failures.append("report digest differs from the recorded reference")
    return failures
