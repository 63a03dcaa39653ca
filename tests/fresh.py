"""The fresh-process checks: each golden output and the benchmark's seed-7
digests, each made by a new ``python -X dev -W error`` process.

    python tests/fresh.py [INTERPRETER ...]

For each interpreter given (the one running this script when none is), it
runs, from the repository root:

* ``streamring.cli simulate`` on each golden scenario, as JSON and as CSV,
  compared byte for byte with ``tests/golden/<name>.json`` and ``.csv``;
* the same on ``churn_stalls_6`` as JSON with the summary printed: the file
  must match its golden, and standard output must hold one ``warning:``
  line per warning of the report and end with ``wrote <path>``;
* ``streamring.cli calibrate --label A100``, whose report and model file
  are compared with ``tests/golden/calibrate_A100.json`` and
  ``calibrate_A100.model.json``, then ``topt --continuous`` on that model
  file, compared with ``tests/golden/topt_A100.json``;
* ``perfbench/run.py --workload all --seed 7 --seconds 0.5``, untraced,
  traced, and untraced under ``PYTHONHASHSEED=0`` and ``=1``: each checks
  every report it makes against its recorded digest and exits 1 on a
  mismatch.

A fresh process imports only what its command runs, which the in-process
tests cannot show, and development mode with warnings as errors turns an
unclosed file or a deprecated call into a failure.  The script prints one
line per check and exits 1 if any check fails.  Each interpreter first runs
``-X dev -W error -c pass``: one that fails it gets one ``FAIL`` line,
naming it and its exit status, counts as one failure and runs no checks.
It needs only the standard library, so it runs on interpreters without
pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ("bilingual_10", "worst_case_6", "handoff_3", "churn_stalls_6",
             "table_tail_4", "churn_large_5")
#: A check's process that runs longer than this fails the check.
TIMEOUT_S = 600


def run(python: str, args: list[str], env: Optional[dict] = None,
        stdout: Optional[Path] = None) -> Optional[str]:
    """Run ``python -X dev -W error *args`` from the repository root, its
    standard output written to ``stdout`` if given.  Returns None on exit
    status 0, and otherwise what went wrong."""
    try:
        done = subprocess.run(
            [python, "-X", "dev", "-W", "error", *args], cwd=ROOT,
            capture_output=True, timeout=TIMEOUT_S,
            env=dict(os.environ, **(env or {})))
    except (OSError, subprocess.TimeoutExpired) as exc:
        return str(exc)
    if stdout is not None:
        stdout.write_bytes(done.stdout)
    if done.returncode != 0:
        lines = done.stderr.decode("utf-8", "replace").strip().splitlines()
        return f"exit status {done.returncode}" + (f": {lines[-1]}" if lines else "")
    return None


def differs(made: Path, golden: Path) -> Optional[str]:
    """None if ``made`` holds ``golden``'s bytes, and otherwise where they
    first differ."""
    if not made.exists():
        return f"{made.name} was not written"
    got, expected = made.read_bytes(), golden.read_bytes()
    if got == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    return f"differs from {golden.relative_to(ROOT)} at byte {at}"


def summarized(stdout: Path, out: Path) -> Optional[str]:
    """None if ``stdout`` holds a ``warning:`` line for each warning of the
    report ``out``, in order, and ends with ``wrote <out>``; otherwise what
    is missing."""
    lines = stdout.read_text(encoding="utf-8").splitlines()
    warnings = json.loads(out.read_text(encoding="utf-8"))["warnings"]
    if [line for line in lines if line.startswith("warning: ")] != [
            f"warning: {warning}" for warning in warnings]:
        return f"the summary does not list the {len(warnings)} warnings"
    if lines[-1:] != [f"wrote {out}"]:
        return f"the summary does not end with 'wrote {out}'"
    return None


def checks(python: str, tmp: Path):
    """Each check's name and outcome, None when it passed, in order."""
    cli = {"PYTHONPATH": str(ROOT / "src")}
    for name in SCENARIOS:
        scenario = ROOT / "scenarios" / f"{name}.json"
        if not scenario.exists():
            scenario = GOLDEN / f"{name}.scenario.json"
        for fmt in ("json", "csv"):
            out = tmp / f"{name}.{fmt}"
            yield f"simulate {name} {fmt}", run(python, [
                "-m", "streamring.cli", "simulate", "--scenario", str(scenario),
                "--format", fmt, "--out", str(out), "--quiet"], cli) or differs(
                    out, GOLDEN / f"{name}.{fmt}")

    name = "churn_stalls_6"
    out, summary = tmp / f"{name}.summarized.json", tmp / "summary.txt"
    yield f"simulate {name} json with its summary", run(python, [
        "-m", "streamring.cli", "simulate", "--scenario",
        str(GOLDEN / f"{name}.scenario.json"), "--format", "json", "--out",
        str(out)], cli, summary) or differs(
            out, GOLDEN / f"{name}.json") or summarized(summary, out)

    model, report = tmp / "model.json", tmp / "calibrate.json"
    yield "calibrate A100", run(python, [
        "-m", "streamring.cli", "calibrate", "--label", "A100", "--format",
        "json", "--out", str(model)], cli, report) or differs(
            report, GOLDEN / "calibrate_A100.json") or differs(
            model, GOLDEN / "calibrate_A100.model.json")
    topt = tmp / "topt.json"
    yield "topt A100", run(python, [
        "-m", "streamring.cli", "topt", "--model", str(model), "--continuous",
        "--format", "json"], cli, topt) or differs(topt, GOLDEN / "topt_A100.json")

    for label, trace, env in (("untraced", "0", None), ("traced", "1", None),
                              ("PYTHONHASHSEED=0", "0", {"PYTHONHASHSEED": "0"}),
                              ("PYTHONHASHSEED=1", "0", {"PYTHONHASHSEED": "1"})):
        result = tmp / "bench.json"
        problem = run(python, [
            "perfbench/run.py", "--workload", "all", "--seed", "7",
            "--seconds", "0.5", "--trace", trace], env, result)
        if problem:  # its last line on stderr may be another workload's
            try:
                counts = json.loads(result.read_text().splitlines()[-1])
                problem += (f"; {counts['failed']} of {counts['attempted']}"
                            " calls failed")
            except (OSError, LookupError, TypeError, ValueError):
                pass
        yield f"seed-7 digests, {label}", problem


def main(argv: list[str]) -> int:
    failures = 0
    for python in argv or [sys.executable]:
        # an interpreter that cannot start fails once, not once per check
        problem = run(python, ["-c", "pass"])
        if problem:
            failures += 1
            print(f"FAIL {python}: does not start: {problem}", flush=True)
            continue
        with tempfile.TemporaryDirectory() as tmp:
            for name, problem in checks(python, Path(tmp)):
                failures += problem is not None
                print(f"{'FAIL' if problem else 'ok  '} {python}: {name}"
                      + (f": {problem}" if problem else ""), flush=True)
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
