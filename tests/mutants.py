"""The mutation gate: each named mutant of ``src/`` must fail the tests
named for it, and the no-op control must pass them all.

    python tests/mutants.py

For each mutant, the runner copies ``src/`` to a temporary directory,
requires the mutant's old text exactly once in its file, applies the edit
and runs the named pytest node ids on the copy (``PYTHONPATH`` set to it,
the temporary directory as the working directory, so hypothesis keeps the
failing examples it finds there).  A mutant is caught when pytest exits 1,
a test failed; any other outcome, such as a module that no longer imports
or a node id that does not exist, fails the gate.
The control runs every node id of the table, so each is checked to exist
and to pass on the unmutated code.  The exit status is 0 when every mutant
is caught and the control passes, and 1 otherwise.  It needs only the
standard library, pytest and the test suite's own dependencies.

``tests/test_mutants.py`` checks in tier-1 that each old text occurs
exactly once, so a refactor that moves a mutated line must update its
entry here in the same change.  An equivalent mutant, one that gives the
same reports as the code, is never listed; those left out:

* ``when is row["time_s"]`` as ``==`` in ``run_scenario``'s sample loop:
  boundary times are positive floats, so equal times are the same row's;
* ``reduce(add, ...)`` as ``sum(...)`` in ``settle``: ``sum()`` adds floats
  left to right on Python 3.10 and 3.11, as ``reduce`` does, and only
  compensates from 3.12 on.

A mutant that keeps the scenario through ``run_scenario``'s loop is left
out too, though not equivalent: the test that catches it needs Python 3.11
or later, which frees a call's arguments with the callee's frame, and the
gate also runs on 3.10, where that test is skipped.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


SIMULATOR = "streamring/simulator.py"
ORCHESTRATOR = "streamring/orchestrator.py"
ORCHESTRATION = "tests/test_orchestrator.py::"
GOLDEN = "tests/test_golden.py::test_simulate_json_matches_golden"
SESSIONS = ("tests/test_simulator.py::TestSharedSchedules::"
            "test_every_session_matches_its_own_schedule")
LEDGER = ("tests/test_simulator.py::TestListenerLedger::"
          "test_charges_match_one_charge_per_close")
EXHAUSTIVE = ("tests/test_simulator_exhaustive.py::"
              "test_every_small_meeting_matches_per_session_scheduling")
TIED = ("tests/test_simulator.py::TestTiedBoundaries::"
        "test_rows_interleave_by_language")
COLD_START = "tests/test_segproc.py::TestColdStart::"
FREED = ("tests/test_cli.py::TestSimulate::"
         "test_scenario_is_freed_before_the_report_is_written")
_LOOP = ("    for when, event in [(0.0, None), *((e.time + 0.0, e) for e in events),\n"
         "                        (run_duration, None)]:\n")
_SCHEDULES = ("        schedules: dict[tuple[float, bool], "
              "tuple[float, float, list, list, list]] = {}\n")

MUTANTS = (
    Mutant("control: no edit", SIMULATOR,
           "MAX_SAMPLE_ROWS = 1_500_000", "MAX_SAMPLE_ROWS = 1_500_000", ()),
    # a step's shared schedules
    Mutant("schedule table hoisted out of the step", SIMULATOR,
           _LOOP + _SCHEDULES, _SCHEDULES[4:] + _LOOP,
           (SESSIONS,)),
    # failures counted by their warnings (the churn_stalls_6 golden's first
    # warning is its viability warning)
    Mutant("alloc_failures read as len(warnings)", SIMULATOR,
           "naive, len(failed))", "naive, len(warnings))",
           (f"{GOLDEN}[churn_stalls_6]",)),
    Mutant("allocation warnings before the others", SIMULATOR,
           "warnings=(*warnings, *failed)", "warnings=(*failed, *warnings)",
           (f"{GOLDEN}[churn_stalls_6]",)),
    # the run loop's rules
    Mutant("warm and cold swapped on reopen", SIMULATOR,
           "open_sessions[language] = (when, reopen_cold)",
           "open_sessions[language] = (when, not reopen_cold)",
           (SESSIONS,)),
    Mutant("a reused pipeline's warmth inverted", SIMULATOR,
           "reopen_cold = change.reinitialized",
           "reopen_cold = not change.reinitialized",
           (SESSIONS,)),
    Mutant("an allocation failure opens a cold session", SIMULATOR,
           '"allocation failed for language " + change.language + suffix)\n'
           "                continue\n",
           '"allocation failed for language " + change.language + suffix)\n'
           "                reopen_cold = True\n",
           (f"{GOLDEN}[churn_stalls_6]",)),
    Mutant("end-of-run closes dropped", SIMULATOR,
           "for language in sorted(open_sessions))", "for language in ())",
           (SESSIONS,)),
    # the order moves only the stall total's last bits
    Mutant("end-of-run closes in insertion order", SIMULATOR,
           "for language in sorted(open_sessions))",
           "for language in list(open_sessions))",
           (f"{EXHAUSTIVE}[shared-listener]",)),
    Mutant("end-of-run closes in reverse language order", SIMULATOR,
           "for language in sorted(open_sessions))",
           "for language in sorted(open_sessions, reverse=True))",
           (f"{EXHAUSTIVE}[shared-listener]",)),
    Mutant("a same-instant state point appended", SIMULATOR,
           "if points and points[-1][0] == when:", "if False:",
           (f"{GOLDEN}[churn_stalls_6]",)),
    # the listener ledger
    Mutant("the end charges the speaker", SIMULATOR,
           "difference(since, (meeting.active_speaker,))",
           "difference(since)",
           (f"{GOLDEN}[handoff_3]",)),
    Mutant("no restart for the outgoing speaker", SIMULATOR,
           "since[previous] = len(ledger.get(roster[previous], ()))",
           "pass",
           (f"{LEDGER}[listener-takes-the-floor-and-hands-it-back]",)),
    Mutant("since.get for since.pop", SIMULATOR,
           "since.pop(pid, 0)", "since.get(pid, 0)",
           (f"{GOLDEN}[churn_stalls_6]",)),
    Mutant("a reading given to a speaker who changes language", SIMULATOR,
           "if pid in roster and pid != meeting.active_speaker:",
           "if pid in roster:",
           (f"{LEDGER}[speaker-changes-language-then-leaves]",)),
    Mutant("no guard for an empty slice", SIMULATOR,
           "if charges:", "if True:",
           (f"{LEDGER}[late-join]",)),
    Mutant("no reading for a join", SIMULATOR,
           "if pid in roster and pid != meeting.active_speaker:",
           "if pid in roster and pid != meeting.active_speaker"
           " and event.kind is not ScenarioEventKind.JOIN:",
           (SESSIONS,)),
    # runs of one row object, in the report and in the writer
    Mutant("row runs cut by != instead of identity", "streamring/core.py",
           "map(is_not, items[1:], items)",
           "map(lambda a, b: a != b, items[1:], items)",
           ("tests/test_core.py::TestDumpsJson::test_runs_of_one_row_object",)),
    Mutant("the row repeated before a stall is added", SIMULATOR,
           "    for when, stall, names in entries:\n"
           "        if stall:  # each language adds the stall and has a row of its own\n",
           "    for when, stall, names in entries:\n"
           "        if when is row[\"time_s\"]:\n"
           "            samples += repeat(row, len(names))\n"
           "            continue\n"
           "        if stall:\n",
           (f"{TIED}[tau-1.3]",)),
    # one entry per shared schedule boundary, split per language where two
    # schedules share its time
    Mutant("tied boundaries not split", SIMULATOR,
           "    if tied:\n", "    if False:\n",
           (f"{TIED}[tau-1.3]", f"{EXHAUSTIVE}[three-languages]")),
    Mutant("tied boundaries kept in schedule order", SIMULATOR,
           "for name in names], key=itemgetter(2))",
           "for name in names], key=lambda entry: 0)",
           (f"{TIED}[tau-1.3]", f"{EXHAUSTIVE}[three-languages]")),
    Mutant("a shared zero-stall boundary repeats its row once too often",
           SIMULATOR,
           "        samples += repeat(row, len(names))\n\n",
           "        samples += repeat(row, len(names) + (len(names) > 1))\n\n",
           ("tests/test_simulator.py::TestRepeatedRows::"
            "test_rows_equal_the_per_entry_rows",)),
    Mutant("the in-run row limit counted once per schedule", SIMULATOR,
           "                del jobs, play  # keep only the two float columns\n"
           "            startup_delay, stall_total, times, _, names = schedule\n"
           "            boundaries += len(times)\n",
           "                del jobs, play  # keep only the two float columns\n"
           "                boundaries += len(schedule[2])\n"
           "            startup_delay, stall_total, times, _, names = schedule\n",
           ("tests/test_cli.py::TestSimulate::"
            "test_sample_rows_bounded[languages3-21-fr]",)),
    # the translation mode and the source language (the simulator never
    # reads ``raw_language``, so the goldens cannot catch the first)
    Mutant("raw_language ignores the mode", "streamring/core.py",
           "return None if self.translate_same_language else self.source_language",
           "return self.source_language",
           (f"{ORCHESTRATION}TestUpdateOrchestration::"
            "test_identity_translation_flag",
            f"{ORCHESTRATION}TestUpdateOrchestration::"
            "test_raw_language_is_derived_from_the_source_and_the_mode")),
    Mutant("a lone speaker gets an identity pipeline", ORCHESTRATOR,
           " or len(roster.ids_of(language)) == 1:", ":",
           (f"{ORCHESTRATION}TestRequiredLanguages::test_same_language_filter",)),
    Mutant("the membership-pass skip ignores a source change", ORCHESTRATOR,
           "if previous == new_speaker and not reinitialized:",
           "if previous == new_speaker:",
           (f"{ORCHESTRATION}TestUpdateOrchestration::"
            "test_speaker_language_change_reinitializes",)),
    Mutant("verify_invariants' source check removed", ORCHESTRATOR,
           "    if meeting.source_language != source:\n",
           "    if False:\n",
           (f"{ORCHESTRATION}TestVerifyInvariants::"
            "test_stale_source_under_identity_translation",
            f"{ORCHESTRATION}TestVerifyInvariants::"
            "test_listener_moved_onto_the_raw_stream")),
    # one log record per unserved interval
    Mutant("log on every pass that fails", ORCHESTRATOR,
           "opened = [language for language in unserved if language not in kept]",
           "opened = unserved",
           (f"{ORCHESTRATION}TestUpdateOrchestration::"
            "test_one_log_record_per_unserved_interval",
            "tests/test_scaling.py::test_a_membership_pass_that_opens_no_"
            "interval_builds_no_log_record[40-join]",
            "tests/test_simulator.py::TestMembershipDynamics::"
            "test_an_unserved_language_is_logged_once_per_interval")),
    Mutant("verify_invariants' unserved check removed", ORCHESTRATOR,
           "    if meeting.unserved != unserved:\n",
           "    if False:\n",
           (f"{ORCHESTRATION}TestVerifyInvariants::"
            "test_unserved_record_out_of_step",
            f"{ORCHESTRATION}TestVerifyInvariants::"
            "test_listener_fed_another_language")),
    # what a simulate call holds: the scenario only until its run returns,
    # the digest's text a block of participants at a time
    Mutant("the CLI keeps the scenario while rendering", "streamring/cli.py",
           "report = run_scenario(load_scenario(args.scenario))",
           "report = run_scenario(scenario := load_scenario(args.scenario))",
           tuple(f"{FREED}[{output}]"
                 for output in ("json-out", "csv-format", "csv-flag"))),
    Mutant("the digest drops the separator between participant blocks",
           SIMULATOR, '            separator = ","\n',
           '            separator = ""\n',
           ("tests/test_simulator.py::TestScenarioFiles::"
            "test_digest_is_the_same_across_block_seams[257]",)),
    # what rendering holds: a map a block of keys at a time, a table block
    # in pieces
    Mutant("a map of scalars encoded whole", "streamring/core.py",
           "            for start in range(0, len(keys), _BLOCK_ROWS):\n"
           "                block = keys[start:start + _BLOCK_ROWS]\n",
           "            for block in [keys]:\n",
           ("tests/test_scaling.py::"
            "test_a_map_takes_the_same_memory_at_2000_and_20000_keys",)),
    Mutant("a table block written as one piece", "streamring/core.py",
           "    middle = bisect_left(edges, len(block) // 2)\n",
           "    middle = len(heads)\n",
           ("tests/test_scaling.py::test_a_table_block_is_written_in_pieces[1]",
            "tests/test_scaling.py::test_a_table_block_is_written_in_pieces[32]")),
    Mutant("an empty piece written after a block that is one run",
           "streamring/core.py", "    if middle < len(heads):", "    if True:",
           ("tests/test_scaling.py::test_a_table_block_is_written_in_pieces[256]",)),
    # the scheduler: a cold start on the first job only, and one the clock
    # can resolve
    Mutant("a cold start on every segment", "streamring/segproc.py",
           "        if not finishes:\n", "        if True:\n",
           (f"{COLD_START}test_only_first_job_per_worker_pays",)),
    Mutant("no cold-start resolution check", "streamring/segproc.py",
           "            if math.ulp(startup_delay) > 1e-9 * "
           "max(segment_duration, first_p):\n",
           "            if False:\n",
           (f"{COLD_START}test_a_cold_start_the_clock_cannot_resolve_is_rejected",)),
    # calibration: the better fit kept, warm, and a fixture's cold start on it
    Mutant("fit_auto keeps the higher RMSE", "streamring/calibration.py",
           "return min(candidates, key=lambda pair: pair[1].rmse)",
           "return max(candidates, key=lambda pair: pair[1].rmse)",
           ("tests/test_latency.py::TestFit::test_fit_auto_selects_by_rmse",
            "tests/test_golden.py::test_calibrate_and_topt_json_match_golden")),
    Mutant("a fixture's cold start dropped", SIMULATOR,
           "        return replace(model, cold_start_extra=cold)\n",
           "        return model\n",
           (f"{GOLDEN}[churn_large_5]",)),
)


def run(mutant: Mutant) -> str:
    """``"caught"``, ``"passed"`` or what else befell ``mutant``."""
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", source,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = source / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"old text found {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        tests = mutant.tests or dict.fromkeys(
            node for m in MUTANTS for node in m.tests)
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *(str(ROOT / node) for node in tests)],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ,
                     PYTHONPATH=os.pathsep.join([str(source), str(ROOT)])),
        ).returncode
    return {0: "passed", 1: "caught"}.get(code, f"pytest exit code {code}")


def main() -> int:
    failures = 0
    started = time.perf_counter()
    for mutant in MUTANTS:
        clock = time.perf_counter()
        outcome = run(mutant)
        wanted = "passed" if mutant.old == mutant.new else "caught"
        failures += outcome != wanted
        print(f"{'ok  ' if outcome == wanted else 'FAIL'} {mutant.name}: "
              f"{outcome} ({time.perf_counter() - clock:.1f} s)", flush=True)
    print(f"{failures} failed, in {time.perf_counter() - started:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
