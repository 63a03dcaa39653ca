"""Wall-clock benchmarking of a real per-segment command.

``run_external`` is the wall-clock twin of the virtual scheduler in
``streamring.segproc``: it writes each chunk file just before running a
user command on it, and reports real measured latencies in the
measurement-CSV schema of ``streamring.calibration``.  Of the CLI's
subcommands, only ``bench`` imports this module.
"""

from __future__ import annotations

import logging
import math
import os
import shlex
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .calibration import MeasurementSet
from .core import ValidationError
from .segproc import (
    PlaybackReport, SegmentJob, StreamMode, StreamSpec, _playback_report, _segments,
)

__all__ = ["ExternalRunResult", "run_external"]

logger = logging.getLogger(__name__)

SEGMENT_FILE_PATTERN = "seg_%05d"

#: The wall clock ``run_external`` reads, looked up at each call so that a
#: caller may replace it with scripted readings.
_clock = time.monotonic


@dataclass(frozen=True)
class ExternalRunResult:
    """Outcome of a wall-clock run: measured rows (possibly partial on
    failure) plus the playback report over whatever segments completed."""

    measurements: MeasurementSet
    report: Optional[PlaybackReport]
    failed_segment: Optional[int] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failed_segment is None


def run_external(
    command_template: str,
    stream: StreamSpec,
    segment_duration: float,
    workdir: "Path | str",
    label: str = "external",
    timeout: Optional[float] = None,
) -> ExternalRunResult:
    """Benchmark a real per-segment command against the chunked schedule.

    Each chunk is written as an opaque file ``seg_%05d`` under ``workdir``
    just before its run; the template's ``{input}``/``{output}`` tokens are
    substituted per segment and the command runs once per chunk, serialized
    FIFO.  In live mode the runner sleeps until each chunk would have
    finished arriving.  A non-zero exit, a command that cannot start, or
    one still running after ``timeout`` seconds aborts the run at that
    segment, keeping the rows measured so far.  Every process a segment's
    command started is killed when that segment ends.
    """
    if not command_template.strip():
        raise ValidationError("command template must be non-empty")
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValidationError(
            f"segment timeout must be a positive number of seconds, got {timeout}"
        )
    segments = _segments(stream.total_duration, segment_duration)
    live = stream.mode is StreamMode.LIVE
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    argv_template = shlex.split(command_template)

    measurements = MeasurementSet(label=label)
    jobs: list[SegmentJob] = []
    origin = _clock()
    for index, (duration, live_available) in enumerate(segments):
        available = live_available if live else 0.0
        if live:
            wait = origin + available - _clock()
            if wait > 0:
                time.sleep(wait)
        in_path = workdir / (SEGMENT_FILE_PATTERN % index)
        in_path.write_bytes(b"segment %d duration %r\n" % (index, duration))
        out_path = workdir / (SEGMENT_FILE_PATTERN % index + ".out")
        argv = [
            token.replace("{input}", str(in_path)).replace("{output}", str(out_path))
            for token in argv_template
        ]
        started = _clock() - origin
        error = _run_command(argv, timeout)
        finished = _clock() - origin
        if error is not None:
            logger.error("segment %d command failed: %s", index, error)
            return ExternalRunResult(
                measurements=measurements,
                report=_external_report(jobs, segment_duration),
                failed_segment=index,
                error=error,
            )
        measurements.add(duration, finished - started, run=index)
        jobs.append(
            SegmentJob(
                index=index,
                duration=duration,
                available_at=available,
                start_at=started,
                finish_at=finished,
            )
        )
    return ExternalRunResult(
        measurements=measurements, report=_external_report(jobs, segment_duration)
    )


def _run_command(argv: list[str], timeout: Optional[float]) -> Optional[str]:
    """Run one segment's command: None when it exits 0, else why it failed.
    The command leads a new session, and its whole process group is killed
    when the segment ends, so no child it forked outlives the segment.  Its
    stderr is read as UTF-8, each undecodable byte replaced."""
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE,
                                encoding="utf-8", errors="replace",
                                start_new_session=True)
    except OSError as exc:  # the command could not start
        return str(exc)
    with proc:
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # the leader is not yet reaped, so its group still exists
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return f"timed out after {timeout:g} s"
        try:  # the group outlives its reaped leader while a child is left
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # no child was left
            pass
    if proc.returncode != 0:
        return stderr.strip() or f"exit status {proc.returncode}"
    return None


def _external_report(
    jobs: list[SegmentJob], segment_duration: float
) -> Optional[PlaybackReport]:
    if not jobs:
        return None
    startup = jobs[0].finish_at - jobs[0].available_at
    return _playback_report(jobs, segment_duration, startup, live_full_first=False)
