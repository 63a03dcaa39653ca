"""Segmented stream processing on a deterministic virtual clock.

A stream of ``total_duration`` seconds is cut into fixed chunks of
``segment_duration`` (the tail may be shorter), and one sequential worker
processes the chunks as FIFO jobs, so they complete in index order.
Playback starts when the first job finishes — the one-time startup
buffering — and from then on segment k is needed exactly k chunk durations
later.  When the latency model satisfies p(T) < T the worker keeps that
schedule with zero stalls; when p(T) > T the backlog grows linearly and the
report quantifies it.

Stall accounting follows a player that pauses only when a segment is not
ready at its (already pause-shifted) deadline: the pause before segment k is
the amount by which its lag exceeds the worst lag seen so far.  A
re-buffering player would distribute the same total differently, so
``stall_total`` is the robust quantity and ``stall_count`` the
policy-sensitive one.

A segment's one record, a ``SegmentJob``, holds its finish time beside
the time the player needed it.  ``_playback_report``, the one home of the
needed-time and stall rule, builds a schedule's records from its columns,
for this scheduler and for its wall-clock twin, ``run_external`` in
``streamring.external``, which only ``bench`` imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import NamedTuple

from .core import ValidationError
from .latency import LatencyModel

__all__ = [
    "PlaybackReport",
    "SegmentJob",
    "StreamMode",
    "StreamSpec",
    "ViabilityCheck",
    "check_viability",
    "schedule_stream",
]

#: Most segments one stream may be cut into; a longer schedule is rejected
#: before any of it is built.
MAX_SEGMENTS = 10**6


class StreamMode(str, Enum):
    LIVE = "live"  # segment k finishes arriving at (k+1)*T
    BATCH = "batch"  # all data on disk at time 0


@dataclass(frozen=True)
class StreamSpec:
    """A stream to be chunked.  Zero duration is constructible but yields
    no segments to schedule."""

    total_duration: float
    mode: StreamMode = StreamMode.LIVE

    def __post_init__(self) -> None:
        if self.total_duration < 0:
            raise ValidationError("total_duration must be non-negative")
        if not isinstance(self.mode, StreamMode):
            try:
                object.__setattr__(self, "mode", StreamMode(self.mode))
            except ValueError:
                raise ValidationError(
                    f"mode must be 'live' or 'batch', got {self.mode!r}"
                ) from None


class SegmentJob(NamedTuple):
    """One chunk's lifecycle: it finishes arriving at ``available_at``,
    processing occupies [start_at, finish_at], the player needs it at
    ``needed_at`` and pauses ``stall`` seconds for it."""

    index: int
    duration: float
    available_at: float
    start_at: float
    finish_at: float
    needed_at: float
    stall: float


# A schedule's records built in C, every field given: a NamedTuple's
# generated ``__new__`` is Python code, and a schedule makes one per segment.
_job = partial(tuple.__new__, SegmentJob)


@dataclass(frozen=True)
class ViabilityCheck:
    viable: bool
    tau: float


@dataclass(frozen=True)
class PlaybackReport:
    startup_delay: float
    glass_latency: float
    stall_count: int
    stall_total: float


def check_viability(model: LatencyModel, segment_duration: float) -> ViabilityCheck:
    """Strict real-time test: viable iff p(T)/T < 1.  A ratio of exactly 1.0
    is classified not viable — such a schedule has zero slack and any
    perturbation stalls it.  A non-positive ``segment_duration`` is a
    ValidationError, raised by ``LatencyModel.evaluate``."""
    tau = model.tau(segment_duration)
    return ViabilityCheck(viable=tau < 1.0, tau=tau)


def _segments(stream: StreamSpec, segment_duration: float) -> tuple[list[float], list[float]]:
    """Cut the stream into two columns: each segment's duration and the time
    its data is available, when it finishes arriving in a live stream and
    0.0 in a batch.

    Full chunks carry ``segment_duration`` itself (never a subtraction
    residue, so p(duration) is p(T) bit-for-bit); a tail shorter than one
    chunk becomes a final short segment available when the stream ends.
    A duration within 1e-9 *chunks* below a whole number of chunks counts
    as whole, so its last chunk may be available a rounding error after
    the stream ends; a tail of at most 1e-9 s is dropped.
    """
    total_duration = stream.total_duration
    if segment_duration <= 0:
        raise ValidationError(
            f"segment duration must be positive, got {segment_duration}"
        )
    ratio = total_duration / segment_duration
    if not ratio <= MAX_SEGMENTS:  # also rejects inf and NaN
        raise ValidationError(
            f"{total_duration:g} s in {segment_duration:g} s segments exceeds "
            f"the {MAX_SEGMENTS} segment limit"
        )
    n_full = int(ratio + 1e-9)
    durations = [segment_duration] * n_full
    availables = [(k + 1) * segment_duration for k in range(n_full)]
    tail = total_duration - n_full * segment_duration
    if tail > 1e-9:
        durations.append(tail)
        availables.append(total_duration)
    if not durations:
        raise ValidationError("no segments: stream has zero duration")
    if stream.mode is StreamMode.BATCH:
        return durations, [0.0] * len(durations)
    return durations, availables


def schedule_stream(
    stream: StreamSpec,
    model: LatencyModel,
    segment_duration: float,
) -> tuple[list[SegmentJob], PlaybackReport]:
    """Deterministic virtual-clock schedule of the chunked stream.

    One worker takes the jobs FIFO, each as soon as it is available and the
    previous job has finished; the first job pays ``model.cold_start_extra``
    on top of p(duration).  A non-viable (p(T) >= T) configuration is not
    rejected — the lag shows up in the report, and ``check_viability``
    flags it.  A finish time past the float range is a ValidationError, and
    so is a startup delay whose float spacing exceeds 1e-9 of both T and
    the first segment's p: a cold start that large would round the
    schedule's lag away.

    Every full segment costs the same p(T), so the model is evaluated once
    per distinct duration (T and at most one shorter tail), in the order the
    segments first need it.  As ``evaluate`` is a pure function of the
    duration, every job time is the one a per-segment evaluation would give,
    to the bit.
    """
    durations, availables = _segments(stream, segment_duration)
    costs: dict[float, float] = {}  # duration -> p(duration)
    free = 0.0
    starts: list[float] = []
    finishes: list[float] = []
    for duration, available in zip(durations, availables):
        start = max(available, free)
        processing = costs.get(duration)
        if processing is None:
            processing = costs[duration] = model.evaluate(duration)
        if not finishes:
            first_p = processing
            processing += model.cold_start_extra
            # kept as the model's own output (not finish-start), so the
            # reported startup is p(T) with no rounding residue
            startup_delay = processing
            if math.ulp(startup_delay) > 1e-9 * max(segment_duration, first_p):
                raise ValidationError(
                    f"the startup delay, {startup_delay:g} s, is too large for "
                    f"{segment_duration:g} s segments: its float spacing exceeds "
                    f"1e-9 of both T and the first segment's p, {first_p:g} s")
        free = start + processing
        starts.append(start)
        finishes.append(free)
    if free == math.inf:  # finish times only grow: the last is the largest
        raise ValidationError(
            f"a {stream.total_duration:g} s stream in {segment_duration:g} s "
            f"segments under the {model.form} model finishes past the float "
            "range")

    return _playback_report(
        durations, availables, starts, finishes, segment_duration, startup_delay,
        live_full_first=(stream.mode is StreamMode.LIVE
                         and durations[0] == segment_duration))


def _playback_report(
    durations: list[float], availables: list[float], starts: list[float],
    finishes: list[float], segment_duration: float, startup_delay: float,
    live_full_first: bool,
) -> tuple[list[SegmentJob], PlaybackReport]:
    """Derive the playback timeline from a schedule's columns, and build its
    records from them.

    The jobs ran one after another, so segment k is ready when its own job
    finishes, and it is needed at playback_start + k*T, where
    playback_start is the first job's finish.  For a live stream whose first
    chunk is whole, the needed time is computed as (k+1)*T + startup so that
    it is the same float expression as an on-time job's finish — equality,
    not just closeness, in the viable case.
    """
    n = len(finishes)
    if live_full_first:
        needed_times = [(k + 1) * segment_duration + startup_delay for k in range(n)]
    else:
        first_available = availables[0]
        needed_times = [
            first_available + startup_delay + k * segment_duration
            for k in range(n)
        ]

    stalls: list[float] = []
    worst_lag = 0.0
    stall_total = 0.0
    for ready, needed in zip(finishes, needed_times):
        lag = ready - needed
        if lag < 0.0:
            lag = 0.0
        stall = lag - worst_lag
        if stall > 0.0:
            worst_lag = lag
            stall_total += stall
        else:
            stall = 0.0
        stalls.append(stall)

    jobs = list(map(_job, zip(range(n), durations, availables, starts,
                              finishes, needed_times, stalls)))
    stall_count = n - stalls.count(0.0)  # every other stall is positive
    return jobs, PlaybackReport(startup_delay, durations[0] + startup_delay,
                                stall_count, stall_total)
