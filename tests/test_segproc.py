"""Segmented-processing tests.

Oracle policy: virtual schedules are replayed against an independent
single-worker queue trace; the zero-stall and linear-lag claims are
property-tested over randomized (a, b, T) triples and drawn affine, log and
table models, with margins that keep them out of float knife-edge
territory; the wall-clock adapter is exercised with stub commands of known
sleep duration and generous jitter bounds.
"""

from __future__ import annotations

import textwrap
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from streamring.calibration import fit, table_model
from streamring.core import ValidationError
from streamring.external import run_external
from streamring.latency import ExtrapolationWarning, LatencyModel
from streamring.segproc import (
    SegmentJob,
    StreamMode,
    StreamSpec,
    _playback_report,
    _segments,
    check_viability,
    schedule_stream,
)
from tests.test_latency import fixture_set

# -- independent replay oracle ----------------------------------------------


def trace_single_worker(durations, availables, p_fn, cold_extra=0.0):
    free = 0.0
    first = True
    out = []
    for duration, available in zip(durations, availables):
        start = max(available, free)
        p = p_fn(duration)
        if first:
            p += cold_extra
            first = False
        finish = start + p
        free = finish
        out.append((start, finish))
    return out


def a100_model() -> LatencyModel:
    return fit(fixture_set("A100"), "affine")[0]


def t4_model() -> LatencyModel:
    return fit(fixture_set("T4"), "log")[0]


class TestStreamSpec:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValidationError):
            StreamSpec(total_duration=-1.0)

    def test_mode_coercion(self):
        assert StreamSpec(10.0, mode="batch").mode is StreamMode.BATCH
        assert StreamSpec(10.0).mode is StreamMode.LIVE
        with pytest.raises(ValidationError):
            StreamSpec(10.0, mode="replay")

    def test_zero_duration_constructs_but_never_schedules(self):
        spec = StreamSpec(total_duration=0.0)
        with pytest.raises(ValidationError, match="no segments"):
            schedule_stream(spec, a100_model(), segment_duration=3.0)


class TestSegmentRecords:
    """Segment records are immutable, with named fields in a fixed order,
    and tuples besides."""

    def test_fields_order_and_repr(self):
        jobs, _ = schedule_stream(StreamSpec(4.0), a100_model(), 3.0)
        job = jobs[0]
        assert SegmentJob._fields == (
            "index", "duration", "available_at", "start_at", "finish_at",
            "needed_at", "stall")
        assert repr(job) == (
            f"SegmentJob(index=0, duration=3.0, available_at=3.0, "
            f"start_at=3.0, finish_at={job.finish_at!r}, "
            f"needed_at={job.needed_at!r}, stall=0.0)")
        index, duration, *_ = job
        assert (index, duration) == (job[0], job[1]) == (0, 3.0)
        assert job == (0, 3.0, 3.0, 3.0, job.finish_at, job.needed_at, 0.0)
        assert job._replace(index=5) == (5,) + tuple(job)[1:]

    @pytest.mark.parametrize("mode", list(StreamMode))
    def test_records_are_whole_instances_of_their_class(self, mode):
        # schedules build their records without the class constructor
        jobs, _ = schedule_stream(
            StreamSpec(10.0, mode=mode), a100_model(), 3.0)
        assert len(jobs) == 4
        for record in jobs:
            assert type(record) is SegmentJob
            assert len(record) == len(SegmentJob._fields)
            assert record == SegmentJob(*record)
            assert repr(record) == repr(SegmentJob(*record))

    def test_fields_cannot_be_set(self):
        jobs, _ = schedule_stream(StreamSpec(4.0), a100_model(), 3.0)
        with pytest.raises(AttributeError):
            jobs[0].finish_at = 0.0
        with pytest.raises(AttributeError):
            jobs[0].stall = 1.0


class TestSegmentation:
    def test_exact_multiple(self):
        jobs, _ = schedule_stream(StreamSpec(30.0), a100_model(), 3.0)
        assert len(jobs) == 10
        assert all(j.duration == 3.0 for j in jobs)
        assert [j.available_at for j in jobs] == [3.0 * (k + 1) for k in range(10)]

    def test_short_tail(self):
        jobs, _ = schedule_stream(StreamSpec(10.0), a100_model(), 3.0)
        assert [j.duration for j in jobs] == [3.0, 3.0, 3.0, 1.0]
        assert jobs[-1].available_at == 10.0

    def test_float_chunk_count_is_robust(self):
        # 0.3 / 0.1 is 2.999... in floats; must still produce 3 whole chunks
        jobs, _ = schedule_stream(StreamSpec(0.3), a100_model(), 0.1)
        assert [j.duration for j in jobs] == [0.1, 0.1, 0.1]

    def test_stream_shorter_than_chunk(self):
        model = LatencyModel(form="affine", a=1.0, b=0.5)
        jobs, report = schedule_stream(
            StreamSpec(2.0, mode="batch"), model, segment_duration=3.0
        )
        assert len(jobs) == 1
        assert jobs[0].duration == 2.0
        assert jobs[0].available_at == 0.0
        assert report.startup_delay == model.evaluate(2.0)
        assert report.glass_latency == 2.0 + model.evaluate(2.0)
        assert report.stall_count == 0

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValidationError):
            schedule_stream(StreamSpec(10.0), a100_model(), 0.0)
        with pytest.raises(ValidationError):
            schedule_stream(StreamSpec(10.0), a100_model(), -2.0)


class TestCheckViability:
    def test_viable_point_on_table(self):
        model = table_model(fixture_set("A100"))
        check = check_viability(model, 3.0)
        assert check.viable
        assert check.tau == pytest.approx(0.76, abs=0.005)

    def test_lagging_point_on_table(self):
        model = table_model(fixture_set("RTX4060"))
        check = check_viability(model, 5.0)
        assert not check.viable
        assert check.tau == pytest.approx(1.14, abs=0.005)

    def test_knife_edge_is_not_viable(self):
        model = LatencyModel(form="affine", a=0.0, b=1.0)
        for t in (0.5, 1.0, 7.0):
            check = check_viability(model, t)
            assert check.tau == 1.0
            assert not check.viable

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            check_viability(a100_model(), 0.0)


class TestViableLiveSchedule:
    def test_smooth_playback_timeline(self):
        model = a100_model()
        jobs, report = schedule_stream(StreamSpec(30.0), model, 3.0)
        assert len(jobs) == 10
        assert report.startup_delay == model.evaluate(3.0)
        assert report.startup_delay == pytest.approx(2.29, abs=1e-9)
        assert report.glass_latency == pytest.approx(5.29, abs=1e-9)
        assert report.stall_count == 0
        assert report.stall_total == 0.0
        assert check_viability(model, 3.0).viable
        # on-time everywhere, to the bit: each segment is emittable at the
        # exact instant the player needs it
        for job in jobs:
            assert job.finish_at == job.needed_at
            assert job.stall == 0.0

    def test_jobs_start_at_availability(self):
        jobs, _ = schedule_stream(StreamSpec(30.0), a100_model(), 3.0)
        for job in jobs:
            assert job.start_at == job.available_at


class TestLaggingLiveSchedule:
    def test_backlog_grows_linearly(self):
        model = t4_model()
        p8 = model.evaluate(8.0)
        jobs, report = schedule_stream(StreamSpec(80.0), model, 8.0)
        assert len(jobs) == 10
        assert report.startup_delay == p8
        assert report.startup_delay == pytest.approx(12.75, abs=0.01)
        assert not check_viability(model, 8.0).viable
        assert report.stall_count == 9  # every segment after the first pauses
        per_step = p8 - 8.0
        for job in jobs[1:]:
            assert job.stall == pytest.approx(per_step, abs=1e-9)
        final = jobs[-1]
        assert final.finish_at - final.needed_at == pytest.approx(9 * per_step, abs=1e-9)
        assert report.stall_total == pytest.approx(9 * per_step, abs=1e-9)

    def test_every_later_segment_stalls_by_the_excess(self):
        model = LatencyModel(form="affine", a=0.0, b=1.5)  # p = 1.5 T
        _, report = schedule_stream(StreamSpec(20.0), model, 2.0)
        assert report.stall_count == 9
        assert report.stall_total == pytest.approx(9.0, abs=1e-9)


class TestBatchMode:
    def test_drains_back_to_back(self):
        model = LatencyModel(form="affine", a=0.5, b=0.25)
        jobs, report = schedule_stream(StreamSpec(20.0, mode="batch"), model, 4.0)
        assert len(jobs) == 5
        assert all(j.available_at == 0.0 for j in jobs)
        assert jobs[0].start_at == 0.0
        for prev, job in zip(jobs, jobs[1:]):
            assert job.start_at == prev.finish_at
        assert report.stall_count == 0  # p(4)=1.5 < 4: drain outruns playback


class TestColdStart:
    def test_only_first_job_per_worker_pays(self):
        model = LatencyModel(form="affine", a=1.0, b=0.2, cold_start_extra=2.0)
        jobs, report = schedule_stream(StreamSpec(30.0), model, 3.0)
        p = model.evaluate(3.0)
        assert report.startup_delay == p + 2.0
        # differences re-round, so these are approximate even though the
        # stored startup above is exact
        assert jobs[0].finish_at - jobs[0].start_at == pytest.approx(p + 2.0)
        assert jobs[1].finish_at - jobs[1].start_at == pytest.approx(p)
        assert report.stall_count == 0  # startup absorbs the extra

    def test_a_cold_start_the_clock_cannot_resolve_is_rejected(self):
        # tau = 1.7: at a cold start of 1e15 s the times are 0.125 s apart
        def lagging(cold: float) -> LatencyModel:
            return LatencyModel(form="affine", a=0.5, b=1.2, cold_start_extra=cold)

        with pytest.raises(ValidationError, match=(
                r"the startup delay, 1e\+15 s, is too large for 1 s segments: "
                r"its float spacing exceeds 1e-9 of both T and the first "
                r"segment's p, 1.7 s")):
            schedule_stream(StreamSpec(10.0), lagging(1e15), 1.0)
        # 4.7e-10 s apart: still resolved, and the lag still shows
        _, report = schedule_stream(StreamSpec(10.0), lagging(4e6), 1.0)
        assert report.stall_total == pytest.approx(9 * 0.7, abs=1e-8)
        # without a cold start, a p far above T sets the scale itself
        huge = LatencyModel(form="affine", a=1e300, b=0.0)
        _, report = schedule_stream(StreamSpec(10.0), huge, 1.0)
        assert report.startup_delay == 1e300


class TestOracleReplay:
    def test_live_schedule_matches_trace(self):
        model = t4_model()
        jobs, _ = schedule_stream(StreamSpec(40.0), model, 5.0)
        expected = trace_single_worker(
            [j.duration for j in jobs],
            [j.available_at for j in jobs],
            model.evaluate,
        )
        assert [(j.start_at, j.finish_at) for j in jobs] == expected

    def test_batch_schedule_matches_trace(self):
        model = a100_model()
        jobs, _ = schedule_stream(StreamSpec(15.0, mode="batch"), model, 3.0)
        expected = trace_single_worker(
            [j.duration for j in jobs], [0.0] * len(jobs), model.evaluate
        )
        assert [(j.start_at, j.finish_at) for j in jobs] == expected


viable_triples = st.tuples(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.1, max_value=10.0),
)


@st.composite
def latency_models(draw):
    """Affine, log (positive on every duration drawn below) and table models,
    with and without a cold-start extra."""
    cold = draw(st.sampled_from([0.0, 0.25, 1.7]))
    form = draw(st.sampled_from(["affine", "log", "table"]))
    if form == "affine":
        a = draw(st.floats(min_value=0.0, max_value=5.0))
        b = draw(st.floats(min_value=0.0, max_value=2.0))
        assume(a > 0.0 or b > 0.0)
        return LatencyModel(form="affine", a=a, b=b, cold_start_extra=cold)
    if form == "log":
        # a + b*ln(t) > 0 for every t > e**-6, the shortest tail being 0.005 s
        a = draw(st.floats(min_value=0.5, max_value=10.0))
        b = a * draw(st.floats(min_value=0.0, max_value=1.0)) / 6.0
        return LatencyModel(form="log", a=a, b=b, cold_start_extra=cold)
    ts = draw(
        st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=8,
                 unique=True)
    )
    ps = draw(
        st.lists(st.floats(min_value=0.05, max_value=30.0), min_size=len(ts),
                 max_size=len(ts))
    )
    points = tuple(zip((t / 4.0 for t in sorted(ts)), ps))
    return LatencyModel(form="table", points=points, cold_start_extra=cold)


class TestProperties:
    """The real-time criterion on whole-segment live streams, for the drawn
    affine model and, when it keeps the same margin at that T, for a model
    from ``latency_models``."""

    @pytest.mark.filterwarnings("ignore::streamring.latency.ExtrapolationWarning")
    @given(
        triple=viable_triples,
        other=latency_models(),
        n_segments=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_zero_stall_when_viable(self, triple, other, n_segments):
        a, b, t = triple
        assume(a > 0.0 or b > 0.0)
        affine = LatencyModel(form="affine", a=a, b=b)
        assume(affine.tau(t) <= 0.999)
        for model in [affine] + ([other] if other.tau(t) <= 0.999 else []):
            _, report = schedule_stream(StreamSpec(n_segments * t), model, t)
            assert report.stall_count == 0
            assert report.stall_total == 0.0
            assert report.startup_delay == model.evaluate(t) + model.cold_start_extra

    @pytest.mark.filterwarnings("ignore::streamring.latency.ExtrapolationWarning")
    @given(
        a=st.floats(min_value=0.0, max_value=5.0),
        b=st.floats(min_value=1.001, max_value=3.0),
        t=st.floats(min_value=0.1, max_value=5.0),
        other=latency_models(),
        n_segments=st.integers(min_value=2, max_value=300),
    )
    @settings(max_examples=150, deadline=None)
    def test_linear_lag_when_not_viable(self, a, b, t, other, n_segments):
        affine = LatencyModel(form="affine", a=a, b=b)
        for model in [affine] + ([other] if other.tau(t) >= 1.001 else []):
            p = model.evaluate(t)
            jobs, report = schedule_stream(StreamSpec(n_segments * t), model, t)
            final = jobs[-1]
            expected = (n_segments - 1) * (p - t)
            assert final.finish_at - final.needed_at == pytest.approx(expected, abs=1e-9)
            assert report.stall_count == n_segments - 1

    @given(
        triple=viable_triples,
        n_segments=st.integers(min_value=1, max_value=40),
        batch=st.booleans(),
    )
    @settings(max_examples=150)
    def test_emission_order_and_determinism(self, triple, n_segments, batch):
        a, b, t = triple
        assume(a > 0.0 or b > 0.0)
        model = LatencyModel(form="affine", a=a, b=b)
        spec = StreamSpec(n_segments * t, mode="batch" if batch else "live")
        jobs, report = schedule_stream(spec, model, t)
        assert [j.index for j in jobs] == list(range(len(jobs)))
        ready = [job.finish_at for job in jobs]
        assert ready == sorted(ready)
        for job in jobs:
            assert job.available_at <= job.start_at <= job.finish_at
        jobs2, report2 = schedule_stream(spec, model, t)
        assert jobs2 == jobs
        assert report2 == report


def reference_schedule(stream, model, segment_duration):
    """A single-worker reference scheduler that calls ``model.evaluate`` for
    every segment.  Segmentation and the playback timeline are the module's
    own helpers: they do not depend on how often p is evaluated."""
    durations, availables = _segments(stream, segment_duration)
    free = 0.0
    starts, finishes = [], []
    startup_delay = 0.0
    for index, (duration, available) in enumerate(zip(durations, availables)):
        start = max(available, free)
        processing = model.evaluate(duration)
        if index == 0:
            processing += model.cold_start_extra
            startup_delay = processing
        free = start + processing
        starts.append(start)
        finishes.append(free)
    return _playback_report(
        durations, availables, starts, finishes,
        segment_duration,
        startup_delay,
        live_full_first=(stream.mode is StreamMode.LIVE
                         and durations[0] == segment_duration),
    )


class TestOneEvaluationPerDuration:
    @given(
        model=latency_models(),
        segment_duration=st.floats(min_value=0.1, max_value=10.0),
        n_full=st.integers(min_value=0, max_value=60),
        tail=st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.77, 0.95]),
        batch=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_segment_evaluation(
        self, model, segment_duration, n_full, tail, batch
    ):
        total = (n_full + tail) * segment_duration
        assume(total > 0.0)
        stream = StreamSpec(total, mode="batch" if batch else "live")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            expected_jobs, expected = reference_schedule(
                stream, model, segment_duration
            )
            jobs, report = schedule_stream(stream, model, segment_duration)
        assert jobs == expected_jobs
        assert report.startup_delay == expected.startup_delay
        assert report.glass_latency == expected.glass_latency
        assert report.stall_count == expected.stall_count
        assert report.stall_total == expected.stall_total
        assert report == expected

    def test_one_short_segment_evaluates_once(self, monkeypatch):
        model = a100_model()
        durations: list[float] = []
        evaluate = LatencyModel.evaluate

        def counting(model, t):
            durations.append(t)
            return evaluate(model, t)

        monkeypatch.setattr(LatencyModel, "evaluate", counting)
        jobs, _ = schedule_stream(StreamSpec(1.5), model, 3.0)
        assert [j.duration for j in jobs] == [1.5]
        assert durations == [1.5]

    def test_table_tail_outside_range_still_warns(self):
        model = LatencyModel(form="table", points=((1.0, 0.5), (2.0, 1.0), (4.0, 2.5)))
        with pytest.warns(ExtrapolationWarning, match="t=0.5 outside"):
            jobs, _ = schedule_stream(StreamSpec(6.5), model, 2.0)
        assert [j.duration for j in jobs] == [2.0, 2.0, 2.0, 0.5]

    def test_warns_once_per_distinct_duration(self):
        model = LatencyModel(form="table", points=((1.0, 0.5), (2.0, 1.0)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            schedule_stream(StreamSpec(20.5), model, 4.0)  # 5 x 4 s and 0.5 s
        messages = sorted(str(w.message).split(" ")[0] for w in caught
                          if issubclass(w.category, ExtrapolationWarning))
        assert messages == ["t=0.5", "t=4.0"]


# -- wall-clock adapter -----------------------------------------------------


@pytest.fixture
def sleep_stub(tmp_path):
    script = tmp_path / "stub.py"
    script.write_text(
        textwrap.dedent(
            """\
            import shutil, sys, time
            time.sleep(0.05)
            shutil.copy(sys.argv[1], sys.argv[2])
            """
        )
    )
    return f"python3 {script} {{input}} {{output}}"


@pytest.fixture
def failing_stub(tmp_path):
    script = tmp_path / "boom.py"
    script.write_text(
        textwrap.dedent(
            """\
            import pathlib, sys
            if sys.argv[1].endswith("00002"):
                sys.stderr.write("boom: segment rejected\\n")
                sys.exit(2)
            pathlib.Path(sys.argv[2]).write_text("ok")
            """
        )
    )
    return f"python3 {script} {{input}} {{output}}"


class TestRunExternal:
    def test_batch_run_measures_each_segment(self, sleep_stub, tmp_path):
        result = run_external(
            sleep_stub, StreamSpec(1.5, mode="batch"), 0.5, tmp_path / "work"
        )
        assert result.ok
        assert len(result.measurements.samples) == 3
        for sample in result.measurements.samples:
            # at least the 50 ms sleep; with the interpreter's start-up the
            # largest of 300 readings was 0.36 s on a two-core host running
            # a second test suite, so 1 s leaves a margin of about 3x
            assert 0.05 <= sample.p < 1.0
        assert result.report is not None
        assert result.report.stall_count == 0
        assert (tmp_path / "work" / "seg_00000").exists()
        assert (tmp_path / "work" / "seg_00002.out").exists()

    def test_live_run_waits_for_availability(self, sleep_stub, tmp_path):
        result = run_external(
            sleep_stub, StreamSpec(0.6, mode="live"), 0.3, tmp_path / "work"
        )
        assert result.ok
        jobs_start = [s.run for s in result.measurements.samples]
        assert jobs_start == [0, 1]
        assert result.report is not None
        assert len(result.jobs) == 2
        for job, expected_available in zip(result.jobs, (0.3, 0.6)):
            assert job.available_at == expected_available
            assert job.start_at >= expected_available
            assert job.finish_at >= expected_available

    def test_failure_preserves_partial_measurements(self, failing_stub, tmp_path):
        result = run_external(
            failing_stub, StreamSpec(2.0, mode="batch"), 0.5, tmp_path / "work"
        )
        assert not result.ok
        assert result.failed_segment == 2
        assert "boom" in (result.error or "")
        assert len(result.measurements.samples) == 2
        assert result.report is not None  # from the two completed segments

    def test_failure_on_first_segment_has_no_report(self, tmp_path):
        script = tmp_path / "always_fail.py"
        script.write_text("import sys; sys.exit(3)\n")
        result = run_external(
            f"python3 {script} {{input}} {{output}}",
            StreamSpec(1.0, mode="batch"),
            0.5,
            tmp_path / "work",
        )
        assert result.failed_segment == 0
        assert result.report is None
        assert result.measurements.samples == []

    def test_zero_length_stream(self, sleep_stub, tmp_path):
        with pytest.raises(ValidationError, match="no segments"):
            run_external(sleep_stub, StreamSpec(0.0), 0.5, tmp_path / "work")

    def test_empty_template(self, tmp_path):
        with pytest.raises(ValidationError):
            run_external("   ", StreamSpec(1.0), 0.5, tmp_path / "work")
