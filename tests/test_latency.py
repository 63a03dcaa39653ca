"""Latency-model tests: calibration against the bundled hardware fixture,
viability solvers, interchange formats, and model-shape properties.

Oracle policy: least-squares parameters are recomputed here with the
closed-form normal equations (independent of statistics.linear_regression);
fitted constants for the bundled fixture were frozen from that oracle and
asserted as literals.
"""

from __future__ import annotations

import json
import math
import statistics
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from streamring.calibration import (
    InsufficientDataError,
    MeasurementSet,
    ThroughputPoint,
    fit,
    fit_auto,
    load_bundled_measurements,
    read_measurement_csv,
    t_opt_continuous,
    t_opt_discrete,
    table_model,
)
from streamring.core import ValidationError
from streamring.latency import (
    ExtrapolationWarning,
    LatencyModel,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)

# -- independent least-squares oracle (normal equations) --------------------


def lsq_oracle(xs: list[float], ys: list[float]) -> tuple[float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    return my - b * mx, b


# Per-duration means of the bundled fixture and the reciprocal-throughput
# column it must reproduce (to two decimals, hence the 0.005 half-ulp bound).
FIXTURE_MEANS = {
    "A100": [(1.0, 1.87), (2.0, 2.08), (3.0, 2.29), (5.0, 2.71), (8.0, 3.34)],
    "RTX4060": [(1.0, 4.52), (2.0, 4.81), (3.0, 5.10), (5.0, 5.68), (8.0, 6.55)],
    "T4": [(1.0, 8.99), (2.0, 10.27), (3.0, 10.92), (5.0, 12.01), (8.0, 12.70)],
}
FIXTURE_TAU = {
    "A100": [1.87, 1.04, 0.76, 0.54, 0.42],
    "RTX4060": [4.52, 2.41, 1.70, 1.14, 0.82],
    "T4": [8.99, 5.14, 3.64, 2.40, 1.59],
}

# Frozen from lsq_oracle on the fixture means.
A100_AFFINE = (1.66, 0.21)
RTX4060_AFFINE = (4.23, 0.29)
T4_LOG = (8.997554609948647, 1.8067650667668087)
T4_LOG_RMSE = 0.06047036122112642

# Least t with p(t)/t < 1 for each fitted model (affine closed form;
# log by bisection on t - p(t) to 1e-12).
A100_CROSSING = 2.1012658227848093
RTX4060_CROSSING = 5.957746478873237
T4_CROSSING = 13.730605774568744


def fixture_set(label: str) -> MeasurementSet:
    mset = MeasurementSet(label=label)
    for t, p in FIXTURE_MEANS[label]:
        mset.add(t, p)
    return mset


class TestLatencyModel:
    def test_affine_evaluate(self):
        m = LatencyModel(form="affine", a=2.0, b=0.5)
        assert m.evaluate(4.0) == pytest.approx(4.0)
        assert m.tau(4.0) == pytest.approx(1.0)
        assert m.tau(8.0) == pytest.approx(0.75)

    def test_log_evaluate(self):
        m = LatencyModel(form="log", a=1.0, b=2.0)
        assert m.evaluate(math.e) == pytest.approx(3.0)

    def test_log_nonpositive_region_rejected(self):
        m = LatencyModel(form="log", a=0.0, b=2.0)
        with pytest.raises(ValidationError):
            m.evaluate(0.5)  # 2*ln(0.5) < 0: no meaningful latency there

    def test_rejects_nonpositive_duration(self):
        m = LatencyModel(form="affine", a=1.0, b=0.1)
        with pytest.raises(ValidationError):
            m.evaluate(0.0)
        with pytest.raises(ValidationError):
            m.tau(-1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            LatencyModel(form="cubic", a=1.0, b=1.0)
        with pytest.raises(ValidationError):
            LatencyModel(form="affine", a=-0.1, b=1.0)
        with pytest.raises(ValidationError):
            LatencyModel(form="affine", a=1.0, b=-0.1)
        with pytest.raises(ValidationError):
            LatencyModel(form="affine", a=0.0, b=0.0)
        with pytest.raises(ValidationError):
            LatencyModel(form="affine", a=1.0, b=0.1, cold_start_extra=-1.0)

    def test_table_interpolates(self):
        m = LatencyModel(form="table", points=((1.0, 2.0), (3.0, 4.0), (5.0, 8.0)))
        assert m.evaluate(1.0) == 2.0
        assert m.evaluate(3.0) == 4.0
        assert m.evaluate(2.0) == pytest.approx(3.0)
        assert m.evaluate(4.0) == pytest.approx(6.0)
        assert m.valid_range == (1.0, 5.0)

    def test_table_extrapolation_warns_with_clamped_slope(self):
        m = LatencyModel(form="table", points=((1.0, 2.0), (3.0, 4.0), (5.0, 8.0)))
        with pytest.warns(ExtrapolationWarning):
            # end-segment slope (8-4)/(5-3) = 2
            assert m.evaluate(7.0) == pytest.approx(12.0)
        with pytest.warns(ExtrapolationWarning):
            # first-segment slope (4-2)/(3-1) = 1
            assert m.evaluate(0.5) == pytest.approx(1.5)

    def test_table_columns_are_not_fields(self):
        points = ((1.0, 2.0), (3.0, 4.0), (5.0, 8.0))
        used = LatencyModel(form="table", points=points)
        fresh = LatencyModel(form="table", points=points)
        used.evaluate(2.0)  # fills the column cache
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert model_to_json(used) == model_to_json(fresh)
        assert replace(used, cold_start_extra=1.0).evaluate(4.0) == fresh.evaluate(4.0)

    def test_table_validation(self):
        with pytest.raises(ValidationError):
            LatencyModel(form="table", points=((1.0, 2.0),))
        with pytest.raises(ValidationError):
            LatencyModel(form="table", points=((2.0, 1.0), (2.0, 3.0)))
        with pytest.raises(ValidationError):
            LatencyModel(form="table", points=((3.0, 1.0), (2.0, 3.0)))
        with pytest.raises(ValidationError):
            LatencyModel(form="table", points=((-1.0, 2.0), (2.0, 3.0)))
        with pytest.raises(ValidationError):
            LatencyModel(form="table", points=((1.0, -2.0), (2.0, 3.0)))

    def test_with_cold_start(self):
        m = LatencyModel(form="affine", a=1.0, b=0.1)
        warm = replace(m, cold_start_extra=2.5)
        assert warm.cold_start_extra == 2.5
        assert warm.evaluate(3.0) == m.evaluate(3.0)  # applied by scheduler only


class TestThroughputPoint:
    def test_tau_is_exact_ratio(self):
        pt = ThroughputPoint(t=2.0, p=10.27)
        assert pt.tau == 10.27 / 2.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            ThroughputPoint(t=0.0, p=1.0)


class TestFit:
    def test_matches_normal_equations_oracle(self):
        mset = MeasurementSet(label="x")
        for t, p in [(1.0, 3.1), (2.0, 4.9), (4.0, 9.2), (7.0, 15.0)]:
            mset.add(t, p)
        model, diag = fit(mset, "affine")
        a, b = lsq_oracle([1.0, 2.0, 4.0, 7.0], [3.1, 4.9, 9.2, 15.0])
        assert model.a == pytest.approx(a, abs=1e-12)
        assert model.b == pytest.approx(b, abs=1e-12)
        assert diag.n_durations == 4

    def test_multiple_runs_average_first(self):
        mset = MeasurementSet(label="x")
        mset.add(1.0, 2.0, run=0)
        mset.add(1.0, 4.0, run=1)
        mset.add(2.0, 3.0, run=0)
        mset.add(2.0, 5.0, run=1)
        model, _ = fit(mset, "affine")  # means (1,3),(2,4)
        assert model.a == pytest.approx(2.0, abs=1e-12)
        assert model.b == pytest.approx(1.0, abs=1e-12)

    def test_a100_affine_constants(self):
        model, diag = fit(fixture_set("A100"), "affine")
        assert model.a == pytest.approx(A100_AFFINE[0], abs=1e-9)
        assert model.b == pytest.approx(A100_AFFINE[1], abs=1e-9)
        assert diag.rmse < 1e-12
        assert model.valid_range == (1.0, 8.0)

    def test_rtx4060_affine_constants(self):
        model, diag = fit(fixture_set("RTX4060"), "affine")
        assert model.a == pytest.approx(RTX4060_AFFINE[0], abs=1e-9)
        assert model.b == pytest.approx(RTX4060_AFFINE[1], abs=1e-9)
        assert diag.rmse < 1e-12

    def test_t4_log_constants(self):
        model, diag = fit(fixture_set("T4"), "log")
        assert model.a == pytest.approx(T4_LOG[0], abs=1e-9)
        assert model.b == pytest.approx(T4_LOG[1], abs=1e-9)
        assert diag.rmse == pytest.approx(T4_LOG_RMSE, abs=1e-9)
        assert diag.rmse < 0.1

    def test_fit_auto_selects_by_rmse(self):
        assert fit_auto(fixture_set("A100"))[0].form == "affine"
        assert fit_auto(fixture_set("RTX4060"))[0].form == "affine"
        assert fit_auto(fixture_set("T4"))[0].form == "log"

    def test_insufficient_data(self):
        mset = MeasurementSet(label="x")
        mset.add(1.0, 2.0)
        mset.add(1.0, 3.0, run=1)  # same duration: still one grid point
        with pytest.raises(InsufficientDataError):
            fit(mset, "affine")
        with pytest.raises(InsufficientDataError):
            table_model(mset)

    def test_decreasing_data_rejected(self):
        mset = MeasurementSet(label="x")
        for t, p in [(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)]:
            mset.add(t, p)
        with pytest.raises(ValidationError):
            fit(mset, "affine")  # negative slope is outside the model family

    def test_durations_too_close_to_tell_apart(self):
        # the squared deviations of 1e-200 and 2e-200 from their mean
        # underflow to 0
        mset = MeasurementSet(label="x")
        mset.add(1e-200, 1.0)
        mset.add(2e-200, 2.0)
        with pytest.raises(ValidationError, match="affine form: x is constant"):
            fit(mset, "affine")

    def test_fit_auto_passes_insufficient_data_on(self):
        mset = MeasurementSet(label="x")
        mset.add(1.0, 2.0)
        with pytest.raises(InsufficientDataError, match="got 1"):
            fit_auto(mset)

    def test_fit_auto_with_no_admissible_form(self):
        # falling latencies: both forms fit a negative slope
        mset = MeasurementSet(label="x")
        for t, p in [(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)]:
            mset.add(t, p)
        with pytest.raises(ValidationError,
                           match="no admissible parametric fit for this data"):
            fit_auto(mset)

    def test_fit_rejects_table_form(self):
        with pytest.raises(ValidationError):
            fit(fixture_set("A100"), "table")

    def test_table_model_from_means(self):
        model = table_model(fixture_set("T4"))
        assert model.form == "table"
        assert model.evaluate(3.0) == pytest.approx(10.92)
        assert model.evaluate(4.0) == pytest.approx((10.92 + 12.01) / 2)


class TestViabilitySolvers:
    def test_discrete_on_fixture(self):
        for label, expected in [("A100", 3.0), ("RTX4060", 8.0), ("T4", None)]:
            points = fixture_set(label).throughput_points()
            assert t_opt_discrete(points) == expected

    def test_discrete_validation(self):
        with pytest.raises(ValidationError):
            t_opt_discrete([])
        with pytest.raises(ValidationError):
            t_opt_discrete(
                [ThroughputPoint(t=1.0, p=2.0), ThroughputPoint(t=1.0, p=3.0)]
            )

    def test_continuous_affine_closed_form(self):
        a100, _ = fit(fixture_set("A100"), "affine")
        rtx, _ = fit(fixture_set("RTX4060"), "affine")
        assert t_opt_continuous(a100) == pytest.approx(A100_CROSSING, abs=1e-9)
        assert t_opt_continuous(rtx) == pytest.approx(RTX4060_CROSSING, abs=1e-9)

    def test_continuous_affine_never_viable(self):
        assert t_opt_continuous(LatencyModel(form="affine", a=1.0, b=1.0)) is None
        assert t_opt_continuous(LatencyModel(form="affine", a=0.5, b=1.7)) is None

    def test_continuous_affine_beyond_search_limit(self):
        m = LatencyModel(form="affine", a=1000.0, b=0.5)  # crossing at 2000
        assert t_opt_continuous(m) is None

    def test_continuous_log_bisection(self):
        t4, _ = fit(fixture_set("T4"), "log")
        assert t_opt_continuous(t4) == pytest.approx(T4_CROSSING, abs=1e-9)

    def test_continuous_log_never_viable(self):
        m = LatencyModel(form="log", a=1000.0, b=1.0)
        assert t_opt_continuous(m) is None

    def test_continuous_viable_down_to_the_search_floor(self):
        # p(t) < t at every t the walk down tries, from 300 s halved while
        # above 1e-6 s: the smallest one it tried is returned
        m = LatencyModel(form="log", a=1e-7, b=1e-9)
        assert t_opt_continuous(m) == 600.0 / 2**29  # 1.12e-6 s

    def test_continuous_table(self):
        model = table_model(fixture_set("T4"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            crossing = t_opt_continuous(model)
        # beyond the grid the model extends at slope (12.70-12.01)/3;
        # solving t = 12.70 + slope*(t-8) gives the expected crossing
        slope = (12.70 - 12.01) / 3.0
        expected = (12.70 - 8.0 * slope) / (1.0 - slope)
        assert crossing == pytest.approx(expected, abs=1e-6)


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "label,t_seconds,run,p_seconds\na,1.0,0,2.0\na,1.0,1,2.2\nb,3.0,0,4.5\n"
        )
        loaded = read_measurement_csv(path)
        assert set(loaded) == {"a", "b"}
        assert loaded["a"].means() == [(1.0, pytest.approx(2.1))]
        assert loaded["b"].samples[0].p == 4.5

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("label,duration,run,latency\na,1,0,2\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_measurement_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("label,t_seconds,run,p_seconds\na,1,0\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_measurement_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("label,t_seconds,run,p_seconds\na,1,0,2\na,fast,0,2\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_measurement_csv(path)

    def test_nonpositive_duration(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("label,t_seconds,run,p_seconds\na,0,0,2\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_measurement_csv(path)

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_nonfinite_duration(self, tmp_path, t):
        path = tmp_path / "m.csv"
        path.write_text(f"label,t_seconds,run,p_seconds\na,1,0,2\na,{t},0,2\n")
        with pytest.raises(ValidationError, match="line 3: duration must be finite"):
            read_measurement_csv(path)
        with pytest.raises(ValidationError, match="finite"):
            MeasurementSet(label="a").add(float(t), 2.0)

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_nonfinite_latency(self, tmp_path, p):
        path = tmp_path / "m.csv"
        path.write_text(f"label,t_seconds,run,p_seconds\na,1,0,2\na,2,0,{p}\n")
        with pytest.raises(ValidationError, match="line 3: latency must be finite"):
            read_measurement_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            read_measurement_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("label,t_seconds,run,p_seconds\na,1,0,2\n\na,2,0,3\n")
        loaded = read_measurement_csv(path)
        assert len(loaded["a"].samples) == 2


class TestModelJson:
    def test_round_trip_parametric(self):
        for form, a, b in [("affine", 1.66, 0.21), ("log", 9.0, 1.8)]:
            m = LatencyModel(
                form=form, a=a, b=b, valid_range=(1.0, 8.0), cold_start_extra=0.4
            )
            again = model_from_json(model_to_json(m))
            assert again == m

    def test_round_trip_table(self):
        m = LatencyModel(form="table", points=((1.0, 2.0), (3.0, 4.0)))
        again = model_from_json(model_to_json(m))
        assert again == m

    def test_json_shape(self):
        m = LatencyModel(form="affine", a=1.0, b=0.5, valid_range=(1.0, 8.0))
        data = model_to_json(m)
        assert data["form"] == "affine"
        assert data["params"] == {"a": 1.0, "b": 0.5}
        assert data["valid_range"] == [1.0, 8.0]
        assert data["cold_start_extra"] == 0.0

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            model_from_json({"form": "affine"})
        with pytest.raises(ValidationError):
            model_from_json({"form": "spline", "params": {"a": 1, "b": 1}})
        with pytest.raises(ValidationError):
            model_from_json({"form": "affine", "params": {"a": 1}})
        with pytest.raises(ValidationError):
            model_from_json({"form": "table", "params": {"points": [[1, 2]]}})

    @pytest.mark.parametrize("data, message", [
        ({"form": "table", "params": {"points": [{"t": 1, "p": 2}, [2, 3]]}},
         "params.points[0] must be an array of two numbers, got {'t': 1, 'p': 2}"),
        ({"form": "table", "params": {"points": [[1, 2], "ab"]}},
         "params.points[1] must be an array of two numbers, got 'ab'"),
        ({"form": "table", "params": {"points": [[1, 2, 3], [2, 3]]}},
         "params.points[0] must be an array of two numbers, got [1, 2, 3]"),
        ({"form": "table", "params": {"points": [[1, 2], [2]]}},
         "params.points[1] must be an array of two numbers, got [2]"),
        ({"form": "table", "params": {}}, "params.points is missing"),
        ({"form": "affine", "params": {"a": 1}}, "params.b is missing"),
        ({"form": "log", "params": {"b": 1}}, "params.a is missing"),
        ({"params": {"a": 1, "b": 1}}, "form is missing"),
        ({"form": "affine"}, "params is missing"),
        ([1, 2], "the model must be an object, got [1, 2]"),
    ], ids=["point-object", "point-str", "point-triple", "point-single",
            "points-missing", "b-missing", "a-missing", "form-missing",
            "params-missing", "not-object"])
    def test_malformed_field_is_named_by_its_path(self, data, message):
        with pytest.raises(ValidationError) as caught:
            model_from_json(data)
        assert str(caught.value).endswith(message)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        m, _ = fit(fixture_set("A100"), "affine")
        save_model(m, path)
        assert load_model(path) == m

    @pytest.mark.parametrize("form", ["affine", "log", "table"])
    def test_file_is_indent2_json(self, form, tmp_path):
        mset = fixture_set("T4")
        m = table_model(mset) if form == "table" else fit(mset, form)[0]
        path = tmp_path / "model.json"
        save_model(m, path)
        expected = json.dumps(model_to_json(m), sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_model(path)


class TestBundledFixture:
    def test_labels_and_grid(self):
        sets = load_bundled_measurements()
        assert set(sets) == {"A100", "RTX4060", "T4"}
        for mset in sets.values():
            assert [t for t, _ in mset.means()] == [1.0, 2.0, 3.0, 5.0, 8.0]

    def test_reproduces_published_ratios(self):
        sets = load_bundled_measurements()
        for label, expected_taus in FIXTURE_TAU.items():
            points = sets[label].throughput_points()
            for point, expected in zip(points, expected_taus):
                # ratios were published to 2 decimals; allow half an ulp
                # of that rounding plus float slack
                assert abs(point.tau - expected) <= 0.005 + 1e-9


# -- properties -------------------------------------------------------------

durations_strategy = st.lists(
    st.integers(min_value=1, max_value=400).map(lambda i: i / 2.0),
    unique=True,
    min_size=3,
    max_size=12,
)


class TestProperties:
    @given(
        a=st.floats(min_value=0.0, max_value=10.0),
        b=st.floats(min_value=0.0, max_value=0.999),
        ts=durations_strategy,
    )
    def test_fit_recovers_exact_affine_data(self, a, b, ts):
        if a == 0.0 and b == 0.0:
            return
        mset = MeasurementSet(label="x")
        for t in ts:
            mset.add(t, a + b * t)
        model, diag = fit(mset, "affine")
        assert model.a == pytest.approx(a, abs=1e-8)
        assert model.b == pytest.approx(b, abs=1e-8)
        assert diag.rmse < 1e-8

    @given(
        a=st.floats(min_value=0.01, max_value=100.0),
        b=st.floats(min_value=0.0, max_value=5.0),
        t1=st.floats(min_value=0.01, max_value=1000.0),
        t2=st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_affine_tau_monotone_decreasing(self, a, b, t1, t2):
        m = LatencyModel(form="affine", a=a, b=b)
        lo, hi = sorted((t1, t2))
        if lo == hi:
            return
        assert m.tau(hi) <= m.tau(lo) + 1e-12

    @given(
        a=st.floats(min_value=1.0, max_value=50.0),
        frac=st.floats(min_value=0.0, max_value=1.0),
        t1=st.floats(min_value=1.0, max_value=1000.0),
        t2=st.floats(min_value=1.0, max_value=1000.0),
    )
    def test_log_tau_monotone_when_intercept_dominates(self, a, frac, t1, t2):
        # for a >= b and t >= 1 the ratio (a + b*ln t)/t cannot increase
        m = LatencyModel(form="log", a=a, b=a * frac)
        lo, hi = sorted((t1, t2))
        if lo == hi:
            return
        assert m.tau(hi) <= m.tau(lo) + 1e-12

    @given(
        a=st.floats(min_value=0.1, max_value=20.0),
        b=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_regimes_split_at_crossing(self, a, b):
        m = LatencyModel(form="affine", a=a, b=b)
        crossing = t_opt_continuous(m)
        assert crossing == pytest.approx(a / (1.0 - b), rel=1e-12)
        assert m.tau(crossing * 1.001) < 1.0
        assert m.tau(crossing * 0.999) > 1.0

    @given(
        a=st.floats(min_value=0.1, max_value=20.0),
        b=st.floats(min_value=0.0, max_value=0.9),
        grid=st.lists(
            st.integers(min_value=1, max_value=50), unique=True, min_size=1, max_size=10
        ),
    )
    @settings(max_examples=50)
    def test_discrete_never_below_continuous(self, a, b, grid):
        m = LatencyModel(form="affine", a=a, b=b)
        crossing = t_opt_continuous(m)
        points = [ThroughputPoint(t=float(t), p=m.evaluate(float(t))) for t in grid]
        discrete = t_opt_discrete(points)
        if discrete is not None:
            assert discrete >= crossing - 1e-9

    @given(
        samples=st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5, 1e-3]),
                st.floats(min_value=-1e6, max_value=1e6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_means_equal_filtering_per_duration(self, samples):
        mset = MeasurementSet(label="x")
        for run, (t, p) in enumerate(samples):
            mset.add(t, p, run)
        # the per-duration filter over all samples, O(D*S): same values in
        # the same order, so fmean gives the same bits
        expected = [
            (t, statistics.fmean([s.p for s in mset.samples if s.t == t]))
            for t in sorted({s.t for s in mset.samples})
        ]
        assert mset.means() == expected
