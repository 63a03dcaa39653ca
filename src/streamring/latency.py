"""Processing-latency models, throughput analysis, and calibration.

A model maps segment duration t to pipeline processing time p(t).  The ratio
tau(t) = p(t)/t decides viability: tau < 1 means the pipeline runs ahead of
real time for segments of that length.  Three parameterizations are
supported:

  affine  p(t) = a + b*t
  log     p(t) = a + b*ln(t)
  table   monotone piecewise-linear interpolation of measured (t, p) points

Calibration fits the parametric forms to per-duration means of a
MeasurementSet by least squares; the solvers locate the smallest segment
duration with tau < 1, either over a measured grid or continuously.
"""

from __future__ import annotations

import csv
import math
import statistics
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .core import ValidationError, _number, _typed, dumps_json, read_json

FORM_AFFINE = "affine"
FORM_LOG = "log"
FORM_TABLE = "table"
_FORMS = (FORM_AFFINE, FORM_LOG, FORM_TABLE)

MEASUREMENT_CSV_HEADER = ("label", "t_seconds", "run", "p_seconds")

_BUNDLED_CSV = Path(__file__).parent / "data" / "hardware_tiers.csv"

#: Default upper limit for the continuous viability search, in seconds.
DEFAULT_T_SEARCH_MAX = 600.0


class InsufficientDataError(ValidationError):
    """Calibration needs at least two distinct segment durations."""


class ExtrapolationWarning(UserWarning):
    """A table model was evaluated outside its measured duration range."""


@dataclass(frozen=True)
class LatencyModel:
    """p(t) in one of the three parameterizations.

    ``cold_start_extra`` is added to the first segment a pipeline processes
    after (re)initialization; it is applied by the scheduler, not by
    ``evaluate``.  ``valid_range`` bounds the measured durations for table
    models; evaluation outside it extrapolates with the clamped end-segment
    slope and warns.
    """

    form: str
    a: float = 0.0
    b: float = 0.0
    points: tuple[tuple[float, float], ...] = ()
    valid_range: Optional[tuple[float, float]] = None
    cold_start_extra: float = 0.0

    def __post_init__(self) -> None:
        if self.form not in _FORMS:
            raise ValidationError(f"unknown model form {self.form!r}")
        numbers = [self.a, self.b, self.cold_start_extra]
        numbers.extend(x for point in self.points for x in point)
        if self.valid_range is not None:
            if len(self.valid_range) != 2:
                raise ValidationError("valid_range must be a pair [lo, hi]")
            numbers.extend(self.valid_range)
        if not all(math.isfinite(x) for x in numbers):
            raise ValidationError("model parameters must be finite numbers")
        if self.cold_start_extra < 0:
            raise ValidationError("cold_start_extra must be non-negative")
        if self.valid_range is not None and not (
            0 < self.valid_range[0] <= self.valid_range[1]
        ):
            raise ValidationError(
                f"valid_range must satisfy 0 < lo <= hi, got {list(self.valid_range)}"
            )
        if self.form == FORM_TABLE:
            if len(self.points) < 2:
                raise ValidationError("table model needs at least 2 points")
            ts = [t for t, _ in self.points]
            if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
                raise ValidationError("table durations must be strictly increasing")
            if any(t <= 0 for t in ts) or any(p <= 0 for _, p in self.points):
                raise ValidationError("table durations and latencies must be positive")
            if self.valid_range is None:
                object.__setattr__(self, "valid_range", (ts[0], ts[-1]))
        else:
            if self.a < 0:
                raise ValidationError("intercept a must be non-negative")
            if self.b < 0:
                raise ValidationError("slope b must be non-negative")
            if self.a == 0 and self.b == 0:
                raise ValidationError("model is identically zero")

    def evaluate(self, t: float) -> float:
        """Processing time p(t) for a segment of duration ``t`` seconds; a
        p(t) past the float range is a ValidationError."""
        if t <= 0:
            raise ValidationError(f"segment duration must be positive, got {t}")
        if self.form == FORM_AFFINE:
            p = self.a + self.b * t
        elif self.form == FORM_LOG:
            p = self.a + self.b * math.log(t)
            if p <= 0:
                raise ValidationError(
                    f"log model is non-positive at t={t} (outside meaningful range)"
                )
        else:
            self._warn_outside(t)
            p = self._interpolate(t)
        if not math.isfinite(p):
            raise ValidationError(
                f"the {self.form} model's p(t) at t={t:g} s is not finite")
        return p

    def tau(self, t: float) -> float:
        """Reciprocal throughput p(t)/t; < 1 means ahead of real time."""
        return self.evaluate(t) / t

    @cached_property
    def _columns(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """A table's durations and latencies, split once per instance.  The
        cache lives in the instance ``__dict__``, outside the dataclass
        fields, so equality, hashing and ``repr`` never see it."""
        return tuple(t for t, _ in self.points), tuple(p for _, p in self.points)

    def _warn_outside(self, t: float) -> None:
        ts = self._columns[0]
        if t < ts[0] or t > ts[-1]:
            warnings.warn(
                f"t={t} outside measured range [{ts[0]}, {ts[-1]}]; "
                "extrapolating with clamped end-segment slope",
                ExtrapolationWarning,
                stacklevel=3,
            )

    def _interpolate(self, t: float) -> float:
        """A table's p(t); ``evaluate`` warns when this extrapolates."""
        ts, ps = self._columns
        if t < ts[0]:
            slope = (ps[1] - ps[0]) / (ts[1] - ts[0])
            return ps[0] + slope * (t - ts[0])
        if t > ts[-1]:
            slope = (ps[-1] - ps[-2]) / (ts[-1] - ts[-2])
            return ps[-1] + slope * (t - ts[-1])
        i = bisect_left(ts, t)
        if ts[i] == t:
            return ps[i]
        frac = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return ps[i - 1] + frac * (ps[i] - ps[i - 1])


@dataclass(frozen=True)
class ThroughputPoint:
    """A measured (t, p) pair with its exact ratio tau = p/t."""

    t: float
    p: float
    tau: float = field(init=False)

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise ValidationError("duration must be positive")
        tau = self.p / self.t
        if not math.isfinite(tau):
            raise ValidationError(
                f"tau = p/t at t={self.t:g} s is not finite (p={self.p:g} s)")
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class MeasurementSample:
    t: float
    p: float
    run: int


@dataclass
class MeasurementSet:
    """Timing samples for one hardware/pipeline label, possibly multiple runs
    per duration.  Aggregation is by per-duration mean and standard deviation."""

    label: str
    samples: list[MeasurementSample] = field(default_factory=list)

    def add(self, t: float, p: float, run: int = 0) -> None:
        if not 0 < t < math.inf:
            raise ValidationError(f"duration must be finite and positive, got {t}")
        if not math.isfinite(p):
            raise ValidationError(f"latency must be finite, got {p}")
        self.samples.append(MeasurementSample(t=t, p=p, run=run))

    def durations(self) -> list[float]:
        return sorted({s.t for s in self.samples})

    def means(self) -> list[tuple[float, float]]:
        runs: dict[float, list[float]] = {}
        for s in self.samples:
            runs.setdefault(s.t, []).append(s.p)
        try:
            return [(t, statistics.fmean(runs[t])) for t in sorted(runs)]
        except OverflowError:
            raise ValidationError(
                f"{self.label}: latencies too large to average"
            ) from None

    def throughput_points(self) -> list[ThroughputPoint]:
        return [ThroughputPoint(t=t, p=p) for t, p in self.means()]


@dataclass(frozen=True)
class FitDiagnostics:
    form: str
    rmse: float
    residuals: tuple[tuple[float, float], ...]
    n_durations: int


def fit(
    measurements: MeasurementSet,
    form: str,
    cold_start_extra: float = 0.0,
) -> tuple[LatencyModel, FitDiagnostics]:
    """Least-squares fit of the affine or log form to per-duration means.

    Raises InsufficientDataError with fewer than two distinct durations and
    ValidationError if the fitted parameters fall outside the model's
    admissible region (negative slope or intercept).
    """
    if form not in (FORM_AFFINE, FORM_LOG):
        raise ValidationError(f"can only fit 'affine' or 'log', got {form!r}")
    means = measurements.means()
    if len(means) < 2:
        raise InsufficientDataError(
            f"need >= 2 distinct durations to fit, got {len(means)}"
        )
    ts = [t for t, _ in means]
    ps = [p for _, p in means]
    xs = ts if form == FORM_AFFINE else [math.log(t) for t in ts]
    # statistics.linear_regression as of 3.11: from 3.12 on it sums with
    # math.sumprod, which changes the fit's last bits
    try:
        x_mean = math.fsum(xs) / len(xs)
        y_mean = math.fsum(ps) / len(ps)
        sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ps))
        sxx = math.fsum((x - x_mean) * (x - x_mean) for x in xs)
    except (OverflowError, ValueError) as exc:  # huge durations
        raise ValidationError(f"cannot fit the {form} form: {exc}") from None
    if sxx == 0:  # durations too close to tell apart
        raise ValidationError(f"cannot fit the {form} form: x is constant")
    b = sxy / sxx
    a = y_mean - b * x_mean
    # Least squares on data whose true parameter is 0 can land at -1e-17;
    # snap those artifacts back instead of rejecting the fit.
    if -1e-9 < a < 0.0:
        a = 0.0
    if -1e-9 < b < 0.0:
        b = 0.0
    model = LatencyModel(
        form=form,
        a=a,
        b=b,
        valid_range=(ts[0], ts[-1]),
        cold_start_extra=cold_start_extra,
    )
    residuals = tuple((t, p - model.evaluate(t)) for t, p in means)
    rmse = math.sqrt(statistics.fmean([r * r for _, r in residuals]))
    if rmse == math.inf:  # squares of residuals past 1e154
        raise ValidationError(f"cannot fit the {form} form: its residuals "
                              "are too large to square")
    return model, FitDiagnostics(
        form=form, rmse=rmse, residuals=residuals, n_durations=len(means)
    )


def fit_auto(
    measurements: MeasurementSet, cold_start_extra: float = 0.0
) -> tuple[LatencyModel, FitDiagnostics]:
    """Fit both parametric forms and keep the one with lower RMSE."""
    candidates = []
    for form in (FORM_AFFINE, FORM_LOG):
        try:
            candidates.append(fit(measurements, form, cold_start_extra))
        except InsufficientDataError:
            raise
        except ValidationError:
            continue
    if not candidates:
        raise ValidationError("no admissible parametric fit for this data")
    return min(candidates, key=lambda pair: pair[1].rmse)


def table_model(
    measurements: MeasurementSet, cold_start_extra: float = 0.0
) -> LatencyModel:
    """Non-parametric model interpolating the per-duration means directly."""
    means = measurements.means()
    if len(means) < 2:
        raise InsufficientDataError(
            f"need >= 2 distinct durations for a table model, got {len(means)}"
        )
    return LatencyModel(
        form=FORM_TABLE,
        points=tuple(means),
        cold_start_extra=cold_start_extra,
    )


def t_opt_discrete(points: Iterable[ThroughputPoint]) -> Optional[float]:
    """Smallest measured duration with tau < 1.0, or None if none qualifies."""
    pts = sorted(points, key=lambda p: p.t)
    if not pts:
        raise ValidationError("need at least one throughput point")
    if len({p.t for p in pts}) != len(pts):
        raise ValidationError("throughput points must have distinct durations")
    for point in pts:
        if point.tau < 1.0:
            return point.t
    return None


def t_opt_continuous(
    model: LatencyModel, t_search_max: float = DEFAULT_T_SEARCH_MAX
) -> Optional[float]:
    """Least t with tau(t) < 1, or None if the model never reaches real time
    below ``t_search_max``.

    Affine models solve in closed form: t = a / (1 - b), impossible for
    b >= 1.  Log and table models bisect on t - p(t), walking down from
    t_search_max to bracket the lag-to-viable crossing; a table warns only
    when that crossing lies outside its measured range.
    """
    if model.form == FORM_AFFINE:
        if model.b >= 1.0:
            return None
        crossing = model.a / (1.0 - model.b)
        return crossing if crossing <= t_search_max else None
    crossing = _bisect_crossing(model, t_search_max)
    if crossing is not None and model.form == FORM_TABLE:
        model._warn_outside(crossing)
    return crossing


def _bisect_crossing(model: LatencyModel, t_search_max: float) -> Optional[float]:
    p = model._interpolate if model.form == FORM_TABLE else model.evaluate

    def gap(t: float) -> float:
        return t - p(t)

    if gap(t_search_max) <= 0:
        return None
    # Walk down geometrically until inside the lag regime (gap <= 0).
    hi = t_search_max
    lo = t_search_max / 2.0
    floor = 1e-6
    while lo > floor:
        try:
            if gap(lo) <= 0:
                break
        except ValidationError:
            # Below the model's meaningful range: everything above was viable.
            return lo * 2.0
        hi = lo
        lo /= 2.0
    else:
        return lo * 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12:
            break
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Measurement CSV and model JSON interchange


def read_measurement_csv(path: "Path | str") -> dict[str, MeasurementSet]:
    """Parse a measurement CSV into per-label sets; raises ValidationError
    with the offending line number on malformed rows."""
    sets: dict[str, MeasurementSet] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise InsufficientDataError(f"{path}: insufficient data (empty file)")
    header = rows[0]
    if [h.strip() for h in header] != list(MEASUREMENT_CSV_HEADER):
        raise ValidationError(
            f"{path}: line 1: expected header "
            f"{','.join(MEASUREMENT_CSV_HEADER)}, got {','.join(header)}"
        )
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise ValidationError(
                f"{path}: line {lineno}: expected 4 fields, got {len(row)}"
            )
        label = row[0].strip()
        if not label:
            raise ValidationError(f"{path}: line {lineno}: empty label")
        try:
            t = float(row[1])
            run = int(row[2])
            p = float(row[3])
            sets.setdefault(label, MeasurementSet(label=label)).add(t, p, run)
        except ValueError as exc:  # ValidationError is a ValueError
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    return sets


def load_bundled_measurements() -> dict[str, MeasurementSet]:
    """The packaged hardware-tier calibration fixture (per-duration means)."""
    return read_measurement_csv(_BUNDLED_CSV)


def model_to_json(model: LatencyModel) -> dict:
    params: dict
    if model.form == FORM_TABLE:
        params = {"points": [[t, p] for t, p in model.points]}
    else:
        params = {"a": model.a, "b": model.b}
    return {
        "form": model.form,
        "params": params,
        "valid_range": list(model.valid_range) if model.valid_range else None,
        "cold_start_extra": model.cold_start_extra,
    }


def model_from_json(data: dict) -> LatencyModel:
    """The model a JSON document describes.  A value of the wrong JSON type is
    rejected with the field's name, never coerced."""
    try:
        form = data["form"]
        params = _typed(data["params"], dict, "params")
    except (TypeError, KeyError) as exc:
        raise ValidationError(f"model JSON missing field: {exc}") from None
    if form not in _FORMS:
        raise ValidationError(f"unknown model form {form!r}")
    valid_range = data.get("valid_range")
    kwargs: dict = {"form": form}
    try:
        if valid_range is not None:
            kwargs["valid_range"] = tuple(
                _number(x, f"valid_range[{i}]")
                for i, x in enumerate(_typed(valid_range, list, "valid_range"))
            )
        kwargs["cold_start_extra"] = _number(
            data.get("cold_start_extra", 0.0), "cold_start_extra"
        )
        if form == FORM_TABLE:
            points = _typed(params["points"], list, "params.points")
            kwargs["points"] = tuple(
                (_number(t, f"params.points[{i}][0]"),
                 _number(p, f"params.points[{i}][1]"))
                for i, (t, p) in enumerate(points)
            )
        else:
            kwargs["a"] = _number(params["a"], "params.a")
            kwargs["b"] = _number(params["b"], "params.b")
    except (TypeError, KeyError, ValueError) as exc:
        raise ValidationError(f"malformed model: {exc}") from None
    return LatencyModel(**kwargs)


def save_model(model: LatencyModel, path: "Path | str") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(model_to_json(model)) + "\n")


def load_model(path: "Path | str") -> LatencyModel:
    return model_from_json(read_json(path))
