"""Calibration: measurement sets, least-squares fits and the T_opt solvers.

A MeasurementSet holds the timed runs of one hardware/pipeline label.  Its
per-duration means are fitted to the affine or log form of a LatencyModel
by least squares, or interpolated directly as a table model; the solvers
locate the smallest segment duration with tau < 1, either over a measured
grid or continuously.  ``simulate`` imports this module only for a
``{"fixture": …}`` model or ``segment_duration: "auto"``.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .core import ValidationError
from .latency import FORM_AFFINE, FORM_LOG, FORM_TABLE, LatencyModel

MEASUREMENT_CSV_HEADER = ("label", "t_seconds", "run", "p_seconds")

_BUNDLED_CSV = Path(__file__).parent / "data" / "hardware_tiers.csv"

#: Default upper limit for the continuous viability search, in seconds.
DEFAULT_T_SEARCH_MAX = 600.0


class InsufficientDataError(ValidationError):
    """Calibration needs at least two distinct segment durations."""


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
# Measurement CSV


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

