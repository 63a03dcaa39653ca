"""Processing-latency models and their JSON interchange.

A model maps segment duration t to pipeline processing time p(t).  The ratio
tau(t) = p(t)/t decides viability: tau < 1 means the pipeline runs ahead of
real time for segments of that length.  Three parameterizations are
supported:

  affine  p(t) = a + b*t
  log     p(t) = a + b*ln(t)
  table   monotone piecewise-linear interpolation of measured (t, p) points

Fitting a model to measurements and solving for the smallest viable
duration live in ``streamring.calibration``, which a simulation of an
inline model with a fixed duration never imports.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from .core import ValidationError, _number, _typed, dump_json, read_json

FORM_AFFINE = "affine"
FORM_LOG = "log"
FORM_TABLE = "table"
_FORMS = (FORM_AFFINE, FORM_LOG, FORM_TABLE)


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


# ---------------------------------------------------------------------------
# Model JSON interchange


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
        dump_json(model_to_json(model), fh)
        fh.write("\n")


def load_model(path: "Path | str") -> LatencyModel:
    return model_from_json(read_json(path))
