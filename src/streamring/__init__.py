"""Speaker-turn pipeline orchestration and segmented stream processing.

One participant speaks at a time, so translation pipelines are keyed by
distinct listener target language — k concurrent instances instead of the
N*(N-1) needed when everyone processes everyone.  Live streams are chunked
into fixed-duration segments scheduled as overlapping jobs; playback is
gap-free after a single buffering event whenever the per-segment processing
time p(T) stays below the segment duration T.
"""

import importlib
import logging

from .core import (
    CostModel,
    LanguageTag,
    Meeting,
    ValidationError,
    cost_naive,
    cost_token,
)
from .latency import LatencyModel, load_model, save_model
from .orchestrator import (
    required_languages,
    update_orchestration,
    verify_invariants,
)
from .segproc import StreamSpec, check_viability, schedule_stream
from .simulator import (
    Scenario,
    ScenarioEvent,
    load_scenario,
    report_to_json,
    run_scenario,
    save_scenario,
    sweep_cost,
)

__version__ = "0.1.0"

# A library does not configure logging; without a handler of its own, every
# logged allocation failure would reach stderr through logging's last resort.
logging.getLogger(__name__).addHandler(logging.NullHandler())

# Calibration and the command runner are imported on first use, so that a
# process that only simulates never compiles them (PEP 562).
_LAZY = dict.fromkeys(
    ("MeasurementSet", "fit", "fit_auto", "load_bundled_measurements",
     "t_opt_continuous", "t_opt_discrete", "table_model"), "calibration",
) | {"run_external": "external"}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "CostModel",
    "LanguageTag",
    "LatencyModel",
    "MeasurementSet",
    "Meeting",
    "Scenario",
    "ScenarioEvent",
    "StreamSpec",
    "ValidationError",
    "check_viability",
    "cost_naive",
    "cost_token",
    "fit",
    "fit_auto",
    "load_bundled_measurements",
    "load_model",
    "load_scenario",
    "report_to_json",
    "required_languages",
    "run_external",
    "run_scenario",
    "save_model",
    "save_scenario",
    "schedule_stream",
    "sweep_cost",
    "t_opt_continuous",
    "t_opt_discrete",
    "table_model",
    "update_orchestration",
    "verify_invariants",
]
