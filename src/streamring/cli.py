"""Command-line front end.

Subcommands:

* ``calibrate`` — fit a latency model to measurement CSV (or the bundled
  hardware-tier fixture) and write it as model JSON.
* ``topt`` — report the smallest real-time-viable segment duration for a
  model, over a grid and (optionally) as the continuous crossing.
* ``simulate`` — run a meeting scenario file and report pipeline counts,
  costs, startup delays, and stalls.
* ``sweep`` — tabulate per-speaker pipeline cost against meeting size for
  the three language-assignment regimes.
* ``bench`` — time a real per-segment command over a chunked stream and
  emit measurement CSV (``--format csv`` or ``--out``) that ``calibrate``
  accepts unmodified.

Global flags (valid on every subcommand): ``--seed`` (default 42),
``--out PATH``, ``--format json|csv``, ``--quiet``.  Standard output is
human-readable by default; ``--format`` switches it (or the ``--out`` file)
to a machine representation with stable key order.  ``--quiet`` suppresses
the human summary only, never explicitly requested machine output.

The CSV rendering is one table of records inside the JSON payload (tau
table, samples, sweep rows or measurements), each record's fields in header
order.  ``--out`` without ``--format`` writes JSON, or CSV for ``sweep`` and
``bench``; ``calibrate --out`` writes model JSON, not the command's output.

Exit codes: 0 success, 1 usage, 2 validation, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import warnings
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, TextIO

from .core import CostModel, ValidationError, dump_json
from .latency import FORM_AFFINE, FORM_LOG, load_model, model_to_json, save_model
from .segproc import StreamSpec
from .simulator import (
    METRICS_CSV_HEADER,
    SWEEP_CSV_HEADER,
    RunReport,
    load_scenario,
    report_to_json,
    run_scenario,
    sweep_cost,
)

if TYPE_CHECKING:
    from .calibration import MeasurementSet, ThroughputPoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_SWEEP_ASSIGNMENTS = {
    "uniform": "uniform",
    "distinct": "all-distinct",
    "same": "all-same",
}

#: Most meeting sizes one ``sweep`` tabulates; a longer ``--n`` is a usage
#: error, found before any size is listed.
MAX_SWEEP_ROWS = 10_000

_TAU_HEADER = ("t_seconds", "p_seconds", "tau", "real_time")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; our contract reserves 2 for validation
    and uses 1 for usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _err(message: str) -> None:
    sys.stderr.write(f"streamring: error: {message}\n")


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def _grid_arg(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid: {text!r}") from None
    if not values or not all(0 < v < math.inf for v in values):  # also rejects NaN
        raise argparse.ArgumentTypeError(
            "grid durations must be positive and finite")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("grid durations must be distinct")
    return values


def _n_range_arg(text: str) -> list[int]:
    """Meeting sizes: ``8``, ``2:50`` (inclusive), or a comma list of both."""
    out: list[int] = []
    try:
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if ":" in token:
                lo_s, hi_s = token.split(":")
                lo, hi = int(lo_s), int(hi_s)
            else:
                lo = hi = int(token)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range: {token!r}")
            if len(out) + hi - lo + 1 > MAX_SWEEP_ROWS:
                raise argparse.ArgumentTypeError(
                    f"more than the limit of {MAX_SWEEP_ROWS} meeting sizes")
            out.extend(range(lo, hi + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size spec: {text!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("no meeting sizes given")
    return out


def _write_csv(header: Sequence[str], records: list[dict], fh: TextIO) -> None:
    """Write the table ``records`` to ``fh`` as CSV, a row at a time: the
    header, then each record's values in header order, with bools written
    as 0/1."""
    import csv

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for record in records:
        row = [record[key] for key in header]
        writer.writerow([int(v) if isinstance(v, bool) else v for v in row])


def _write_output(fmt: str, payload: object, header: Sequence[str],
                  records: list[dict], fh: TextIO) -> None:
    if fmt == "json":
        dump_json(payload, fh)
        fh.write("\n")
    else:
        _write_csv(header, records, fh)


def _finish(
    args: argparse.Namespace,
    human: Iterable[str],
    payload: object,
    header: Sequence[str],
    records: list[dict],
    out_default: str = "json",
) -> int:
    """Route one command's results: ``--out`` gets the machine rendering
    (``--format`` or the command's default), bare ``--format`` replaces the
    stdout summary, otherwise the summary prints unless ``--quiet``.  The
    CSV rendering is the table ``records``, which lies inside ``payload``.
    The summary ``human`` is iterated only to print it, a line at a time,
    after the ``--out`` file is written and closed."""
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_output(args.format or out_default, payload, header,
                          records, fh)
        if not args.quiet:
            _print(chain(human, [f"wrote {args.out}"]))
    elif args.format is not None:
        _write_output(args.format, payload, header, records, sys.stdout)
    elif not args.quiet:
        _print(human)
    return EXIT_OK


def _print(lines: Iterable[str]) -> None:
    """Write each of ``lines`` to stdout, ended by a newline."""
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")


@contextlib.contextmanager
def _relay_warnings() -> Iterator[None]:
    """Catch the Python warnings the block raises, then print each distinct
    message once, in the CLI's format."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(item.message) for item in caught):
                sys.stderr.write(f"streamring: warning: {message}\n")


def _pick_label(sets: dict[str, MeasurementSet], label: Optional[str],
                source: str) -> MeasurementSet:
    from .calibration import InsufficientDataError

    if not sets:
        raise InsufficientDataError(f"{source}: insufficient data (no rows)")
    if label is not None:
        if label not in sets:
            raise ValidationError(
                f"label {label!r} not in {source} "
                f"(available: {', '.join(sorted(sets))})"
            )
        return sets[label]
    if len(sets) == 1:
        return next(iter(sets.values()))
    raise ValidationError(
        f"{source} holds several labels ({', '.join(sorted(sets))}); pass --label"
    )


def _tau_payload(points: list[ThroughputPoint]) -> list[dict]:
    return [
        dict(zip(_TAU_HEADER, (pt.t, pt.p, pt.tau, pt.tau < 1.0))) for pt in points
    ]


def _tau_lines(points: list[ThroughputPoint]) -> list[str]:
    return [
        f"  T={pt.t:<6g} p={pt.p:<9.6g} tau={pt.tau:.4f}  "
        + ("real-time" if pt.tau < 1.0 else "lagging")
        for pt in points
    ]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibration import (
        fit, fit_auto, load_bundled_measurements, read_measurement_csv,
    )

    if args.input is not None:
        sets = read_measurement_csv(args.input)
        source = str(args.input)
    else:
        sets = load_bundled_measurements()
        source = "bundled fixture"
    mset = _pick_label(sets, args.label, source)
    # first, so latencies too large to average fail with their own message
    points = mset.throughput_points()
    if args.form == "auto":
        model, diag = fit_auto(mset)
    else:
        model, diag = fit(mset, args.form)

    payload = {
        "label": mset.label,
        "model": model_to_json(model),
        "diagnostics": {
            "form": diag.form,
            "rmse": diag.rmse,
            "n_durations": diag.n_durations,
            "residuals": [[t, r] for t, r in diag.residuals],
        },
        "tau_table": _tau_payload(points),
    }
    human = [
        f"label: {mset.label}",
        f"form: {model.form}" + ("  (chosen by auto)" if args.form == "auto" else ""),
        f"a={model.a:.6g}  b={model.b:.6g}",
        f"rmse: {diag.rmse:.6g} over {diag.n_durations} durations",
        "residuals:",
        *[f"  T={t:<6g} {r:+.6g}" for t, r in diag.residuals],
        "throughput (measured means):",
        *_tau_lines(points),
    ]
    if args.out is not None:  # the model file, not the command's output
        save_model(model, args.out)
        human.append(f"model written: {args.out}")
        args.out = None
    return _finish(args, human, payload, _TAU_HEADER, payload["tau_table"])


def cmd_topt(args: argparse.Namespace) -> int:
    from .calibration import ThroughputPoint, t_opt_continuous, t_opt_discrete

    model = load_model(args.model)
    with _relay_warnings():
        points = [ThroughputPoint(t, model.evaluate(t)) for t in sorted(args.grid)]
        discrete = t_opt_discrete(points)
        continuous = t_opt_continuous(model) if args.continuous else None

    payload: dict = {
        "model": model_to_json(model),
        "grid": sorted(args.grid),
        "tau_table": _tau_payload(points),
        "t_opt_discrete": discrete,
    }
    fmt_opt = lambda v: "none" if v is None else f"{v:g}"
    human = [
        f"model: {model.form}  a={model.a:.6g} b={model.b:.6g}",
        "throughput over grid:",
        *_tau_lines(points),
        f"T_opt (discrete): {fmt_opt(discrete)}",
    ]
    if args.continuous:
        payload["t_opt_continuous"] = continuous
        human.append(f"T_opt (continuous): {fmt_opt(continuous)}")
    return _finish(args, human, payload, _TAU_HEADER, payload["tau_table"])


def cmd_simulate(args: argparse.Namespace) -> int:
    with _relay_warnings():  # the scenario is freed before rendering
        report = run_scenario(load_scenario(args.scenario))
    payload = report_to_json(report)
    samples = payload["samples"]
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            _write_csv(METRICS_CSV_HEADER, samples, fh)
    return _finish(args, _summary(args, report), payload, METRICS_CSV_HEADER,
                   samples)


def _summary(args: argparse.Namespace, report: RunReport) -> Iterator[str]:
    """``simulate``'s stdout summary, a line at a time: one per warning."""
    startups = report.series.turn_startups
    cold = sum(1 for t in startups if t["cold"])
    yield f"scenario: {args.scenario}  (digest {report.scenario_digest[:12]})"
    yield f"segment duration: {report.resolved_segment_duration:g} s"
    yield f"pipelines: max k={report.max_k}  time-weighted mean k={report.mean_k:.4f}"
    yield f"cost ratio (concurrent/counterfactual): {report.cost_ratio:.6g}"
    yield f"turn startups: {len(startups)} ({cold} cold)"
    yield f"stall seconds: {report.total_stall_seconds:.6g}"
    for warning in report.warnings:
        yield f"warning: {warning}"
    if args.csv is not None:
        yield f"metrics csv: {args.csv}"


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep_cost(
        args.n,
        args.langs,
        _SWEEP_ASSIGNMENTS[args.assignment],
        cost=CostModel(unit_cost=args.unit_cost),
        trials=args.trials,
        seed=args.seed,
    )
    human = [
        f"assignment: {args.assignment}  languages: {args.langs}  "
        f"trials: {args.trials}  seed: {args.seed}",
        f"{'N':>4} {'mean_k':>10} {'token':>12} {'naive':>12} {'ratio':>10}",
    ]
    human.extend(
        f"{r['n']:>4} {r['mean_k']:>10.4f} {r['token_cost']:>12.4f} "
        f"{r['naive_cost']:>12.4f} {r['cost_ratio']:>10.6f}"
        for r in rows
    )
    return _finish(args, human, rows, SWEEP_CSV_HEADER, rows, out_default="csv")


def cmd_bench(args: argparse.Namespace) -> int:
    import tempfile
    from dataclasses import asdict

    from .calibration import MEASUREMENT_CSV_HEADER
    from .external import run_external

    stream = StreamSpec(total_duration=args.stream_seconds, mode=args.mode)
    workdir = (contextlib.nullcontext(args.workdir) if args.workdir is not None
               else tempfile.TemporaryDirectory(prefix="streamring-bench-"))
    with workdir as path:
        result = run_external(args.cmd, stream, args.segment, path,
                              label=args.label, timeout=args.segment_timeout)

    mset = result.measurements
    payload: dict = {
        "label": mset.label,
        "ok": result.ok,
        "failed_segment": result.failed_segment,
        "error": result.error,
        "measurements": [
            dict(zip(MEASUREMENT_CSV_HEADER, (mset.label, s.t, s.run, s.p)))
            for s in mset.samples
        ],
        "report": None if result.report is None else asdict(result.report),
    }

    human = [
        f"label: {mset.label}",
        f"segments measured: {len(mset.samples)}",
        "throughput (measured means):",
        *_tau_lines(mset.throughput_points()),
    ]
    _finish(args, human, payload, MEASUREMENT_CSV_HEADER,
            payload["measurements"], out_default="csv")
    if not result.ok:
        _err(
            f"segment {result.failed_segment} command failed: "
            f"{result.error or 'unknown error'}"
        )
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for any randomized work (default 42)")
    common.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write machine output to this file")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="machine output format (default: human summary)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")

    parser = _Parser(
        prog="streamring",
        description="Speaker-scoped translation pipelines over segmented "
                    "streams: calibration, viability analysis, scenario "
                    "simulation, cost sweeps, benchmarking.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    p = sub.add_parser(
        "calibrate", parents=[common],
        help="fit a latency model from measurement CSV",
        description="Fit a latency model to per-duration mean processing "
                    "times and write it as model JSON (--out).",
    )
    p.add_argument("--input", type=Path, default=None, metavar="CSV",
                   help="measurement CSV (default: bundled hardware fixture)")
    p.add_argument("--label", default=None,
                   help="measurement label to calibrate when the CSV holds several")
    p.add_argument("--form", choices=(FORM_AFFINE, FORM_LOG, "auto"),
                   default="auto",
                   help="functional form; auto keeps the lower-RMSE fit")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser(
        "topt", parents=[common],
        help="smallest real-time-viable segment duration",
        description="Report the smallest grid duration with tau < 1 and, "
                    "with --continuous, the exact crossing.",
    )
    p.add_argument("--model", type=Path, required=True, metavar="JSON",
                   help="model file from calibrate")
    p.add_argument("--grid", type=_grid_arg, default=(1.0, 2.0, 3.0, 5.0, 8.0),
                   metavar="T1,T2,...",
                   help="candidate segment durations (default 1,2,3,5,8)")
    p.add_argument("--continuous", action="store_true",
                   help="also solve for the continuous tau = 1 crossing")
    p.set_defaults(handler=cmd_topt)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="run a meeting scenario file",
        description="Validate and run a scenario JSON, reporting pipeline "
                    "counts, costs, startup delays, and stalls.",
    )
    p.add_argument("--scenario", type=Path, required=True, metavar="JSON")
    p.add_argument("--csv", type=Path, default=None, metavar="PATH",
                   help="also write the per-sample metrics CSV here")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="pipeline cost vs meeting size",
        description="Tabulate mean concurrent pipelines and per-speaker cost "
                    "against meeting size for an assignment regime.",
    )
    p.add_argument("--n", type=_n_range_arg, required=True, metavar="SPEC",
                   help="meeting sizes: '8', '2:50', or comma list")
    p.add_argument("--langs", type=int, default=4, metavar="K",
                   help="language pool size for uniform assignment (default 4)")
    p.add_argument("--assignment", choices=tuple(_SWEEP_ASSIGNMENTS),
                   default="uniform")
    p.add_argument("--trials", type=int, default=100,
                   help="random meetings per size for uniform (default 100)")
    p.add_argument("--unit-cost", type=_positive_float, default=1.0,
                   metavar="C", help="cost of one pipeline-unit (default 1)")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser(
        "bench", parents=[common],
        help="time an external per-segment command",
        description="Chunk a stream, run a command once per chunk with "
                    "{input}/{output} substituted, and emit measurement CSV "
                    "that calibrate accepts unmodified.",
    )
    p.add_argument("--cmd", required=True, metavar="TEMPLATE",
                   help="command template, e.g. 'mymodel {input} -o {output}'")
    p.add_argument("--stream-seconds", type=_positive_float, required=True,
                   metavar="S", help="total stream duration to chunk")
    p.add_argument("--segment", type=_positive_float, required=True,
                   metavar="T", help="segment duration in seconds")
    p.add_argument("--label", default="bench",
                   help="label for the emitted measurement rows")
    p.add_argument("--mode", choices=("live", "batch"), default="batch",
                   help="live paces chunk availability on the wall clock")
    p.add_argument("--workdir", type=Path, default=None,
                   help="keep chunk files here instead of a temp dir")
    p.add_argument("--segment-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill a segment's command after this long and stop "
                        "(default: no limit)")
    p.set_defaults(handler=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built on its first call: building one costs far
    more than a parse, and a parse leaves it unchanged.  The handlers and
    argument types are bound when it is built, so a later patch of one
    takes effect only after ``_parser.cache_clear()``."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        status = handler(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader left early, as ``head`` does: end quietly.  What stdout
        # still holds is flushed to /dev/null, so that exit writes nothing;
        # fd 1 stays the pipe for a later caller in this process.
        saved = os.dup(1)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), 1)
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
        return EXIT_RUNTIME
    except (ValidationError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    except OSError as exc:
        _err(str(exc))
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
