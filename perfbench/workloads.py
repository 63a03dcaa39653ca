"""Seeded meeting generator for the ``simulate`` benchmark.

Each workload is a fixed number of scenario files drawn from one seed.  The
shape of a workload (roster size, language count, event count and kinds,
run length, segment duration) is fixed; the seed varies which participant
speaks, who joins or leaves, the language draws, the event times and the
latency table's noise.  That keeps the work per call steady across seeds, so
a claim can be checked on a seed that was not used while writing it.

Only ``random.Random.random`` is used, and every float written is either a
whole number or rounded through ``round``, so the same seed gives
byte-identical files on every Python version the package supports.

Run ``python3 perfbench/workloads.py --workload handoff-large --seed 7 --out
DIR`` to write a workload's scenarios without benchmarking them.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

WORKLOADS = ("handoff-large", "churn-large", "long-stream")

SCENARIOS_PER_WORKLOAD = 4

# handoff-large / churn-large
ROSTER = 500
LANGUAGES = 40
POOL = 32
ZIPF_S = 1.0
HANDOFF_EVENTS = 12
HANDOFF_GAP_S = (4, 8)  # whole seconds between hand-offs: 1-3 segments
CHURN_EVENTS = 32  # the first is the opening speaker-change
CHURN_HANDOFFS = 3  # about 10% of the rest; the others are roster edits
CHURN_GAP_S = (1, 4)
LARGE_SEGMENT_S = 3.0  # viable on the A100 affine fit

# long-stream
STREAM_PARTICIPANTS = 12
STREAM_LANGUAGES = 6
STREAM_POOL = 8
STREAM_SEGMENTS = 650  # run_duration = 650 T, rounded: ~650 segments per language
STREAM_HANDOFFS = 4
TABLE_POINTS = 200
TABLE_STEP_S = 0.005  # table covers [0.005, 1.0] s
TABLE_A = 0.12
TABLE_B = 0.65  # tau(T) = 1 at T = A / (1 - B) ~ 0.343 s
TABLE_NOISE = 0.001
# Segment durations of the four meetings, two on each side of tau = 1.  They
# are fixed rather than drawn so that the simulated seconds per call do not
# vary with the seed.  With whole-second event times every tail segment is a
# multiple of 0.01 s, never shorter than the table's first point.
STREAM_T = (0.27, 0.39, 0.31, 0.45)


def _zipf_cdf(n: int, s: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _draw(rng: random.Random, cdf: list[float]) -> int:
    u = rng.random()
    for index, edge in enumerate(cdf):
        if u < edge:
            return index
    return len(cdf) - 1


def _below(rng: random.Random, n: int) -> int:
    return min(int(rng.random() * n), n - 1)


def _between(rng: random.Random, lo: int, hi: int) -> int:
    return lo + _below(rng, hi - lo + 1)


def _gaps(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` whole-second gaps in [lo, hi], drawn in complementary pairs so
    that their sum, the run length, is the same for every seed."""
    out = []
    for _ in range(n // 2):
        gap = _between(rng, lo, hi)
        out += [gap, lo + hi - gap]
    return out


def _shuffle(rng: random.Random, items: list) -> None:
    """Fisher-Yates on ``rng.random``, stable across Python versions."""
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _language(index: int) -> str:
    return f"l{index:02d}"


def _large_roster(rng: random.Random, cdf: list[float]) -> dict[str, str]:
    return {f"p{i:04d}": _language(_draw(rng, cdf)) for i in range(ROSTER)}


def _affine_model(rng: random.Random) -> dict:
    cold = _between(rng, 50, 150) / 100
    return {"fixture": "A100", "form": "affine", "cold_start_extra": cold}


def _handoff(rng: random.Random) -> dict:
    """Speaker changes only: every event is a full hand-off, so the
    orchestrator re-plans up to POOL pipelines and the simulator closes and
    reopens every session, scanning the roster for each."""
    cdf = _zipf_cdf(LANGUAGES, ZIPF_S)
    roster = _large_roster(rng, cdf)
    ids = sorted(roster)
    events, time, speaker = [], 0, None
    for gap in _gaps(rng, HANDOFF_EVENTS, *HANDOFF_GAP_S):
        nxt = ids[_below(rng, len(ids))]
        while nxt == speaker:
            nxt = ids[_below(rng, len(ids))]
        events.append({"time": float(time), "kind": "speaker-change",
                       "participant": nxt})
        speaker = nxt
        time += gap
    return _scenario(roster, POOL, _affine_model(rng), LARGE_SEGMENT_S,
                     float(time), events)


def _churn(rng: random.Random) -> dict:
    """The hand-off roster shape, but mostly roster edits while sessions keep
    running: the orchestrator's incremental path instead of re-plans."""
    cdf = _zipf_cdf(LANGUAGES, ZIPF_S)
    initial = _large_roster(rng, cdf)
    roster = dict(initial)
    present = sorted(roster)
    speaker = present[_below(rng, len(present))]
    events = [{"time": 0.0, "kind": "speaker-change", "participant": speaker}]
    time, next_id = 0, ROSTER
    gaps = _gaps(rng, CHURN_EVENTS, *CHURN_GAP_S)
    # a fixed count of each kind, in seeded order; joins and leaves balance,
    # so the roster stays near its initial size
    edits = CHURN_EVENTS - 1 - CHURN_HANDOFFS
    kinds = (["speaker-change"] * CHURN_HANDOFFS
             + ["join", "leave", "language-change"] * (edits // 3)
             + ["language-change"] * (edits % 3))
    _shuffle(rng, kinds)
    for gap, kind in zip(gaps, kinds):
        time += gap
        if kind == "speaker-change":
            nxt = present[_below(rng, len(present))]
            while nxt == speaker:
                nxt = present[_below(rng, len(present))]
            event = {"kind": "speaker-change", "participant": nxt}
            speaker = nxt
        elif kind == "join":
            pid = f"p{next_id:04d}"
            next_id += 1
            lang = _language(_draw(rng, cdf))
            roster[pid] = lang
            present.append(pid)
            event = {"kind": "join", "participant": pid, "language": lang}
        elif kind == "leave":  # never the speaker
            pid = speaker
            while pid == speaker:
                pid = present[_below(rng, len(present))]
            del roster[pid]
            present.remove(pid)
            event = {"kind": "leave", "participant": pid}
        else:
            pid = present[_below(rng, len(present))]
            lang = _language(_draw(rng, cdf))
            roster[pid] = lang
            event = {"kind": "language-change", "participant": pid,
                     "language": lang}
        events.append({"time": float(time), **event})
    time += gaps[-1]
    return _scenario(initial, POOL, _affine_model(rng), LARGE_SEGMENT_S,
                     float(time), events)


def _table_model(rng: random.Random) -> dict:
    points = []
    for i in range(TABLE_POINTS):
        t = round((i + 1) * TABLE_STEP_S, 3)
        noise = (rng.random() * 2 - 1) * TABLE_NOISE
        points.append([t, round(TABLE_A + TABLE_B * t + noise, 6)])
    return {"form": "table", "params": {"points": points},
            "valid_range": [points[0][0], points[-1][0]],
            "cold_start_extra": 0.05}


def _long_stream(rng: random.Random, index: int) -> dict:
    """A small meeting over a long run on a table model: thousands of
    segments per call put the time in scheduling, ``evaluate``, report
    assembly and rendering, and the orchestrator is nearly idle."""
    langs = [_language(i % STREAM_LANGUAGES) for i in range(STREAM_PARTICIPANTS)]
    _shuffle(rng, langs)
    roster = {f"s{i:02d}": lang for i, lang in enumerate(langs)}
    ids = sorted(roster)
    segment = STREAM_T[index % len(STREAM_T)]
    # the run scales with T, so every meeting has the same segment count
    run = round(STREAM_SEGMENTS * segment)
    times = sorted({_between(rng, 1, run - 1) for _ in range(STREAM_HANDOFFS - 1)})
    events, speaker = [], None
    for time in [0] + times:
        nxt = ids[_below(rng, len(ids))]
        while nxt == speaker:
            nxt = ids[_below(rng, len(ids))]
        events.append({"time": float(time), "kind": "speaker-change",
                       "participant": nxt})
        speaker = nxt
    return _scenario(roster, STREAM_POOL, _table_model(rng), segment,
                     float(run), events)


def _scenario(roster: dict[str, str], pool: int, model: dict, segment: float,
              run_duration: float, events: list[dict]) -> dict:
    return {
        "participants": [{"id": pid, "language": lang} for pid, lang in roster.items()],
        "pool_capacity": pool,
        "latency_model": model,
        "segment_duration": segment,
        "run_duration": run_duration,
        "events": events,
    }


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's scenarios as scenario-JSON objects, in call order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out = []
    for index in range(SCENARIOS_PER_WORKLOAD):
        rng = random.Random(f"{workload}/{seed}/{index}")
        if workload == "handoff-large":
            out.append(_handoff(rng))
        elif workload == "churn-large":
            out.append(_churn(rng))
        else:
            out.append(_long_stream(rng, index))
    return out


def render(scenario: dict) -> bytes:
    return (json.dumps(scenario, sort_keys=True, indent=1) + "\n").encode("utf-8")


def write(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's scenario files into ``directory``; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, scenario in enumerate(generate(workload, seed)):
        path = directory / f"{workload}-{seed}-{index}.json"
        path.write_bytes(render(scenario))
        paths.append(path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path in write(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
