"""README tests: the CLI and library quick starts run as written."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from streamring import external
from streamring.cli import main

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    """The ``python`` block of README's "Library quick start" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_library_quick_start_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # its scenario path is relative to the repo root
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), "README.md", "exec"), {})
    assert out.getvalue() == "2 0.0\n"


def cli_quick_start() -> str:
    """The ``sh`` block of README's "CLI quick start" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    block = cli_quick_start().replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("streamring ")]
    # the outputs the block states, each a comment indented under a command
    stated = [line[1:].strip() for line in block.splitlines()
              if line.startswith("#   ")]
    assert len(commands) == 6
    assert stated == [
        "T_opt (discrete): 3", "T_opt (continuous): 2.10127",
        "pipelines: max k=1  time-weighted mean k=1.0000",
        "cost ratio (concurrent/counterfactual): 0.0111111"]
    # its files land in a scratch directory; its scenario path is relative
    # to the repo root
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenarios").symlink_to(ROOT / "scenarios")
    # ten 3 s segments and a 1 s tail, timed by scripted clock readings at
    # p = 0.1 + 0.5 d, as in test_cli's round trip into calibrate
    readings, now = [0.0], 0.0
    for duration in [3.0] * 10 + [1.0]:
        readings += [now, now + 0.1 + 0.5 * duration]
        now = readings[-1]
    clock = iter(readings)
    monkeypatch.setattr(external, "_clock", lambda: next(clock))
    for argv in commands:
        argv = [token.replace("mymodel {input} -o {output}", "cp {input} {output}")
                for token in argv[1:]]
        assert main(argv) == 0, argv
    assert next(clock, None) is None  # every segment was timed
    out = capsys.readouterr().out
    for line in stated:
        assert line in out
    assert (tmp_path / "mybox.json").exists()
