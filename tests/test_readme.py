"""README tests: the library quick start runs as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

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
