"""The mutation table's anchors: each mutant's old text occurs exactly once
in its file under ``src/``, so a refactor that moves a mutated line must
update ``tests/mutants.py`` in the same change.  Running the mutants is
``python tests/mutants.py``, a CI step, not part of this suite."""

from __future__ import annotations

import pytest

from tests.mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
