"""Behaviour lock: replan the golden corpus and diff it field by field.

The corpus (``tests/golden_plans.json``) is written only by
``scripts/golden_plans.py --write``; see that script for what it pins.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_plans.py"
_spec = importlib.util.spec_from_file_location("golden_plans", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

CORPUS = golden.load_corpus()


def test_corpus_covers_every_request():
    assert set(CORPUS) == set(golden.DESIGNS)
    for design in golden.DESIGNS:
        assert set(CORPUS[design]) == {
            f"{kind}@{width}" for kind, width in golden.requests(design)
        }
    assert sum(len(entries) for entries in CORPUS.values()) == 105


@pytest.mark.parametrize("design", golden.DESIGNS)
def test_replan_matches_corpus(design):
    assert golden.diff(CORPUS[design], golden.plan_design(design)) == []
