"""Behaviour lock: recompute every golden case and compare its digests.

A failure names the case and the digest that moved (``result``,
``adversary``, ``spans``, ...).  If the change in behaviour is intended,
rerun ``python tests/golden/regenerate.py`` and commit the new
``digests.json``; see ``cases.py`` for what each digest covers.
"""

import json
from pathlib import Path

import pytest

from tests.golden.cases import ALL_CASES, run_case

EXPECTED = json.loads((Path(__file__).parent / "digests.json").read_text())


def test_corpus_lists_every_case():
    assert sorted(EXPECTED) == sorted(ALL_CASES)


@pytest.mark.parametrize("name", ALL_CASES)
def test_case_matches_golden_digests(name):
    actual = run_case(name)
    moved = sorted(
        field for field in EXPECTED[name] if actual.get(field) != EXPECTED[name][field]
    )
    assert not moved, f"{name}: digests moved for {', '.join(moved)}"
    assert actual == EXPECTED[name]
