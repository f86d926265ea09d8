#!/usr/bin/env python3
"""Rewrite ``digests.json`` from the current code.

Usage, from the root of a checkout::

    python tests/golden/regenerate.py

Run it only when a behaviour change is intended, and review the diff of
``digests.json``: every changed line names a case and the part of its
output (result, adversary trace, span trees, ...) that moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.golden.cases import ALL_CASES, run_case  # noqa: E402

DIGESTS = HERE / "digests.json"


def main() -> None:
    digests = {}
    for name in ALL_CASES:
        digests[name] = run_case(name)
        print(f"{name}: done", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {DIGESTS}")


if __name__ == "__main__":
    main()
