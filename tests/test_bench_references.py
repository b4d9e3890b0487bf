"""The benchmark's reference script still reproduces its committed references.

`dpbench/make_reference.py` builds every design_grid LP and reads it through
`LinearProgram`'s rows, relations and bounds, which no other test of this
suite reads that way; a change to them that broke the script would go unseen.
"""

import json
from pathlib import Path

import pytest

from conftest import run_fresh

DPBENCH = Path(__file__).resolve().parents[1] / "dpbench"


def test_make_reference_reproduces_the_committed_references():
    # no bytecode is written, and oracle() and digests() write no file
    out = json.loads(run_fresh(f"""
import json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, {str(DPBENCH)!r})
import make_reference
print(json.dumps({{"oracle": make_reference.oracle(), "digests": make_reference.digests()}}))
"""))
    oracle = json.loads((DPBENCH / "data" / "oracle.json").read_text(encoding="utf-8"))
    assert out["oracle"] == pytest.approx(oracle, rel=0, abs=1e-12)
    assert out["digests"] == json.loads(
        (DPBENCH / "data" / "digests.json").read_text(encoding="utf-8"))
