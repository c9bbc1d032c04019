"""Golden CLI corpus: fixed argv lists and the exit code and stdout that the
program gave for them before a refactor, and its stderr where a case has a
"stderr" key.  A refactor that keeps behaviour must reproduce every case
byte for byte; the fixture is never edited to follow the code."""

import io
import json
from pathlib import Path

import pytest

from singulact.cli import run

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


def test_corpus_size():
    assert len(CASES) >= 40


def _case_id(i, case):
    words = [a for a in case["argv"][:2] if not a.startswith("-")]
    return f"{i:02d}-" + "-".join(words)


@pytest.mark.parametrize(
    "case", CASES, ids=[_case_id(i, c) for i, c in enumerate(CASES)]
)
def test_golden(case):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(case["argv"]), out=out, err=err)
    assert (code, out.getvalue()) == (case["exit"], case["stdout"])
    if "stderr" in case:
        assert err.getvalue() == case["stderr"]
