"""Same bytes out for every family: `build TAG ... --verify` stdout at every
point of each tag's grid in ``families.FAMILIES`` against the sha256 recorded in
family_digests.json.  The benchmark's digests cover only the families
its workloads build; these cover every tag.

Re-record (only at a commit whose outputs are known good):

    PYTHONPATH=src python tests/test_family_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from antimagic.cli import main
from antimagic.families import FAMILIES

DIGESTS = Path(__file__).with_name("family_digests.json")


def _argv(tag: str, params: dict) -> list[str]:
    return ["build", tag, *(x for p, v in params.items() for x in (f"--{p}", str(v))),
            "--verify"]


def _digests(tag: str) -> dict[str, str]:
    """Point key ("TAG p=v ...") -> sha256 of that point's build stdout."""
    out = {}
    for params in FAMILIES[tag][1]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(_argv(tag, params)) == 0, (tag, params)
        key = " ".join([tag, *(f"{p}={v}" for p, v in params.items())])
        out[key] = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    return out


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_build_stdout_matches_the_recorded_digest(tag):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = {key: d for key, d in recorded.items() if key.split(" ")[0] == tag}
    assert _digests(tag) == expected


if __name__ == "__main__":
    digests = {key: d for tag in FAMILIES for key, d in _digests(tag).items()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS}")
    sys.exit(0)
