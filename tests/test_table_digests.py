"""Every `polys` table up to the caps, pinned by its SHA-256.

The fixture holds one digest per (algebra, k, format) for the two-slot
tables `rclab polys --format json|csv|latex`, for all ten algebras and every
k up to ``K_CAPS``.  The test rebuilds them all from an empty cache, so any
change to the engine that moves a single byte of a table fails here.
Run this file as a script to rewrite the fixture.
"""

import hashlib
import json
import os
import sys

from rclab.algebra import ALGEBRA_NAMES
from rclab.cli import K_CAPS, main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "table_digests.json")
FORMATS = ("json", "csv", "latex")


def table_digests(workdir):
    """{"<algebra>-k<k>.<format>": sha256 hex} of every table, built in ``workdir``."""
    cache = os.path.join(workdir, "cache")
    out = os.path.join(workdir, "table")
    digests = {}
    for name in ALGEBRA_NAMES:
        for k in range(K_CAPS[name] + 1):
            for fmt in FORMATS:
                code = main(["polys", "--algebra", name, "--k", str(k), "--format", fmt,
                             "--cache-dir", cache, "--output", out])
                assert code == 0, (name, k, fmt)
                with open(out, "rb") as fh:
                    digests[f"{name}-k{k}.{fmt}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_every_table_matches_its_digest(tmp_path, monkeypatch):
    import rclab.brackets as B

    monkeypatch.setattr(B, "_memory_cache", {})
    with open(FIXTURE) as fh:
        want = json.load(fh)
    assert len(want) == 3 * sum(K_CAPS[name] + 1 for name in ALGEBRA_NAMES)
    got = table_digests(str(tmp_path))
    assert sorted(k for k in got if got[k] != want.get(k)) == []
    assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = table_digests(tmp)
    with open(FIXTURE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {FIXTURE}", file=sys.stderr)
