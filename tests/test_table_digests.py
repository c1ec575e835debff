"""Every `polys` table up to the caps, pinned by its SHA-256.

The fixture holds one digest per table, for all ten algebras and every k up
to ``K_CAPS``: the two-slot tables `rclab polys --format json|csv|latex`,
and the restricted tables `rclab polys --kind restricted --format json|csv`
over Q[s,t] and at (lambda, mu) = ``RESTRICTED_WEIGHTS``.  The test rebuilds
them all from an empty cache, so any change to the engine that moves a
single byte of a table fails here.  Run this file as a script to rewrite the
fixture.
"""

import hashlib
import json
import os
import sys

from rclab.algebra import ALGEBRA_NAMES
from rclab.cli import K_CAPS, main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "table_digests.json")
FORMATS = ("json", "csv", "latex")
RESTRICTED_FORMATS = ("json", "csv")
RESTRICTED_WEIGHTS = ("7/2", "2")


def table_digests(workdir):
    """{name: sha256 hex} of every table, built in ``workdir``: the name is
    "<algebra>-k<k>.<format>" for a two-slot table, and
    "<algebra>-k<k>.restricted[-<lambda>,<mu>].<format>" for a restricted one."""
    cache = os.path.join(workdir, "cache")
    out = os.path.join(workdir, "table")
    digests = {}

    def digest(key, argv):
        code = main(argv + ["--cache-dir", cache, "--output", out])
        assert code == 0, key
        with open(out, "rb") as fh:
            digests[key] = hashlib.sha256(fh.read()).hexdigest()

    lam, mu = RESTRICTED_WEIGHTS
    for name in ALGEBRA_NAMES:
        for k in range(K_CAPS[name] + 1):
            polys = ["polys", "--algebra", name, "--k", str(k)]
            for fmt in FORMATS:
                digest(f"{name}-k{k}.{fmt}", polys + ["--format", fmt])
            for fmt in RESTRICTED_FORMATS:
                restricted = polys + ["--kind", "restricted", "--format", fmt]
                digest(f"{name}-k{k}.restricted.{fmt}", restricted)
                digest(f"{name}-k{k}.restricted-{lam},{mu}.{fmt}",
                       restricted + ["--lambda", lam, "--mu", mu])
    return digests


def test_every_table_matches_its_digest(tmp_path, monkeypatch):
    import rclab.brackets as B

    monkeypatch.setattr(B, "_memory_cache", {})
    with open(FIXTURE) as fh:
        want = json.load(fh)
    tables = sum(K_CAPS[name] + 1 for name in ALGEBRA_NAMES)
    assert len(want) == (len(FORMATS) + 2 * len(RESTRICTED_FORMATS)) * tables
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
