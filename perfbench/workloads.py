"""The three workloads: which rclab commands set each one up and which it times.

Every command is an argv list for ``rclab`` (``rclab.cli.main``), exactly as
a user would type it.  Paths are relative to the checkout root, which is the
working directory of every process the benchmark starts.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

# (n, r, d) of each algebra: dimension, rank and Peirce multiplicity.  The
# benchmark keeps its own copy so that its checks do not read rclab.
ALGEBRAS = {
    "rank1": (1, 1, 0),
    "sym2": (3, 2, 1), "sym3": (6, 3, 1), "sym4": (10, 4, 1),
    "spin3": (3, 2, 1), "spin4": (4, 2, 2), "spin5": (5, 2, 3),
    "spin6": (6, 2, 4), "spin7": (7, 2, 5), "spin8": (8, 2, 6),
}

# The feasibility caps of the CLI as this benchmark was written.  Keeping a
# copy fixes the work of build-cold even if a later change raises a cap.
K_CAPS = {
    "rank1": 8, "sym2": 4, "sym3": 2, "sym4": 1,
    "spin3": 3, "spin4": 3, "spin5": 2, "spin6": 2, "spin7": 2, "spin8": 2,
}

# `check cayley` for sym4 takes over 70 s (m = 4 alone dominates), which
# does not fit in one run; build-cold leaves it out.
CAYLEY_ALGEBRAS = [a for a in K_CAPS if a != "sym4"]

NUMERIC_ALGEBRAS = ["rank1", "sym2"]
NUMERIC_SETUP_K = {"rank1": 6, "sym2": 3}
# sym3 is left out of check-exact: its set-up would build sym3 k=2 (15 s)
# and its checks take 11 s more, which does not fit the time all runs of
# the benchmark may take together.  build-cold builds sym3 k=2, and the spin
# factors exercise the same exact evaluation paths.
EXACT_ALGEBRAS = ["spin4", "spin6", "spin8"]
EXACT_SETUP_K = {"spin4": 2, "spin6": 2, "spin8": 2}
GRAM_ALGEBRAS = ["spin4", "spin6", "spin8"]
GRAM_KMAX = 2
GRAM_WEIGHT = "4"     # above the orthogonality threshold 1 + d - n/2 of each

SETUP_REPEATS = 5     # set-ups per run; the median is reported

WORKLOADS = ("build-cold", "check-numeric", "check-exact")


def restricted_weights(seed: int):
    """(lambda, mu) for the rank-1 restricted family, one pair per k <= 8."""
    rng = random.Random(seed)
    return [(Fraction(rng.randint(1, 12), rng.randint(1, 4)),
             Fraction(rng.randint(1, 12), rng.randint(1, 4)))
            for _ in range(K_CAPS["rank1"] + 1)]


def _polys(alg, k, fmt, cache, out):
    return ["polys", "--algebra", alg, "--k", str(k), "--format", fmt,
            "--cache-dir", cache, "--output", os.path.join(out, f"c_{alg}_k{k}.{fmt}")]


def setup_commands(workload: str, cache: str, out: str):
    """Commands that prepare the cache a timed round reads."""
    if workload == "build-cold":
        # the cache must start empty; `cache clear` is how a user ensures it
        return [["cache", "clear", "--cache-dir", cache,
                 "--output", os.path.join(out, "cache-clear.json")]]
    ks = NUMERIC_SETUP_K if workload == "check-numeric" else EXACT_SETUP_K
    return [_polys(alg, k, "json", cache, out)
            for alg, kmax in ks.items() for k in range(kmax + 1)]


def round_commands(workload: str, cache: str, out: str, seed: int):
    """The timed commands of one round, and the role of each for the checks."""
    cmds = []
    if workload == "build-cold":
        for alg, cap in K_CAPS.items():
            for k in range(cap + 1):
                for fmt in ("json", "csv", "latex"):
                    cmds.append((("polys", alg, k, fmt), _polys(alg, k, fmt, cache, out)))
        for k, (lam, mu) in enumerate(restricted_weights(seed)):
            cmds.append((("restricted", "rank1", k, (lam, mu)),
                         ["polys", "--algebra", "rank1", "--k", str(k),
                          "--kind", "restricted", "--lambda", str(lam), "--mu", str(mu),
                          "--format", "json", "--cache-dir", cache,
                          "--output", os.path.join(out, f"C_rank1_k{k}.json")]))
        for alg in CAYLEY_ALGEBRAS:
            cmds.append((("cayley", alg), _check(alg, "cayley", cache, out)))
    elif workload == "check-numeric":
        for alg in NUMERIC_ALGEBRAS:
            cmds.append((("check", alg), _check(alg, "all", cache, out)))
    elif workload == "check-exact":
        for alg in EXACT_ALGEBRAS:
            cmds.append((("check", alg), _check(alg, "all", cache, out)))
        for alg in GRAM_ALGEBRAS:
            cmds.append((("gram", alg),
                         ["gram", "--algebra", alg, "--kmax", str(GRAM_KMAX),
                          "--lambda", GRAM_WEIGHT, "--mu", GRAM_WEIGHT,
                          "--cache-dir", cache,
                          "--output", os.path.join(out, f"gram_{alg}.json")]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cmds


def _check(alg, suite, cache, out):
    return ["check", suite, "--algebra", alg, "--cache-dir", cache,
            "--output", os.path.join(out, f"{suite}_{alg}.json")]
