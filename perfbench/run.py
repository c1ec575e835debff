"""Benchmark of rclab: cold exact builds, numeric checks and exact checks.

    python3 perfbench/run.py --workload build-cold|check-numeric|check-exact \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run sets the workload up in separate
processes (median of several set-ups where they are cheap), then runs whole
rounds of the workload's rclab commands, each round in a fresh worker
process, until the next round would end after ``--seconds``; there is always
at least one round.  Every output is checked against computations made apart
from rclab (checks.py), every check is shown to fail on a mutated copy of
the outputs, and the SHA-256 digest of every report is compared with the
digests earlier runs of the same source tree recorded.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from the span tracer with ``--trace 1``.
Progress and details go to standard error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import (  # noqa: E402
    ALGEBRAS, SETUP_REPEATS, WORKLOADS, round_commands, setup_commands,
)
from tracing import BUILDS, COUNTED, MODULES, SUITES, TIMED  # noqa: E402

WORK = os.path.join("perfbench", ".work")
DEADLINE_S = 170.0
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "PYTHONHASHSEED": "0"}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Runner:
    """Starts the workers of one run and holds its work directory."""

    def __init__(self, workload):
        self.workload = workload
        self.start = time.monotonic()
        self.dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
        self.env = dict(os.environ, **THREAD_CAPS)

    def worker(self, name, commands, trace_path=None):
        """Run ``commands`` in a fresh worker; returns (result dict, wall seconds)."""
        spec = os.path.join(self.dir, f"{name}.spec.json")
        result = os.path.join(self.dir, f"{name}.result.json")
        with open(spec, "w") as fh:
            json.dump({"commands": commands, "trace": trace_path}, fh)
        left = DEADLINE_S - (time.monotonic() - self.start)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec, result],
                                env=self.env)
        # a timer kills a worker past the deadline; wait() itself blocks
        # without polling, so the measured wall time is not quantized
        timer = threading.Timer(max(left, 1.0), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"worker {name} exited with {code}")
        return checks.load_json(result), wall

    def setup(self):
        """Set up SETUP_REPEATS times; returns (scaled seconds each, cache, outputs).

        The set-up runs in its own process, timed from here including the
        interpreter's start, and scaled by the probes of the worker's life.
        """
        times = []
        for i in range(SETUP_REPEATS):
            cache = os.path.join(self.dir, f"setup{i}", "cache")
            out = os.path.join(self.dir, f"setup{i}", "out")
            os.makedirs(cache)
            os.makedirs(out)
            result, wall = self.worker(f"setup{i}", setup_commands(self.workload, cache, out))
            if any(result["codes"]):
                raise RuntimeError(f"set-up command failed: codes {result['codes']}")
            times.append(wall * result["life_scale"])
        return times, cache, out


# ---------------------------------------------------------------------------
# Checking one round


def load_polys(out_dir):
    """Every `polys --format json` table in ``out_dir``: {alg: {k: terms}}."""
    polys = {}
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("c_") and name.endswith(".json"):
            data = checks.load_json(os.path.join(out_dir, name))
            polys.setdefault(data["algebra"], {})[data["k"]] = checks.parse_bracket(data)
    return polys


def check_round(roles, argvs, codes, setup_out):
    """Errors per command, the outputs to mutate, and report digests.

    Digests cover every output but the rank-1 restricted tables, whose
    weights come from ``--seed``; ``outputs["report_kb"]`` is their size.
    """
    setup_polys = load_polys(setup_out)
    errors, digests, size = [], {}, 0
    outputs = {"polys": [], "payloads": [], "grams": []}
    tables = {}
    for role, argv, code in zip(roles, argvs, codes):
        path = argv[argv.index("--output") + 1]
        errs = [f"exit code {code}"] if code != 0 else []
        if not errs:
            try:
                errs = check_output(role, path, setup_polys, tables, outputs)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errs = [f"unreadable output: {exc!r}"]
        if role[0] != "restricted" and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
            size += len(data)
        errors.append(errs)
    by_alg = {}
    for terms, alg, k in outputs["polys"]:
        by_alg.setdefault(alg, {})[k] = terms
    outputs["polys"] = [(ks[max(ks)], alg, max(ks))
                        for alg, ks in sorted((by_alg or setup_polys).items())]
    outputs["report_kb"] = size / 1024
    return errors, outputs, digests


def check_output(role, path, setup_polys, tables, outputs):
    kind = role[0]
    if kind == "polys":
        _, alg, k, fmt = role
        if fmt == "json":
            terms = checks.parse_bracket(checks.load_json(path))
            tables[(alg, k)] = terms
            outputs["polys"].append((terms, alg, k))
            return checks.check_bracket(terms, alg, k)
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = len(lines) - 1 if fmt == "csv" else sum(1 for ln in lines if ln.startswith("  $"))
        if (alg, k) not in tables or rows != len(tables[(alg, k)]):
            return [f"{fmt} table of {alg} k={k} has {rows} rows"]
        return []
    if kind == "restricted":
        _, _, k, (lam, mu) = role
        return checks.check_restricted(checks.load_json(path), k, lam, mu)
    payload = checks.load_json(path)
    alg = role[1]
    if kind == "gram":
        outputs["grams"].append(payload)
        if payload.get("kind") != "gram-report" or payload.get("algebra") != alg:
            return ["not a gram report for " + alg]
        return checks.check_gram(payload)
    polys = setup_polys.get(alg, {})
    outputs["payloads"].append((payload, alg, polys))
    return checks.check_payload(payload, alg, polys)


def self_test(outputs):
    """Mutate copies of verified outputs; every mutation must be caught."""
    missed = []
    for terms, alg, k in outputs["polys"]:
        n = ALGEBRAS[alg][0]
        mono = next((m for m in sorted(terms) if m[:n] != m[n:]), None)
        if mono is None:
            continue
        bad = copy.deepcopy(terms)
        ij = next(iter(bad[mono]))
        bad[mono][ij] += 1
        if not checks.check_bracket(bad, alg, k):
            missed.append(f"coefficient of {alg} k={k} changed")
    for payload, alg, polys in outputs["payloads"]:
        for rep in payload["reports"]:
            mutations = []
            field = next((f for f in checks.RESIDUAL_FIELDS if f in rep), None)
            if field and "tolerance" in rep:
                mutations += [(field, 10 * rep["tolerance"]), (field, float("nan"))]
            if rep.get("check") == "chi-covariance":
                mutations.append(("violations", [{"sample": 0}]))
            if rep.get("check") == "determinant-operator-constant":
                mutations.append(("rows", [dict(r, constant="1/7") for r in rep["rows"]]))
            for key, value in mutations:
                if not checks.check_report(dict(rep, **{key: value}), alg, polys):
                    missed.append(f"{rep.get('check')} {alg}: {key} = {value!r}")
    for payload in outputs["grams"]:
        bad = copy.deepcopy(payload)
        m = bad["matrix"]
        m[0][1] = m[1][0] = 1e-6 * (m[0][0] * m[1][1]) ** 0.5
        if not checks.check_gram(bad):
            missed.append(f"gram {payload.get('algebra')}: off-diagonal entry")
    return missed


def compare_digests(workload, digests):
    """Compare with the digests earlier runs of this source tree recorded."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    store = os.path.join(WORK, f"digests-{workload}-{h.hexdigest()[:16]}.json")
    known = checks.load_json(store) if os.path.exists(store) else {}
    differ = sorted(k for k in digests if k in known and known[k] != digests[k])
    known.update({k: v for k, v in digests.items() if k not in known})
    tmp = store + f".{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, store)
    return differ


# ---------------------------------------------------------------------------


def per_layer_names():
    names = {f"{m}.self_s": "s" for m in MODULES}
    names.update({f"{stem}.s": "s" for stem in TIMED})
    names.update({f"{stem}.calls": "count" for stem in COUNTED})
    names.update({f"sympoly.build.{key}.s": "s" for key in BUILDS})
    names.update({f"cli.suite.{s}.s": "s" for s in SUITES})
    names.update({"brackets.compute_c.first.s": "s", "sympoly.peak_terms": "count",
                  "quadrature.integrand_evals": "count", "tube.logdet_tube.points": "count",
                  "brackets.cache_kb": "KB", "cli.report_kb": "KB", "trace.wall_s": "s"})
    return names


def dir_kb(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)) / 1024


def run(args):
    runner = Runner(args.workload)
    try:
        setup_s, cache, setup_out = runner.setup()
        rounds, attempted, failed, differ, missed = [], 0, 0, [], []
        first = time.monotonic()
        while True:
            i = len(rounds)
            out = os.path.join(runner.dir, f"round{i}", "out")
            os.makedirs(out)
            if args.workload == "build-cold":
                cache = os.path.join(runner.dir, f"round{i}", "cache")
                os.makedirs(cache)
            cmds = round_commands(args.workload, cache, out, args.seed)
            roles, argvs = [c[0] for c in cmds], [c[1] for c in cmds]
            trace_path = None
            if args.trace:
                trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
            result, _ = runner.worker(f"round{i}", argvs, trace_path)
            errors, outputs, digests = check_round(roles, argvs, result["codes"], setup_out)
            for role, errs in zip(roles, errors):
                if errs:
                    log(f"FAILED {role}: {'; '.join(errs[:3])}")
            attempted += len(argvs)
            failed += sum(1 for errs in errors if errs)
            missed += self_test(outputs)
            differ += compare_digests(args.workload, digests)
            result["cache_kb"] = dir_kb(cache)
            result["report_kb"] = outputs["report_kb"]
            rounds.append(result)
            shutil.rmtree(os.path.join(runner.dir, f"round{i}"))
            log(f"round {i}: wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s, "
                f"scale {result['scale']:.4f}/{result['cpu_scale']:.4f} ({result['probes']} probes), "
                f"rss {result['peak_rss_mb']:.1f} MB, {len(argvs)} commands")
            elapsed = time.monotonic() - first
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    for m in missed:
        log(f"SELF-TEST: a check did not catch: {m}")
    for d in differ:
        log(f"DIGEST: {d} differs from an earlier run of the same source")

    def median(key):
        return statistics.median(r[key] for r in rounds)

    def scaled(key, factor="scale"):
        return statistics.median(r[key] * r[factor] for r in rounds)

    if args.trace:
        names = per_layer_names()
        # layer times are scaled like wall_s, so that they add up to it
        values = {name: statistics.median(r["layers"].get(name, 0)
                                          * (r["scale"] if unit == "s" else 1) for r in rounds)
                  for name, unit in names.items()}
        values.update({"brackets.cache_kb": median("cache_kb"),
                       "cli.report_kb": median("report_kb"), "trace.wall_s": scaled("wall_s")})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    else:
        values = {"wall_s": scaled("wall_s"), "cpu_s": scaled("cpu_s", "cpu_scale"),
                  "setup_s": statistics.median(setup_s), "peak_rss_mb": median("peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    log(f"setup {['%.3f' % s for s in setup_s]} s, {len(rounds)} round(s), "
        f"{failed}/{attempted} failed")
    return {"correct": not missed and not differ, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rclab", "cli.py")):
        log("error: run from the root of an rclab checkout (src/rclab/cli.py not found)")
        return 2
    os.makedirs(WORK, exist_ok=True)
    # on SIGTERM, unwind: Runner.worker kills the worker, finally cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
