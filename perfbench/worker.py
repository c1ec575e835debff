"""One timed round in a fresh interpreter: ``python3 perfbench/worker.py SPEC RESULT``.

SPEC is a JSON file ``{"commands": [argv, ...], "trace": path or null}``.
The worker imports rclab from ``src/``, optionally installs the span
tracer, then runs every command in-process through ``rclab.cli.main`` and
times that phase only, so interpreter start-up and imports are not timed.
The speed probe (probe.py) samples the machine's speed from the worker's
start to its end.  RESULT receives the wall and CPU time of the phase, the
probe's scale factors over the phase and over the worker's life, the
worker's peak resident memory, the exit code of each command and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from probe import PeriodicProbe, scale  # noqa: E402


def main(spec_path: str, result_path: str) -> int:
    # probe from the start, so the samples also cover the imports a set-up pays
    probe = PeriodicProbe()
    probe.start()
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    import rclab
    import rclab.cli

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(rclab)

    codes = []
    first = probe.mark()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in spec["commands"]:
        try:
            code = rclab.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a crashed round
            traceback.print_exc()
            code = -1
        codes.append(code)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    last = probe.mark()

    phase = probe.samples[first:last + 1]
    result = {"wall_s": wall, "cpu_s": cpu, "scale": scale(phase),
              "cpu_scale": scale(phase, clock=1), "probes": len(phase),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "codes": codes}
    if tracer is not None:
        tracer.write_jsonl(spec["trace"])
        result["layers"] = tracer.layer_metrics()
    probe.stop()
    result["life_scale"] = scale(probe.samples)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
