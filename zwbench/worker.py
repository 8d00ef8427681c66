"""One measured pass of a workload, in a fresh interpreter.

    python3 zwbench/worker.py --workload NAME --seed N [--trace] [--warm]

Generates the seeded schedule, times the set-up (import zwords and build
the program-side inputs), then runs every operation once with a reference
loop before, between and after them.  Prints one JSON object with the raw
timings, the rendered outputs and the peak RSS on stdout.  `--trace` adds
per-layer spans and counters; `--warm` stops after the set-up, so later
passes find compiled bytecode.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import refloop
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REFS = 3


def _import_zwords():
    sys.path.insert(0, str(ROOT / "src"))
    import zwords

    if not Path(zwords.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("zwords imported from %s, not from this checkout" % zwords.__file__)
    return zwords


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warm", action="store_true")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    spec, ops = wl.generate(args.seed)

    refs_setup = [refloop.timed_ref() for _ in range(SETUP_REFS)]
    t0 = perf_counter()
    zwords = _import_zwords()
    ctx = wl.build(spec)
    setup_raw = perf_counter() - t0
    if args.warm:
        return 0
    refs_setup += [refloop.timed_ref() for _ in range(SETUP_REFS)]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(zwords)
    refs = [refloop.timed_ref()]
    times, outputs = [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        t = perf_counter()
        try:
            out = wl.run(op, ctx)
        except Exception as exc:  # a crash is recorded as this op's output
            out = "EXC %s: %s" % (type(exc).__name__, exc)
        times.append(perf_counter() - t)
        if tracer:
            tracer.end_op()
        outputs.append(out)
        refs.append(refloop.timed_ref())
    result = {
        "setup_raw_s": setup_raw,
        "setup_refs": refs_setup,
        "op_raw_s": times,
        "refs": refs,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
