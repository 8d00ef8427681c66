"""The zwords benchmark.

    python3 zwbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it measures the zwords package under
`src/`.  The load is a closed loop with one client: each pass runs the
workload's seeded, fixed schedule once, in a fresh worker process (cold
program caches, hash seed fixed), one worker at a time.  The seed fixes
the schedule; `--seconds` fixes the number of passes (one per
PASS_NOMINAL_S, at least three) before anything runs, so no clock decides
which operations run.

Every timing is normalized for machine speed (see refloop.py) and so
reads as seconds on a machine at its nominal speed; raw seconds and the
reference-loop samples go to the run's detail file under zwbench/out/.

With `--trace 0` the last line reports the end-to-end metrics:
  setup_s          median over passes of the time to import zwords and
                   build the program-side inputs
  ops_per_s        schedule length / total time of the median pass
  op_ms_p50        median over operations of each operation's median
                   latency over passes
  op_ms_tail       the highest whole percentile with at least ten
                   operations beyond it, on the same basis
  completed_share  operations whose output matched the oracle and was
                   identical in every pass / operations attempted
  peak_rss_mb      median over passes of the worker's peak RSS
With `--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see tracing.py).

Outputs are checked against independent oracles (oracles.py).  A wrong
output makes `correct` false and the exit code 1.  Two known CLI crashes
are probed on every run and reported, outside the schedule.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import refloop
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PASS_NOMINAL_S = 2.0
MIN_PASSES = 3
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10

KNOWN_CRASHES = {
    "search hj --n 0": ["search", "hj", "--r", "2", "--seed", "1", "--bounds", "2",
                        "--n", "0", "--window", "3"],
    "search xi --l 0": ["search", "xi", "--r", "2", "--seed", "1", "--xi", "2",
                        "--l", "0", "--n0", "2", "--window", "3"],
}

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "completed_share": "share", "peak_rss_mb": "MB"}
SPECIFIC_UNITS = {
    "search.candidates": "count", "search.nodes_expanded": "count",
    "search.node_yield": "ratio", "search.instances_colored": "count",
    "words.rel_r1_calls": "count", "words.extracted_words": "count",
    "families.derivative_steps": "count", "families.members_visited": "count",
    "families.hereditary_check_s": "s", "rationals.encode_s": "s",
    "rationals.decode_s": "s", "rationals.digits": "count", "cli.parser_s": "s",
    "trace.overhead_ratio": "ratio",
}
LAYER_UNITS = {"%s.%s" % (layer, kind): unit for layer in tracing.LAYERS
               for kind, unit in (("calls", "count"), ("self_s", "s"), ("share", "share"))}
LAYER_UNITS.update(SPECIFIC_UNITS)


def run_worker(workload: str, seed: int, *flags: str) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    # Set iteration over words depends on string hashing; compiled bytecode
    # is kept, as it is for an installed package.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker failed (%d): %s" % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout) if proc.stdout else None


def normalize(res: dict) -> dict:
    """Per-op and set-up times in nominal seconds."""
    factors = refloop.local_factors(res["refs"])
    ops = [t * f for t, f in zip(res["op_raw_s"], factors)]
    setup = res["setup_raw_s"] * refloop.REF_NOMINAL_S / median(res["setup_refs"])
    return {"ops": ops, "total": sum(ops), "setup": setup,
            "factor": refloop.REF_NOMINAL_S / median(res["refs"])}


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    above it (50 when n is too small for any higher one)."""
    return max([p for p in range(50, 100) if n * (100 - p) / 100 >= TAIL_BEYOND], default=50)


def nearest_rank(sorted_values: list[float], p: int) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def check_outputs(wl, spec, ops, passes: list[list[str]]) -> list[bool]:
    """An op completes when every pass rendered the same output and it
    equals the oracle's."""
    ok = []
    for i, op in enumerate(ops):
        outs = {p[i] for p in passes}
        ok.append(len(outs) == 1 and passes[0][i] == wl.expected(spec, op))
    return ok


def probe_known_crashes() -> dict:
    """Each command must exit 1 with a one-line `error:`."""
    from zwords import cli

    report = {}
    for name, argv in KNOWN_CRASHES.items():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            observed = "exit %d: %s" % (code, err.getvalue().strip().splitlines()[:1])
            passed = code == 1 and err.getvalue().startswith("error:")
        except Exception as exc:  # the defect being probed
            observed, passed = "uncaught %s: %s" % (type(exc).__name__, exc), False
        report[name] = {"passed": passed, "observed": observed}
    return report


def end_to_end(norm: list[dict], raw: list[dict], ok: list[bool]) -> tuple[dict, dict]:
    n = len(ok)
    latency = sorted(median(p["ops"][i] for p in norm) for i in range(n))
    pct = tail_percentile(n)
    metrics = {
        "setup_s": median(p["setup"] for p in norm),
        "ops_per_s": n / median(p["total"] for p in norm),
        "op_ms_p50": median(latency) * 1000.0,
        "op_ms_tail": nearest_rank(latency, pct) * 1000.0,
        "completed_share": sum(ok) / n,
        "peak_rss_mb": median(r["peak_rss_kb"] for r in raw) / 1024.0,
    }
    return metrics, {"tail_percentile": pct, "tail_samples": n}


def per_layer(traced: dict, norm_traced: dict, norm_plain: dict) -> dict:
    summary = traced["trace"]
    factor = norm_traced["factor"]
    op_s = summary["op_s"] * factor
    counters, times = summary["counters"], summary["times"]
    metrics = {}
    for layer, entry in summary["layers"].items():
        metrics[layer + ".calls"] = entry["calls"]
        metrics[layer + ".self_s"] = entry["self_s"] * factor
        metrics[layer + ".share"] = entry["self_s"] * factor / op_s
    for name, unit in SPECIFIC_UNITS.items():
        if unit == "s":
            metrics[name] = times.get(name, 0.0) * factor
        elif unit == "count":
            metrics[name] = counters.get(name, 0)
    candidates = counters.get("search.candidates", 0)
    metrics["search.node_yield"] = (counters.get("search.nodes_expanded", 0) / candidates
                                    if candidates else 0.0)
    metrics["trace.overhead_ratio"] = norm_traced["total"] / norm_plain["total"]
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zwords" / "__init__.py").is_file():
        print("error: no zwords package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = workloads.WORKLOADS[args.workload]
    spec, ops = wl.generate(args.seed)
    schedule_sha = hashlib.sha256(json.dumps([spec, ops], sort_keys=True).encode()).hexdigest()
    run_worker(args.workload, args.seed, "--warm")
    if args.trace:
        raw = [run_worker(args.workload, args.seed),
               run_worker(args.workload, args.seed, "--trace")]
    else:
        n_passes = max(MIN_PASSES, round(args.seconds / PASS_NOMINAL_S))
        raw = [run_worker(args.workload, args.seed) for _ in range(n_passes)]
    norm = [normalize(r) for r in raw]

    ok = check_outputs(wl, spec, ops, [r["outputs"] for r in raw])
    failed = len(ok) - sum(ok)
    outputs_sha = hashlib.sha256("\0".join(raw[0]["outputs"]).encode()).hexdigest()
    probes = probe_known_crashes()

    if args.trace:
        values = per_layer(raw[1], norm[1], norm[0])
        metric_units, extra = LAYER_UNITS, {}
    else:
        values, extra = end_to_end(norm, raw, ok)
        metric_units = E2E_UNITS

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "schedule_sha256": schedule_sha, "outputs_sha256": outputs_sha,
        "attempted": len(ok), "failed_ops": [i for i, good in enumerate(ok) if not good],
        "known_crash_probes": probes, "metrics": values, **extra,
        "ref_nominal_s": refloop.REF_NOMINAL_S,
        "passes": [{k: r[k] for k in ("setup_raw_s", "setup_refs", "op_raw_s", "refs",
                                      "peak_rss_kb")} for r in raw],
    }
    if args.trace:
        detail["trace"] = {k: raw[1]["trace"][k] for k in ("counters", "times", "layers")}
        with gzip.open(OUT / (stem + "-spans.json.gz"), "wt") as fh:
            json.dump({"names": raw[1]["trace"]["names"], "spans": raw[1]["spans"]}, fh)
    (OUT / (stem + ".json")).write_text(json.dumps(detail, indent=1))

    print("workload %s seed %d: %d operations, %d failed, %d pass(es)"
          % (args.workload, args.seed, len(ok), failed, len(raw)))
    print("schedule sha256 %s" % schedule_sha)
    print("outputs  sha256 %s" % outputs_sha)
    for name, probe in probes.items():
        print("known crash probe %r: %s (%s)"
              % (name, "pass" if probe["passed"] else "FAIL", probe["observed"]))
    if "tail_percentile" in extra:
        print("op_ms_tail is p%d of %d operations" % (extra["tail_percentile"], len(ok)))
    for name, value in values.items():
        print("%-32s %14.6g %s" % (name, value, metric_units[name]))
    print("detail %s" % (OUT / (stem + ".json")).relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": len(ok), "failed": failed,
              "metrics": {name: {"value": value, "unit": metric_units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
