"""Benchmark for singulact: in-process request workloads, checked answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness RUNS [--workload NAME ...] [--seconds S]

Each run starts a fresh workload process (bench/worker.py) that imports the
program from `src` and sends text requests through `singulact.cli.run(argv,
out, err)` in a closed loop: one client, one thread, one request in flight.
Requests come from the seeded generators in bench/workloads.py; after the
process ends, every answer is compared with bench/reference.py, which does
not import the program.

--trace 0 prints the end-to-end metrics.  Set-up time is sampled in the
workload process and in ten more that start, import, answer the warm-up
request and quit, five before the timed loop and five after it; the median
of the eleven samples is reported.  --trace 1 prints the per-layer
metrics of a traced replay (bench/tracer.py) and, on the line before,
the tracing overhead and each layer's self time.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A request fails when the program refuses it or
raises; `correct` is false when an answered request disagrees with the
reference, and then the exit code is 1.  Raw outputs and traces go to
bench/out/.

--steadiness repeats the full run with seeds 1..RUNS and prints, for each
metric and workload, the median and quartiles across runs and the spread
(Q3 - Q1) / median; these set the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import METRICS as PER_LAYER
from workloads import Mismatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(Exception):
    pass


def spawn(workload, seed, seconds, trace):
    """Start a workload process and wait for `ready`; returns (process,
    seconds from spawn to the warm-up request answered)."""
    warmup = json.dumps(workloads.WARMUP[workload])
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds),
         "1" if trace else "0", warmup],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise WorkerError(f"workload process did not start (exit {proc.returncode})")
    return proc, setup


def sample_setup(workload):
    proc, setup = spawn(workload, 0, 0, False)
    proc.communicate("quit\n", timeout=60)
    return setup


def measure(workload, seed, seconds, trace):
    """Run the workload process; returns (records, summary, set-up samples)."""
    probes = 0 if trace else (SETUP_SAMPLES - 1) // 2
    setups = [sample_setup(workload) for _ in range(probes)]
    proc, setup = spawn(workload, seed, seconds, trace)
    setups.append(setup)
    try:
        proc.stdin.write("go\n")
        proc.stdin.close()
        lines = proc.stdout.read().splitlines()
    finally:
        proc.wait(timeout=60)
    setups += [sample_setup(workload) for _ in range(probes)]
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"workload process failed (exit {proc.returncode})")
    records = [json.loads(line) for line in lines[:-1]]
    return records, json.loads(lines[-1]), setups


def verify(workload, seed, records):
    """Check every record against the request regenerated from the seed.
    Returns (failures, mismatches, request kinds)."""
    failures, mismatches, kinds = [], [], []
    rounds = workloads.rounds(workload, seed)
    batch = []
    for code, out, _, err in records:
        if not batch:
            batch = list(next(rounds))
        req = batch.pop(0)
        kinds.append(req.kind)
        if code not in (0, 3):
            failures.append(f"{req.kind} {req.argv}: exit {code}: {err.strip()[:300]}")
            continue
        try:
            req.check(code, out)
        except (Mismatch, KeyError, TypeError, ValueError) as exc:
            mismatches.append(f"{req.kind} {req.argv}: {exc!r}")
    return failures, mismatches, kinds


def run_once(workload, seed, seconds, trace):
    """One full run; returns (result object, summary lines)."""
    records, summary, setups = measure(workload, seed, seconds, trace)
    n = summary["requests"]
    untraced = records[:n]
    failures, mismatches, kinds = verify(workload, seed, untraced)
    lines = []
    if trace:
        traced = records[n:]
        for (code, out, _, _), (code2, out2, _, _), kind in zip(untraced, traced, kinds):
            if (code, out) != (code2, out2):
                mismatches.append(f"{kind}: traced answer differs from untraced answer")
        per_request = sum(r[2] for r in untraced) / n * 1000
        traced_request = sum(r[2] for r in traced) / len(traced) * 1000
        layer_sum = sum(summary["layers"].values())
        lines.append(
            "trace: %d requests, untraced %.3f ms/request, traced %.3f ms/request, "
            "overhead %.3f ms/request (%.1f%%), layer self times sum to %.3f ms/request"
            % (n, per_request, traced_request, traced_request - per_request,
               100 * (traced_request / per_request - 1), layer_sum))
        lines.append("layer self ms/request: " + ", ".join(
            f"{k} {v:.3f}" for k, v in summary["layers"].items()))
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        write_trace(workload, seed, summary["spans"])
    else:
        times = [r[2] * 1000 for r in untraced]
        metrics = {
            "setup_s": statistics.median(setups),
            "requests_per_s": n / summary["wall"],
            "request_p50_ms": statistics.median(times),
            "request_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8],
            "peak_rss_mb": summary["peak_rss_kb"] / 1024,
        }
        above = sum(t > metrics["request_p90_ms"] for t in times)
        lines.append("run: %d requests in %.2f s, %d above p90, set-up samples %s s"
                     % (n, summary["wall"], above,
                        " ".join(f"{s:.4f}" for s in sorted(setups))))
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    write_raw(workload, seed, trace, kinds, records, summary)
    for m in failures[:10]:
        print("FAILED " + m, file=sys.stderr)
    for m in mismatches[:10]:
        print("MISMATCH " + m, file=sys.stderr)
    result = {"correct": not mismatches, "attempted": n, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def write_raw(workload, seed, trace, kinds, records, summary):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    raw = {k: v for k, v in summary.items() if k != "spans"}
    raw["requests"] = [  # a traced run replays the same kinds after the untraced ones
        {"kind": kind, "exit": code, "ms": seconds * 1000}
        for kind, (code, _, seconds, _) in zip(kinds * 2, records)
    ]
    path.write_text(json.dumps(raw))


def write_trace(workload, seed, spans):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.jsonl", "w") as f:
        for request, span, parent, name, start, end in spans:
            f.write(json.dumps({"request": request, "span": span, "parent": parent,
                                "name": name, "start": start, "end": end}) + "\n")


def steadiness(names, runs, seconds, trace):
    """Repeat full runs with seeds 1..runs; print median and quartiles."""
    for workload in names:
        values = {}
        for seed in range(1, runs + 1):
            result, _ = run_once(workload, seed, seconds, trace)
            print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        OUT.mkdir(exist_ok=True)
        (OUT / f"steadiness-{workload}-trace{int(trace)}.json").write_text(json.dumps(values))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:15s} {name:26s} median {med:12.4f}  Q1 {q1:12.4f}  "
                  f"Q3 {q3:12.4f}  spread {spread:7.2%}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description="singulact benchmark")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "singulact" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'singulact'} is missing", file=sys.stderr)
        return 2
    try:
        if args.steadiness:
            steadiness(args.workload or sorted(workloads.WORKLOADS), args.steadiness,
                       args.seconds, args.trace)
            return 0
        if not args.workload or len(args.workload) != 1:
            ap.error("give exactly one --workload")
        result, lines = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
