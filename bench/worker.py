"""One workload process: start, import singulact, answer requests.

Started by run.py.  The process imports the program from the checkout's
`src`, answers one untimed warm-up request, prints `ready` and waits for a
line on stdin: `go` starts the closed loop (one request in flight), anything
else ends the process, which is how set-up time is sampled.  Each answered
request is written at once as one JSON line `[exit code, stdout, seconds,
stderr]`, so the outputs never pile up in this process's memory; the
closing line is a JSON object with the loop's wall time and peak RSS.

With --trace the loop first runs untraced for half the time, then installs
the tracer and replays exactly the same requests, so that the difference
between the two is the tracing overhead.
"""

from __future__ import annotations

import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def answer(run, argv):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        code = run(argv, out, err)
    except Exception as exc:  # a traceback is a failed request, not a crash of the bench
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return code, out.getvalue(), seconds, err.getvalue() if code not in (0, 3) else ""


def loop(run, rounds, emit, seconds=None, count=None, tracer=None):
    """Answer whole rounds until `seconds` have passed or `count` requests
    are done; returns (requests, wall seconds)."""
    done = 0
    start = perf_counter()
    for batch in rounds:
        for req in batch:
            emit(answer(run, req.argv))
            done += 1
            if tracer is not None:
                tracer.request += 1
        if count is not None and done >= count:
            break
        if count is None and perf_counter() - start >= seconds:
            break
    return done, perf_counter() - start


def peak_rss_kb():
    """VmHWM of this process.  On Linux ru_maxrss also counts the process
    that spawned this one: the high-water mark is carried across exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    workload, seed, seconds, trace, warmup = argv
    seed, seconds, trace, warmup = int(seed), float(seconds), trace == "1", json.loads(warmup)
    sys.path.insert(0, str(ROOT / "src"))
    import singulact
    from singulact import cli

    if Path(singulact.__file__).resolve().parent != ROOT / "src" / "singulact":
        raise SystemExit(f"singulact imported from {singulact.__file__}, not from src/")
    cli.run(warmup, io.StringIO(), io.StringIO())
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    def emit(record):
        sys.stdout.write(json.dumps(record) + "\n")

    summary = {}
    if trace:
        from tracer import Tracer

        n, wall = loop(cli.run, workloads.rounds(workload, seed), emit, seconds=seconds / 2)
        tracer = Tracer()
        tracer.install()
        n_traced, traced_wall = loop(
            cli.run, workloads.rounds(workload, seed), emit, count=n, tracer=tracer)
        per_layer, layers = tracer.metrics(n_traced)
        summary.update(
            traced_requests=n_traced, traced_wall=traced_wall, per_layer=per_layer,
            layers=layers, spans=tracer.spans)
    else:
        n, wall = loop(cli.run, workloads.rounds(workload, seed), emit, seconds=seconds)
    summary.update(requests=n, wall=wall, peak_rss_kb=peak_rss_kb())
    emit(summary)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
