"""Runs `toplag analyze` calls, each in a fresh process forked after import.

Usage: python3 worker.py

The worker imports numpy and toplag once, prints "ready", then reads one
JSON spec per stdin line and answers each with one JSON line on stdout. A
spec holds "cwd" (the call's input directory), "argv" (the analyze
arguments), "trace" (0 or 1), "timeout" (seconds) and, for a traced call,
"n" and "live_pair_layers".

Every call runs in a child forked from the worker, so it starts from the
state a fresh interpreter reaches after importing toplag, without paying
that import again, and its ru_maxrss is this call's peak alone. The child
times cli.main, writes its report down a pipe and exits. The worker times
the reference kernel (perfbench/reference.py) right before the fork and
right after the child ends. The answer holds the analyze exit code,
analyze_s, peak_rss_mb, ref_s (the mean of the two kernel times) and, when
traced, the per-layer metrics and the step-width profile. A child still running after
"timeout" seconds is killed by SIGALRM and reported with exit "timeout".
The worker exits when stdin closes. It runs one thread (run.py sets every
BLAS and toplag thread count to 1 before numpy loads), so forking it is
safe.
"""

import json
import math
import os
import resource
import signal
import sys
import time

import numpy  # noqa: F401  (imported before forking, as toplag does)
import reference
from toplag import cli


def _output_bytes(out_dir):
    return sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir)
        if os.path.isfile(os.path.join(out_dir, f))
    )


def analyze(spec):
    """One analyze call in the current (child) process; returns its report."""
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    code = 0
    t0 = time.perf_counter()
    try:
        cli.main(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    analyze_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"exit": code, "analyze_s": analyze_s, "peak_rss_mb": peak_kib / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        out_dir = spec["argv"][spec["argv"].index("--out") + 1]
        metrics = spans.per_layer_metrics(
            tracer,
            spec["live_pair_layers"],
            _output_bytes(out_dir) if os.path.isdir(out_dir) else 0,
            spec["n"],
        )
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        report["units"] = {k: u for k, (_, u) in metrics.items()}
        report["width_profile"] = spans.width_profile(tracer.steps, spec["n"], 8)
        report["table_node_fields"] = sum(
            s[0] * s[1] for s in tracer.steps if s[4] == "boundary.table"
        )
        report["spans"] = sorted(
            (name, tracer.calls[name], tracer.total_s[name], tracer.self_s[name])
            for name in tracer.calls
            if tracer.calls[name]
        )
        report["timeline"] = [
            (name, parent, start - t0, end - t0)
            for name, parent, start, end in sorted(tracer.kept, key=lambda k: k[2])
        ]
    return report


def _child(spec, wfd):
    """Body of the forked child; never returns."""
    status = 1
    try:
        os.chdir(spec["cwd"])
        signal.alarm(max(1, math.ceil(spec["timeout"])))
        devnull = os.open(os.devnull, os.O_RDWR)
        err = os.open("stderr.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(devnull, 0)
        os.dup2(devnull, 1)
        os.dup2(err, 2)
        report = analyze(spec)
        with os.fdopen(wfd, "w") as fh:
            json.dump(report, fh)
        status = 0
    finally:
        os._exit(status)


def call(spec):
    """Fork one child for spec, wait for it and return its report, with the
    reference kernel timed in this process right before and after."""
    ref_before = reference.timed()
    report = _forked(spec)
    report["ref_s"] = 0.5 * (ref_before + reference.timed())
    return report


def _forked(spec):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(spec, wfd)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        return {"exit": "timeout" if sig == signal.SIGALRM else f"signal {sig}"}
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return {"exit": f"child exit {os.WEXITSTATUS(status)} without a report"}


def main():
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(call(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
