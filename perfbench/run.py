"""toplag benchmark: `toplag analyze` end to end on generated workloads.

Usage (from the repository root):

  python3 perfbench/run.py --workload scan_warm --seed 1 --seconds 45 --trace 0

Workloads (perfbench/workloads.py):
  scan_warm  T = 2 boundary scan, checkpoint/replay of the backward sweep
  dp_long    T = 0 minimal path on a long series, no thermal scan at all
  scan_cold  T = 0.004 boundary scan, carried by the per-pair log-space
             fallback; run by hand only, not listed in BENCHMARK.json
             (workloads.py says why)

One run is one closed-loop caller: analyze calls run one after another, on
CSV inputs written from --seed before timing starts, until --seconds is used
(at least MIN_CALLS calls and one call per input). Each call runs in its own
single-threaded process (TOPLAG_THREADS=1), forked from a worker that has
imported toplag (perfbench/worker.py). Every call's files are checked
(perfbench/check.py) after the timing loop.

--trace 0 prints the end-to-end metrics:
  analyze_s            wall time of one analyze call after import, scaled to
                       a nominal machine speed (below): the median over an
                       input's calls, averaged over the run's inputs
  setup_s              wall time of a fresh interpreter importing numpy and
                       toplag, scaled the same way: the median of
                       SETUP_REPEATS imports taken evenly over the run
  peak_rss_mb          median peak resident memory of the analyze process
and, as readable lines only, the raw call times (median, quartiles, 90th
percentile), lattice_nodes_per_s (n^2 / analyze_s, the same figure as a
rate), result_err (largest deviation from the reference) and failed_frac
(failed / attempted calls); the last two also feed "correct" and "failed"
in the result.

Scaling: the benchmark shares a few cores of a host with other work, and
the speed it gets drifts by up to 1.6x over tens of seconds, so raw medians
of runs minutes apart differ by 20% and more. Every timed call and import is
bracketed by a fixed reference kernel (perfbench/reference.py), and a time
is reported as its ratio to the kernel's time next to it, times
reference.NOMINAL_S. The ratio is what the program controls; the kernel
stands for the host's speed at that moment.

--trace 1 alternates untraced and traced calls on the run's first input. The
traced call wraps the calls into each toplag module from outside
(perfbench/spans.py) and reports the per-layer metrics (raw medians over
the traced calls), a step-cost-by-layer-width table and the tracing
overhead, the scaled traced minus the scaled untraced analyze_s.

Readable lines go first; the last stdout line is the JSON result. The run
exits non-zero without a result when the toplag sources are missing.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(WORK, "digests.json")

for _var in ("TOPLAG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child

import reference  # noqa: E402  (loads numpy)

MIN_CALLS = 3
SETUP_REPEATS = 12
RUN_LIMIT_S = 170.0  # no call may run past this point of the run

END_TO_END_UNITS = {"analyze_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_hash():
    """Identity of the program under test: its sources, byte for byte."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "toplag")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(base, f)
                h.update(os.path.relpath(p, SRC).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class SetupTimer:
    """Fresh interpreters importing numpy and toplag, timed one at a time.

    The run takes its samples evenly over the timing loop, so setup_s sees
    the same host as the analyze calls. Each import is bracketed by the
    reference kernel, as the analyze calls are.
    """

    def __init__(self, env):
        self.cmd = [sys.executable, "-c", "import numpy, toplag"]
        self.env = env
        self.times = []
        self.ratios = []
        subprocess.run(self.cmd, env=env, check=True, timeout=60)  # writes bytecode once

    def sample(self):
        ref_before = reference.timed()
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True, timeout=60)
        wall = time.perf_counter() - t0
        self.times.append(wall)
        self.ratios.append(wall / (0.5 * (ref_before + reference.timed())))

    def due(self, share):
        """Whether a sample is due once share (0..1) of the loop is used."""
        return len(self.times) < SETUP_REPEATS * share


class Worker:
    """The fork server (perfbench/worker.py) that runs every analyze call."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        ready = self.proc.stdout.readline().strip()
        if ready != "ready":
            self.close()
            raise RuntimeError(f"perfbench worker did not start (said {ready!r})")

    def call(self, spec):
        self.proc.stdin.write(json.dumps(spec) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench worker exited")
        return json.loads(line)

    def close(self):
        """Close the worker's stdin and wait for it; kill it if it lingers."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_digests(digests):
    fd, tmp = tempfile.mkstemp(dir=WORK, suffix=".json")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)


class Input:
    """One generated input: runs analyze calls on it and judges their files.

    digests maps an input key to the digest of the first good call's files
    under the same sources; a later call whose files differ fails.
    """

    def __init__(self, w, seed, directory, worker, deadline, digests, source):
        from workloads import write_inputs

        os.makedirs(directory)
        self.w = w
        self.dir = directory
        self.worker = worker
        self.deadline = deadline
        self.digests = digests
        self.key = f"{source}:{w.name}:{w.n}:{seed}"
        self.pair = write_inputs(w, seed, directory)
        self.checked = {}

    def call(self, trace, extra=None):
        from check import read_outputs
        from workloads import analyze_argv

        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        spec = {
            "cwd": self.dir,
            "argv": analyze_argv(self.w),
            "trace": trace,
            "timeout": max(1.0, self.deadline - time.perf_counter()),
            **(extra or {}),
        }
        report = self.worker.call(spec)
        report["files"] = read_outputs(out) if os.path.isdir(out) else {}
        if report["exit"] != 0:
            try:
                with open(os.path.join(self.dir, "stderr.txt"), encoding="utf-8",
                          errors="replace") as fh:
                    sys.stderr.write(fh.read()[-2000:])
            except OSError:
                pass
        return report

    def judge(self, report):
        """Problems with one call (empty when good) and its result_err."""
        from check import check_outputs, digest

        problems = []
        if report["exit"] != 0:
            problems.append(f"exit {report['exit']}")
        files = report.pop("files")
        d = digest(files)
        if report["exit"] == 0:
            first = self.digests.setdefault(self.key, d)
            if d != first:
                problems.append("files differ in bytes from the first run on this input")
        if d not in self.checked:
            self.checked[d] = check_outputs(self.w, self.pair, files)
        found, err = self.checked[d]
        return problems + found, err


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_calls(inputs, seconds, deadline, setup=None, traced_extra=None):
    """Call the inputs in turn, round after round, until --seconds is used.

    A call is made only while its input's last call still fits in the time
    left. Returns one list of reports per input; with traced_extra each
    entry is an (untraced, traced) pair of reports. With setup, fresh-import
    samples are taken evenly between the calls.
    """
    done = [[] for _ in inputs]
    last = [0.0] * len(inputs)
    t_start = time.perf_counter()
    calls = 0
    while True:
        for k, inp in enumerate(inputs):
            now = time.perf_counter()
            used = now - t_start
            first_round = not done[-1]
            if now + last[k] > deadline:
                return done
            if not first_round and calls >= MIN_CALLS and used + last[k] > seconds:
                return done
            if setup is not None and setup.due(used / seconds):
                setup.sample()
            t0 = time.perf_counter()
            if traced_extra is None:
                done[k].append(inp.call(0))
            else:
                done[k].append((inp.call(0), inp.call(1, traced_extra)))
            last[k] = time.perf_counter() - t0
            calls += 1


def scaled(reports):
    """Median over the good calls of analyze_s / ref_s, times the nominal
    kernel time; failed calls count only when no call was good. None when no
    call reported a time at all."""
    good = [r for r in reports if r["exit"] == 0 and "analyze_s" in r]
    timed = good or [r for r in reports if "analyze_s" in r]
    if not timed:
        return None
    return reference.NOMINAL_S * statistics.median(r["analyze_s"] / r["ref_s"] for r in timed)


def _worst(errs):
    """The largest result_err, or nan when some call's files could not be
    compared."""
    return max(errs) if all(math.isfinite(e) for e in errs) else math.nan


def _judge_all(inp, reports):
    failed, errs = 0, []
    for r in reports:
        problems, err = inp.judge(r)
        if problems:
            failed += 1
            print(f"failed call: {'; '.join(problems)}")
        errs.append(err)
    return failed, errs


def run_plain(w, inputs, seconds, deadline, setup):
    done = timed_calls(inputs, seconds, deadline, setup=setup)
    while setup.due(1.0):
        setup.sample()
    setup_s = reference.NOMINAL_S * statistics.median(setup.ratios)
    failed, errs, per_input, rss, walls, refs = 0, [], [], [], [], []
    for inp, reports in zip(inputs, done):
        f, e = _judge_all(inp, reports)
        failed += f
        errs += e
        good = [r for r in reports if r["exit"] == 0 and "analyze_s" in r]
        per_input.append(scaled(reports))
        walls += [r["analyze_s"] for r in good]
        refs += [r["ref_s"] for r in good]
        rss += [r["peak_rss_mb"] for r in good]
    attempted = sum(len(r) for r in done)
    if not walls or None in per_input:
        return {}, attempted, failed, errs
    analyze_s = statistics.fmean(per_input)
    result_err = _worst(errs)
    metrics = {
        "analyze_s": analyze_s,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rss),
    }
    q1, q3 = quartiles(walls)
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0]
    over = (f"mean over {len(inputs)} inputs of each input's median"
            if len(inputs) > 1 else "median of the calls")
    print(f"{attempted} analyze calls on {len(inputs)} input(s), n = {w.n}, T = {w.temperature}")
    print(f"  analyze_s            {analyze_s:.4f} s  (scaled; {over})")
    print(f"    raw, all {len(walls)} good calls: median {statistics.median(walls):.4f} s, "
          f"quartiles {q1:.4f} .. {q3:.4f}, 90th percentile {p90:.4f}, "
          f"min {min(walls):.4f}, max {max(walls):.4f}; reference kernel median "
          f"{statistics.median(refs):.4f} s, nominal {reference.NOMINAL_S} s")
    print(f"  setup_s              {setup_s:.4f} s  (scaled; median of {len(setup.times)} "
          f"fresh imports; raw median {statistics.median(setup.times):.4f}, "
          f"max {max(setup.times):.4f})")
    print(f"  peak_rss_mb          {metrics['peak_rss_mb']:.1f} MiB  (median; max {max(rss):.1f})")
    print(f"  lattice_nodes_per_s  {w.n * w.n / analyze_s:.6g} 1/s  (n^2 / analyze_s)")
    print(f"  result_err           {result_err:.3e} abs  (largest deviation from the reference)")
    print(f"  failed_frac          {failed / attempted:.4f}  ({failed} of {attempted} calls)")
    units = END_TO_END_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, attempted, failed, errs


def run_traced(w, inp, seconds, deadline):
    from counts import scan_counts

    predicted = scan_counts(w.n, w.depth, w.memory_budget) if w.scan else {}
    live = predicted.get("live_pair_layers", 0)
    extra = {"n": w.n, "live_pair_layers": live}
    pairs = timed_calls([inp], seconds, deadline, traced_extra=extra)[0]
    failed, errs = _judge_all(inp, [c for pair in pairs for c in pair])
    attempted = 2 * len(pairs)
    traced = [b for _, b in pairs if b["exit"] == 0 and "per_layer" in b]
    plain_s = scaled([a for a, _ in pairs])
    if not traced or plain_s is None:
        return {}, attempted, failed, errs
    traced_s = scaled(traced)
    names = list(traced[-1]["per_layer"])
    values = {k: statistics.median(b["per_layer"][k] for b in traced) for k in names}
    units = dict(traced[-1]["units"])
    values["result_err"], units["result_err"] = _worst(errs), "abs"
    values["failed_frac"], units["failed_frac"] = failed / attempted, "ratio"
    values["trace.overhead_s"], units["trace.overhead_s"] = traced_s - plain_s, "s"
    last = traced[-1]

    print(f"{len(pairs)} untraced + {len(traced)} traced analyze calls, n = {w.n}, T = {w.temperature}")
    print(f"tracing overhead: untraced analyze_s {plain_s:.4f} s, traced {traced_s:.4f} s "
          f"(scaled medians), difference {traced_s - plain_s:+.4f} s")
    print("spans of the last traced call: name, calls, inclusive s, self s")
    for name, calls, total, self_s in last["spans"]:
        print(f"  {name:24s} {calls:>9d} {total:>10.4f} {self_s:>10.4f}")
    print("coarse spans, s from the call's start: start, end, name <- parent")
    for name, parent, start, end in last["timeline"]:
        print(f"  {start:>9.4f} {end:>9.4f}  {name} <- {parent}")
    if any(row[2] for row in last["width_profile"]):
        print("thermal.step cost by layer width: widths, steps, node-fields, ns/node-field")
        for lo, hi, steps, nf, ns in last["width_profile"]:
            print(f"  {lo:>6d}..{hi:<6d} {steps:>7d} {nf:>13d} {ns:>9.3f}")
    if w.scan:
        print(f"count check: bridge-table node-fields {last['table_node_fields']} measured, "
              f"{predicted['table_node_fields']} computed by counts.py; replay blocks "
              f"{values['boundary.replay_blocks']:g} measured, {predicted['replay_blocks']} computed")
    for k in values:
        print(f"  {k:40s} {values[k]:.6g} {units[k]}")
    return {k: {"value": values[k], "unit": units[k]} for k in values}, attempted, failed, errs


def run(w, seed, seconds, trace):
    """One benchmark run; prints readable lines and returns the result."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK)
    digests = load_digests()
    try:
        env = child_env()
        source = source_hash()
        seeds = w.input_seeds(seed)[:1] if trace else w.input_seeds(seed)
        with Worker(env) as worker:
            inputs = [
                Input(w, s, os.path.join(workdir, f"in{s}"), worker, deadline, digests, source)
                for s in seeds
            ]
            print(f"workload {w.name}, seed {seed}, input seeds {seeds[0]}..{seeds[-1]}")
            if trace:
                metrics, attempted, failed, errs = run_traced(w, inputs[0], seconds, deadline)
            else:
                metrics, attempted, failed, errs = run_plain(
                    w, inputs, seconds, deadline, SetupTimer(env))
        save_digests(digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": bool(metrics) and failed == 0 and math.isfinite(_worst(errs)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toplag", "__init__.py")):
        print(f"perfbench: no toplag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
