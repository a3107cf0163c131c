"""Benchmark workloads: how each one's inputs are generated and analyzed.

Every input is a synthetic pair from toplag.synth.generate, written to two
CSV files outside the timed region. The program under test sees only those
files, through `toplag analyze`. A run's inputs follow from the benchmark's
--seed argument, so the same seed gives the same bytes on disk.
"""

import os
from dataclasses import dataclass

import numpy as np

from toplag.ingest import AlignedPair, standardize
from toplag.synth import LagScenario, generate


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    kind: str  # LagScenario kind: "constant" or "step"
    temperature: float
    iso_minutes: bool  # timestamps as ISO-8601 minutes instead of integers
    depth: int = 20
    window: int = 20
    memory_budget: int = 2_000_000_000
    inputs: int = 1  # distinct generated inputs per run

    @property
    def scan(self):
        return self.temperature > 0

    def input_seeds(self, seed):
        """Scenario seeds of one run; distinct run seeds never share one."""
        return [seed * self.inputs + k for k in range(self.inputs)]


# Sizes keep one analyze call under a second on a 2-core box, so a run makes
# dozens of calls and reports their median (see run.py).
#
# scan_warm passes a memory budget below its backward field (39 fields x 400
# nodes x 799 layers x 8 B = 100 MB), so the scout -> checkpoint -> replay
# path runs, as it does at the default 2 GB budget from n = 1791 upwards.
#
# scan_cold is the regime where the scaled sweep's weights underflow and the
# per-pair log-space fallback carries most of the scan. It is not listed in
# BENCHMARK.json, for two reasons measured at n = 40 to 100, boundary depth
# 10 and T = 0.003 to 0.0045. At each of these temperatures about one
# generated input in 150 to 3000 makes every anchor pair underflow, so
# analyze refuses it (exit 5) and the run fails. And how many pair-layers
# fall back, so the call's time, varies by a coefficient of 0.25 to 0.6
# between inputs at any n, so a steady run needs dozens of inputs, which
# makes a refusal in a set of runs all but certain. Run it by hand
# (--workload scan_cold) for work on the cold-T path; it averages over 48
# small inputs.
#
# dp_long stays above landscape.MATERIALIZE_LIMIT (4096), so the dense
# landscape is never built.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan_warm",
            n=400,
            kind="constant",
            temperature=2.0,
            iso_minutes=False,
            memory_budget=50_000_000,
        ),
        Workload(
            name="scan_cold",
            n=60,
            kind="constant",
            temperature=0.004,
            iso_minutes=False,
            depth=10,
            inputs=48,
        ),
        Workload(
            name="dp_long",
            n=5000,
            kind="step",
            temperature=0.0,
            iso_minutes=True,
            window=40,
        ),
    )
}


def scenario(w, seed):
    n = w.n
    return LagScenario(
        kind=w.kind,
        n=n,
        seed=seed,
        k=5,
        k2=15 if w.kind == "step" else 0,
        switch_index=n // 2 if w.kind == "step" else 0,
        noise_sigma=0.3,
    )


def _timestamps(w, n):
    if not w.iso_minutes:
        return [str(t) for t in range(n)]
    start = np.datetime64("2020-01-01T00:00", "m")
    stamps = start + np.arange(n).astype("timedelta64[m]")
    return [str(s) + ":00" for s in stamps]


def write_inputs(w, seed, directory):
    """Write x.csv and y.csv for one scenario seed; returns the standardized
    pair.

    Values are written in shortest round-trip form, so the program parses
    exactly the doubles the reference checks use.
    """
    pair, _ = generate(scenario(w, seed))
    stamps = _timestamps(w, pair.n)
    for name, values in (("x.csv", pair.x), ("y.csv", pair.y)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            fh.writelines(f"{t},{float(v)!r}\n" for t, v in zip(stamps, values))
    return standardize(AlignedPair(x=pair.x, y=pair.y))


def analyze_argv(w, out_dir="out"):
    """Arguments of the analyze call, relative to the call's working directory.

    Scans also dump the energy table, which the winner check reads.
    """
    argv = [
        "analyze", "x.csv", "y.csv", "--out", out_dir,
        "--temperature", repr(w.temperature), "--window", str(w.window),
    ]
    if w.scan:
        argv += [
            "--boundary-depth", str(w.depth),
            "--memory-budget", str(w.memory_budget),
            "--dump-energy-table",
        ]
    return argv
