"""Spans around the calls into each toplag module, recorded from outside.

install() replaces module attributes with timing wrappers at run time; the
package's source is untouched. Each wrapped call is a span with a name and
the span that was open when it started (its parent). Per name the tracer
keeps the call count, inclusive time and self time (inclusive minus the
direct children). Calls that happen hundreds of thousands of times (layer
lookups, the per-pair log-space fallback) are aggregated instead of kept
one by one; the coarse spans are kept whole, in memory, and written out by
perfbench/worker.py when the traced call ends.
"""

import time
from collections import defaultdict

import numpy as np

# Spans kept one by one; every other name is aggregated only.
_KEPT = (
    "cli.analyze", "ingest.parse_csv", "ingest.synchronize", "ingest.standardize",
    "landscape.build", "boundary.select_optimal", "boundary.table",
    "boundary.winner_path", "zerotemp.optimal_path", "consistency.resample",
    "consistency.regress",
)


class _Span:
    __slots__ = ("name", "parent", "start", "child_s")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.kept = []  # (name, parent name, start, end)
        self.counts = defaultdict(int)  # work counters named like metrics
        self.steps = []  # (width, fields, seconds, forward, parent name)
        self.forward_landscape = None
        self._undo = []

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr with a timed wrapper. after(args, result,
        seconds, parent span) runs once the call returns, outside the span's
        own time."""
        orig = getattr(owner, attr)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(name, parent, clock())
            stack.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(span, end)
            if after is not None:
                after(args, result, end - span.start, parent)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _close(self, span, end):
        dur = end - span.start
        name = span.name
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - span.child_s
        if span.parent is not None:
            span.parent.child_s += dur
        if name in _KEPT:
            pname = span.parent.name if span.parent is not None else None
            self.kept.append((name, pname, span.start, end))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def install(tracer):
    """Wrap the public entry points cli calls and the seams between layers."""
    from toplag import boundary, cli, landscape, thermal

    c = tracer.counts

    def rows(args, result, dur, parent):
        c["ingest.rows"] += int(result.n)

    def built(args, result, dur, parent):
        tracer.forward_landscape = result
        if result.eps is not None:
            c["landscape.dense_bytes"] += 8 * result.n * result.n

    def selected(args, result, dur, parent):
        c["boundary.underflowed_pairs"] += int(result.underflowed)

    def dp(args, result, dur, parent):
        nodes = result.nodes
        c["zerotemp.path_nodes"] += int(nodes.shape[0])
        # optimal_path keeps one uint8 backpointer per node of the
        # start-to-end rectangle.
        (si, sj), (ei, ej) = result.start, result.end
        c["zerotemp.codes_bytes"] += (ei - si + 1) * (ej - sj + 1)

    def regressed(args, result, dur, parent):
        c["consistency.windows"] += int(result.n_windows)

    def stepped(args, result, dur, parent):
        sweep = args[0]
        tracer.steps.append((
            sweep.s1.shape[1],
            sweep.n_fields,
            dur,
            sweep.l is tracer.forward_landscape,
            parent.name if parent is not None else None,
        ))

    def snapped(args, result, dur, parent):
        where = parent.name if parent is not None else None
        c[f"snapshots.{where}"] += 1
        c[f"snapshot_bytes.{where}"] += sum(
            v.nbytes for v in result.values() if isinstance(v, np.ndarray)
        )

    w = tracer.wrap
    w(cli, "main", "cli.analyze")
    w(cli, "parse_csv", "ingest.parse_csv", rows)
    w(cli, "synchronize", "ingest.synchronize")
    w(cli, "standardize", "ingest.standardize")
    w(cli, "build_landscape", "landscape.build", built)
    w(cli, "select_optimal", "boundary.select_optimal", selected)
    w(cli, "optimal_path", "zerotemp.optimal_path", dp)
    w(cli, "resample_lag_to_time", "consistency.resample")
    w(cli, "run_consistency", "consistency.regress", regressed)
    w(cli, "_write_csv", "cli.write")
    w(cli, "_write_summary", "cli.write")
    w(landscape.EnergyLandscape, "layer", "landscape.layer")
    w(thermal._StackedSweep, "step", "thermal.step", stepped)
    w(thermal._StackedSweep, "snapshot", "thermal.snapshot", snapped)
    w(boundary, "_bridge_table", "boundary.table")
    w(boundary, "_bridge_pair_path", "boundary.winner_path")
    w(boundary, "_log_layer_cost", "boundary.fallback")


WIDTH_BINS = 4


def width_profile(steps, n, bins):
    """Step cost per node-field, binned by layer width as a share of n.

    Returns a list of (width_lo, width_hi, steps, node_fields, ns_per_node_field)
    with bin k covering widths in (k/bins * n, (k+1)/bins * n].
    """
    out = []
    for k in range(bins):
        lo, hi = k * n / bins, (k + 1) * n / bins
        sel = [s for s in steps if lo < s[0] <= hi]
        nf = sum(s[0] * s[1] for s in sel)
        sec = sum(s[2] for s in sel)
        out.append((int(lo) + 1, int(hi), len(sel), nf, 1e9 * sec / nf if nf else 0.0))
    return out


def per_layer_metrics(tracer, live_pair_layers, output_bytes, n):
    """The per-layer metrics of one traced analyze call, by metric name."""
    t, calls, c = tracer.total_s, tracer.calls, tracer.counts
    steps = tracer.steps
    fwd = sum(1 for s in steps if s[3])
    bwd = len(steps) - fwd
    node_fields = sum(s[0] * s[1] for s in steps)
    step_s = t["thermal.step"]
    fallback_calls = calls["boundary.fallback"]
    m = {
        "ingest.parse_s": (t["ingest.parse_csv"], "s"),
        "ingest.rows": (c["ingest.rows"], "count"),
        "ingest.sync_s": (t["ingest.synchronize"] + t["ingest.standardize"], "s"),
        "landscape.build_s": (t["landscape.build"], "s"),
        "landscape.dense_mb": (c["landscape.dense_bytes"] / 1e6, "MB"),
        "landscape.layer_calls": (calls["landscape.layer"], "count"),
        "landscape.layer_s": (t["landscape.layer"], "s"),
        "thermal.steps": (len(steps), "count"),
        "thermal.steps.backward": (bwd, "count"),
        "thermal.steps.forward": (fwd, "count"),
        "thermal.node_fields": (node_fields, "count"),
        "thermal.step_s": (step_s, "s"),
        "thermal.step_ns_per_node_field": (
            1e9 * step_s / node_fields if node_fields else 0.0, "ns"),
    }
    for k, (_, _, _, _, ns) in enumerate(width_profile(steps, n, WIDTH_BINS), 1):
        m[f"thermal.step_ns_per_node_field.w{k}"] = (ns, "ns")
    table_snaps = c["snapshots.boundary.table"]
    m.update({
        "boundary.table_s": (t["boundary.table"], "s"),
        "boundary.table_self_s": (tracer.self_s["boundary.table"], "s"),
        "boundary.winner_path_s": (t["boundary.winner_path"], "s"),
        "boundary.backward_per_forward_step": (bwd / fwd if fwd else 0.0, "ratio"),
        "boundary.replay_blocks": (
            table_snaps + 1 if calls["boundary.table"] else 0, "count"),
        "boundary.checkpoint_mb": (c["snapshot_bytes.boundary.table"] / 1e6, "MB"),
        "boundary.live_pair_layers": (live_pair_layers, "count"),
        "boundary.fallback_calls": (fallback_calls, "count"),
        "boundary.fallback_s": (t["boundary.fallback"], "s"),
        "boundary.fallback_ratio": (
            fallback_calls / live_pair_layers if live_pair_layers else 0.0, "ratio"),
        "boundary.underflowed_pairs": (c["boundary.underflowed_pairs"], "count"),
        "zerotemp.dp_s": (t["zerotemp.optimal_path"], "s"),
        "zerotemp.path_nodes": (c["zerotemp.path_nodes"], "count"),
        "zerotemp.codes_mb": (c["zerotemp.codes_bytes"] / 1e6, "MB"),
        "consistency.resample_s": (t["consistency.resample"], "s"),
        "consistency.regress_s": (t["consistency.regress"], "s"),
        "consistency.windows": (c["consistency.windows"], "count"),
        "cli.write_s": (t["cli.write"], "s"),
        "cli.output_bytes": (output_bytes, "B"),
        "cli.self_s": (tracer.self_s["cli.analyze"], "s"),
    })
    return m
