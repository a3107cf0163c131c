"""Deterministic work counts per workload, computed from its size alone.

These are the numbers a later change can cite as exact counts ("fewer
node-field updates"), separately from any timing. They depend only on n,
the boundary depth and the memory budget, never on the seed. Byte counts
are computed from array shapes, not measured.

Usage:
  python3 perfbench/counts.py            print the counts as JSON
  python3 perfbench/counts.py --write    rewrite perfbench/work_counts.json
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "work_counts.json")


def _width(n, tau):
    return min(tau, 2 * n - 2 - tau) + 1


def live_pair_layers(n, depth):
    """Sum over admissible (start, end) pairs of the layers the pair spans."""
    from toplag.boundary import _admissibility, enumerate_boundaries

    spec = enumerate_boundaries(n, depth)
    adm, tau_s, tau_e = _admissibility(spec.start_nodes, spec.end_nodes)
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    return int(lengths[adm].sum())


def scan_counts(n, depth, budget):
    """Counts of the bridge score table of one boundary scan."""
    from toplag.boundary import _block_edges

    n_layers = 2 * n - 1
    fields = 2 * depth - 1
    edges = _block_edges(n_layers, fields * n * 8, budget)
    keys = edges[1:-1]
    # The scout sweeps backward from the far corner until it has taken the
    # lowest checkpoint; the replay then covers every layer once, as does the
    # forward sweep.
    scout_layers = n_layers - min(keys) if keys else 0
    scout_nodes = sum(_width(n, tau) for tau in range(scout_layers))
    return {
        "table_node_fields": fields * (2 * n * n + scout_nodes),
        "table_steps_forward": n_layers,
        "table_steps_backward": n_layers + scout_layers,
        "live_pair_layers": live_pair_layers(n, depth),
        "replay_blocks": len(edges) - 1,
        "replay_block_layers": edges[1] - edges[0],
        "backward_field_bytes": fields * n * 8 * n_layers,
        "memory_budget_bytes": budget,
    }


def workload_counts(w):
    from toplag.landscape import MATERIALIZE_LIMIT

    out = {"n": w.n, "dense_mb": 8 * w.n * w.n / 1e6 if w.n <= MATERIALIZE_LIMIT else 0.0}
    if w.scan:
        out.update(scan_counts(w.n, w.depth, w.memory_budget))
    else:
        out["codes_mb"] = w.n * w.n / 1e6
    return out


def all_counts():
    from workloads import WORKLOADS

    return {name: workload_counts(w) for name, w in WORKLOADS.items()}


def load_record():
    with open(RECORD, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    counts = all_counts()
    text = json.dumps(counts, indent=2, sort_keys=True) + "\n"
    if "--write" in argv:
        with open(RECORD, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
