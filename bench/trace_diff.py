#!/usr/bin/env python3
"""Compare the per-layer traces of two commits.

    python3 bench/trace_diff.py OLD NEW

OLD and NEW are traced result files (``bench/out/<workload>-seed<n>-trace1.json``,
written by ``bench/run.py --trace 1``) or directories holding them, one per
commit.  For every workload found on both sides it prints each layer's self
time and call count, old and new (the median over the seeds present), sorted
by the size of the self-time change (layers never called on either side are
left out), so a performance change can show which layer its saving comes from.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    """{workload: {layer: {"self_s": [..], "calls": [..]}}} from traced result files."""
    files = sorted(glob.glob(os.path.join(path, "*-trace1.json"))) if os.path.isdir(path) else [path]
    out = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        layers = out.setdefault(record["env"]["workload"], {})
        for key, value in record["layers"].items():
            layer, _, stat = key.rpartition(".")
            if stat in ("self_s", "calls"):
                layers.setdefault(layer, {"self_s": [], "calls": []})[stat].append(value)
    if not out:
        raise SystemExit(f"trace_diff: no traced results under {path}")
    return out


def diff(old, new):
    lines = []
    for workload in sorted(set(old) & set(new)):
        lines.append(f"== {workload}")
        lines.append(f"{'layer':45s} {'self_s old':>11s} {'new':>11s} {'change':>8s}"
                     f" {'calls old':>10s} {'new':>10s}")
        rows = []
        for layer in sorted(set(old[workload]) | set(new[workload])):
            a = old[workload].get(layer, {"self_s": [0.0], "calls": [0.0]})
            b = new[workload].get(layer, {"self_s": [0.0], "calls": [0.0]})
            sa, sb = statistics.median(a["self_s"]), statistics.median(b["self_s"])
            ca, cb = statistics.median(a["calls"]), statistics.median(b["calls"])
            if ca or cb:
                rows.append((abs(sb - sa), max(sa, sb), layer, sa, sb, ca, cb))
        for *_, layer, sa, sb, ca, cb in sorted(rows, reverse=True):
            change = f"{(sb - sa) / sa:+.1%}" if sa > 0 else "new" if sb > 0 else "-"
            lines.append(f"{layer:45s} {sa:11.4f} {sb:11.4f} {change:>8s} {ca:10.0f} {cb:10.0f}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    print(diff(load(argv[0]), load(argv[1])))


if __name__ == "__main__":
    main(sys.argv[1:])
