"""Per-span table of a trace written by `run.py --trace 1`.

    python3 perfbench/layers.py perfbench/out/trace-solve.json

Prints, for every span name, the number of calls, the total and self
time in raw seconds, and the mean time per call: the layer timings the
README quotes.
"""

import json
import sys
from collections import defaultdict


def table(path):
    with open(path) as fh:
        trace = json.load(fh)
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for k, (name, start, end, _) in enumerate(spans):
        row = rows[names[name]]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[k]
    return rows, trace["counts"]


def main(argv):
    for path in argv:
        print(path)
        print(f"{'span':32s} {'calls':>8s} {'total s':>9s} {'self s':>9s} {'mean ms':>9s}")
        rows, counts = table(path)
        for name, (calls, total, self_s) in sorted(rows.items()):
            print(f"{name:32s} {calls:8d} {total:9.3f} {self_s:9.3f} "
                  f"{1e3 * total / calls:9.3f}")
        print("counts:", counts)


if __name__ == "__main__":
    main(sys.argv[1:])
