#!/usr/bin/env python3
"""Interleaved A/B comparison of two builds on one e2ebench workload.

    python3 tools/ab.py BASE CHANGE --workload mlp_offload --seed 1 \\
        --seconds 30 --pairs 10

BASE and CHANGE are each a source tree (a directory holding
e2ebench/run.py, which builds it on first use) or a built e2ebench
binary. Each pair runs both sides back to back, alternating which side
goes first, so slow phases of a shared host land on both. For every
end-to-end metric in BENCHMARK.json it prints each side's median and
quartiles, the change of the medians, and in how many pairs CHANGE beat
BASE.

Exit status: 0 when every run passed its correctness gates and the
simulated metrics (sim_*) agree across all runs of both sides, 1 when a
run failed or was not correct, 2 when the simulated metrics differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def command(side, args, out_dir):
    """The command line and working directory that run one side once."""
    run = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    if os.path.isdir(side):
        script = os.path.join(side, "e2ebench", "run.py")
        if not os.path.isfile(script):
            sys.exit("ab: %s holds no e2ebench/run.py" % side)
        return [sys.executable, script] + run, side
    if os.access(side, os.X_OK):
        return [os.path.abspath(side)] + run + ["--out", out_dir], None
    sys.exit("ab: %s is neither a source tree nor an executable" % side)


def run_once(label, side, args, out_dir):
    cmd, cwd = command(side, args, out_dir)
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if r.returncode != 0 or result is None:
        print("ab: %s run failed (exit %d)" % (label, r.returncode),
              file=sys.stderr)
        return None
    return result


def fmt(v):
    return "%d" % v if float(v).is_integer() else "%.6g" % v


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="source tree or e2ebench binary")
    ap.add_argument("change", help="source tree or e2ebench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("ab: --pairs must be at least 1")

    spec = end_to_end_spec()
    sides = (("base", args.base), ("change", args.change))
    results = {"base": [], "change": []}
    bad = False
    with tempfile.TemporaryDirectory(prefix="ab-") as out_dir:
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for label, side in order:
                r = run_once(label, side, args, out_dir)
                if r is None or r["correct"] is not True or r["failed"] != 0:
                    print("ab: pair %d, %s: not correct: %s"
                          % (i + 1, label, json.dumps(r)), file=sys.stderr)
                    bad = True
                    r = None
                results[label].append(r)
            print("pair %d/%d done (%s first)" % (i + 1, args.pairs,
                                                  order[0][0]),
                  file=sys.stderr)
    if bad:
        return 1

    print("%s, seed %d, %d pairs of %g-s runs"
          % (args.workload, args.seed, args.pairs, args.seconds))
    rows = [("metric", "unit", "base median [q1, q3]",
             "change median [q1, q3]", "change", "wins")]
    sim_differs = False
    for m in spec:
        name = m["name"]
        vals = {k: [r["metrics"][name]["value"] for r in results[k]]
                for k in results}
        lower = m["better"] == "lower"
        wins = sum(1 for a, b in zip(vals["base"], vals["change"])
                   if (b < a if lower else b > a))
        qb = quartiles(vals["base"])
        qc = quartiles(vals["change"])
        rel = (qc[1] - qb[1]) / qb[1] if qb[1] else 0.0
        rows.append((name, m["unit"],
                     "%s [%s, %s]" % (fmt(qb[1]), fmt(qb[0]), fmt(qb[2])),
                     "%s [%s, %s]" % (fmt(qc[1]), fmt(qc[0]), fmt(qc[2])),
                     "%+.1f%%" % (100.0 * rel), "%d/%d" % (wins, args.pairs)))
        if name.startswith("sim_") and len(set(vals["base"] + vals["change"])) != 1:
            print("ab: %s differs: base %s, change %s"
                  % (name, vals["base"], vals["change"]), file=sys.stderr)
            sim_differs = True
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) if c < 2 else cell.rjust(w)
                        for c, (cell, w) in enumerate(zip(row, widths))))
    return 2 if sim_differs else 0


if __name__ == "__main__":
    sys.exit(main())
