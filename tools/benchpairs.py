"""Compare two source trees on every benchmark workload in alternating pairs.

    python3 tools/benchpairs.py PARENT CHANGE --first-seed N

PARENT and CHANGE are source trees, each holding BENCHMARK.json, src/ and
perfbench/: for example a `git archive` of the parent commit and a copy of
the working tree.
For each workload of BENCHMARK.json, pair i (0 <= i < PAIRS) runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both trees with the same seed S = N + i, the parent first when i is even
and the change first when it is odd; T is BENCHMARK.json's run_seconds.
Then each side makes one seed-0 --trace 1 run of TRACE_SECONDS for the
per-layer counts and times.

The record is written next to this repository's BENCHMARK.json as
BENCH_<parent>-child.json, <parent> being the first 7 hex digits of this
repository's HEAD.  It is named after the parent because it is written
before the change's commit exists, while HEAD is still the parent.  Per
workload and end-to-end metric it holds both sides' medians and quartiles,
every run, the change-to-parent ratio of the medians and the pairs the
change won or tied, and per layer both sides' traced seed-0 values; it also
names the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pairs per workload; quartiles need at least 2.
PAIRS = 10
# Length of the traced seed-0 run on each side.
TRACE_SECONDS = 5


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One perfbench/run.py run in tree: the result on its last stdout line,
    each metric flattened to its value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"no result from {' '.join(cmd)} in {tree}:\n"
                         f"{proc.stderr}")
    res = json.loads(lines[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides' summaries, and the pairs the change won (it did better)
    or tied, by the metric's direction in BENCHMARK.json."""
    sign = 1 if metric["better"] == "lower" else -1
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    p_sum, c_sum = summary(parent), summary(change)
    return {"unit": metric["unit"], "bound": metric["bound"],
            "parent": p_sum, "change": c_sum,
            "change_over_parent": c_sum["median"] / p_sum["median"],
            "pair_wins": sum(g > 0 for g in gaps),
            "pair_ties": sum(g == 0 for g in gaps),
            "pairs": len(gaps), "parent_runs": parent, "change_runs": change}


def workload_record(trees: dict, name: str, spec: dict,
                    first_seed: int) -> dict:
    seeds = [first_seed + i for i in range(PAIRS)]
    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            res = run(trees[side], name, seed, spec["run_seconds"], 0)
            results[side].append(res)
            print(f"{name} seed {seed} {side}: correct {res['correct']}, "
                  f"wall_s {res['metrics'].get('wall_s')}", file=sys.stderr)
    traced = {side: run(trees[side], name, 0, TRACE_SECONDS, 1)
              for side in trees}
    layers = {}
    for m in spec["per_layer"]:
        p, c = (traced[s]["metrics"].get(m["name"]) for s in trees)
        layers[m["name"]] = {"unit": m["unit"], "parent": p, "change": c,
                             "diff": None if None in (p, c) else c - p}
    return {
        "seeds": [seeds[0], seeds[-1]],
        "correct": {s: all(r["correct"] for r in results[s]) for s in trees},
        "failed": {s: sum(r["failed"] for r in results[s]) for s in trees},
        "metrics": {m["name"]: compare(
            m, *([r["metrics"][m["name"]] for r in results[s]]
                 for s in trees)) for m in spec["end_to_end"]},
        "traced_seed0": {"correct": {s: traced[s]["correct"] for s in trees},
                         "layers": layers},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--first-seed", type=int, required=True,
                    help="seed of pair 0; pick seeds not used while writing "
                         "the change")
    args = ap.parse_args(argv)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "benchmark": f"perfbench/run.py --workload W --seed S "
                     f"--seconds {spec['run_seconds']:g} --trace 0",
        "pairs": "alternating parent/change runs, one seed per pair; the "
                 "side that ran first alternates, parent first on even "
                 "offsets",
        "workloads": {w["name"]: workload_record(trees, w["name"], spec,
                                                 args.first_seed)
                      for w in spec["workloads"]},
        "parent": {"git_sha": sha},
        "change": {"git_sha": None},
        "host": {"python": platform.python_version(),
                 "nproc": os.cpu_count()},
    }
    out = ROOT / f"BENCH_{sha[:7]}-child.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
