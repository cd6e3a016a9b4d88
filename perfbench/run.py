"""Run one chieflie benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it builds nothing and imports
chieflie from src/.  Each pass runs one workload in a fresh interpreter
(perfbench/worker.py), so chieflie's process-global caches start empty, as
they do for a command-line user.  Passes repeat while the next one is
expected to end within S seconds, and every metric is the median over
passes.

The host this was written on, a shared 2-vCPU VM, changes speed by 15-30%
over minutes as other tenants load it.  So perfbench/reference.py, a fixed
pure-Python computation, runs in its own interpreter before the first pass
and after each one, and the end-to-end timings are scaled by
REFERENCE_NOMINAL_S / (mean reference time).  They read as on the host at
its usual speed.  The record keeps the measured medians too.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1 untraced and traced passes alternate; the metrics are the per-layer
ones, from the traced passes, and the traced-to-untraced wall-time ratio.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The full record (run metadata, every pass, every layer
statistic) goes to .perfbench_out/ in the checkout, and the spans of the last
traced pass to .perfbench_out/spans/.  The exit code is 0 only when every
operation matched its checks; a failed operation still prints the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
# A run must end within 180 seconds: start no pass that could cross this.
HARD_LIMIT_S = 165.0
# Criterion 3's wall-clock gate, which jh_corpus reproduces.
CRITERION_3_GATE_S = 120.0
# The operations that must lie beyond the tail percentile.
TAIL_BEYOND = 10
# Seconds reference.py takes at this host's usual speed (a 2-vCPU Xeon VM,
# Python 3.11.7).  End-to-end timings are scaled to a host at that speed.
REFERENCE_NOMINAL_S = 0.42
# End-to-end metrics that are timings, and so are scaled.
TIMINGS = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms")


def git_sha() -> str | None:
    """HEAD's commit; None outside a git checkout or without git."""
    if not (ROOT / ".git").exists():   # not the HEAD of an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chieflie").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tail(op_s: list[float]) -> tuple[float, float]:
    """(seconds, percentile) of one pass's tail: the slowest operation that
    still has at least TAIL_BEYOND operations beyond it, or the slowest
    operation of a pass too short for that rule to land above its median."""
    n = len(op_s)
    rank = n - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n
    return sorted(op_s)[rank - 1], 100.0 * rank / n


def run_worker(args, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(OUT / "spans" / f"{args.workload}.bin")]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - t0),
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def reference_s(deadline: float) -> float:
    """Seconds reference.py takes, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return float(proc.stdout)


def run_passes(args) -> tuple[list[dict], list[float]]:
    """Passes until the next one would end after --seconds; at least one
    (with --trace 1, one untraced and one traced).  reference.py runs before
    the first pass and after each one."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    needed = {False, True} if args.trace else {False}
    passes: list[dict] = []
    references = [reference_s(deadline)]
    while True:
        elapsed = time.monotonic() - start
        longest = max((p["seconds"] for p in passes), default=0.0)
        if needed <= {p["traced"] for p in passes} and \
                elapsed + longest > args.seconds:
            break
        if passes and elapsed + longest > HARD_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_worker(args, traced, deadline))
        references.append(reference_s(deadline))
        passes[-1]["seconds"] = time.monotonic() - t0
    return passes, references


def median_of(passes, key) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(passes, references) -> tuple[dict, dict]:
    """Medians over passes, the timings scaled by the reference.  Each
    pass's tail is taken within that pass, so its percentile does not depend
    on how many passes the run makes."""
    for p in passes:
        p["op_p50_ms"] = statistics.median(p["op_s"]) * 1e3
        tail_s, percentile = tail(p["op_s"])
        p["op_tail_ms"] = tail_s * 1e3
    measured = {k: median_of(passes, k) for k in TIMINGS + ("peak_rss_mb",)}
    scale = REFERENCE_NOMINAL_S / statistics.fmean(references)
    values = {k: v * scale if k in TIMINGS else v for k, v in measured.items()}
    notes = {"op_tail_percentile": percentile,
             "ops_per_pass": len(passes[0]["op_s"]),
             "reference_s": references, "scale": scale,
             "measured": measured}
    return values, notes


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {k: statistics.median(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    values["trace.overhead_ratio"] = (median_of(traced, "wall_s") /
                                      median_of(plain, "wall_s"))
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chieflie" / "__init__.py").is_file():
        print(f"error: no chieflie sources under {ROOT / 'src'}; run from "
              f"the root of a chieflie checkout", file=sys.stderr)
        return 2

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": os.getloadavg()[0]}
    if args.workload == "random_solvable":
        meta["seed_base"] = args.seed
    try:
        passes, references = run_passes(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    if args.trace:
        values, notes = per_layer(passes), {}
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(passes, references)
        wanted = spec["end_to_end"]
        if args.workload == "jh_corpus":
            notes["criterion_3_gate_s"] = CRITERION_3_GATE_S
            notes["criterion_3_headroom_s"] = \
                CRITERION_3_GATE_S - notes["measured"]["wall_s"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    notes["fail_ratio"] = failed / attempted

    OUT.mkdir(exist_ok=True)
    record = {"meta": meta, "notes": notes, "metrics": metrics,
              "all_values": values, "failures": failures,
              "passes": [{k: v for k, v in p.items()
                          if k not in ("op_s", "layers")} for p in passes]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print(json.dumps({"meta": meta, "notes": notes}))
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
