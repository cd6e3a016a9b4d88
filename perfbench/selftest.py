"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about twenty seconds, that:

* a tiny size of each workload (three operations) runs clean, untraced and
  traced, and the traced pass reports every per-layer statistic that
  BENCHMARK.json names;
* a deliberately wrong frozen stdout digest, an operation missing from the
  frozen set and a frozen operation the pass never runs are each reported
  as one failed operation;
* run.py prints a result line of the agreed shape;
* run.py refuses, with a non-zero exit and no result line, in a directory
  that holds only BENCHMARK.json and perfbench/.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_out" / "selftest"
TINY = 3


def worker(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", "0", "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)

    for w in spec["workloads"]:
        name = w["name"]
        plain = worker(name, "--limit", str(TINY))
        check(plain["attempted"] == TINY and plain["failed"] == 0,
              f"{name}: {TINY} operations run and match their frozen outputs")
        traced = worker(name, "--limit", str(TINY), "--trace", "1",
                        "--spans", str(WORK_DIR / f"{name}.bin"))
        missing = layer_names - set(traced["layers"])
        check(traced["failed"] == 0 and not missing,
              f"{name}: traced pass reports every per-layer statistic"
              + (f" (missing {sorted(missing)})" if missing else ""))
        check(traced["layers"]["linalg.rref_rows.calls"] > 0
              and (WORK_DIR / f"{name}.bin").stat().st_size > 0,
              f"{name}: spans written, RREF calls seen")

    def altered(change) -> str:
        expected = json.loads((HERE / "expected.json").read_text())
        change(expected["cli_analyze"])
        path = WORK_DIR / "altered-expected.json"
        path.write_text(json.dumps(expected))
        return str(path)

    first = next(iter(json.loads((HERE / "expected.json").read_text())
                      ["cli_analyze"]))
    bad = worker("cli_analyze", "--limit", "1", "--expected", altered(
        lambda e: e[first].update(sha256="0" * 64)))
    check(bad["attempted"] == 1 and bad["failed"] == 1
          and "differs from the frozen" in bad["failures"][0],
          "a wrong frozen digest counts as a failed operation")
    bad = worker("cli_analyze", "--limit", "1", "--expected", altered(
        lambda e: e.pop(first)))
    check(bad["attempted"] == 1 and bad["failed"] == 1
          and "no frozen output" in bad["failures"][0],
          "an operation missing from the frozen set counts as failed")
    bad = worker("cli_analyze", "--expected", altered(
        lambda e: e.update({"extra": e[first]})))
    check(bad["failed"] == 1 and bad["attempted"] == len(bad["op_s"]) + 1
          and "frozen operations not run" in bad["failures"][0],
          "a frozen operation the pass never ran counts as failed")

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_analyze",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.splitlines()[-1])
    check(proc.returncode == 0 and set(result) ==
          {"correct", "attempted", "failed", "metrics"}
          and result["correct"] and result["attempted"] >= 1
          and set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "run.py prints the result line with every end-to-end metric")

    bare = WORK_DIR / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_analyze",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180, check=False)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "run.py refuses without the library's sources")
    shutil.rmtree(WORK_DIR)
    print("selftest passed")


if __name__ == "__main__":
    main()
