"""Freeze the outputs that every benchmark run is checked against.

    python3 perfbench/freeze.py

Runs each workload once, at random_solvable's default seed base 0, and
writes perfbench/expected.json: sigma of every jh_corpus pair, the stdout
digest and length of every cli_analyze command, and the factor
classifications and both sigmas of every random_solvable algebra.

The committed file was frozen from the library at commit 5f622b0, whose tests
check these outputs against brute-force oracles.  Re-freezing after a change
to the library would hide any output that change broke.
"""

from __future__ import annotations

import json
from pathlib import Path

import worker  # puts the checkout's src/ on sys.path
from workloads import WORKLOADS

DEFAULT_SEED_BASE = 0


def observe(name: str) -> dict:
    prepare, operations = WORKLOADS[name]
    out = {}
    for key, _, observed, problems in operations(prepare(DEFAULT_SEED_BASE)):
        if problems:
            raise SystemExit(f"{name} {key}: {'; '.join(problems)}")
        out[key] = observed
    return out


def main() -> None:
    blocks = [f'"seed_base": {DEFAULT_SEED_BASE}']
    for name in WORKLOADS:
        entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                             for k, v in observe(name).items())
        blocks.append(f'"{name}": {{\n{entries}\n }}')
    path = Path(worker.__file__).with_name("expected.json")
    path.write_text("{" + ",\n ".join(blocks) + "}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
