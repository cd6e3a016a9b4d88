"""One cold pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --t0 SPAWN_TIME [--limit K] [--expected PATH] [--spans PATH]

SPAWN_TIME is `time.monotonic()` in the parent just before it started this
process, so set-up time runs from interpreter start to the first operation.
The last line of stdout is one JSON object: set-up and wall seconds, every
operation's seconds, failures, peak RSS and, when traced, the per-layer
statistics.  Exit code 0 means the pass ran to the end; failed operations are
reported in the JSON, not by the exit code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chieflie  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Caches that set-up fills, so the cold-start guard leaves them out.
SETUP_CACHES = frozenset({"field.prime_field"})
MAX_REPORTED_FAILURES = 20


def chieflie_modules() -> list:
    if Path(chieflie.__file__).resolve().parent != (ROOT / "src" / "chieflie").resolve():
        raise SystemExit(f"chieflie imported from {chieflie.__file__}, "
                         f"not from this checkout's src/")
    return [chieflie] + [importlib.import_module(f"chieflie.{m.name}")
                         for m in pkgutil.iter_modules(chieflie.__path__)]


def cached_functions(modules) -> dict[str, object]:
    """Every memoised function the chieflie modules define, found by its
    `cache_info`, as 'module.function'."""
    out = {}
    for module in modules:
        short = module.__name__.removeprefix("chieflie.")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", None) == module.__name__:
                out[f"{short}.{name}"] = obj
    return out


def assert_cold(cached) -> None:
    warm = {name: fn.cache_info().currsize for name, fn in cached.items()
            if name not in SETUP_CACHES and fn.cache_info().currsize}
    if warm:
        raise SystemExit(f"caches are not empty before the first operation: "
                         f"{warm}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_stats(tracer: Tracer, cached, stdout_bytes: int) -> dict:
    """Calls, self and inclusive seconds of every wrapped function, plus the
    argument probes and every cache's hit ratio."""
    out = {}
    for ix, name in enumerate(tracer.names):
        out[f"{name}.calls"] = tracer.calls[ix]
        out[f"{name}.self_s"] = tracer.self_s[ix]
        out[f"{name}.incl_s"] = tracer.incl_s[ix]
    out["linalg.rref_rows.calls_p2"] = tracer.rref_p2
    out["linalg.rref_rows.calls_podd"] = tracer.rref_podd
    for name in tracer.pair_args:
        out[f"{name}.distinct_ratio"] = tracer.distinct_ratio(name)
    searches = cached["ideals.minimal_ideals_over"].cache_info().misses
    out["ideals.closures_per_search"] = _ratio(
        tracer.stats("ideals.ideal_closure")[0], searches)
    out["cli.stdout_bytes"] = stdout_bytes
    hits = lookups = entries = 0
    for name, fn in cached.items():
        info = fn.cache_info()
        out[f"cache.{name}.hit_ratio"] = _ratio(info.hits,
                                                info.hits + info.misses)
        if name not in SETUP_CACHES:
            hits += info.hits
            lookups += info.hits + info.misses
            entries += info.currsize
    out["cache.hit_ratio"] = _ratio(hits, lookups)
    out["cache.entries"] = entries
    return out


def assert_nested(tracer: Tracer) -> None:
    """The wrappers must see calls between library modules: some RREF call
    has to run under a span of the ideals layer."""
    ideals = {ix for ix, n in enumerate(tracer.names) if n.startswith("ideals.")}
    rref = tracer.names.index("linalg.rref_rows")
    parent = tracer.span_parent
    for sid, name in enumerate(tracer.span_name):
        if name != rref:
            continue
        up = parent[sid]
        while up >= 0:
            if tracer.span_name[up] in ideals:
                return
            up = parent[up]
    raise SystemExit("trace saw no linalg.rref_rows call under the ideals "
                     "layer: the wrappers miss intra-library calls")


def run_pass(args) -> dict:
    modules = chieflie_modules()
    prepare, operations = WORKLOADS[args.workload]
    inputs = prepare(args.seed)
    with open(args.expected, encoding="utf-8") as fh:
        frozen = json.load(fh)
    expected = frozen[args.workload]
    # Whether this pass must produce exactly the frozen operations: always
    # on the fixed corpus, and on random_solvable at the frozen seed base.
    complete = (args.workload != "random_solvable"
                or args.seed == frozen["seed_base"])
    seen: set[str] = set()
    cached = cached_functions(modules)
    assert_cold(cached)
    tracer = Tracer.install(chieflie, modules) if args.trace else None

    first_op = time.monotonic()
    setup_s = first_op - args.t0
    op_s, failures = [], []
    failed = raised = stdout_bytes = 0
    ops = operations(inputs)
    while args.limit is None or len(op_s) < args.limit:
        if tracer is not None:
            tracer.op = len(op_s)
        try:
            key, seconds, observed, problems = next(ops)
        except StopIteration:
            break
        except Exception as e:  # an operation raised: count it, end the pass
            raised = 1
            failures.append(f"operation {len(op_s) + 1} raised "
                            f"{type(e).__name__}: {e}")
            break
        want = expected.get(key)
        if want is not None and want != observed:
            problems = problems + [f"output {observed} differs from the "
                                   f"frozen {want}"]
        if key in seen:
            problems = problems + ["operation repeated"]
        elif want is None and complete:
            problems = problems + ["operation has no frozen output"]
        seen.add(key)
        if args.workload == "cli_analyze":
            stdout_bytes += observed["bytes"]
        op_s.append(seconds)
        if problems:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{key}: " + "; ".join(problems))
    wall_s = time.monotonic() - first_op
    # A frozen operation the pass never ran counts as a failed one.
    missing = [k for k in expected if k not in seen] \
        if complete and args.limit is None and not raised else []
    if missing:
        failures.append(f"{len(missing)} frozen operations not run, "
                        f"first {missing[0]}")

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": op_s,
        "attempted": len(op_s) + raised + len(missing),
        "failed": failed + raised + len(missing),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced": tracer is not None,
    }
    if tracer is not None:
        assert_nested(tracer)
        result["layers"] = layer_stats(tracer, cached, stdout_bytes)
        result["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write_spans(Path(args.spans))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--limit", type=int, default=None,
                    help="stop after this many operations")
    ap.add_argument("--expected", default=str(Path(__file__).with_name(
        "expected.json")), help="frozen outputs to check against")
    ap.add_argument("--spans", default=None,
                    help="write the traced pass's spans to this file")
    args = ap.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
