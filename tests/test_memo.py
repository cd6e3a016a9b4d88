"""The memo inventory: every process-global memo table and why it is kept.

A memo table holds strong references to its keys and values for the life of
the process and is never freed, so a function is memoised only when some
traffic asks it the same question again.  Each entry names that traffic.
"""

import importlib
import pkgutil

import chieflie

# Hits are from one seed-0 pass (jh = jh_corpus, rs = random_solvable,
# cli = cli_analyze) or from criterion 5 (tests/test_acceptance.py).
MEMOISED = {
    "field.prime_field": "every field operation; 41,147 hits on rs",
    "linalg.nonzero_directions": "scans of a seen shape; 768 hits on rs",
    "algebra.quotient_algebra": "maximal/Frattini recursion; 202 in crit. 5",
    "ideals.core": "the benchmark reads its hit ratio; 63 misses on cli",
    "ideals.minimal_ideals_over": "ideal and series searches; 2,599 on rs",
    "ideals.is_chief_pair": "factor and series checks; 2,089 hits on jh",
    "ideals.ideal_lattice": "per-ideal answers, transfers; 10,005 hits on rs",
    "maximal.is_maximal": "criterion 5, 8,446 hits (19-22 s without); 0 on rs",
    "maximal.algebra_isomorphisms": "criterion 5, 240 hits; 2 on cli",
    "maximal.maximal_subalgebras": "containment masks; 2,269 hits on rs",
    "maximal.frattini": "one Frattini preimage per denominator; 518 on rs",
    "maximal.maximal_records": "record_for, criterion 5, 266 hits; 11 on cli",
    "maximal.record_for": "criterion 5's supplement joins, 8,446 hits",
    "factors.get_factor": "sections, steps, series factors; 3,977 hits on jh",
    "factors.relation_table": "matching_permutations; 1,654 hits on jh",
    "factors.descends_to": "landings, crossings; 5,247 hits on jh",
    "factors._action_matrices": "both sides of l_isomorphic; 2,462 on jh",
    "factors.m_related": "the benchmark reads its hit ratio; no library caller",
    "jordanholder.transfer_supplemented": "series pairs; 2,784 hits on jh",
    "jordanholder.transfer_frattini": "series pairs; 666 hits on jh",
}


def _memoised_functions() -> set[str]:
    """Every function a chieflie module defines with a cache_info, found as
    perfbench/worker.py finds them, as 'module.function'."""
    modules = [chieflie] + [importlib.import_module(f"chieflie.{m.name}")
                            for m in pkgutil.iter_modules(chieflie.__path__)]
    out = set()
    for module in modules:
        short = module.__name__.removeprefix("chieflie.")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", None) == module.__name__:
                out.add(f"{short}.{name}")
    return out


def test_memo_inventory_is_declared():
    assert _memoised_functions() == set(MEMOISED)
