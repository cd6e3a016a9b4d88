"""The three benchmark workloads: inputs, operations and output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  `prepare` builds the inputs (this is set-up
time); `operations` yields one `(key, seconds, observed, problems)` tuple per
operation, where `seconds` times only the library calls, `observed` is the
output frozen in expected.json and `problems` lists failed invariant checks.

Library functions are looked up on their modules at call time, so that the
traced run sees the calls through the wrappers installed after set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time

from chieflie import algebra, cli, corpus, factors, ideals, jordanholder

# Chief-series enumeration cap of one random_solvable operation.
SERIES_CAP = 64
# Algebras per random_solvable pass: (p, how many with dim [L, L] <= 2, how
# many with dim [L, L] >= 3).  The derived algebra's dimension predicts an
# operation's cost (over GF(2) about 0.25 s at <= 2 and 0.1 s at >= 3), so
# fixing the mix keeps a pass's work steady while the seed base changes which
# algebras are drawn.  The quotas are the natural shares, rounded: among
# random_solvable(5, p, s) for s = 0..1999, dim [L, L] <= 2 holds for 53.4%
# over GF(2) (13 of 24) and 64.8% over GF(3) (5 of 8).
RANDOM_QUOTAS = ((2, 13, 11), (3, 5, 3))


# -- jh_corpus ---------------------------------------------------------------


def jh_corpus_prepare(seed: int):
    """Every corpus algebra of criterion 3: n <= 4 and p <= 3."""
    return [e for e in corpus.registry() if e.dim <= 4 and e.p <= 3]


def _jh_problems(rep, perms) -> list[str]:
    """Criterion 3's checks on one ordered pair of chief series."""
    out = []
    n = rep.first.length
    if sorted(rep.sigma) != list(range(1, n + 1)):
        out.append(f"sigma {rep.sigma} is not a permutation")
    for m in rep.matches:
        if m.relation is None or m.relation.middle is None:
            out.append(f"index {m.position}: no relation witness")
        if m.connection is None:
            out.append(f"index {m.position}: no connection")
        if m.factor.frattini != m.partner.frattini:
            out.append(f"index {m.position}: Frattini parity differs")
        if m.factor.supplemented and m.partner.supplemented \
                and not m.shared_supplements:
            out.append(f"index {m.position}: no shared supplement")
        if m.factor.complemented and m.partner.complemented \
                and not m.shared_complements:
            out.append(f"index {m.position}: no shared complement")
    if perms != (rep.sigma,):
        out.append(f"matching permutations {perms} are not exactly sigma")
    return out


def jh_corpus_operations(scope):
    clock = time.perf_counter
    for e in scope:
        enum = ideals.enumerate_chief_series(e.algebra)
        if enum.truncated:
            raise RuntimeError(f"{e.name}: chief series enumeration truncated")
        for i, first in enumerate(enum.series):
            for j, second in enumerate(enum.series):
                start = clock()
                rep = jordanholder.jh_permutation(first, second)
                perms = jordanholder.matching_permutations(first, second)
                seconds = clock() - start
                yield (f"{e.name}/{i}/{j}", seconds, list(rep.sigma),
                       _jh_problems(rep, perms))


# -- cli_analyze ---------------------------------------------------------------


def cli_analyze_prepare(seed: int):
    """One `chieflie analyze corpus:NAME --field P` command per registry
    entry, named by the entry."""
    targets = []
    for e in corpus.registry():
        family = e.name.split("(")[0]
        argv = ["analyze", f"corpus:{family}", "--field", str(e.p)]
        if family == "abelian":
            argv += ["--dim", str(e.dim)]
        targets.append((e.name, argv))
    return targets


def cli_analyze_operations(targets):
    clock = time.perf_counter
    for name, argv in targets:
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds = clock() - start
        text = out.getvalue().encode()
        problems = [] if code == 0 else [f"exit code {code}"]
        observed = {"sha256": hashlib.sha256(text).hexdigest(),
                    "bytes": len(text)}
        yield name, seconds, observed, problems


# -- random_solvable -----------------------------------------------------------


def random_solvable_prepare(seed: int):
    """Seeded random solvable algebras of dimension 5 over GF(2) and GF(3):
    seeds from the base (the run's --seed) upward, each kept while the quota
    of its derived-algebra dimension is open."""
    algebras = []
    for p, low, high in RANDOM_QUOTAS:
        open_quota = {True: low, False: high}
        s = seed
        while open_quota[True] or open_quota[False]:
            l = corpus.random_solvable(5, p, s)
            low_derived = algebra.subspace_product(l, l.full, l.full).dim <= 2
            if open_quota[low_derived]:
                open_quota[low_derived] -= 1
                if not ideals.is_solvable(l):   # criterion 6's premise
                    raise RuntimeError(f"random_solvable(5, {p}, {s}) is "
                                       f"not solvable")
                algebras.append((p, s, l))
            s += 1
    return algebras


def _classes(catalog) -> str:
    return "".join("F" if f.frattini else "C" if f.complemented else "S"
                   for f in catalog)


def random_solvable_operations(algebras):
    clock = time.perf_counter
    for p, s, l in algebras:
        start = clock()
        catalog = factors.chief_factor_catalog(l)
        enum = ideals.enumerate_chief_series(l, cap=SERIES_CAP)
        first, last = enum.series[0], enum.series[-1]
        forward = jordanholder.jh_permutation(first, last)
        backward = jordanholder.jh_permutation(last, first)
        seconds = clock() - start
        problems = []
        # criterion 6: solvable, so Frattini xor complemented, and Frattini
        # iff no maximal supplement
        for k, f in enumerate(catalog):
            if f.frattini == f.complemented:
                problems.append(f"factor {k}: Frattini and complemented agree")
            if f.frattini != (len(f.supplements) == 0):
                problems.append(f"factor {k}: Frattini flag disagrees with "
                                f"{len(f.supplements)} supplements")
        for rep in (forward, backward):
            n = rep.first.length
            if sorted(rep.sigma) != list(range(1, n + 1)):
                problems.append(f"sigma {rep.sigma} is not a permutation")
        observed = {"classes": _classes(catalog),
                    "sigma": [list(forward.sigma), list(backward.sigma)]}
        yield f"{p}:{s}", seconds, observed, problems


WORKLOADS = {
    "jh_corpus": (jh_corpus_prepare, jh_corpus_operations),
    "cli_analyze": (cli_analyze_prepare, cli_analyze_operations),
    "random_solvable": (random_solvable_prepare, random_solvable_operations),
}
