"""Command-line front end.

Commands::

    chieflie validate PATH                      axioms, solvability, derived series
    chieflie analyze PATH [--oracle on]         full structural report
    chieflie chief-series PATH [--cap N]        every chief series from 0 to L
    chieflie jh PATH FIRST SECOND               the matching permutation
    chieflie jh PATH --all-pairs [--cap N]      all ordered series pairs
    chieflie corpus list                        built-in algebras
    chieflie corpus export NAME [--out PATH]    write a built-in as a file

PATH is either an algebra file or ``corpus:NAME`` (with --field, plus --dim
for abelian and --dim/--seed for random; ``corpus export NAME`` takes the
same flags).  Series arguments are JSON lists of terms, each term a list of
spanning vectors (the zero term is ``[]``).

Exit codes: 0 success, 1 input error, 2 axiom or verification failure,
3 budget refusal.  All verification jobs run in a fixed deterministic order,
so repeated runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import LieAlgebra, ValidationError, validate
from .corpus import builtin, random_solvable, registry
from .errors import VerificationError
from .factors import series_factors
from .fileio import (AlgebraFileError, format_algebra, load_algebra,
                     save_algebra)
from .ideals import (chief_series, derived_series,
                     enumerate_chief_series, is_solvable, make_chief_series,
                     minimal_ideals, socle)
from .jordanholder import jh_permutation
from .linalg import ENUM_COUNT_CAP, BudgetExceeded, Subspace
from .maximal import (frattini, maximal_records, maximal_subalgebras,
                      primitive_type)
from .oracle import (oracle_core, oracle_frattini, oracle_maximal_subalgebras,
                     oracle_minimal_ideals_over)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_AXIOM = 2
EXIT_BUDGET = 3


class CliInputError(ValueError):
    """Bad command-line usage, mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


# -- shared helpers ----------------------------------------------------------


def _corpus_algebra(name: str, args) -> LieAlgebra:
    """The corpus algebra NAME over --field, with --dim and --seed."""
    if name == "random":
        if args.dim is None:
            raise CliInputError("corpus:random needs --dim")
        return random_solvable(args.dim, args.field, args.seed)
    return builtin(name, args.field, dim=args.dim)


def _load_target(args, check: bool = True) -> LieAlgebra:
    """Resolve PATH or corpus:NAME into an algebra; check validates files."""
    target = args.path
    if target.startswith("corpus:"):
        return _corpus_algebra(target[len("corpus:"):], args)
    try:
        return load_algebra(target, check=check)
    except OSError as e:
        raise CliInputError(f"cannot read {target}: {e.strerror}")


def _axiom_lines(l: LieAlgebra, report) -> list[str]:
    if report.kind == "antisymmetry":
        i, j = report.triple
        # at i = j the entry itself must vanish (over GF(2), a + a = 0)
        rhs = report.rhs if i != j else (0,) * l.n
        ks = [k for k in range(l.n) if (report.lhs[k] + rhs[k]) % l.p]
        where = (i + 1, j + 1, ks[0] + 1)
        return [f"antisymmetry error at {where}",
                f"  [e{i + 1}, e{j + 1}] = {list(report.lhs)} but "
                f"[e{j + 1}, e{i + 1}] = {list(report.rhs)}"]
    i, j, k = report.triple
    return [f"jacobi error at ({i + 1}, {j + 1}, {k + 1})",
            f"  cyclic sum = {list(report.lhs)}"]


def _rows_text(s: Subspace) -> str:
    if s.dim == 0:
        return "0"
    return "; ".join(" ".join(str(x) for x in r) for r in s.rows)


def _span_list(l: LieAlgebra, vectors, which: str) -> Subspace:
    vs = []
    for v in vectors:
        if not isinstance(v, (list, tuple)) or len(v) != l.n or \
                not all(type(x) is int for x in v):
            raise CliInputError(f"{which} series: each vector must be a "
                                f"list of {l.n} integers, got {v!r}")
        vs.append(tuple(v))
    return Subspace.span(l.n, l.p, vs)


def _parse_series_arg(l: LieAlgebra, text: str, which: str):
    try:
        terms = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliInputError(f"{which} series is not valid JSON: {e}")
    if not isinstance(terms, list) or not terms or \
            not all(isinstance(t, list) for t in terms):
        raise CliInputError(f"{which} series must be a nonempty JSON list "
                            "of terms, each a list of vectors")
    spans = [_span_list(l, t, which) for t in terms]
    try:
        return make_chief_series(l, spans)
    except ValueError as e:
        raise CliInputError(f"{which} series is not a chief series: {e}")


def _cycle_text(sigma) -> str:
    seen = set()
    parts = []
    for start in range(1, len(sigma) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = sigma[start - 1]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt - 1]
        if len(cycle) > 1:
            parts.append("(" + " ".join(str(c) for c in cycle) + ")")
    return "".join(parts) if parts else "id"


# -- commands ----------------------------------------------------------------


def cmd_validate(args) -> int:
    l = _load_target(args, check=False)
    print(f"field: GF({l.p})")
    print(f"dim: {l.n}")
    report = validate(l)
    if not report.ok:
        for line in _axiom_lines(l, report):
            print(line)
        return EXIT_AXIOM
    print("axioms: ok")
    ds = derived_series(l)
    solvable = ds[-1].dim == 0
    print(f"solvable: {'yes' if solvable else 'no'}")
    print("derived series dims: " + " ".join(str(t.dim) for t in ds))
    if all(x == 0 for plane in l.sc for row in plane for x in row):
        print("valid, abelian")
    elif solvable:
        print(f"valid, solvable, derived length {len(ds) - 1}")
    else:
        print("valid, not solvable")
    return EXIT_OK


def _oracle_crosscheck(l: LieAlgebra, cap: int) -> None:
    if set(minimal_ideals(l)) != set(
            oracle_minimal_ideals_over(l, l.zero_space, cap=cap)):
        raise VerificationError("minimal ideals disagree with brute force")
    fast_max = set(maximal_subalgebras(l))
    if fast_max != set(oracle_maximal_subalgebras(l, cap=cap)):
        raise VerificationError(
            "maximal subalgebras disagree with brute force")
    if frattini(l) != oracle_frattini(l, cap=cap):
        raise VerificationError(
            "Frattini subalgebra disagrees with brute force")
    for rec in maximal_records(l):
        if rec.core != oracle_core(l, rec.subalgebra, cap=cap):
            raise VerificationError("a core disagrees with brute force")


def cmd_analyze(args) -> int:
    l = _load_target(args)
    if args.oracle == "on":
        _oracle_crosscheck(l, args.cap)
    minimals = minimal_ideals(l)
    soc = socle(l)
    records = maximal_records(l)
    phi = frattini(l)
    prim = primitive_type(l)
    series = chief_series(l)
    factors = series_factors(series)
    if args.format == "structured":
        doc = {
            "dim": l.n, "field": l.p,
            "labels": list(l.labels) if l.labels else None,
            "solvable": is_solvable(l),
            "minimal_ideals": [[list(r) for r in m.rows] for m in minimals],
            "socle_dim": soc.dim,
            "maximal_subalgebras": [
                {"rows": [list(r) for r in rec.subalgebra.rows],
                 "core_dim": rec.core.dim} for rec in records],
            "frattini": [list(r) for r in phi.rows],
            "primitive_type": int(prim.kind),
            "chief_series": [[list(r) for r in t.rows] for t in series.terms],
            "chief_factors": [
                {"dim": f.dim, "abelian": f.abelian,
                 "classification": f.classification,
                 "supplement_count": len(f.supplements),
                 "complement_count": len(f.complements)} for f in factors],
            "oracle_checked": args.oracle == "on",
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    label_text = " ".join(l.labels) if l.labels else "(default)"
    print(f"algebra: dim {l.n} over GF({l.p}), labels {label_text}")
    print(f"solvable: {'yes' if is_solvable(l) else 'no'}")
    print(f"minimal ideals: {len(minimals)} "
          f"(dims {' '.join(str(m.dim) for m in minimals)})")
    print(f"socle: dim {soc.dim}")
    print(f"maximal subalgebras: {len(records)}")
    for rec in records:
        print(f"  dim {rec.subalgebra.dim}, core dim {rec.core.dim}")
    print(f"frattini: dim {phi.dim}" +
          (f", basis {_rows_text(phi)}" if phi.dim else ""))
    kind = int(prim.kind)
    if kind == 0:
        print("primitivity: not primitive")
    else:
        print(f"primitivity: type {kind}, core-free maximal of dim "
              f"{prim.witness.dim}")
    print("chief series dims: " + " ".join(str(t.dim) for t in series.terms))
    for idx, f in enumerate(factors, start=1):
        shape = "abelian" if f.abelian else "nonabelian"
        print(f"  factor {idx}: dim {f.dim}, {shape}, {f.classification}"
              f" ({len(f.supplements)} supplements,"
              f" {len(f.complements)} complements)")
    if args.oracle == "on":
        print("oracle cross-checks: ok")
    return EXIT_OK


def cmd_chief_series(args) -> int:
    l = _load_target(args)
    enum = enumerate_chief_series(l, cap=args.cap)
    if args.format == "structured":
        doc = {
            "count": len(enum.series),
            "truncated": enum.truncated,
            "series": [[[list(r) for r in t.rows] for t in s.terms]
                       for s in enum.series],
        }
        print(json.dumps(doc, indent=2))
    else:
        for idx, s in enumerate(enum.series, start=1):
            steps = " < ".join(_rows_text(t) for t in s.terms)
            print(f"series {idx}: {steps}")
        print(f"total: {len(enum.series)}")
    if enum.truncated:
        print(f"error: enumeration truncated at cap {args.cap}",
              file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _print_jh_text(rep) -> None:
    print(f"sigma = {_cycle_text(rep.sigma)}")
    for m in rep.matches:
        shared = []
        if m.factor.supplemented:
            shared.append(f"{len(m.shared_supplements)} shared supplements")
        if m.factor.complemented:
            shared.append(f"{len(m.shared_complements)} shared complements")
        extra = (", " + ", ".join(shared)) if shared else ""
        print(f"index {m.position} -> {m.image}: dim {m.factor.dim}, "
              f"{m.factor.classification}, case {m.relation.case}, "
              f"connection {m.connection.mode}, "
              f"transfer {m.transfer.case}{extra}")
    print("verified: bijection, relatedness, parity and shared "
          "supplements at every index")


def cmd_jh(args) -> int:
    l = _load_target(args)
    if args.all_pairs:
        if args.first is not None or args.second is not None:
            raise CliInputError("--all-pairs replaces the series arguments")
        enum = enumerate_chief_series(l, cap=args.cap)
        if enum.truncated:
            print(f"error: series enumeration truncated at cap {args.cap}",
                  file=sys.stderr)
            return EXIT_BUDGET
        count = len(enum.series)
        if count * count > ENUM_COUNT_CAP:
            raise BudgetExceeded(f"{count} chief series make {count * count} "
                                 f"ordered pairs, over {ENUM_COUNT_CAP}",
                                 count * count)
        reports = [jh_permutation(a, b)
                   for a in enum.series for b in enum.series]
        if args.format == "structured":
            print(json.dumps([r.to_dict() for r in reports], indent=2))
        else:
            for idx, rep in enumerate(reports):
                i, j = divmod(idx, len(enum.series))
                print(f"pair ({i + 1}, {j + 1}): "
                      f"sigma = {_cycle_text(rep.sigma)}")
            print(f"{len(reports)} ordered pairs verified")
        return EXIT_OK
    if args.first is None or args.second is None:
        raise CliInputError("need FIRST and SECOND series, or --all-pairs")
    first = _parse_series_arg(l, args.first, "first")
    second = _parse_series_arg(l, args.second, "second")
    rep = jh_permutation(first, second)
    if args.format == "structured":
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        _print_jh_text(rep)
    return EXIT_OK


def cmd_corpus(args) -> int:
    if args.corpus_command == "list":
        if args.format == "structured":
            doc = [{"name": e.name, "dim": e.dim, "field": e.p,
                    "expected": e.expected} for e in registry()]
            print(json.dumps(doc, indent=2))
        else:
            for e in registry():
                print(f"{e.name}: dim {e.dim} over GF({e.p}), "
                      f"{e.expected['maximal_subalgebras']} maximal "
                      f"subalgebras, {e.expected['chief_series']} chief "
                      f"series")
        return EXIT_OK
    # export
    l = _corpus_algebra(args.name, args)
    if args.out:
        save_algebra(l, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_algebra(l))
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


def _add_target_flags(sub):
    sub.add_argument("--field", type=int, default=2,
                     help="prime for corpus: targets (default 2)")
    sub.add_argument("--dim", type=int, default=None,
                     help="dimension for corpus:abelian / corpus:random")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for corpus:random (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chieflie",
                     description="chief-factor machinery for Lie algebras "
                                 "over prime fields")
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("validate", help="check the Lie axioms")
    v.add_argument("path")
    _add_target_flags(v)
    v.set_defaults(func=cmd_validate)

    a = subs.add_parser("analyze", help="full structural report")
    a.add_argument("path")
    _add_target_flags(a)
    a.add_argument("--cap", type=int, default=120_000,
                   help="enumeration budget for oracle checks")
    a.add_argument("--format", choices=("text", "structured"), default="text")
    a.add_argument("--oracle", choices=("on", "off"), default="off",
                   help="cross-check against brute-force enumeration")
    a.set_defaults(func=cmd_analyze)

    c = subs.add_parser("chief-series", help="enumerate all chief series")
    c.add_argument("path")
    _add_target_flags(c)
    c.add_argument("--cap", type=int, default=5000,
                   help="maximum number of series to enumerate")
    c.add_argument("--format", choices=("text", "structured"), default="text")
    c.set_defaults(func=cmd_chief_series)

    j = subs.add_parser("jh", help="matching permutation between two series")
    j.add_argument("path")
    j.add_argument("first", nargs="?", default=None,
                   help="JSON list of terms, each a list of vectors")
    j.add_argument("second", nargs="?", default=None)
    _add_target_flags(j)
    j.add_argument("--all-pairs", action="store_true",
                   help="run every ordered pair of chief series")
    j.add_argument("--cap", type=int, default=5000)
    j.add_argument("--format", choices=("text", "structured"), default="text")
    j.set_defaults(func=cmd_jh)

    k = subs.add_parser("corpus", help="built-in algebras")
    ksubs = k.add_subparsers(dest="corpus_command", required=True)
    kl = ksubs.add_parser("list")
    kl.add_argument("--format", choices=("text", "structured"),
                    default="text")
    kl.set_defaults(func=cmd_corpus)
    ke = ksubs.add_parser("export")
    ke.add_argument("name")
    _add_target_flags(ke)
    ke.add_argument("--out", default=None)
    ke.set_defaults(func=cmd_corpus)

    return parser


# Built on the first call to main; parsing leaves the parser unchanged.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args, extra = _parser.parse_known_args(argv)
        # argparse binds jh's optional FIRST and SECOND, empty, together
        # with PATH, so series given after a flag come back left over.
        while args.command == "jh" and args.second is None and extra \
                and not extra[0].startswith("-"):
            slot = "first" if args.first is None else "second"
            setattr(args, slot, extra.pop(0))
        if extra:
            _parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if getattr(args, "cap", 0) < 0:
            raise CliInputError(f"--cap must be non-negative, got {args.cap}")
        return args.func(args)
    except (CliInputError, AlgebraFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_AXIOM
    except VerificationError as e:
        print(f"error: verification failed: {e}", file=sys.stderr)
        return EXIT_AXIOM
    except BudgetExceeded as e:
        print(f"error: budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
