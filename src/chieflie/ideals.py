"""Ideal-theoretic machinery: closures, cores, centralizers, minimal ideals,
socle, derived series and chief series.

Everything is exact; the expensive entry points are memoized on the frozen
algebra/subspace values because the series machinery revisits the same
factors constantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .algebra import (LieAlgebra, _check_subspaces, ad_matrix, is_ideal,
                      subspace_product)
from .linalg import (BudgetExceeded, Subspace, _hash_once, quotient_coords,
                     spin, subspace_intersect, subspace_leq, subspace_sum)

# Scans of more lines than this spin only an ad x Fitting cover's lines
# (_direction_scan).  Choosing x costs more than a short scan saves: at 0,
# a seed-0 random_solvable pass (scans of at most 121 lines) took 1.8-2.1 s,
# not 0.6-0.8 s (in-process, 2-vCPU Xeon VM, Python 3.11, October 2026);
# sl2sum(5)'s 3,906-line scan restricts to 14 lines.
RESTRICT_ABOVE_LINES = 200
# Cap on the direction lines all_ideals' searches close.  abelian(5, 3)
# needs 25,652 and random_solvable(7, 5, 0) 16,640; abelian(5, 5), at
# 874,720, closes about 10,000 a second.
IDEAL_SCAN_CAP = 30_000


def ideal_closure(l: LieAlgebra, seed: Subspace,
                  base: Subspace | None = None) -> Subspace:
    """Smallest ideal containing seed and base: linalg.spin of seed under
    ad L, which maps only rows new to the span.  base must already be an
    ideal (unchecked), so it is never spun."""
    _check_subspaces(l, seed, l.zero_space if base is None else base)
    out = spin(l.ad_maps, seed, base)
    return l.full if out.dim == l.n else out


def subalgebra_closure(l: LieAlgebra, seed: Subspace) -> Subspace:
    """Smallest subalgebra containing seed: iterate U -> U + [U, U]."""
    u = seed
    while True:
        nxt = subspace_sum(u, subspace_product(l, u, u))
        if nxt.dim == u.dim:
            return nxt
        u = nxt


@lru_cache(maxsize=None)
def core(l: LieAlgebra, u: Subspace) -> Subspace:
    """Largest ideal of L contained in U, by descending iteration
    U_{k+1} = U_k n C_L(L/U_k), the x in U_k with [L, x] <= U_k, until
    U_k <= C_L(L/U_k)."""
    while True:
        c = centralizer_of_factor(l, l.full, u)
        if subspace_leq(u, c):
            return u
        u = subspace_intersect(u, c)


def centralizer_of_factor(l: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """C_L(A/B) = {x : [x, A] <= B}; an ideal whenever A, B are ideals."""
    _check_subspaces(l, a, b)
    if not subspace_leq(b, a):
        raise ValueError("centralizer_of_factor needs B <= A")
    return l.ad_maps.sending(a, b)


def centralizer(l: LieAlgebra, a: Subspace) -> Subspace:
    return centralizer_of_factor(l, a, l.zero_space)


@lru_cache(maxsize=None)
def minimal_ideals_over(l: LieAlgebra, b: Subspace,
                        within: Subspace | None = None) -> tuple[Subspace, ...]:
    """Ideals A with A/B minimal in L/B (optionally restricted to A <= within,
    by filtering: an ideal between B and such an A lies in within too).

    Every candidate arises as the ideal closure of B plus a single direction,
    so closing over all coset directions and keeping the inclusion-minimal
    results is exhaustive.  A line's spin stops as soon as its span holds
    the seed line of a closure C kept earlier: C then lies in this closure,
    which is C again or not minimal.  No minimal N is lost: the first line
    of N to be spun spans only inside N, so a seed it swallowed would close
    to N itself, and so be an earlier line of N.  Every closure that is not
    minimal contains a minimal one, which is kept, so filtering the kept
    closures gives the answer of all of them.  A span of dim B + 1 is
    B + <v> and holds no other line's seed, so it is not tested.
    """
    if not ideal_lattice(l).per_ideal(is_ideal, b):
        raise ValueError("base of minimal_ideals_over must be an ideal")
    if within is not None:
        if not subspace_leq(b, within):
            raise ValueError("within must contain the base ideal")
        return tuple(a for a in minimal_ideals_over(l, b)
                     if subspace_leq(a, within))
    qc, spaces = ideal_lattice(l).per_ideal(_direction_scan, b)
    seeds, closures = [], set()
    for line in qc.lines(spaces):
        c = spin(l.ad_maps, line, b, seeds)
        if c is not None:
            seeds.append(line)
            closures.add(c)
    mins = [c for c in closures if not any(
        o.dim < c.dim and subspace_leq(o, c) for o in closures)]
    return tuple(sorted(mins, key=Subspace.key))


def minimal_ideals(l: LieAlgebra) -> tuple[Subspace, ...]:
    return minimal_ideals_over(l, l.zero_space)


def socle(l: LieAlgebra) -> Subspace:
    return reduce(subspace_sum, minimal_ideals(l), l.zero_space)


def derived_series(l: LieAlgebra) -> list[Subspace]:
    series = [l.full]
    while True:
        nxt = subspace_product(l, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_solvable(l: LieAlgebra) -> bool:
    return derived_series(l)[-1].dim == 0


@lru_cache(maxsize=None)
def is_chief_pair(l: LieAlgebra, a: Subspace, b: Subspace) -> bool:
    """A/B is a chief factor: both ideals, B < A, nothing of L strictly
    between, that is A is a minimal ideal over B.  Membership makes A an
    ideal with B < A, so only B is tested, first, as the search needs."""
    _check_subspaces(l, a, b)
    return (ideal_lattice(l).per_ideal(is_ideal, b)
            and a in minimal_ideals_over(l, b))


def _direction_scan(l: LieAlgebra, b: Subspace):
    """(qc, spaces) over the ideal B, built once per B for all_ideals'
    budget and the search: qc = quotient_coords(L, B), and spaces None (all
    lines) up to RESTRICT_ABOVE_LINES lines, else the Fitting cover of ad x
    on L/B, which every ideal N/B meets, with fewest lines, for x a basis
    row, all-ones or (1, 2, ..., n)."""
    qc = quotient_coords(l.full, b)
    if qc.line_count() <= RESTRICT_ABOVE_LINES:
        return qc, None
    ramp = tuple((i + 1) % l.p for i in range(l.n))
    covers = [ad_matrix(l, x, qc).fitting_cover()
              for x in l.full.rows + ((1,) * l.n, ramp)]
    return qc, min(covers, key=qc.line_count)


def all_ideals(l: LieAlgebra) -> tuple[Subspace, ...]:
    """Every ideal, by growth through minimal overideals; refuses
    (BudgetExceeded) before its searches close IDEAL_SCAN_CAP lines."""
    seen = {l.zero_space}
    queue = [l.zero_space]
    lines = 0
    while queue:
        cur = queue.pop()
        qc, spaces = ideal_lattice(l).per_ideal(_direction_scan, cur)
        lines += qc.line_count(spaces)
        if lines > IDEAL_SCAN_CAP:
            raise BudgetExceeded(
                f"ideal enumeration past {len(seen)} ideals would close "
                f"{lines} direction lines, over cap {IDEAL_SCAN_CAP}", lines)
        for nxt in minimal_ideals_over(l, cur):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(sorted(seen, key=lambda s: s.key()))


class IdealLattice:
    """Answers about the ideals of one algebra L (unchecked), each computed
    once: joins and meets of pairs, each result interned (equal answers are
    one object), a number for each ideal, and per_ideal answers such as
    is_ideal, a Frattini preimage, a chief series' term numbers or a chief
    factor's landings along series (jordanholder)."""

    def __init__(self, l: LieAlgebra):
        self.l = l
        self._ideals, self._joins, self._meets, self._answers = {}, {}, {}, {}
        self._numbers = {}

    def number(self, u: Subspace) -> int:
        """U's number: how many ideals were numbered before it, so a table
        keyed by numbers hashes ints, not subspaces."""
        return self._numbers.setdefault(u, len(self._numbers))

    def per_ideal(self, fn, u, *more):
        """fn(L, U, *more), computed once per function and arguments; U is
        an ideal, or a value such as a chief series or factor."""
        table = self._answers.setdefault(fn, {})
        key = (u, *more) if more else u
        try:
            return table[key]
        except KeyError:
            out = table[key] = fn(self.l, u, *more)
            return out

    def join(self, u: Subspace, v: Subspace) -> Subspace:
        return self._ask(self._joins, subspace_sum, u, v)

    def meet(self, u: Subspace, v: Subspace) -> Subspace:
        return self._ask(self._meets, subspace_intersect, u, v)

    def _ask(self, table, op, u, v):
        try:
            return table[u][v]
        except KeyError:
            out = op(u, v)
            out = self._ideals.setdefault(out, out)
            table.setdefault(u, {})[v] = table.setdefault(v, {})[u] = out
            return out


# Without its joins and meets a seed-0 jh_corpus pass makes 5,385 sums of
# 567 ideal pairs and 6,257 meets of 550.
@lru_cache(maxsize=None)
def ideal_lattice(l: LieAlgebra) -> IdealLattice:
    return IdealLattice(l)


# ---------------------------------------------------------------------------
# chief series
# ---------------------------------------------------------------------------


@_hash_once
@dataclass(frozen=True)
class ChiefSeries:
    """A strictly ascending chain of ideals with chief quotients."""

    algebra: LieAlgebra
    terms: tuple[Subspace, ...]

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def factor_pairs(self):
        return [(self.terms[i + 1], self.terms[i]) for i in range(self.length)]

    def __repr__(self):
        return "ChiefSeries(" + " < ".join(
            f"dim{t.dim}" for t in self.terms) + ")"


def _term_numbers(l: LieAlgebra, series: ChiefSeries) -> tuple[int, ...]:
    """The lattice numbers of series' terms, kept once per series by
    ideal_lattice(l).per_ideal(_term_numbers, series)."""
    return tuple(map(ideal_lattice(l).number, series.terms))


def make_chief_series(l: LieAlgebra, terms) -> ChiefSeries:
    terms = tuple(terms)
    if len(terms) < 2:
        raise ValueError("a chief series needs at least two terms")
    for lo, hi in zip(terms, terms[1:]):
        if not (subspace_leq(lo, hi) and lo.dim < hi.dim):
            raise ValueError(f"series terms not strictly ascending at dims "
                             f"{lo.dim}, {hi.dim}")
        if not is_chief_pair(l, hi, lo):
            raise ValueError(f"series step of dims {lo.dim} -> {hi.dim} "
                             f"is not a chief factor")
    return ChiefSeries(l, terms)


def chief_series(l: LieAlgebra, frm: Subspace | None = None,
                 to: Subspace | None = None) -> ChiefSeries:
    """Canonical chief series from frm to to: always extend by the first
    minimal overideal in the (dim, rows) order."""
    return enumerate_chief_series(l, frm, to, cap=1).series[0]


@dataclass(frozen=True)
class SeriesEnumeration:
    series: tuple[ChiefSeries, ...]
    truncated: bool
    cap: int


def enumerate_chief_series(l: LieAlgebra, frm: Subspace | None = None,
                           to: Subspace | None = None,
                           cap: int = 5000) -> SeriesEnumeration:
    """All chief series from frm to to, depth-first in canonical order,
    stopping with truncated=True before a branch past the first cap series
    (every branch holds at least one series)."""
    if cap < 0:
        raise ValueError(f"series cap must be non-negative, got {cap}")
    frm = frm if frm is not None else l.zero_space
    to = to if to is not None else l.full
    _check_endpoints(l, frm, to)
    out: list[ChiefSeries] = []
    truncated = False

    def extend(prefix: tuple[Subspace, ...]) -> bool:
        nonlocal truncated
        if prefix[-1] == to:
            out.append(ChiefSeries(l, prefix))
            return True
        for nxt in minimal_ideals_over(l, prefix[-1]):
            if not subspace_leq(nxt, to):
                continue
            if len(out) == cap:
                truncated = True
                return False
            if not extend(prefix + (nxt,)):
                return False
        return True

    extend((frm,))
    return SeriesEnumeration(tuple(out), truncated, cap)


def _check_endpoints(l: LieAlgebra, frm: Subspace, to: Subspace) -> None:
    if not is_ideal(l, frm) or not is_ideal(l, to):
        raise ValueError("series endpoints must be ideals")
    if not subspace_leq(frm, to) or frm.dim >= to.dim:
        raise ValueError("series endpoints must satisfy frm < to")
