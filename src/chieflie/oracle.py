"""Brute-force reference implementations used to cross-check the fast
algorithms on small inputs.

Everything here enumerates subspaces or vectors outright and tests the
defining property directly, sharing no logic with the production code paths
beyond the bracket itself; oracle_rref_rows is the plain elimination that
the packed kernel of rref_rows must match over every field, and
oracle_supplements, oracle_complements and oracle_descends_to are the raw
sum and meet tests that supplements_of, complements_among and descends_to
replace.  Budget limits of the subspace enumerator apply, so these are only
usable for small n and p.
"""

from __future__ import annotations

from itertools import product

from .algebra import LieAlgebra, bracket
from .field import prime_field
from .linalg import (Rows, Subspace, enumerate_subspaces, subspace_intersect,
                     subspace_leq, subspace_sum)


def oracle_rref_rows(rows, p: int) -> Rows:
    """Generic tuple RREF for every p, re-reducing entries mod p at each
    test; the reference the packed kernel of rref_rows matches."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    inv = prime_field(p).inv_table
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        head = inv[mat[r][c] % p]
        row = mat[r] = [(head * x) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c] % p
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], row)]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(x % p for x in row) for row in mat[:r] if any(x % p for x in row))


def _closed_under_bracket(l: LieAlgebra, u: Subspace, w: Subspace) -> bool:
    """True when [u, w] <= u, checked row by row."""
    for x in u.rows:
        for y in w.rows:
            if any(u.reduce(bracket(l, x, y))):
                return False
    return True


def oracle_ideal_closure(l: LieAlgebra, seed: Subspace) -> Subspace:
    """Smallest ideal containing seed: iterate U -> U + [L, U] until the
    dimension stops growing."""
    u, last = seed, -1
    while u.dim != last:
        last = u.dim
        u = Subspace(l.n, l.p, u.rows + tuple(
            bracket(l, x, y) for x in l.full.rows for y in u.rows))
    return u


def oracle_subalgebras(l: LieAlgebra, cap: int = 120_000) -> list[Subspace]:
    return [u for u in enumerate_subspaces(l.n, l.p, count_cap=cap)
            if _closed_under_bracket(l, u, u)]


def oracle_ideals(l: LieAlgebra, cap: int = 120_000) -> list[Subspace]:
    return [u for u in enumerate_subspaces(l.n, l.p, count_cap=cap)
            if _closed_under_bracket(l, u, l.full)]


def oracle_maximal_subalgebras(l: LieAlgebra, cap: int = 120_000) -> list[Subspace]:
    proper = [u for u in oracle_subalgebras(l, cap) if u.dim < l.n]
    return [u for u in proper
            if not any(u.dim < v.dim and subspace_leq(u, v) for v in proper)]


def oracle_frattini(l: LieAlgebra, cap: int = 120_000) -> Subspace:
    maxes = oracle_maximal_subalgebras(l, cap)
    acc = l.full
    for m in maxes:
        inter = [row for row in acc.vectors() if not any(m.reduce(row))]
        acc = Subspace(l.n, l.p, inter)
    return acc


def oracle_core(l: LieAlgebra, u: Subspace, cap: int = 120_000) -> Subspace:
    inside = [i for i in oracle_ideals(l, cap) if subspace_leq(i, u)]
    return max(inside, key=lambda s: s.dim)


def oracle_minimal_ideals_over(l: LieAlgebra, b: Subspace,
                               within: Subspace | None = None,
                               cap: int = 120_000) -> list[Subspace]:
    top = within if within is not None else l.full
    over = [a for a in oracle_ideals(l, cap)
            if b.dim < a.dim and subspace_leq(b, a) and subspace_leq(a, top)]
    mins = [a for a in over
            if not any(c.dim < a.dim and subspace_leq(b, c) and subspace_leq(c, a)
                       for c in over)]
    mins.sort(key=lambda s: s.key())
    return mins


def oracle_is_chief(l: LieAlgebra, a: Subspace, b: Subspace,
                    cap: int = 120_000) -> bool:
    ideals = oracle_ideals(l, cap)
    if a.rows not in {i.rows for i in ideals}:
        return False
    if b.rows not in {i.rows for i in ideals}:
        return False
    if not (subspace_leq(b, a) and b.dim < a.dim):
        return False
    return not any(b.dim < c.dim < a.dim and subspace_leq(b, c)
                   and subspace_leq(c, a) for c in ideals)


def oracle_supplements(l: LieAlgebra, a: Subspace, b: Subspace,
                       pool) -> tuple[Subspace, ...]:
    """The M in pool with A + M = L and B <= M, by building the sum."""
    return tuple(m for m in pool
                 if subspace_sum(a, m) == l.full and subspace_leq(b, m))


def oracle_complements(l: LieAlgebra, a: Subspace, b: Subspace,
                       pool) -> tuple[Subspace, ...]:
    """The supplements M in pool with A n M = B, by building the meet."""
    return tuple(m for m in oracle_supplements(l, a, b, pool)
                 if subspace_intersect(a, m) == b)


def oracle_descends_to(f, g) -> bool:
    """Chief factor A/B descends onto C/D: B + C = A and B n C = D."""
    return (subspace_sum(f.b, g.a) == f.a
            and subspace_intersect(f.b, g.a) == g.b)


def oracle_centralizer(l: LieAlgebra, a: Subspace, b: Subspace,
                       cap: int = 120_000) -> Subspace:
    """Span of every vector x with [x, a] <= b, found by scanning GF(p)^n."""
    return Subspace(l.n, l.p, [x for x in product(range(l.p), repeat=l.n)
                               if all(not any(b.reduce(bracket(l, x, y)))
                                      for y in a.rows)])


def oracle_chief_series_count(l: LieAlgebra, cap: int = 120_000) -> int:
    """Number of maximal chains 0 = I_0 < ... < I_k = L in the ideal lattice;
    every maximal chain automatically has chief steps."""
    ideals = oracle_ideals(l, cap)

    def count_from(cur: Subspace) -> int:
        if cur.dim == l.n:
            return 1
        over = [a for a in ideals if cur.dim < a.dim and subspace_leq(cur, a)]
        step = [a for a in over
                if not any(c.dim < a.dim and subspace_leq(cur, c)
                           and subspace_leq(c, a) for c in over)]
        return sum(count_from(a) for a in step)

    return count_from(l.zero_space)
