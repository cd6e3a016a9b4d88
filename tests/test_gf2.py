"""The packed GF(2) path of Subspace, is_ideal and ideal_closure against
references built on tuples with oracle_rref_rows and bracket only."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chieflie.algebra import bracket, is_ideal
from chieflie.corpus import abelian, heisenberg, random_solvable, registry
from chieflie.ideals import all_ideals, ideal_closure
from chieflie.linalg import (Subspace, enumerate_subspaces, subspace_intersect,
                             subspace_leq, subspace_sum, unit)
from chieflie.oracle import oracle_rref_rows

GF2_CORPUS = [e.algebra for e in registry() if e.algebra.p == 2]


def _rows(n, max_size=None):
    row = st.tuples(*[st.integers(0, 1)] * n)
    return st.lists(row, max_size=n + 2 if max_size is None else max_size)


def _span(rows):
    return oracle_rref_rows(rows, 2)


def _residual(basis, v):
    """v reduced modulo basis, a tuple RREF, pivot by pivot."""
    v = list(v)
    for row in basis:
        piv = next(j for j, x in enumerate(row) if x)
        if v[piv]:
            v = [(x + y) % 2 for x, y in zip(v, row)]
    return tuple(v)


def _meet(n, u, v):
    """Zassenhaus on tuples: rows [x|x] for x in u, [y|0] for y in v."""
    stacked = [x + x for x in u] + [y + (0,) * n for y in v]
    return tuple(r[n:] for r in _span(stacked) if not any(r[:n]))


def _members(n, rows):
    out = {(0,) * n}
    for r in rows:
        out |= {tuple((a + b) % 2 for a, b in zip(m, r)) for m in out}
    return out


# -- subspace lattice -------------------------------------------------------


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mask_lattice_matches_tuple_path(data):
    n = data.draw(st.integers(1, 8))
    ru, rv = data.draw(_rows(n)), data.draw(_rows(n))
    v = data.draw(st.tuples(*[st.integers(0, 1)] * n))
    u_ref, v_ref = _span(ru), _span(rv)
    u, w = Subspace(n, 2, ru), Subspace(n, 2, rv)
    assert u.rows == u_ref and u.pivots == tuple(
        next(j for j, x in enumerate(r) if x) for r in u_ref)
    assert subspace_sum(u, w).rows == _span(ru + rv)
    assert subspace_intersect(u, w).rows == _meet(n, u_ref, v_ref)
    assert subspace_leq(u, w) == (len(_span(ru + rv)) == len(v_ref))
    assert w.contains(v) == (len(_span(rv + [v])) == len(v_ref))
    assert w.reduce(v) == _residual(v_ref, v)
    if n <= 6:
        mu, mw = _members(n, u_ref), _members(n, v_ref)
        assert set(subspace_sum(u, w).vectors()) == {
            tuple((a + b) % 2 for a, b in zip(x, y)) for x in mu for y in mw}
        assert set(subspace_intersect(u, w).vectors()) == mu & mw
        assert subspace_leq(u, w) == (mu <= mw)
        assert w.contains(v) == (v in mw)
        r = w.reduce(v)
        assert tuple((a + b) % 2 for a, b in zip(v, r)) in mw


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mask_order_is_row_order(data):
    """For equal n, (dim, masks) sorts exactly like (dim, rows): column 0
    is the top bit, so integer order on masks is lexicographic order on
    rows."""
    n = data.draw(st.integers(1, 8))
    x, y = (data.draw(st.tuples(*[st.integers(0, 1)] * n)) for _ in range(2))
    assert (x < y) == (Subspace(n, 2, [x])._basis < Subspace(n, 2, [y])._basis)
    spaces = [Subspace(n, 2, rows)
              for rows in data.draw(st.lists(_rows(n), max_size=8))]
    by_rows = sorted(spaces, key=Subspace.key)
    assert by_rows == sorted(spaces, key=lambda s: (s.dim, s._basis))
    for a, b in itertools.combinations(spaces, 2):
        assert (a.key() < b.key()) == ((a.dim, a._basis) < (b.dim, b._basis))


def test_enumeration_order_is_mask_order():
    for n in range(1, 6):
        spaces = list(enumerate_subspaces(n, 2))
        assert spaces == sorted(spaces, key=lambda s: (s.dim, s._basis))


def test_subspace_rejects_rows_of_the_wrong_length():
    for p in (2, 3):
        with pytest.raises(ValueError, match="length 4 in ambient dimension 3"):
            Subspace(3, p, [(1, 0, 1, 1)])
        with pytest.raises(ValueError, match="length 2 in ambient dimension 3"):
            Subspace(3, p, [(1, 0, 1), (1, 0)])
        with pytest.raises(ValueError, match="length 4 in ambient dimension 3"):
            Subspace.span(3, p, [(1, 0, 1, 1)])
        assert subspace_sum(Subspace(3, p, [(1, 0, 1)]),
                            Subspace.full(3, p)).rows == Subspace.full(3, p).rows


def test_gf2_subspace_keeps_its_contract():
    s = Subspace(4, 2, [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 0)])
    assert s.rows == ((1, 0, 1, 0), (0, 1, 1, 1))
    assert s.pivots == (0, 1) and s.dim == 2
    assert hash(s) == hash((4, 2, s.rows))
    assert s == Subspace(4, 2, s.rows) and s != Subspace(4, 3, s.rows)
    with pytest.raises(AttributeError):
        s.n = 5


# -- ideals -----------------------------------------------------------------


def _ref_bracket_in(l, urows, vrows):
    """Whether [x, a] lies in span(urows) for x in vrows and a in urows."""
    d = len(urows)
    return all(len(_span(list(urows) + [bracket(l, x, a)])) == d
               for x in vrows for a in urows)


def _ref_closure(l, rows):
    units = [unit(i, l.n) for i in range(l.n)]
    cur, last = _span(rows), None
    while cur != last:
        last = cur
        cur = _span(list(cur) + [bracket(l, x, y) for x in units for y in cur])
    return cur


def _assert_ideal_paths(l, seed_rows, base):
    units = [unit(i, l.n) for i in range(l.n)]
    seed_ref = _span(seed_rows)
    seed = Subspace(l.n, 2, seed_rows)
    assert is_ideal(l, seed) == _ref_bracket_in(l, seed_ref, units)
    closed = _ref_closure(l, seed_rows)
    assert ideal_closure(l, seed).rows == closed
    assert ideal_closure(l, seed, base).rows == _ref_closure(
        l, list(seed_rows) + list(base.rows))
    assert is_ideal(l, Subspace(l.n, 2, closed))


def _gf2_algebra(data):
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(GF2_CORPUS))
    return random_solvable(data.draw(st.integers(2, 6)), 2,
                           data.draw(st.integers(0, 10_000)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ideal_masks_match_tuple_brackets(data):
    l = _gf2_algebra(data)
    seed_rows = data.draw(_rows(l.n, max_size=3))
    base = data.draw(st.sampled_from(all_ideals(l)))
    _assert_ideal_paths(l, seed_rows, base)
    assert all(is_ideal(l, i) for i in all_ideals(l))


def _flips_caught(l, flips):
    """Whether the ideal property fails, on some seed subspace, for each
    (b, bit) flip of the cached bracket table; the table is restored."""
    seeds = [s.rows for s in enumerate_subspaces(l.n, 2)]
    for s in seeds:
        _assert_ideal_paths(l, s, l.zero_space)
    maps = l.ad_maps
    table = maps.columns
    try:
        for b, bit in flips:
            flipped = list(table)
            flipped[b] ^= 1 << bit
            maps.columns = tuple(flipped)
            with pytest.raises(AssertionError):
                for s in seeds:
                    _assert_ideal_paths(l, s, l.zero_space)
    finally:
        maps.columns = table


def test_bracket_table_flip_is_caught():
    """Over abelian(3, 2) every one of the 27 single-bit flips of the
    cached bracket table makes the ideal property fail, and so does
    clearing [x, y] = z in heisenberg(2).  (Some flips keep an algebra's
    ideal lattice and escape it: 5 of heisenberg(2)'s 27.)"""
    _flips_caught(abelian(3, 2), itertools.product(range(3), range(9)))
    # Entry 1 is y = x_1: [x_0, y] = z fills its bits 8..6, z at bit 6.
    _flips_caught(heisenberg(2), [(1, 6)])
