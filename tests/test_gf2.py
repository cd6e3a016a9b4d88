"""The packed kernel of Subspace, is_ideal and ideal_closure, over GF(2)
(one bit per coordinate) and odd p (a w-bit lane per coordinate), against
references built on tuples with oracle_rref_rows and bracket only."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from chieflie.algebra import bracket, is_ideal, quotient_algebra
from chieflie.corpus import abelian, heisenberg, random_solvable, registry
from chieflie.field import prime_field
from chieflie.ideals import all_ideals, ideal_closure
from chieflie.linalg import (Subspace, _pack, enumerate_subspaces, spin,
                             subspace_intersect, subspace_leq, subspace_sum,
                             unit)
from chieflie.oracle import oracle_rref_rows

# 11 and 13 have the widest lanes and the most reduction steps.
PRIMES = (2, 3, 5, 7, 11, 13)
# Largest ambient dimension drawn over each field: the odd-p kernel is the
# same code at every n, and its members are enumerated up to p^n <= 729.
MAX_N = {2: 8, 3: 5, 5: 4, 7: 4, 11: 4, 13: 4}


def _vectors(n, p):
    return st.tuples(*[st.integers(0, p - 1)] * n)


def _rows(n, p=2, max_size=None):
    return st.lists(_vectors(n, p), max_size=n + 2 if max_size is None else max_size)


def _residual(basis, v, p):
    """v reduced modulo basis, a tuple RREF, pivot by pivot."""
    v = list(v)
    for row in basis:
        piv = next(j for j, x in enumerate(row) if x)
        c = v[piv]
        v = [(x - c * y) % p for x, y in zip(v, row)]
    return tuple(v)


def _meet(n, u, v, p):
    """Zassenhaus on tuples: rows [x|x] for x in u, [y|0] for y in v."""
    stacked = [x + x for x in u] + [y + (0,) * n for y in v]
    return tuple(r[n:] for r in oracle_rref_rows(stacked, p) if not any(r[:n]))


def _members(n, rows, p):
    out = {(0,) * n}
    for r in rows:
        out = {tuple((a + c * b) % p for a, b in zip(m, r))
               for m in out for c in range(p)}
    return out


# -- subspace lattice -------------------------------------------------------


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mask_lattice_matches_tuple_path(data):
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, MAX_N[p]))
    ru, rv = data.draw(_rows(n, p)), data.draw(_rows(n, p))
    v = data.draw(_vectors(n, p))
    u_ref, v_ref = oracle_rref_rows(ru, p), oracle_rref_rows(rv, p)
    u, w = Subspace(n, p, ru), Subspace(n, p, rv)
    assert u.rows == u_ref and u.pivots == tuple(
        next(j for j, x in enumerate(r) if x) for r in u_ref)
    assert subspace_sum(u, w).rows == oracle_rref_rows(ru + rv, p)
    assert subspace_intersect(u, w).rows == _meet(n, u_ref, v_ref, p)
    assert subspace_intersect(u, w).pivots == tuple(
        next(j for j, x in enumerate(r) if x) for r in _meet(n, u_ref, v_ref, p))
    assert subspace_leq(u, w) == (
        len(oracle_rref_rows(ru + rv, p)) == len(v_ref))
    assert w.contains(v) == (len(oracle_rref_rows(rv + [v], p)) == len(v_ref))
    assert w.reduce(v) == _residual(v_ref, v, p)
    if p ** n <= 729:
        mu, mw = _members(n, u_ref, p), _members(n, v_ref, p)
        assert set(subspace_sum(u, w).vectors()) == {
            tuple((a + b) % p for a, b in zip(x, y)) for x in mu for y in mw}
        assert set(subspace_intersect(u, w).vectors()) == mu & mw
        assert subspace_leq(u, w) == (mu <= mw)
        assert w.contains(v) == (v in mw)
        r = w.reduce(v)
        assert tuple((a - b) % p for a, b in zip(v, r)) in mw


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_mask_order_is_row_order(data):
    """For equal n and p, (dim, packed basis) sorts exactly like (dim,
    rows): column 0 is the top lane, so integer order on packed vectors is
    lexicographic order on rows."""
    p = data.draw(st.sampled_from(PRIMES))
    n = data.draw(st.integers(1, MAX_N[p]))
    x, y = (data.draw(_vectors(n, p)) for _ in range(2))
    assert (x < y) == (_pack(x, p) < _pack(y, p))
    spaces = [Subspace(n, p, rows)
              for rows in data.draw(st.lists(_rows(n, p), max_size=8))]
    by_rows = sorted(spaces, key=Subspace.key)
    assert by_rows == sorted(spaces, key=lambda s: (s.dim, s._basis))
    for a, b in itertools.combinations(spaces, 2):
        assert (a.key() < b.key()) == ((a.dim, a._basis) < (b.dim, b._basis))


def test_enumeration_order_is_mask_order():
    for p, top in ((2, 5), (3, 4), (5, 3)):
        for n in range(1, top + 1):
            spaces = list(enumerate_subspaces(n, p))
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
    assert hash(s) == hash((4, 2, s._basis))
    assert s == Subspace(4, 2, s.rows) and s != Subspace(4, 3, s.rows)
    with pytest.raises(AttributeError):
        s.n = 5


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_born_packed_subspaces_are_identified_by_their_basis(data):
    """A subspace born packed (a sum, a meet, a spin or a section's
    preimage) hashes, compares and sorts without unpacking its rows; its
    hash and equality agree with the equal row-built subspace, and key()
    orders as (dim, rows)."""
    l = _algebra(data)
    n, p = l.n, l.p
    u, v = (Subspace(n, p, data.draw(_rows(n, p, max_size=3))) for _ in "uv")
    q = quotient_algebra(l, data.draw(st.sampled_from(all_ideals(l))))
    born = [s for s in (
        subspace_sum(u, v), subspace_intersect(u, v), spin(l.ad_maps, u),
        q.coords.preimage(data.draw(st.sampled_from(all_ideals(q.algebra)))))
        if "rows" not in vars(s)]
    assert len(born) >= 3
    keys = sorted(s.key() for s in born)
    assert len(set(born)) == len(set(keys))
    assert [s.key() for s in sorted(born, key=Subspace.key)] == keys
    assert all((a == b) == (a.key() == b.key()) for a in born for b in born)
    assert all("rows" not in vars(s) for s in born)
    twins = [Subspace(n, p, s.rows) for s in born]
    assert all(hash(s) == hash(t) and s == t and t in set(born)
               for s, t in zip(born, twins))
    spaces = born + twins + [u, v]
    assert sorted(spaces, key=Subspace.key) == sorted(
        spaces, key=lambda s: (s.dim, s.rows))


# -- ideals -----------------------------------------------------------------


def _ref_bracket_in(l, urows, vrows):
    """Whether [x, a] lies in span(urows) for x in vrows and a in urows."""
    d = len(urows)
    return all(len(oracle_rref_rows(list(urows) + [bracket(l, x, a)], l.p)) == d
               for x in vrows for a in urows)


def _ref_closure(l, rows):
    units = [unit(i, l.n) for i in range(l.n)]
    cur, last = oracle_rref_rows(rows, l.p), None
    while cur != last:
        last = cur
        cur = oracle_rref_rows(
            list(cur) + [bracket(l, x, y) for x in units for y in cur], l.p)
    return cur


def _assert_ideal_paths(l, seed_rows, base):
    units = [unit(i, l.n) for i in range(l.n)]
    seed_ref = oracle_rref_rows(seed_rows, l.p)
    seed = Subspace(l.n, l.p, seed_rows)
    assert is_ideal(l, seed) == _ref_bracket_in(l, seed_ref, units)
    closed = _ref_closure(l, seed_rows)
    assert ideal_closure(l, seed).rows == closed
    assert ideal_closure(l, seed, base).rows == _ref_closure(
        l, list(seed_rows) + list(base.rows))
    assert is_ideal(l, Subspace(l.n, l.p, closed))


def _algebra(data):
    p = data.draw(st.sampled_from(PRIMES))
    corpus = [e.algebra for e in registry() if e.algebra.p == p]
    if corpus and data.draw(st.booleans()):
        return data.draw(st.sampled_from(corpus))
    return random_solvable(data.draw(st.integers(2, 6 if p == 2 else 4)), p,
                           data.draw(st.integers(0, 10_000)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ideal_masks_match_tuple_brackets(data):
    l = _algebra(data)
    seed_rows = data.draw(_rows(l.n, l.p, max_size=3))
    base = data.draw(st.sampled_from(all_ideals(l)))
    _assert_ideal_paths(l, seed_rows, base)
    assert all(is_ideal(l, i) for i in all_ideals(l))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ad_maps_images_are_brackets(data):
    """ad_maps.images(v) is the n packed brackets [e_i, v], for every p."""
    l = _algebra(data)
    v = data.draw(_vectors(l.n, l.p))
    assert l.ad_maps.images(_pack(v, l.p)) == [
        _pack(bracket(l, unit(i, l.n), v), l.p) for i in range(l.n)]


def _flipped(column, k, p):
    """column with lane k of its n * n images (counted from the bottom, one
    bit over GF(2)) moved by one: c becomes c + 1 mod p."""
    w = prime_field(p).w
    c = column >> k * w & (1 << w) - 1
    return column + (((c + 1) % p - c) << k * w)


def _flips_caught(l, flips):
    """Whether the ideal property fails, on some seed subspace, for each
    (column, entry) flip of the cached bracket table; the table is
    restored."""
    seeds = [s.rows for s in enumerate_subspaces(l.n, l.p)]
    for s in seeds:
        _assert_ideal_paths(l, s, l.zero_space)
    maps = l.ad_maps
    table = maps.columns
    try:
        for b, k in flips:
            flipped = list(table)
            flipped[b] = _flipped(table[b], k, l.p)
            maps.columns = tuple(flipped)
            with pytest.raises(AssertionError):
                for s in seeds:
                    _assert_ideal_paths(l, s, l.zero_space)
    finally:
        maps.columns = table


def test_bracket_table_flip_is_caught():
    """Over abelian(3, 2) and abelian(3, 3) every one of the 27 single-entry
    flips of the cached bracket table makes the ideal property fail, and so
    does clearing [x, y] = z in heisenberg(2) and making it x + z in
    heisenberg(3).  (Some flips keep an algebra's ideal lattice and escape
    it: 5 of heisenberg(2)'s 27.)"""
    _flips_caught(abelian(3, 2), itertools.product(range(3), range(9)))
    _flips_caught(abelian(3, 3), itertools.product(range(3), range(9)))
    # Entry 1 is y = x_1: [x_0, y] = z fills its bits 8..6, z at bit 6.
    _flips_caught(heisenberg(2), [(1, 6)])
    # The same lanes over GF(3): lane 8 is the x entry of [x_0, y].
    _flips_caught(heisenberg(3), [(1, 8)])
