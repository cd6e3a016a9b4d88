"""Ideal machinery versus the brute-force oracle, plus frozen known values."""

import random
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from chieflie import ideals as ideals_module
from chieflie.algebra import direct_sum, extend_by_derivation, is_ideal
from chieflie.corpus import (abelian, h3_plus_line, heisenberg, nonabelian2,
                             r4, random_solvable, registry, sl2, sl2sum)
from chieflie.ideals import (ChiefSeries, all_ideals, centralizer,
                             centralizer_of_factor, chief_series, core,
                             derived_series, enumerate_chief_series,
                             ideal_closure, ideal_lattice, is_chief_pair,
                             is_solvable, make_chief_series, minimal_ideals,
                             minimal_ideals_over, socle, subalgebra_closure)
from chieflie.linalg import (ENUM_COUNT_CAP, BudgetExceeded, Matrix, Subspace,
                             enumerate_subspaces, quotient_coords,
                             subspace_leq)
from chieflie.maximal import (is_frattini_factor, maximal_subalgebras,
                              monolithic_supplements)
from chieflie.oracle import (oracle_centralizer, oracle_chief_series_count,
                             oracle_core, oracle_ideal_closure, oracle_ideals,
                             oracle_is_chief, oracle_minimal_ideals_over)

SMALL = [heisenberg(2), heisenberg(3), nonabelian2(2), nonabelian2(3),
         r4(2), h3_plus_line(2), abelian(3, 2)]


def span(l, *vs):
    return Subspace.span(l.n, l.p, list(vs))


# -- closures ---------------------------------------------------------------


def test_ideal_closure_heisenberg():
    l = heisenberg(3)
    closed = ideal_closure(l, span(l, (1, 0, 0)))
    assert closed == span(l, (1, 0, 0), (0, 0, 1))
    assert is_ideal(l, closed)


def test_ideal_closure_rejects_foreign_seed():
    with pytest.raises(ValueError):
        ideal_closure(heisenberg(2), Subspace.zero(3, 3))


def test_ideal_closure_rejects_foreign_base():
    l = heisenberg(3)
    with pytest.raises(ValueError, match="not of L's"):
        ideal_closure(l, span(l, (0, 1, 0)), Subspace.span(2, 3, [(1, 0)]))


def test_ideal_closure_fixed_point_on_ideals():
    for l in SMALL:
        for i in oracle_ideals(l):
            assert ideal_closure(l, i) == i


def test_ideal_closure_is_smallest():
    for l in SMALL:
        ideals = oracle_ideals(l)
        for u in enumerate_subspaces(l.n, l.p):
            closed = ideal_closure(l, u)
            best = min((i for i in ideals if subspace_leq(u, i)),
                       key=lambda s: s.dim)
            assert closed.dim == best.dim and closed == best


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ideal_closure_matches_oracle_property(data):
    """The spin agrees with the U -> U + [L, U] fixed point, both from a
    seed subspace and from one vector over an ideal base."""
    if data.draw(st.booleans()):
        l = data.draw(st.sampled_from([e.algebra for e in registry()]))
    else:
        l = random_solvable(data.draw(st.integers(1, 5)),
                            data.draw(st.sampled_from((2, 3, 5))),
                            data.draw(st.integers(0, 10_000)))
    vec = st.tuples(*[st.integers(0, l.p - 1)] * l.n)
    seed = Subspace(l.n, l.p, data.draw(st.lists(vec, max_size=3)))
    assert ideal_closure(l, seed) == oracle_ideal_closure(l, seed)
    base = oracle_ideal_closure(
        l, Subspace(l.n, l.p, data.draw(st.lists(vec, max_size=2))))
    v = data.draw(vec)
    assert ideal_closure(l, Subspace(l.n, l.p, (v,)), base) == \
        oracle_ideal_closure(l, Subspace(l.n, l.p, base.rows + (v,)))


def test_subalgebra_closure_sl2():
    l = sl2(5)
    e, h, f = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert subalgebra_closure(l, span(l, e)) == span(l, e)
    assert subalgebra_closure(l, span(l, e, h)) == span(l, e, h)
    assert subalgebra_closure(l, span(l, e, f)) == l.full


# -- core -------------------------------------------------------------------


def test_core_known_values():
    l2 = nonabelian2(3)
    assert core(l2, span(l2, (1, 0))).dim == 0
    assert core(l2, span(l2, (0, 1))) == span(l2, (0, 1))
    h = heisenberg(2)
    plane = span(h, (1, 0, 0), (0, 0, 1))
    assert core(h, plane) == plane
    s = sl2(5)
    assert core(s, span(s, (1, 0, 0), (0, 1, 0))).dim == 0


def test_core_matches_oracle_exhaustively():
    for l in SMALL:
        for u in enumerate_subspaces(l.n, l.p):
            assert core(l, u) == oracle_core(l, u), (l.labels, u)


@pytest.mark.parametrize("l", [sl2sum(5), random_solvable(6, 5, 1),
                               random_solvable(5, 7, 0)],
                         ids=["sl2sum(5)", "random_solvable(6,5,1)",
                              "random_solvable(5,7,0)"])
def test_core_is_the_largest_ideal_inside(l):
    # all_ideals is a second route where oracle_core's enumeration refuses
    # (GF(5)^6 and GF(7)^5 have more than ENUM_COUNT_CAP subspaces)
    rng = random.Random(l.n * l.p)
    ideals = all_ideals(l)
    subs = list(maximal_subalgebras(l)) + [
        Subspace(l.n, l.p, [[rng.randrange(l.p) for _ in range(l.n)]
                            for _ in range(k)])
        for k in range(l.n) for _ in range(4)]
    for u in subs:
        c = core(l, u)
        assert c in ideals
        assert all(subspace_leq(i, c) for i in ideals if subspace_leq(i, u))


# -- centralizers -----------------------------------------------------------


def test_centralizer_known_values():
    h = heisenberg(3)
    assert centralizer(h, h.full) == span(h, (0, 0, 1))
    s = sl2(5)
    assert centralizer(s, s.full).dim == 0
    a = abelian(3, 2)
    assert centralizer(a, a.full) == a.full
    r = r4(2)
    v = span(r, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert centralizer_of_factor(r, v, span(r, (0, 1, 0, 0))) == v


def test_centralizer_matches_oracle_on_ideal_pairs():
    for l in [heisenberg(2), nonabelian2(3), r4(2)]:
        ideals = oracle_ideals(l)
        for a in ideals:
            for b in ideals:
                if subspace_leq(b, a):
                    assert centralizer_of_factor(l, a, b) == \
                        oracle_centralizer(l, a, b)
    # core asks C_L(L/U) for non-ideal U: seeded B <= A, A = B, A = L and
    # A = 0 in random solvable algebras over every small field
    rng = random.Random(0)
    for n, p in [(5, 2), (4, 3), (3, 5), (3, 7)]:
        for seed in range(3):
            l = random_solvable(n, p, seed)
            for _ in range(4):
                a = Subspace(n, p, [[rng.randrange(p) for _ in range(n)]
                                    for _ in range(rng.randint(1, n))])
                b = Subspace(n, p, [
                    a.combine([rng.randrange(p) for _ in a.rows])
                    for _ in range(rng.randint(0, a.dim))])
                for x, y in ((a, b), (a, a), (l.full, b),
                             (l.zero_space, l.zero_space)):
                    assert centralizer_of_factor(l, x, y) == \
                        oracle_centralizer(l, x, y)


def test_centralizer_requires_containment():
    l = heisenberg(2)
    with pytest.raises(ValueError):
        centralizer_of_factor(l, span(l, (1, 0, 0)), span(l, (0, 1, 0)))


def test_centralizer_rejects_foreign_subspaces():
    l = heisenberg(3)
    with pytest.raises(ValueError, match="not of L's"):
        centralizer_of_factor(l, Subspace.full(2, 3), Subspace.zero(2, 3))
    with pytest.raises(ValueError, match="not of L's"):
        centralizer(l, Subspace.full(3, 5))


# -- minimal ideals and socle ----------------------------------------------


def test_minimal_ideals_known_values():
    for p in (2, 3):
        h = heisenberg(p)
        assert minimal_ideals(h) == (span(h, (0, 0, 1)),)
    s = sl2(5)
    assert minimal_ideals(s) == (s.full,)
    d = sl2sum(5)
    copies = (span(d, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
              span(d, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)))
    assert set(minimal_ideals(d)) == set(copies)
    assert len(minimal_ideals(abelian(3, 2))) == 7
    assert len(minimal_ideals(r4(2))) == 7


def test_minimal_ideals_over_matches_oracle():
    for l in SMALL:
        ideals = oracle_ideals(l)
        for b in ideals:
            got = minimal_ideals_over(l, b)
            want = tuple(oracle_minimal_ideals_over(l, b))
            assert got == want, (l.labels, b)


def test_minimal_ideals_over_within():
    r = r4(2)
    v = span(r, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    line = span(r, (0, 1, 0, 0))
    got = minimal_ideals_over(r, line, within=v)
    want = tuple(oracle_minimal_ideals_over(r, line, within=v))
    assert got == want
    assert all(subspace_leq(a, v) for a in got)
    # without the restriction the answer picks up nothing extra here, since
    # every ideal over the line inside r4 stays inside v or jumps to r4 itself
    assert minimal_ideals_over(r, line) == got


def test_minimal_ideals_over_rejects_non_ideal_base():
    l = nonabelian2(2)
    with pytest.raises(ValueError):
        minimal_ideals_over(l, span(l, (1, 0)))


def test_chief_series_reuses_minimal_ideal_searches():
    """Series built up to all of L key their searches as (l, b), the key
    minimal_ideals and all_ideals use, so no search runs twice."""
    l = sl2sum(5)
    assert hasattr(minimal_ideals_over, "cache_info")
    minimal_ideals_over.cache_clear()
    minimal_ideals(l)
    before = minimal_ideals_over.cache_info().misses
    series = chief_series(l)
    # one new search per term strictly between 0 and L; the zero base hits
    assert minimal_ideals_over.cache_info().misses - before == \
        len(series.terms) - 2
    for b in all_ideals(l):  # all_ideals itself may be cached already
        minimal_ideals_over(l, b)
    before = minimal_ideals_over.cache_info().misses
    assert enumerate_chief_series(l).series
    assert minimal_ideals_over.cache_info().misses == before


def test_minimal_ideals_direction_scan_budget_refusal():
    # abelian(9, 5): ad x = 0 for every x, so no line can be left out of
    # the (5^9 - 1)/4 = 488,281 directions
    l = abelian(9, 5)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as err:
        minimal_ideals(l)
    assert time.perf_counter() - start < 1.0
    assert err.value.count == 488_281
    assert "9-dimensional quotient over GF(5)" in str(err.value)


def test_minimal_ideals_of_sl2_cubed():
    # 488,281 lines in all; the ad x scan spins a few hundred of them
    l = direct_sum(sl2(5), direct_sum(sl2(5), sl2(5)))
    mins = minimal_ideals(l)
    assert [m.dim for m in mins] == [3, 3, 3]
    assert socle(l) == l.full


@contextmanager
def _cutoff(lines):
    """The direction-scan cutoff set to lines; the per-ideal scans, made
    under the cutoff of their time, are dropped on entry and exit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals_module, "RESTRICT_ABOVE_LINES", lines)
        ideal_lattice.cache_clear()
        try:
            yield
        finally:
            ideal_lattice.cache_clear()


def _scan_body(cutoff, fn, *args):
    """fn's uncached body with the direction-scan cutoff set to cutoff."""
    with _cutoff(cutoff):
        return fn.__wrapped__(*args)


@lru_cache(maxsize=None)
def _full_scan(fn, *args):
    return _scan_body(ENUM_COUNT_CAP, fn, *args)


def _restricted_scan(fn, *args):
    return _scan_body(0, fn, *args)


def _assert_restricted_scan_agrees(l):
    """With the cutoff at 0 every scan over an ideal top spins only the
    lines of the Fitting cover of ad x, each once.  minimal_ideals_over, on
    every ideal base and with an ideal and a (usually) non-ideal within,
    and is_chief_pair must still give the full scan's answers."""
    ideals = all_ideals(l)
    for b in ideals:
        assert _restricted_scan(minimal_ideals_over, l, b) == \
            _full_scan(minimal_ideals_over, l, b)
        for a in ideals:
            if subspace_leq(b, a):
                assert _restricted_scan(is_chief_pair, l, a, b) == \
                    _full_scan(is_chief_pair, l, a, b)
        with _cutoff(0):
            qc, spaces = ideals_module._direction_scan(l, b)
        lines = [Subspace(qc.dim, l.p, (qc.project(v.rows[0]),))
                 for v in qc.lines(spaces)]
        assert len(set(lines)) == len(lines)
    hyperplane = Subspace(l.n, l.p, l.full.rows[:-1])
    # A within search filters the memoised unrestricted search, so each side
    # starts from an empty memo and filters a search made under its cutoff.
    sides = []
    for scan in (_restricted_scan, _full_scan):
        minimal_ideals_over.cache_clear()
        sides.append([scan(minimal_ideals_over, l, l.zero_space, within)
                      for within in ideals[-2:-1] + (hyperplane,)])
    assert sides[0] == sides[1]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_restricted_direction_scan_matches_full_scan_property(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(2, {2: 6, 3: 5, 5: 4}[p]))
    _assert_restricted_scan_agrees(
        random_solvable(n, p, data.draw(st.integers(0, 10_000))))


def _assert_search_matches_every_closure(l):
    """Under both cutoffs, on every ideal base B, the search with stopped
    spins keeps exactly the inclusion-minimal closures of all the lines
    _direction_scan yields, each closed in full by ideal_closure."""
    for cutoff in (0, ENUM_COUNT_CAP):
        with _cutoff(cutoff):
            for b in all_ideals(l):
                qc, spaces = ideals_module._direction_scan(l, b)
                closures = {ideal_closure(l, line, b)
                            for line in qc.lines(spaces)}
                mins = [c for c in closures if not any(
                    o != c and subspace_leq(o, c) for o in closures)]
                assert minimal_ideals_over.__wrapped__(l, b) == \
                    tuple(sorted(mins, key=Subspace.key))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_stopped_spins_match_closing_every_line_property(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(1, {2: 6, 3: 5, 5: 4}[p]))
    _assert_search_matches_every_closure(
        random_solvable(n, p, data.draw(st.integers(0, 10_000))))


def test_stopped_spins_match_closing_every_line_on_sl2sum():
    _assert_search_matches_every_closure(sl2sum(5))


SCAN_INPUTS = {e.name: e.algebra for e in registry()} | {
    f"sl2(5)+{name}": direct_sum(sl2(5), m) for name, m in (
        ("abelian(1,5)", abelian(1, 5)), ("nonabelian2(5)", nonabelian2(5)),
        ("random_solvable(3,5,0)", random_solvable(3, 5, 0)))} | {
    "sl2(7)+heisenberg(7)": direct_sum(sl2(7), heisenberg(7)),
    # t acts on GF(2)^2 as a generator of GF(4), with no eigenvalue in GF(2):
    # for x = t the minimal ideal GF(2)^2 meets only im((T^2 - T)^3)
    "gf4_action(2)": extend_by_derivation(
        abelian(2, 2), Matrix.from_rows([[0, 1], [1, 1]], 2))}


@pytest.mark.parametrize("name", SCAN_INPUTS)
def test_restricted_direction_scan_matches_full_scan(name):
    _assert_restricted_scan_agrees(SCAN_INPUTS[name])


def test_socle_known_values():
    h = heisenberg(3)
    assert socle(h) == span(h, (0, 0, 1))
    r = r4(2)
    assert socle(r) == span(r, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert socle(sl2sum(5)) == sl2sum(5).full
    a = abelian(2, 3)
    assert socle(a) == a.full
    hl = h3_plus_line(2)
    assert len(minimal_ideals(hl)) == 3
    assert socle(hl) == span(hl, (0, 0, 1, 0), (0, 0, 0, 1))


# -- ideal lattice ----------------------------------------------------------


def test_all_ideals_matches_oracle():
    for l in SMALL:
        got = {s.rows for s in all_ideals(l)}
        want = {s.rows for s in oracle_ideals(l)}
        assert got == want, l.labels


def test_all_ideals_known_counts():
    assert len(all_ideals(heisenberg(2))) == 6
    assert len(all_ideals(nonabelian2(2))) == 3
    assert len(all_ideals(r4(2))) == 17
    assert len(all_ideals(sl2(5))) == 2
    assert len(all_ideals(sl2sum(5))) == 4


# -- derived series and solvability ----------------------------------------


def test_derived_series_known_chains():
    h = heisenberg(3)
    ds = derived_series(h)
    assert [t.dim for t in ds] == [3, 1, 0]
    assert ds[1] == span(h, (0, 0, 1))
    assert [t.dim for t in derived_series(nonabelian2(2))] == [2, 1, 0]
    assert [t.dim for t in derived_series(sl2(5))] == [3]
    assert [t.dim for t in derived_series(abelian(3, 2))] == [3, 0]


def test_solvability_verdicts():
    assert is_solvable(heisenberg(2))
    assert is_solvable(r4(2))
    assert is_solvable(abelian(3, 2))
    assert is_solvable(h3_plus_line(2))
    assert not is_solvable(sl2(5))
    assert not is_solvable(sl2sum(5))


def test_random_solvable_is_solvable():
    for seed in range(6):
        for dim, p in [(3, 2), (4, 3), (5, 2)]:
            assert is_solvable(random_solvable(dim, p, seed))


# -- chief pairs ------------------------------------------------------------


def test_is_chief_pair_known_values():
    h = heisenberg(2)
    z = span(h, (0, 0, 1))
    assert is_chief_pair(h, z, h.zero_space)
    assert not is_chief_pair(h, h.full, h.zero_space)
    assert is_chief_pair(h, h.full, span(h, (1, 0, 0), (0, 0, 1)))
    s = sl2(5)
    assert is_chief_pair(s, s.full, s.zero_space)
    # non-ideals never form chief pairs
    assert not is_chief_pair(h, span(h, (1, 0, 0)), h.zero_space)


def test_is_chief_pair_rejects_foreign_subspaces():
    # as do the factor checks that ask it first, naming the space rather
    # than a missing chief factor
    l = heisenberg(3)
    for a, b in ((Subspace.full(3, 2), l.zero_space),
                 (l.full, Subspace.zero(3, 2)),
                 (Subspace.full(2, 3), l.zero_space)):
        for check in (is_chief_pair, is_frattini_factor,
                      monolithic_supplements):
            with pytest.raises(ValueError, match="not of L's"):
                check(l, a, b)


def test_is_chief_pair_matches_oracle():
    for l in SMALL:
        ideals = oracle_ideals(l)
        for a in ideals:
            for b in ideals:
                if subspace_leq(b, a):
                    assert is_chief_pair(l, a, b) == oracle_is_chief(l, a, b)


# -- chief series -----------------------------------------------------------


def test_chief_series_canonical_shape():
    for l in SMALL + [sl2(5), sl2sum(5), abelian(2, 3)]:
        cs = chief_series(l)
        assert cs.terms[0].dim == 0 and cs.terms[-1] == l.full
        for hi, lo in cs.factor_pairs():
            assert is_chief_pair(l, hi, lo)
        # canonical choice is deterministic
        assert chief_series(l).terms == cs.terms


def test_chief_series_lengths():
    assert chief_series(heisenberg(2)).length == 3
    assert chief_series(r4(2)).length == 4
    assert chief_series(sl2(5)).length == 1
    assert chief_series(sl2sum(5)).length == 2
    assert chief_series(h3_plus_line(2)).length == 4


def test_chief_series_between_endpoints():
    r = r4(2)
    v = span(r, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    line = span(r, (0, 1, 0, 0))
    cs = chief_series(r, frm=line, to=v)
    assert cs.terms[0] == line and cs.terms[-1] == v
    assert cs.length == 2


def test_chief_series_endpoint_validation():
    l = nonabelian2(2)
    with pytest.raises(ValueError):
        chief_series(l, frm=span(l, (1, 0)))  # not an ideal
    with pytest.raises(ValueError):
        chief_series(l, frm=l.full, to=l.full)  # not strictly ascending


def test_make_chief_series_validates_steps():
    h = heisenberg(2)
    z = span(h, (0, 0, 1))
    plane = span(h, (1, 0, 0), (0, 0, 1))
    good = make_chief_series(h, [h.zero_space, z, plane, h.full])
    assert isinstance(good, ChiefSeries) and good.length == 3
    with pytest.raises(ValueError):
        make_chief_series(h, [h.zero_space, plane, h.full])  # skipped step
    with pytest.raises(ValueError):
        make_chief_series(h, [h.zero_space, plane, z, h.full])  # descending
    with pytest.raises(ValueError):
        make_chief_series(h, [h.full])  # too short


def test_enumerate_chief_series_frozen_counts():
    expected = {
        ("abelian", 2, 2): 3,
        ("abelian", 3, 2): 21,
        ("abelian", 2, 3): 4,
        ("nonabelian2", 2): 1,
        ("heisenberg", 2): 3,
        ("heisenberg", 3): 4,
        ("r4", 2): 21,
        ("h3_plus_line", 2): 27,
        ("sl2", 5): 1,
        ("sl2sum", 5): 2,
    }
    builders = {"abelian": abelian, "nonabelian2": nonabelian2,
                "heisenberg": heisenberg, "r4": r4,
                "h3_plus_line": h3_plus_line, "sl2": sl2, "sl2sum": sl2sum}
    for key, count in expected.items():
        l = builders[key[0]](*key[1:])
        enum = enumerate_chief_series(l)
        assert len(enum.series) == count, key
        assert not enum.truncated
        lengths = {cs.length for cs in enum.series}
        assert len(lengths) == 1  # all chief series share one length


def test_enumerate_chief_series_matches_oracle_count():
    for l in SMALL:
        enum = enumerate_chief_series(l)
        assert len(enum.series) == oracle_chief_series_count(l)


def test_enumerate_chief_series_all_distinct_and_valid():
    r = r4(2)
    enum = enumerate_chief_series(r)
    seen = {cs.terms for cs in enum.series}
    assert len(seen) == len(enum.series)
    for cs in enum.series:
        for hi, lo in cs.factor_pairs():
            assert is_chief_pair(r, hi, lo)


def test_enumerate_chief_series_truncation():
    a = abelian(3, 2)  # 21 series in total
    capped = enumerate_chief_series(a, cap=5)
    assert len(capped.series) == 5 and capped.truncated
    exact = enumerate_chief_series(a, cap=21)
    assert len(exact.series) == 21 and not exact.truncated
    below = enumerate_chief_series(a, cap=20)
    assert len(below.series) == 20 and below.truncated
    above = enumerate_chief_series(a, cap=22)
    assert len(above.series) == 21 and not above.truncated


# -- the ideal lattice against its definitions, past the oracle's budget ------


def _closures(l, w, b):
    """The ideal closures of B + <v>, v over the lines of W/B, lazily."""
    return (ideal_closure(l, line, b)
            for line in quotient_coords(w, b).lines())


LATTICE_INPUTS = {"sl2sum(5)": sl2sum(5),
                  "random_solvable(6,5,1)": random_solvable(6, 5, 1)} | {
    f"random_solvable(5,{p},{s})": random_solvable(5, p, s)
    for p, s in ((2, 0), (3, 1), (7, 2))}


@pytest.mark.parametrize("name", LATTICE_INPUTS)
def test_chief_pairs_and_restricted_searches_match_definitions(name):
    """is_chief_pair(A, B): every closure over a line of A/B is A.
    minimal_ideals_over(B, within=W): the inclusion-minimal closures over
    the lines of W/B that stay in W, for a seeded ideal W and a non-ideal
    hyperplane W.  Past oracle_ideals' enumeration budget for GF(5)^6 and
    GF(7)^5, so the closures are the reference."""
    l = LATTICE_INPUTS[name]
    rng = random.Random(name)
    ideals = all_ideals(l)
    while True:
        hyperplane = Subspace(l.n, l.p, [
            [rng.randrange(l.p) for _ in range(l.n)] for _ in range(l.n - 1)])
        if hyperplane.dim == l.n - 1 and not is_ideal(l, hyperplane):
            break
    for b in ideals:
        above = [a for a in ideals if subspace_leq(b, a)]
        for a in above:
            want = b != a and all(c == a for c in _closures(l, a, b))
            assert is_chief_pair(l, a, b) == want, (a, b)
        for w in (rng.choice(above), hyperplane):
            if not subspace_leq(b, w):
                continue
            inside = {c for c in _closures(l, w, b) if subspace_leq(c, w)}
            want = {c for c in inside if not any(
                o.dim < c.dim and subspace_leq(o, c) for o in inside)}
            got = minimal_ideals_over(l, b, within=w)
            assert set(got) == want and len(got) == len(want), (b, w)
        # a non-ideal end is never a chief pair
        if subspace_leq(b, hyperplane) and b.dim < hyperplane.dim:
            assert not is_chief_pair(l, hyperplane, b)
    assert not is_chief_pair(l, l.full, hyperplane)


# -- truncation and search counts -------------------------------------------


def _r4_endpoints():
    r = r4(2)
    return r, span(r, (0, 1, 0, 0)), span(
        r, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


CAP_CASES = {name: (l, None, None) for name, l in (
    ("abelian(3,2)", abelian(3, 2)), ("heisenberg(3)", heisenberg(3)),
    ("r4(2)", r4(2)), ("sl2sum(5)", sl2sum(5)), ("sl2(5)", sl2(5)))} | {
    "r4(2) line to socle": _r4_endpoints()}


@pytest.mark.parametrize("name", CAP_CASES)
def test_enumeration_cap_keeps_a_prefix(name):
    """A capped enumeration is the first cap series of the full one, and
    truncated says exactly that more than cap exist."""
    l, frm, to = CAP_CASES[name]
    full = enumerate_chief_series(l, frm, to).series
    k = len(full)
    for cap in sorted({0, 1, k - 1, k, k + 1}):
        enum = enumerate_chief_series(l, frm, to, cap=cap)
        assert enum.series == full[:cap] and enum.cap == cap
        assert enum.truncated == (k > cap)


def test_enumeration_refuses_a_negative_cap():
    for cap in (-1, -5):
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_chief_series(heisenberg(2), cap=cap)


def test_chief_series_is_the_first_enumerated_series():
    for l in SMALL + [sl2(5), sl2sum(5), abelian(2, 3)]:
        assert chief_series(l) == enumerate_chief_series(l).series[0]
    r, line, v = _r4_endpoints()
    assert chief_series(r, frm=line, to=v) == \
        enumerate_chief_series(r, line, v).series[0]
    assert chief_series(r, frm=line) == \
        enumerate_chief_series(r, frm=line).series[0]
    assert chief_series(r, to=v) == enumerate_chief_series(r, to=v).series[0]


@pytest.mark.parametrize("l", [sl2sum(5), r4(2), h3_plus_line(2),
                               random_solvable(5, 3, 1)],
                         ids=["sl2sum(5)", "r4(2)", "h3_plus_line(2)",
                              "random_solvable(5,3,1)"])
def test_first_series_searches_once_per_term(l):
    """cap=1 walks one branch: one minimal_ideals_over search per term
    below the top, and no walk down a second branch."""
    minimal_ideals_over.cache_clear()
    enum = enumerate_chief_series(l, cap=1)
    assert minimal_ideals_over.cache_info().misses == \
        len(enum.series[0].terms) - 1
