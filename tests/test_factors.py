"""Tests for chief factors, descent, crossings, and relatedness."""

import itertools
import pickle
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from chieflie import factors as factors_module
from chieflie import maximal as maximal_module
from chieflie.algebra import (LieAlgebra, bracket, is_ideal,
                              preserves_brackets, quotient_algebra,
                              subspace_product)
from chieflie.corpus import (abelian, h3_plus_line, heisenberg, nonabelian2,
                             r4, random_solvable, registry, sl2, sl2sum)
from chieflie.errors import VerificationError
from chieflie.factors import (ChiefFactor, MCrossing, MRelation,
                              chief_factor_catalog,
                              common_complements, common_supplements,
                              complements_relaxed, crossing_catalog,
                              descends_to, descent_transfer_checks, get_factor,
                              is_m_crossing, l_connected, l_isomorphic,
                              m_crossing_swap, m_related, make_crossing,
                              module_hom_space, supplement_join,
                              supplements_relaxed)
from chieflie.ideals import (IdealLattice, all_ideals, chief_series, core,
                             enumerate_chief_series, ideal_lattice,
                             is_chief_pair)
from chieflie.jordanholder import matching_permutations
from chieflie.linalg import (BudgetExceeded, Matrix, Subspace,
                             enumerate_subspaces, rref_rows,
                             subspace_intersect, subspace_leq, subspace_sum)
from chieflie.maximal import (PrimitiveKind, complements_of, frattini,
                              maximal_records, maximal_subalgebras,
                              record_for, supplements_of)
from chieflie.oracle import (oracle_descends_to, oracle_subalgebras,
                             oracle_supplements)

SMALL = [heisenberg(2), heisenberg(3), nonabelian2(2), nonabelian2(3),
         r4(2), h3_plus_line(2), abelian(2, 2)]


def span(l, *vs):
    return Subspace.span(l.n, l.p, vs)


def rows_set(subspaces):
    return {s.rows for s in subspaces}


def two_dim_module_algebra():
    """GF(2) solvable algebra whose derived ideal is a 2-dim irreducible
    module: [t, a] = b, [t, b] = a + b."""
    return LieAlgebra.from_brackets(
        3, 2, {(0, 1): (0, 0, 1), (0, 2): (0, 1, 1)}, ("t", "a", "b"))


# -- construction and classification ----------------------------------------


def test_get_factor_heisenberg_center():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    f = get_factor(l, z, span(l))
    assert f.dim == 1
    assert f.abelian
    assert f.frattini
    assert not f.supplemented and not f.complemented
    assert f.supplements == () and f.complements == ()


def test_get_factor_heisenberg_plane():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    f = get_factor(l, plane, z)
    assert f.abelian and not f.frattini
    assert f.supplemented and f.complemented
    assert len(f.supplements) == 2
    assert rows_set(f.supplements) == rows_set(f.complements)


def test_get_factor_nonabelian():
    l = sl2(5)
    f = get_factor(l, l.full, span(l))
    assert not f.abelian
    assert f.supplemented and not f.complemented
    assert len(f.supplements) == 16


def test_get_factor_rejects_non_chief():
    l = heisenberg(2)
    with pytest.raises(ValueError, match="strictly between"):
        get_factor(l, l.full, span(l))


def test_get_factor_rejects_bad_endpoints():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    with pytest.raises(ValueError):
        get_factor(l, z, z)                       # not proper
    with pytest.raises(ValueError):
        get_factor(l, span(l), z)                 # b not inside a
    with pytest.raises(ValueError):
        get_factor(l, span(l, (1, 0, 0)), span(l))  # not an ideal


def test_factor_identity_ignores_flags():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    f = get_factor(l, z, span(l))
    assert f == ChiefFactor(l, z, span(l), False, False, False, False, (), ())
    assert hash(f) == hash((l, z, span(l)))
    assert len({f, get_factor(l, z, span(l))}) == 1


def test_memo_key_hashes_are_the_dataclass_hashes():
    """LieAlgebra, Subspace, ChiefFactor and ChiefSeries keep their hash, and
    it is the hash of the compared-field tuple; equal values built apart,
    and pickle round trips, hash equal."""
    def build():
        l = r4(2)
        a, b = l.full, Subspace.span(4, 2, [(0, 1, 0, 0), (0, 0, 1, 0),
                                            (0, 0, 0, 1)])
        get_factor.cache_clear()
        return l, a, get_factor(l, a, b), chief_series(l)

    first, second = build(), build()
    l, a, f, s = first
    assert first == second and first[2] is not second[2]
    fields = [(l, (l.n, l.p, l.sc)), (a, (a.n, a.p, a._basis)),
              (f, (f.algebra, f.a, f.b)), (s, (s.algebra, s.terms))]
    for value, compared in fields:
        assert hash(value) == hash(compared)    # computed or kept
        assert hash(value) == hash(compared)    # kept
    for x, y in zip(first, second):
        assert hash(x) == hash(y)
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and hash(copy) == hash(x)


def test_odd_p_algebra_pickles_with_its_ad_maps():
    """Over GF(3) is_ideal runs ad_maps.images' folded lane adds; the
    algebra pickles with its maps, and the copy is equal, hashes equal and
    tells ideals as the original does."""
    l = heisenberg(3)
    spaces = list(enumerate_subspaces(l.n, l.p))
    want = [is_ideal(l, u) for u in spaces]
    assert "ad_maps" in vars(l) and any(want) and not all(want)
    copy = pickle.loads(pickle.dumps(l))
    assert "ad_maps" in vars(copy)
    assert copy == l and hash(copy) == hash(l)
    assert [is_ideal(copy, u) for u in spaces] == want


def test_catalog_sizes():
    # [DERIVED] counts confirmed against the ideal lattice: one factor per
    # chief pair of ideals.
    expected = {
        "heisenberg": (heisenberg(2), 7, 1),
        "h3_plus_line": (h3_plus_line(2), 40, 3),
        "r4": (r4(2), 36, 0),
        "nonabelian2": (nonabelian2(2), 2, 0),
        "abelian22": (abelian(2, 2), 6, 0),
        "sl2": (sl2(5), 1, 0),
        "sl2sum": (sl2sum(5), 4, 0),
    }
    for name, (l, n_factors, n_frattini) in expected.items():
        cat = chief_factor_catalog(l)
        assert len(cat) == n_factors, name
        assert sum(1 for f in cat if f.frattini) == n_frattini, name
        pairs = {(a.rows, b.rows) for b in all_ideals(l) for a in all_ideals(l)
                 if is_chief_pair(l, a, b)}
        assert {(f.a.rows, f.b.rows) for f in cat} == pairs, name


def test_catalog_equals_chief_pair_filter():
    """The catalog, built from the minimal ideals over each ideal, holds the
    same factors in the same order as filtering all ideal pairs."""
    algebras = [e.algebra for e in registry()] + \
        [random_solvable(5, p, seed) for p in (2, 3) for seed in range(4)]
    for l in algebras:
        ideals = all_ideals(l)
        want = sorted((get_factor(l, a, b) for b in ideals for a in ideals
                       if is_chief_pair(l, a, b)), key=ChiefFactor.key)
        assert list(chief_factor_catalog(l)) == want, l


def test_catalog_refuses_an_unbounded_ideal_enumeration():
    """abelian(5, 5) has 42,176 ideals, whose searches would close 874,720
    direction lines; the catalog's ideal enumeration refuses past 30,000,
    naming both counts.  (jh on this algebra needs no catalog.)"""
    with pytest.raises(BudgetExceeded) as err:
        chief_factor_catalog(abelian(5, 5))
    assert err.value.count == 30_020
    assert str(err.value) == (
        "ideal enumeration past 4011 ideals would close 30020 direction "
        "lines, over cap 30000 (computed count: 30020)")


def test_h3_plus_line_frattini_factors_are_the_center_sections():
    l = h3_plus_line(2)
    z = (0, 0, 1, 0)
    w = (0, 0, 0, 1)
    zw = span(l, z, w)
    expected = {
        (span(l, z).rows, span(l).rows),
        (zw.rows, span(l, w).rows),
        (zw.rows, span(l, (0, 0, 1, 1)).rows),
    }
    got = {(f.a.rows, f.b.rows) for f in chief_factor_catalog(l) if f.frattini}
    assert got == expected


def test_flag_consistency_across_corpus():
    for l in SMALL + [sl2(5), sl2sum(5)]:
        for f in chief_factor_catalog(l):
            assert f.frattini == (not f.supplemented)
            assert f.dim == f.a.dim - f.b.dim >= 1
            assert f.abelian == subspace_leq(subspace_product(l, f.a, f.a), f.b)
            assert rows_set(f.supplements) == rows_set(supplements_of(l, f.a, f.b))
            assert set(rows_set(f.complements)) <= set(rows_set(f.supplements))
            assert f.complemented == bool(f.complements)


# -- relaxed predicates ------------------------------------------------------


def test_relaxed_predicates_against_all_subalgebras():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    subs = oracle_subalgebras(l)
    supp = [u for u in subs if supplements_relaxed(l, plane, z, u)]
    comp = [u for u in subs if complements_relaxed(l, plane, z, u)]
    # supplements must contain the second basis direction; adding z or the
    # first direction keeps the sum property.
    assert all(subspace_sum(plane, u) == l.full for u in supp)
    assert all(subspace_leq(z, u) for u in supp)
    assert all(subspace_intersect(plane, u) == z for u in comp)
    assert rows_set(comp) < rows_set(supp)
    # a non-subalgebra never qualifies
    assert not supplements_relaxed(l, plane, z, span(l, (1, 0, 0), (0, 1, 0)))


# -- descent -----------------------------------------------------------------


def test_descends_to_reflexive():
    for l in SMALL:
        for f in chief_factor_catalog(l):
            assert descends_to(f, f)


def test_descends_to_known_values():
    l = h3_plus_line(2)
    z, w = (0, 0, 1, 0), (0, 0, 0, 1)
    zw = span(l, z, w)
    top = get_factor(l, zw, span(l, w))
    assert descends_to(top, get_factor(l, span(l, (0, 0, 1, 1)), span(l)))
    assert descends_to(top, get_factor(l, span(l, z), span(l)))
    assert not descends_to(top, get_factor(l, span(l, w), span(l)))
    assert not descends_to(get_factor(l, span(l, z), span(l)), top)


def test_descends_to_rejects_mixed_algebras():
    f = chief_factor_catalog(heisenberg(2))[0]
    g = chief_factor_catalog(r4(2))[0]
    with pytest.raises(ValueError):
        descends_to(f, g)


def test_descends_to_matches_oracle_on_every_catalog_pair():
    """The containment test against the sum-and-meet definition on every
    ordered catalog pair of the registry and three random solvable
    algebras over GF(3), GF(2) and GF(5): 7,052 pairs, 652 of them
    descents between distinct factors."""
    algebras = [e.algebra for e in registry()] + [
        random_solvable(5, 3, 43), random_solvable(4, 2, 46),
        random_solvable(4, 5, 1)]
    pairs = proper = 0
    for l in algebras:
        catalog = chief_factor_catalog(l)
        for f, g in itertools.product(catalog, repeat=2):
            expected = oracle_descends_to(f, g)
            assert descends_to(f, g) == expected, (l, f, g)
            assert descends_to.__wrapped__(f, g) == expected, (l, f, g)
            pairs += 1
            proper += expected and f != g
    assert (pairs, proper) == (7052, 652)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_ideal_lattice_matches_sum_meet_and_descent_oracle(data):
    """On corpus and seeded random solvable algebras: lattice joins and
    meets of random ideal pairs are the plain sum and meet, a repeated or
    mirrored query returns the one interned object, and descends_to agrees
    with the raw sum-and-meet test."""
    if data.draw(st.booleans()):
        l = data.draw(st.sampled_from([e.algebra for e in registry()]))
    else:
        p = data.draw(st.sampled_from((2, 3, 5)))
        n = data.draw(st.integers(2, {2: 5, 3: 4, 5: 3}[p]))
        l = random_solvable(n, p, data.draw(st.integers(0, 10_000)))
    ideals = all_ideals(l)
    lattice = IdealLattice(l)
    for _ in range(8):
        u = data.draw(st.sampled_from(ideals))
        v = data.draw(st.sampled_from(ideals))
        join, meet = lattice.join(u, v), lattice.meet(u, v)
        assert join == subspace_sum(u, v)
        assert meet == subspace_intersect(u, v)
        assert lattice.join(v, u) is join and lattice.meet(v, u) is meet
        # rebuilt, equal arguments ask the same table entry
        copies = [Subspace(s.n, s.p, s.rows) for s in (u, v)]
        assert lattice.join(*copies) is join
        assert lattice.meet(*copies) is meet
        # an equal answer to another question is the same object
        assert lattice.join(join, meet) is join
        assert lattice.meet(join, meet) is meet
    catalog = chief_factor_catalog(l)
    for _ in range(8):
        f = data.draw(st.sampled_from(catalog))
        g = data.draw(st.sampled_from(catalog))
        assert descends_to(f, g) == oracle_descends_to(f, g)
        assert descends_to.__wrapped__(f, g) == oracle_descends_to(f, g)
    assert ideal_lattice(l) is ideal_lattice(l)


def test_descent_preserves_abelian_flag_both_ways():
    for l in SMALL + [sl2sum(5)]:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                if descends_to(f, g):
                    assert f.abelian == g.abelian


def test_descent_factors_are_module_isomorphic():
    for l in SMALL + [sl2sum(5)]:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                if descends_to(f, g):
                    assert l_isomorphic(f, g) is not None


# -- crossings ---------------------------------------------------------------


def test_crossing_catalog_counts():
    # [DERIVED] only the four-dimensional central-square algebra has
    # crossings among the built-ins.
    assert crossing_catalog(heisenberg(2)) == ()
    assert crossing_catalog(heisenberg(3)) == ()
    assert crossing_catalog(r4(2)) == ()
    assert crossing_catalog(abelian(2, 2)) == ()
    assert crossing_catalog(sl2(5)) == ()
    assert crossing_catalog(sl2sum(5)) == ()
    assert len(crossing_catalog(h3_plus_line(2))) == 2


def test_h3_plus_line_crossings_identified():
    l = h3_plus_line(2)
    z, w, d = (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)
    zw = span(l, z, w)
    got = {((c.top.a.rows, c.top.b.rows), (c.bottom.a.rows, c.bottom.b.rows))
           for c in crossing_catalog(l)}
    assert got == {
        ((zw.rows, span(l, w).rows), (span(l, d).rows, span(l).rows)),
        ((zw.rows, span(l, d).rows), (span(l, w).rows, span(l).rows)),
    }


def test_crossing_factors_are_abelian():
    for c in crossing_catalog(h3_plus_line(2)):
        assert c.top.abelian and c.bottom.abelian
        assert is_m_crossing(c.top, c.bottom)


def test_make_crossing_rejects_wrong_flags():
    l = h3_plus_line(2)
    z = span(l, (0, 0, 1, 0))
    zero = span(l)
    frattini_factor = get_factor(l, z, zero)
    supplemented_factor = get_factor(l, span(l, (0, 0, 0, 1)), zero)
    with pytest.raises(ValueError):
        make_crossing(supplemented_factor, supplemented_factor)
    with pytest.raises(ValueError):
        make_crossing(frattini_factor, frattini_factor)


def test_swap_exchanges_the_two_crossings():
    l = h3_plus_line(2)
    c1, c2 = crossing_catalog(l)
    s1, s2 = m_crossing_swap(c1), m_crossing_swap(c2)
    assert (s1.top, s1.bottom) == (c2.top, c2.bottom)
    assert (s2.top, s2.bottom) == (c1.top, c1.bottom)
    # swapping twice returns to the start
    back = m_crossing_swap(s1)
    assert (back.top, back.bottom) == (c1.top, c1.bottom)


def test_swap_bottom_inherits_supplements():
    for c in crossing_catalog(h3_plus_line(2)):
        s = m_crossing_swap(c)
        assert rows_set(s.bottom.supplements) == rows_set(c.bottom.supplements)


# -- module homomorphisms and module-plus-algebra isomorphism ----------------


def brute_module_homs(f, g):
    """All matrices commuting with every basis action, by full enumeration."""
    l = f.algebra
    p = l.p
    from chieflie.factors import _action_matrices
    _, actf = _action_matrices(f)
    _, actg = _action_matrices(g)
    df, dg = f.dim, g.dim
    homs = []
    for flat in itertools.product(range(p), repeat=df * dg):
        t = [[flat[r * df + c] for c in range(df)] for r in range(dg)]
        ok = True
        for af, ag in zip(actf, actg):
            for r in range(dg):
                for c in range(df):
                    lhs = sum(t[r][k] * af[k][c] for k in range(df)) % p
                    rhs = sum(ag[r][k] * t[k][c] for k in range(dg)) % p
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            homs.append(tuple(flat))
    return homs


def test_module_hom_space_matches_enumeration():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    f = get_factor(l, z, span(l))
    g = get_factor(l, plane, z)
    k = module_hom_space(f, g)
    assert rows_set([k]) == rows_set([Subspace(1, 2, ((1,),))])
    lt = two_dim_module_algebra()
    ab = span(lt, (0, 1, 0), (0, 0, 1))
    f2 = get_factor(lt, ab, span(lt))
    brute = brute_module_homs(f2, f2)
    kernel = module_hom_space(f2, f2)
    assert {v for v in kernel.vectors()} == set(brute)
    # the endomorphism algebra of this irreducible is the 4-element field,
    # two-dimensional over the prime field
    assert kernel.dim == 2


def test_module_hom_space_zero_between_the_two_sl2_summands():
    l = sl2sum(5)
    a1 = span(l, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    a2 = span(l, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    f1 = get_factor(l, a1, span(l))
    f2 = get_factor(l, a2, span(l))
    assert module_hom_space(f1, f2).dim == 0
    assert module_hom_space(f1, f1).dim == 1   # absolutely irreducible


def test_l_isomorphic_on_one_dimensional_trivial_modules():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    f = get_factor(l, z, span(l))
    g = get_factor(l, plane, z)
    h = get_factor(l, l.full, plane)
    for x, y in [(f, g), (f, h), (g, h)]:
        assert l_isomorphic(x, y) is not None


def test_l_isomorphic_distinguishes_weights():
    l = r4(2)
    v1 = span(l, (0, 1, 0, 0))
    v2 = span(l, (0, 0, 1, 0))
    hyper = span(l, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    f1 = get_factor(l, v1, span(l))
    f2 = get_factor(l, v2, span(l))
    top = get_factor(l, l.full, hyper)
    assert l_isomorphic(f1, f2) is not None     # same weight
    assert l_isomorphic(f1, top) is None        # weight 1 vs weight 0
    assert l_isomorphic(top, top) is not None


def _quartic_module_algebra(copies):
    """x acting on `copies` copies of GF(11)^4 by the companion matrix of
    t^4 - 3t^3 - 1, and nothing else bracketing."""
    n, p = 1 + 4 * copies, 11
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for b in range(1, n, 4):
        for i, col in enumerate([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                                 (1, 0, 0, 3)]):
            for j, v in enumerate(col):
                sc[0][b + i][b + j], sc[b + i][0][b + j] = v, -v % p
    return LieAlgebra(n, p, tuple(tuple(map(tuple, pl)) for pl in sc))


def test_l_isomorphic_refuses_a_module_hom_scan_past_its_cap():
    """Two copies V, W of an irreducible module whose endomorphisms are
    GF(11^4): 11^4 module maps V -> W, over HOM_SCAN_CAP.  get_factor
    cannot build V/0 on the 9-dimensional algebra (its direction scan
    refuses first), so the records are built by hand; V is checked chief
    on x + V alone."""
    one, l = _quartic_module_algebra(1), _quartic_module_algebra(2)
    assert is_chief_pair(one, Subspace.span(5, 11, one.full.rows[1:]),
                         one.zero_space)
    v, w = (Subspace.span(9, 11, l.full.rows[k:k + 4]) for k in (1, 5))
    f, g = (ChiefFactor(l, a, l.zero_space, True, False, True, True, (), ())
            for a in (v, w))
    assert module_hom_space(f, g).dim == 4
    with pytest.raises(BudgetExceeded) as e:
        l_isomorphic(f, g)
    assert e.value.count == 11 ** 4 == 14_641 > factors_module.HOM_SCAN_CAP
    assert str(e.value).startswith("module homomorphism scan of size p^4")


def test_l_isomorphic_dimension_mismatch():
    lt = two_dim_module_algebra()
    ab = span(lt, (0, 1, 0), (0, 0, 1))
    f2 = get_factor(lt, ab, span(lt))
    top = get_factor(lt, lt.full, ab)
    assert f2.dim == 2 and top.dim == 1
    assert l_isomorphic(f2, top) is None
    assert l_isomorphic(top, f2) is None


def assert_l_isomorphism(theta, f, g):
    """theta commutes with the action of every basis element and carries
    the bracket of f to the bracket of g, checked on unit vectors."""
    from chieflie.factors import _action_matrices, _factor_bracket
    l = f.algebra
    qf, actf = _action_matrices(f)
    qg, actg = _action_matrices(g)
    p = l.p
    d = f.dim
    for i in range(l.n):
        af, ag = actf[i], actg[i]
        for c in range(d):
            col = tuple(af[r][c] for r in range(d))
            lhs = theta.apply(col)
            basis = tuple(1 if t == c else 0 for t in range(d))
            img = theta.apply(basis)
            rhs = tuple(sum(ag[r][k] * img[k] for k in range(d)) % p
                        for r in range(d))
            assert lhs == rhs
    for s in range(d):
        for t in range(d):
            es = tuple(1 if q == s else 0 for q in range(d))
            et = tuple(1 if q == t else 0 for q in range(d))
            assert theta.apply(_factor_bracket(f, qf, es, et)) == \
                _factor_bracket(g, qg, theta.apply(es), theta.apply(et))


def test_l_isomorphic_transports_action_and_bracket():
    l = sl2sum(5)
    a1 = span(l, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    a2 = span(l, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    f1 = get_factor(l, a1, span(l))
    top2 = get_factor(l, l.full, a2)
    theta = l_isomorphic(f1, top2)
    assert theta is not None
    # independently re-verify the two defining conditions
    assert_l_isomorphism(theta, f1, top2)


def test_l_isomorphic_both_ways_are_inverse_l_isomorphisms():
    """Only one orientation of a pair is solved; the other is its inverse,
    and a factor's own is the identity.  Over GF(2), GF(3) and GF(5), with
    sl2sum(5)'s nonabelian pairs a1/0, L/a2 and a2/0, L/a1 both ways."""
    algebras = [h3_plus_line(2), r4(2), two_dim_module_algebra(),
                random_solvable(5, 2, 14), heisenberg(3), abelian(2, 3),
                random_solvable(4, 3, 10), random_solvable(5, 3, 43),
                sl2(5), sl2sum(5), random_solvable(4, 5, 0)]
    both_ways, not_involutions = {}, set()
    for l in algebras:
        cat = chief_factor_catalog(l)
        for f in cat:
            assert l_isomorphic(f, f) == Matrix.identity(f.dim, l.p)
            for g in cat:
                theta, back = l_isomorphic(f, g), l_isomorphic(g, f)
                assert (theta is None) == (back is None), (l, f, g)
                if theta is None or f == g:
                    continue
                one = Matrix.identity(f.dim, l.p)
                assert theta @ back == one and back @ theta == one
                assert_l_isomorphism(theta, f, g)
                assert_l_isomorphism(back, g, f)
                both_ways[l.p, f.abelian] = both_ways.get((l.p, f.abelian),
                                                          0) + 1
                if theta != back:
                    not_involutions.add(l.p)
    assert set(both_ways) == {(2, True), (3, True), (5, True), (5, False)}
    assert not_involutions == {2, 3}    # so a reverse equal to theta fails
    assert both_ways[5, False] == 4    # a1/0, L/a2 and a2/0, L/a1


def _solved_l_isomorphic(f, g):
    """l_isomorphic with every pair solved: the module-hom system of the
    smaller-key orientation, then the first nonzero kernel vector that is
    nonsingular and keeps the bracket; the other orientation inverts it."""
    if f.dim != g.dim:
        return None
    if f == g:
        return Matrix.identity(f.dim, f.algebra.p)
    if g.key() < f.key():
        theta = _solved_l_isomorphic(g, f)
        return None if theta is None else theta.inverse()
    from chieflie.factors import _action_matrices, _factor_bracket
    p, d = f.algebra.p, f.dim
    qf, _ = _action_matrices(f)
    qg, _ = _action_matrices(g)
    for flat in module_hom_space(f, g).vectors():
        if any(flat):
            rows = tuple(tuple(flat[r * d + c] for c in range(d))
                         for r in range(d))
            assert len(rref_rows(rows, p)) == d
            theta = Matrix.from_rows(rows, p)
            if preserves_brackets(theta, partial(_factor_bracket, f, qf),
                                  partial(_factor_bracket, g, qg)):
                return theta
    return None


def test_one_dimensional_l_isomorphic_matches_the_solve():
    """l_isomorphic answers one-dimensional pairs from their 1x1 actions,
    without a solve; it returns what the solve returns on every ordered pair
    of one-dimensional catalog factors of the registry and of draws over
    GF(2), GF(3), GF(5) and GF(7) with n = 3-5.  Draws with more than 80
    such factors (up to 627) are left out: they would take the reference
    solve a minute or more."""
    draws = [random_solvable(n, p, s) for p in (2, 3, 5, 7)
             for n in (3, 4, 5) for s in range(3)]
    draws += [random_solvable(5, 5, 5), random_solvable(5, 5, 7),
              random_solvable(5, 7, 9)]
    isomorphic = {}
    for l in [e.algebra for e in registry()] + draws:
        lines = [f for f in chief_factor_catalog(l) if f.dim == 1]
        if len(lines) > 80:
            continue
        for f in lines:
            for g in lines:
                theta = _solved_l_isomorphic(f, g)
                assert l_isomorphic(f, g) == theta, (l, f, g)
                isomorphic.setdefault(l.p, set()).add(theta is not None)
    assert isomorphic == {p: {True, False} for p in (2, 3, 5, 7)}


def test_l_isomorphic_self():
    for l in SMALL + [sl2(5)]:
        for f in chief_factor_catalog(l):
            assert l_isomorphic(f, f) is not None


def test_sl2sum_summand_factors_not_module_isomorphic():
    l = sl2sum(5)
    cat = chief_factor_catalog(l)
    f1, f2 = [f for f in cat if f.b.dim == 0]
    assert l_isomorphic(f1, f2) is None
    assert l_isomorphic(f2, f1) is None


# -- connectedness -----------------------------------------------------------


def test_sl2sum_summand_factors_connected_through_trivial_ideal():
    l = sl2sum(5)
    cat = chief_factor_catalog(l)
    f1, f2 = [f for f in cat if f.b.dim == 0]
    conn = l_connected(f1, f2)
    assert conn is not None
    assert conn.mode == "split_primitive_quotient"
    assert conn.ideal.dim == 0
    assert {conn.first_factor, conn.second_factor} == \
        {(f1.a, f1.b), (f2.a, f2.b)}


def test_sl2sum_summand_connected_to_opposite_quotient():
    l = sl2sum(5)
    cat = chief_factor_catalog(l)
    bottoms = [f for f in cat if f.b.dim == 0]
    tops = [f for f in cat if f.a.dim == l.n]
    f1 = bottoms[0]
    # the quotient by the *other* summand carries the same module structure
    partner = [t for t in tops
               if subspace_intersect(t.b, f1.a).dim == 0][0]
    conn = l_connected(f1, partner)
    assert conn is not None and conn.mode == "module_isomorphic"
    # while the quotient by the summand itself is connected only through the
    # split quotient
    same = [t for t in tops if t.b == f1.a][0]
    conn2 = l_connected(f1, same)
    assert conn2 is not None and conn2.mode == "split_primitive_quotient"


def test_solvable_algebras_have_no_split_connection():
    l = r4(2)
    v1 = span(l, (0, 1, 0, 0))
    hyper = span(l, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    f = get_factor(l, v1, span(l))
    top = get_factor(l, l.full, hyper)
    assert l_connected(f, top) is None


def test_l_connected_rejects_mixed_algebras():
    f = chief_factor_catalog(heisenberg(2))[0]
    g = chief_factor_catalog(r4(2))[0]
    with pytest.raises(ValueError):
        l_connected(f, g)


def test_factor_pair_functions_reject_mixed_algebras():
    """Every function of two chief factors refuses factors of two algebras,
    also where an answer would look plausible: 9 of the 96 pairs of
    random_solvable(4, 2, 1) and (4, 2, 2) have a maximal subalgebra of
    GF(2)^4 on both supplement lists, and 80 have a first factor that is
    not Frattini, which is_m_crossing could answer without the second."""
    pairs = [(f, g) for f in chief_factor_catalog(random_solvable(4, 2, 1))
             for g in chief_factor_catalog(random_solvable(4, 2, 2))]
    assert sum(bool(set(f.supplements) & set(g.supplements))
               for f, g in pairs) == 9
    assert sum(not f.frattini for f, _ in pairs) == 80
    for f, g in pairs:
        for x, y in ((f, g), (g, f)):
            for relation in (common_supplements, common_complements,
                             is_m_crossing, descends_to, module_hom_space,
                             l_isomorphic, l_connected, m_related):
                with pytest.raises(ValueError, match="same algebra"):
                    relation(x, y)


# -- relatedness -------------------------------------------------------------


def test_m_related_reflexive():
    for l in SMALL:
        for f in chief_factor_catalog(l):
            r = m_related(f, f)
            assert r is not None
            assert r.case == (1 if f.supplemented else 3)


def test_m_related_known_counts():
    # [DERIVED] frozen from the relatedness scan over every factor pair.
    expected = {
        "r4": (r4(2), 680, {1: 680}),
        "h3_plus_line": (h3_plus_line(2), 808, {1: 799, 3: 9}),
        "heisenberg": (heisenberg(2), 25, {1: 24, 3: 1}),
        "abelian22": (abelian(2, 2), 24, {1: 24}),
    }
    for name, (l, total, cases) in expected.items():
        cat = chief_factor_catalog(l)
        got_cases = {}
        for f in cat:
            for g in cat:
                r = m_related(f, g)
                if r is not None:
                    got_cases[r.case] = got_cases.get(r.case, 0) + 1
        assert sum(got_cases.values()) == total, name
        assert got_cases == cases, name


def test_m_related_symmetric_with_matching_case():
    for l in SMALL:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                r, rr = m_related(f, g), m_related(g, f)
                assert (r is None) == (rr is None)
                if r is not None:
                    assert r.case == rr.case


def test_m_related_heisenberg_mixed_parity_pair_unrelated():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    f = get_factor(l, z, span(l))
    g = get_factor(l, plane, z)
    assert m_related(f, g) is None
    assert m_related(g, f) is None


def test_m_related_case2_and_case4_witnesses_on_crossing():
    l = h3_plus_line(2)
    c1, c2 = crossing_catalog(l)
    # bottom factors of the two crossings form a case-2 pair
    f = get_factor(l, c1.top.b, c1.bottom.b)
    g = c1.bottom
    r2 = m_related(f, g, cases=(2,))
    assert r2 is not None and r2.case == 2
    assert (r2.crossing.top, r2.crossing.bottom) == (c1.top, c1.bottom)
    assert descends_to(r2.middle, f)
    assert r2.middle.a == c1.top.b and r2.middle.b == c1.bottom.b
    # top factors of the two crossings form a case-4 pair
    r4_ = m_related(c1.top, c2.top, cases=(4,))
    assert r4_ is not None and r4_.case == 4
    assert descends_to(c1.top, r4_.crossing.top)
    assert r4_.middle.a == r4_.crossing.top.a
    assert r4_.middle.b == r4_.crossing.bottom.a
    # neither witness shape exists for the mixed-parity direction
    assert m_related(f, g, cases=(3,)) is None
    assert m_related(f, g, cases=(4,)) is None


def test_m_related_case_restriction_validates():
    l = heisenberg(2)
    f = chief_factor_catalog(l)[0]
    with pytest.raises(ValueError):
        m_related(f, f, cases=(5,))


def test_m_related_witness_conditions_hold():
    for l in SMALL:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                r = m_related(f, g)
                if r is None:
                    continue
                if r.case == 1:
                    assert r.middle.supplemented
                    assert descends_to(r.middle, f)
                    assert descends_to(r.middle, g)
                elif r.case == 3:
                    assert r.middle.frattini
                    assert descends_to(f, r.middle)
                    assert descends_to(g, r.middle)


def test_m_related_implies_same_classification():
    for l in SMALL:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                if m_related(f, g) is not None:
                    assert f.frattini == g.frattini


def test_m_related_implies_connected():
    for l in [heisenberg(2), h3_plus_line(2), abelian(2, 2), nonabelian2(2)]:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                if m_related(f, g) is not None:
                    assert l_connected(f, g) is not None


def test_m_related_supplemented_pairs_share_a_supplement():
    for l in SMALL:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                r = m_related(f, g)
                if r is not None and f.supplemented and g.supplemented:
                    assert common_supplements(f, g)


# -- the relation table against the catalog scans it replaced ---------------

# The scans ask for the catalog once per pair, so keep one per algebra.
scan_catalog = lru_cache(maxsize=None)(chief_factor_catalog)


def scan_crossings(l):
    """The crossing catalog as a scan of every (Frattini, supplemented)
    pair of the chief-factor catalog."""
    catalog = scan_catalog(l)
    return tuple(make_crossing(f, g) for f in catalog if f.frattini
                 for g in catalog if g.supplemented and descends_to(f, g))


def scan_m_related(f, g, crossings, cases=(1, 2, 3, 4)):
    """m_related as a scan of the chief-factor catalog and the crossings,
    one loop per case, first witness first."""
    l = f.algebra
    catalog = scan_catalog(l)
    for case in cases:
        if case == 1:
            for r in catalog:
                if r.supplemented and descends_to(r, f) and descends_to(r, g):
                    return MRelation(1, r)
        elif case == 2:
            for x in crossings:
                v, xx = x.top.b, x.bottom.b
                if is_chief_pair(l, v, xx):
                    vx = get_factor(l, v, xx)
                    if descends_to(vx, f) and descends_to(x.bottom, g):
                        return MRelation(2, vx, x)
        elif case == 3:
            for y in catalog:
                if y.frattini and descends_to(f, y) and descends_to(g, y):
                    return MRelation(3, y)
        elif case == 4:
            for x in crossings:
                u, w = x.top.a, x.bottom.a
                if is_chief_pair(l, u, w):
                    uw = get_factor(l, u, w)
                    if descends_to(f, x.top) and descends_to(g, uw):
                        return MRelation(4, uw, x)
    return None


def relation_draws():
    """Every registry algebra; random_solvable(n, p, s) for p in 2, 3, 5
    and n in 3..5, the first two seeds below 10 with at most 70 chief
    factors (the all-pairs scans are quadratic in the catalog); and the
    four draws below 60 with crossings and at most 60 factors."""
    out = [e.algebra for e in registry()]
    for p in (2, 3, 5):
        for n in (3, 4, 5):
            draws = (random_solvable(n, p, s) for s in range(10))
            out += itertools.islice((l for l in draws
                                     if len(chief_factor_catalog(l)) <= 70),
                                    2)
    return out + [random_solvable(4, 2, 46), random_solvable(5, 2, 7),
                  random_solvable(5, 2, 53), random_solvable(5, 3, 43)]


def test_relation_table_matches_the_catalog_scans():
    """Kills, each in a copy: the ~ dropped from the tops-below-B mask of
    the descendants (or from the bottoms-above-C mask of the ancestors),
    and the up and down masks swapped."""
    draws = relation_draws()
    witnessed = set()
    for l in draws:
        crossings = scan_crossings(l)
        assert crossing_catalog(l) == crossings
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                for cases in ((1, 2, 3, 4), (1,), (2,), (3,), (4,)):
                    got = m_related(f, g, cases)
                    assert got == scan_m_related(f, g, crossings, cases), \
                        (l, f, g, cases)
                    witnessed.add(got and got.case)
    assert witnessed == {None, 1, 2, 3, 4}
    assert sum(bool(crossing_catalog(l)) for l in draws) == 5


def test_crossings_never_decide_relatedness():
    """RelationTable's proof, on every crossing [U/V -> W/X] with a chief
    V/X: N = M n U is the same for every supplement M of W/X, U/N is a
    supplemented common ancestor of V/X and W/X, and N/X a Frattini common
    descendant of U/V and U/W.  So cases 1 and 3 alone give m_related's
    answer."""
    draws = [l for l in relation_draws() + [random_solvable(6, 2, 3),
                                            random_solvable(6, 2, 24)]
             if crossing_catalog(l)]
    crossings = chief = 0
    for l in draws:
        for x in crossing_catalog(l):
            crossings += 1
            u, v, w, x_ = x.top.a, x.top.b, x.bottom.a, x.bottom.b
            if not is_chief_pair(l, v, x_):
                continue
            chief += 1
            vx, uw = get_factor(l, v, x_), get_factor(l, u, w)
            (n,) = {subspace_intersect(m, u) for m in x.bottom.supplements}
            un, nx = get_factor(l, u, n), get_factor(l, n, x_)
            assert un.supplemented and descends_to(un, vx) \
                and descends_to(un, x.bottom)
            assert nx.frattini and descends_to(x.top, nx) \
                and descends_to(uw, nx)
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                assert m_related(f, g, (1, 3)) == m_related(f, g)
    assert (crossings, chief) == (22, 20)


def test_matching_permutations_match_the_permutation_filter():
    for l in relation_draws():
        crossings = scan_crossings(l)
        cat = chief_factor_catalog(l)
        related = {(f, g): scan_m_related(f, g, crossings) is not None
                   for f in cat for g in cat}
        enum = enumerate_chief_series(l)
        assert not enum.truncated
        series = enum.series
        for first in series:
            for second in series:
                fy = [get_factor(l, a, b) for a, b in second.factor_pairs()]
                rel = [[related[get_factor(l, a, b), g] for g in fy]
                       for a, b in first.factor_pairs()]
                expected = tuple(
                    tuple(j + 1 for j in perm)
                    for perm in itertools.permutations(range(len(fy)))
                    if all(row[j] for row, j in zip(rel, perm)))
                assert matching_permutations(first, second) == expected


def test_common_supplements_heisenberg_hand_value():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    p1 = span(l, (1, 0, 0), (0, 0, 1))
    p2 = span(l, (0, 1, 0), (0, 0, 1))
    p3 = span(l, (1, 1, 0), (0, 0, 1))
    f = get_factor(l, p1, z)
    g = get_factor(l, p2, z)
    assert rows_set(common_supplements(f, g)) == {p3.rows}
    assert rows_set(common_complements(f, g)) == {p3.rows}


# -- transfer checks down a descent -----------------------------------------


def test_descent_transfer_all_pass_on_corpus():
    for l in [heisenberg(2), h3_plus_line(2), r4(2), abelian(2, 2),
              nonabelian2(3), sl2sum(5)]:
        cat = chief_factor_catalog(l)
        for f in cat:
            for g in cat:
                if f != g and descends_to(f, g):
                    rep = descent_transfer_checks(f, g)
                    assert rep.ok, (l.labels, f, g,
                                    [c.name for c in rep.clauses
                                     if c.applicable and not c.passed])


def test_descent_transfer_with_full_subalgebra_pool():
    l = heisenberg(2)
    pool = oracle_subalgebras(l)
    cat = chief_factor_catalog(l)
    for f in cat:
        for g in cat:
            if f != g and descends_to(f, g):
                assert descent_transfer_checks(f, g, pool=pool).ok


def test_descent_transfer_nonabelian_clauses_applicable():
    l = sl2sum(5)
    cat = chief_factor_catalog(l)
    seen = False
    for f in cat:
        for g in cat:
            if f != g and descends_to(f, g):
                rep = descent_transfer_checks(f, g)
                clause = rep.clause("monolithic_sets_match")
                assert clause.applicable == (not g.abelian)
                seen = seen or clause.applicable
    assert seen


def test_descent_transfer_rejects_non_descent():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    f = get_factor(l, z, span(l))
    g = get_factor(l, plane, z)
    with pytest.raises(ValueError):
        descent_transfer_checks(f, g)


# -- joining two supplements -------------------------------------------------


def test_supplement_join_abelian_case_heisenberg():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    p1 = span(l, (1, 0, 0), (0, 0, 1))
    p2 = span(l, (0, 1, 0), (0, 0, 1))
    p3 = span(l, (1, 1, 0), (0, 0, 1))
    f = get_factor(l, p1, z)
    res = supplement_join(record_for(l, p2), record_for(l, p3), f)
    assert res.case == "abelian_factor"
    assert res.record.subalgebra == p1
    assert res.record.core == p1
    assert res.intersection == z


def test_supplement_join_abelian_case_abelian_algebra():
    l = abelian(2, 2)
    e1 = span(l, (1, 0))
    e2 = span(l, (0, 1))
    d = span(l, (1, 1))
    f = get_factor(l, e1, span(l))
    res = supplement_join(record_for(l, e2), record_for(l, d), f)
    assert res.case == "abelian_factor"
    assert res.record.subalgebra == e1
    assert res.intersection.dim == 0


def test_supplement_join_mixed_case_sl2sum():
    l = sl2sum(5)
    cat = chief_factor_catalog(l)
    f = [x for x in cat if x.b.dim == 0][0]
    recs = [record_for(l, m) for m in f.supplements]
    split = [r for r in recs
             if r.quotient_kind is PrimitiveKind.TWO_NONABELIAN_MINIMALS]
    mono = [r for r in recs if r.monolithic]
    assert len(split) == 120 and len(mono) == 16
    # sample pairs deterministically; each join re-verifies the claims
    for u in split[::17]:
        for s in mono[::5]:
            res = supplement_join(u, s, f)
            assert res.case == "split_with_monolithic"
            assert res.record.core == f.a
            assert res.record.subalgebra == \
                subspace_sum(f.a, subspace_intersect(u.subalgebra, s.subalgebra))
            # orientation must not matter
            res2 = supplement_join(s, u, f)
            assert res2.record.subalgebra == res.record.subalgebra
            assert res2.case == "split_with_monolithic"


def test_supplement_join_rejects_equal_cores():
    l = sl2sum(5)
    cat = chief_factor_catalog(l)
    f = [x for x in cat if x.b.dim == 0][0]
    recs = [record_for(l, m) for m in f.supplements]
    split = [r for r in recs
             if r.quotient_kind is PrimitiveKind.TWO_NONABELIAN_MINIMALS]
    with pytest.raises(ValueError, match="distinct"):
        supplement_join(split[0], split[1], f)
    with pytest.raises(ValueError, match="distinct"):
        supplement_join(split[0], split[0], f)


def test_supplement_join_rejects_non_supplements():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    p1 = span(l, (1, 0, 0), (0, 0, 1))
    p2 = span(l, (0, 1, 0), (0, 0, 1))
    p3 = span(l, (1, 1, 0), (0, 0, 1))
    f = get_factor(l, p1, z)
    with pytest.raises(ValueError, match="supplement"):
        supplement_join(record_for(l, p1), record_for(l, p2), f)
    with pytest.raises(ValueError, match="algebra"):
        supplement_join(record_for(r4(2), span(r4(2), (0, 1, 0, 0),
                                               (0, 0, 1, 0), (0, 0, 0, 1))),
                        record_for(l, p2), f)


# -- random solvable scan ----------------------------------------------------


def test_factor_machinery_on_random_solvables():
    for seed in range(4):
        for dim, p in [(3, 2), (4, 2), (3, 3)]:
            l = random_solvable(dim, p, seed)
            cat = chief_factor_catalog(l)
            assert cat
            for f in cat:
                assert f.frattini == (not f.supplemented)
                assert l_isomorphic(f, f) is not None
                r = m_related(f, f)
                assert r is not None
            for f in cat:
                for g in cat:
                    if f != g and descends_to(f, g):
                        assert l_isomorphic(f, g) is not None
                        assert descent_transfer_checks(f, g).ok
                    rel = m_related(f, g)
                    if rel is not None:
                        assert f.frattini == g.frattini


def test_catalog_classification_matches_maximal_scans():
    """get_factor scans the maximal subalgebras once per factor and filters
    the complements from the supplements; its lists must be what
    supplements_of and complements_of find, and every maximal record's core
    what core finds."""
    algebras = [e.algebra for e in registry()] + [
        random_solvable(5, p, seed) for p in (2, 3) for seed in range(4)]
    for l in algebras:
        for f in chief_factor_catalog(l):
            assert f.supplements == supplements_of(l, f.a, f.b)
            assert f.complements == complements_of(l, f.a, f.b)
            assert f.supplemented == bool(f.supplements)
            assert f.complemented == bool(f.complements)
        for rec in maximal_records(l):
            assert rec.core == core(l, rec.subalgebra)


def _assert_catalog_matches_slow_paths(l):
    """Every catalog factor's supplements, abelian flag and Frattini flag,
    read from the ideal lattice's per-ideal answers, are what the per-factor
    formulas give: the sum test over all maximals, [A, A] <= B, and the
    image of A inside Phi(L/B)."""
    pool = maximal_subalgebras(l)
    for f in chief_factor_catalog(l):
        a, b = f.a, f.b
        assert f.supplements == oracle_supplements(l, a, b, pool)
        assert f.abelian == subspace_leq(subspace_product(l, a, a), b)
        q = quotient_algebra(l, b)
        image = Subspace(q.algebra.n, l.p, [q.coords.project(r) for r in a.rows])
        assert f.frattini == subspace_leq(image, frattini(q.algebra))


def test_corpus_catalog_classification_matches_slow_paths():
    # sl2(5) and sl2sum(5) hold the nonabelian factors: every factor of a
    # solvable algebra is abelian
    for e in registry():
        _assert_catalog_matches_slow_paths(e.algebra)


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_catalog_classification_matches_slow_paths(data):
    """_assert_catalog_matches_slow_paths on seeded random solvable
    algebras of dimensions 6 and 5."""
    if data.draw(st.booleans()):
        l = random_solvable(6, data.draw(st.sampled_from((3, 5))),
                            data.draw(st.integers(0, 10_000)))
    else:
        l = random_solvable(5, data.draw(st.sampled_from((2, 3, 5))),
                            data.draw(st.integers(0, 10_000)))
    _assert_catalog_matches_slow_paths(l)


@pytest.mark.parametrize("route", ["containment mask", "Frattini preimage"])
def test_get_factor_refuses_a_corrupted_lattice_entry(route):
    """The supplements read the lattice's containment masks and the
    Frattini flag its Frattini preimages, two independent routes: making
    one lattice entry wrong makes them disagree, and get_factor refuses."""
    l = heisenberg(2)
    a, b = l.full, span(l, (1, 0, 0), (0, 0, 1))
    assert get_factor(l, a, b).supplemented
    fn, wrong = {"containment mask": (maximal_module._containment_mask, 0),
                 "Frattini preimage": (maximal_module._frattini_preimage,
                                       l.full)}[route]
    table = ideal_lattice(l)._answers[fn]
    saved = table[b]
    table[b] = wrong
    try:
        with pytest.raises(VerificationError, match="disagree"):
            get_factor.__wrapped__(l, a, b)
    finally:
        table[b] = saved
    assert get_factor.__wrapped__(l, a, b) == get_factor(l, a, b)
