"""Tests for series transfer, the matching permutation, and cut-and-paste."""

import json
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from chieflie import jordanholder
from chieflie.algebra import direct_sum
from chieflie.corpus import (abelian, h3_plus_line, heisenberg, nonabelian2,
                             r4, random_solvable, registry, sl2, sl2sum)
from chieflie.errors import VerificationError, require
from chieflie.factors import (MRelation, chief_factor_catalog,
                              common_complements, common_supplements,
                              crossing_catalog, descends_to, get_factor,
                              is_m_crossing, l_connected, m_related,
                              make_crossing, relation_table, series_factors)
from chieflie.ideals import (IdealLattice, all_ideals, chief_series, core,
                             enumerate_chief_series, ideal_lattice,
                             is_chief_pair, make_chief_series)
from chieflie.jordanholder import (CutPaste, FrattiniTransfer,
                                   SupplementedTransfer, _meet_section,
                                   _section_factor, _sum_section,
                                   cut_and_paste, cut_maximal_down,
                                   cut_series_down, jh_permutation,
                                   matching_permutations, paste_maximal_up,
                                   paste_series_up, transfer_frattini,
                                   transfer_supplemented)
from chieflie.linalg import (BudgetExceeded, Subspace, subspace_intersect,
                             subspace_leq, subspace_sum)
from chieflie.maximal import maximal_records, maximal_subalgebras
from chieflie.oracle import oracle_complements


def span(l, *vs):
    return Subspace.span(l.n, l.p, vs)


def all_series(l, cap=5000):
    return enumerate_chief_series(l, cap=cap).series


# -- transfer of a supplemented factor --------------------------------------


def test_transfer_supplemented_collapsing_case_r4():
    l = r4(2)
    f = get_factor(l, span(l, (0, 1, 0, 0)), span(l))
    series = chief_series(l)
    assert [t.dim for t in series.terms] == [0, 1, 2, 3, 4]
    tr = transfer_supplemented(f, series)
    assert tr.index == 3
    assert tr.case == "sum_collapses"
    assert tr.series_factor.a == series.terms[3]
    assert tr.series_factor.b == series.terms[2]
    assert descends_to(tr.sum_middle, f)
    assert descends_to(tr.sum_middle, tr.series_factor)
    assert descends_to(f, tr.intersection_middle)
    assert descends_to(tr.series_factor, tr.intersection_middle)
    assert tr.crossing is None and tr.upper_link is None


def test_transfer_supplemented_crossing_case_h3_plus_line():
    l = h3_plus_line(2)
    z, w, d = (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)
    f = get_factor(l, span(l, d), span(l))
    series = make_chief_series(l, [
        span(l), span(l, w), span(l, z, w),
        span(l, (1, 0, 0, 0), z, w), l.full])
    tr = transfer_supplemented(f, series)
    assert tr.index == 1
    assert tr.case == "sum_grows"
    # the crossing produced is precisely the catalogued one
    assert tr.crossing.top.a == span(l, z, w)
    assert tr.crossing.top.b == span(l, w)
    assert tr.crossing.bottom == f
    assert tr.crossing in crossing_catalog(l)
    assert tr.upper_link.a == span(l, w) and tr.upper_link.b == span(l)
    assert descends_to(tr.upper_link, tr.series_factor)
    assert tr.sum_middle == f
    assert tr.intersection_middle is None


def test_transfer_supplemented_rejects_frattini_input():
    l = heisenberg(2)
    f = get_factor(l, span(l, (0, 0, 1)), span(l))
    # a second call must raise again: a memoised function caches no raise
    for _ in range(2):
        with pytest.raises(ValueError, match="supplemented"):
            transfer_supplemented(f, chief_series(l))


def test_transfer_supplemented_rejects_bad_envelope():
    l = h3_plus_line(2)
    f = get_factor(l, span(l, (0, 0, 0, 1)), span(l))
    partial = chief_series(l, frm=span(l, (0, 0, 1, 0)))
    # the partial series starts above the factor's denominator
    with pytest.raises(ValueError, match="denominator"):
        transfer_supplemented(f, partial)
    with pytest.raises(ValueError, match="same algebra"):
        transfer_supplemented(f, chief_series(heisenberg(2)))


def test_transfer_supplemented_on_partial_series():
    l = h3_plus_line(2)
    z = (0, 0, 1, 0)
    zw = span(l, z, (0, 0, 0, 1))
    f = get_factor(l, zw, span(l, z))
    partial = chief_series(l, frm=span(l, z))
    tr = transfer_supplemented(f, partial)
    assert tr.index == 1
    assert tr.case == "sum_collapses"


# -- transfer of a Frattini factor ------------------------------------------


def test_transfer_frattini_collapsing_case_heisenberg():
    l = heisenberg(2)
    f = get_factor(l, span(l, (0, 0, 1)), span(l))
    series = chief_series(l)
    tr = transfer_frattini(f, series)
    assert tr.index == 1
    assert tr.case == "intersection_collapses"
    assert tr.series_factor == f
    assert tr.intersection_middle == f
    assert tr.sum_middle == f
    assert tr.crossing is None and tr.lower_link is None


def test_transfer_frattini_crossing_case_h3_plus_line():
    l = h3_plus_line(2)
    z, w, d = (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)
    zw = span(l, z, w)
    f = get_factor(l, zw, span(l, w))
    series = make_chief_series(l, [
        span(l), span(l, d), zw, span(l, (1, 0, 0, 0), z, w), l.full])
    tr = transfer_frattini(f, series)
    assert tr.index == 2
    assert tr.case == "intersection_grows"
    assert tr.crossing.top == f
    assert tr.crossing.bottom.a == span(l, d)
    assert tr.crossing.bottom.b == span(l)
    assert tr.crossing in crossing_catalog(l)
    assert tr.lower_link.a == zw and tr.lower_link.b == span(l, d)
    assert descends_to(tr.series_factor, tr.lower_link)


def test_transfer_frattini_rejects_supplemented_input():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    f = get_factor(l, plane, z)
    with pytest.raises(ValueError, match="Frattini"):
        transfer_frattini(f, chief_series(l))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("l", [r4(2), h3_plus_line(2)])
def test_memoised_descent_and_transfers_match_slow_path(l):
    # the first call fills the cache, so the second is answered from it
    catalog = chief_factor_catalog(l)
    for f in catalog:
        for g in catalog:
            descends_to(f, g)
            assert descends_to(f, g) == descends_to.__wrapped__(f, g)
    for series in all_series(l):
        for f in catalog:
            for fn in (transfer_supplemented, transfer_frattini):
                _outcome(fn, f, series)
                assert _outcome(fn, f, series) == \
                    _outcome(fn.__wrapped__, f, series)


def test_section_scan_degeneracy_is_monotone():
    # sum sections degenerate from some point on; intersection sections
    # degenerate up to some point.
    for l in [heisenberg(2), h3_plus_line(2), r4(2)]:
        series = chief_series(l)
        from chieflie.factors import chief_factor_catalog
        for f in chief_factor_catalog(l):
            sum_degenerate = [
                subspace_sum(f.a, t) == subspace_sum(f.b, t)
                for t in series.terms]
            assert sum_degenerate == sorted(sum_degenerate)
            inter_degenerate = [
                subspace_intersect(f.a, t) == subspace_intersect(f.b, t)
                for t in series.terms]
            assert inter_degenerate == sorted(inter_degenerate, reverse=True)


# -- the matching permutation ------------------------------------------------


def test_jh_abelian_worked_example():
    l = abelian(2, 2)
    xs = make_chief_series(l, [span(l), span(l, (1, 0)), l.full])
    ys = make_chief_series(l, [span(l), span(l, (0, 1)), l.full])
    rep = jh_permutation(xs, ys)
    assert rep.sigma == (2, 1)
    # the identity pairing fails: the top factors press both series onto
    # distinct denominators, so they are unrelated.
    assert matching_permutations(xs, ys) == ((2, 1),)
    f_top = get_factor(l, l.full, span(l, (1, 0)))
    g_top = get_factor(l, l.full, span(l, (0, 1)))
    from chieflie.factors import m_related
    assert m_related(f_top, g_top) is None
    # while the two bottom factors are related, relatedness of single pairs
    # does not assemble into a second full matching
    f_bot = get_factor(l, span(l, (1, 0)), span(l))
    g_bot = get_factor(l, span(l, (0, 1)), span(l))
    assert m_related(f_bot, g_bot) is not None


def test_jh_identity_on_equal_series():
    for l in [heisenberg(2), h3_plus_line(2), r4(2), sl2sum(5)]:
        s = chief_series(l)
        rep = jh_permutation(s, s)
        assert rep.sigma == tuple(range(1, s.length + 1))
        for m in rep.matches:
            assert m.factor == m.partner


def test_jh_heisenberg_partial_series():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    p1 = span(l, (1, 0, 0), (0, 0, 1))
    p2 = span(l, (0, 1, 0), (0, 0, 1))
    xs = make_chief_series(l, [z, p1, l.full])
    ys = make_chief_series(l, [z, p2, l.full])
    rep = jh_permutation(xs, ys)
    assert rep.sigma == (2, 1)
    assert all(m.factor.supplemented for m in rep.matches)
    assert all(m.shared_supplements for m in rep.matches)


def test_jh_rejects_mismatched_series():
    l = heisenberg(2)
    s = chief_series(l)
    partial = chief_series(l, frm=span(l, (0, 0, 1)))
    with pytest.raises(ValueError, match="endpoints"):
        jh_permutation(s, partial)
    with pytest.raises(ValueError, match="same algebra"):
        jh_permutation(s, chief_series(r4(2)))


def test_jh_report_fields_consistent():
    l = h3_plus_line(2)
    series = all_series(l)
    xs, ys = series[0], series[-1]
    rep = jh_permutation(xs, ys)
    assert rep.first == xs and rep.second == ys
    for i, m in enumerate(rep.matches, start=1):
        assert m.position == i
        assert m.image == rep.sigma[i - 1]
        assert m.factor.a == xs.terms[i] and m.factor.b == xs.terms[i - 1]
        assert m.partner.a == ys.terms[m.image]
        assert m.partner.b == ys.terms[m.image - 1]
        assert m.factor.frattini == m.partner.frattini


def test_jh_report_serializes():
    l = h3_plus_line(2)
    series = all_series(l)
    rep = jh_permutation(series[0], series[-1])
    d = rep.to_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["permutation"] == list(rep.sigma)
    assert back["length"] == 4
    assert len(back["matches"]) == 4
    for m in back["matches"]:
        assert m["factor"]["classification"] in (
            "frattini", "supplemented", "complemented")
        assert m["factor"]["classification"] == m["partner"]["classification"]
        assert m["relation_case"] in (1, 2, 3, 4)
        assert m["transfer_case"] in (
            "sum_collapses", "sum_grows",
            "intersection_collapses", "intersection_grows")


def test_jh_all_pairs_statistics():
    # [DERIVED] frozen from the full pairwise scan: transfer-case counts and
    # the number of pairs with a nonidentity permutation.
    expected = {
        "abelian22": (abelian(2, 2), {"sum_collapses": 18}, 6),
        "heisenberg": (heisenberg(2),
                       {"sum_collapses": 18, "intersection_collapses": 9}, 6),
        "r4": (r4(2), {"sum_collapses": 1764}, 420),
        "sl2sum": (sl2sum(5), {"sum_collapses": 8}, 2),
    }
    for name, (l, cases, nonid) in expected.items():
        series = all_series(l)
        got_cases = {}
        got_nonid = 0
        for xs in series:
            for ys in series:
                rep = jh_permutation(xs, ys)
                for m in rep.matches:
                    key = m.transfer.case
                    got_cases[key] = got_cases.get(key, 0) + 1
                if rep.sigma != tuple(range(1, len(rep.sigma) + 1)):
                    got_nonid += 1
        assert got_cases == cases, name
        assert got_nonid == nonid, name


def _transfer_case_counts(l):
    """How often each transfer case matches a factor, over all ordered
    pairs of chief series of l."""
    series = all_series(l)
    return dict(Counter(m.transfer.case for xs in series for ys in series
                        for m in jh_permutation(xs, ys).matches))


def test_jh_h3_plus_line_hits_all_transfer_cases():
    # [DERIVED] the central-square algebra is the only built-in whose series
    # pairs reach the crossing-producing transfer cases.
    assert _transfer_case_counts(h3_plus_line(2)) == {
        "sum_collapses": 2169, "intersection_collapses": 711,
        "sum_grows": 18, "intersection_grows": 18}


def test_jh_odd_prime_random_hits_all_transfer_cases():
    # [DERIVED] the same four cases over GF(3): 18 series, 324 pairs.
    assert len(all_series(random_solvable(5, 3, 43))) == 18
    assert _transfer_case_counts(random_solvable(5, 3, 43)) == {
        "sum_collapses": 1272, "intersection_collapses": 300,
        "sum_grows": 24, "intersection_grows": 24}


def test_jh_uniqueness_exhaustive():
    for l in [abelian(2, 2), heisenberg(2), nonabelian2(3), h3_plus_line(2),
              r4(2), sl2sum(5)]:
        series = all_series(l)
        for xs in series:
            for ys in series:
                rep = jh_permutation(xs, ys)
                assert matching_permutations(xs, ys) == (rep.sigma,)


def test_jh_on_random_solvables():
    for seed in range(3):
        for dim, p in [(3, 2), (4, 2), (3, 3)]:
            l = random_solvable(dim, p, seed)
            series = all_series(l, cap=12)
            for xs in series:
                for ys in series:
                    rep = jh_permutation(xs, ys)
                    assert sorted(rep.sigma) == list(range(1, xs.length + 1))
                    assert matching_permutations(xs, ys) == (rep.sigma,)


def _assert_witnesses_agree_with_m_related(l, cap):
    """Every match jh_permutation reports, over the ordered pairs of the
    first cap chief series, has m_related's case, and its middle meets
    m_related's conditions for that case: a supplemented common ancestor
    (case 1) or a Frattini common descendant (case 3).  Cases 2 and 4 come
    from m_related itself."""
    series = all_series(l, cap=cap)
    for xs in series:
        for ys in series:
            for m in jh_permutation(xs, ys).matches:
                f, g, rel = m.factor, m.partner, m.relation
                ref = m_related(f, g)
                assert rel.case == ref.case
                r = rel.middle
                if rel.case == 1:
                    assert r.supplemented and descends_to(r, f) \
                        and descends_to(r, g)
                elif rel.case == 3:
                    assert r.frattini and descends_to(f, r) \
                        and descends_to(g, r)
                else:
                    assert rel == ref


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_jh_witnesses_agree_with_m_related_property(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(2, {2: 5, 3: 5, 5: 4}[p]))
    _assert_witnesses_agree_with_m_related(
        random_solvable(n, p, data.draw(st.integers(0, 10_000))), cap=6)


def test_jh_builds_no_relation_table():
    # every transfer builds its own witness, the grows cases' from their
    # crossing, so jh_permutation asks m_related nothing
    for memo in (relation_table, m_related, transfer_supplemented,
                 transfer_frattini):
        memo.cache_clear()
    cases = _transfer_case_counts(random_solvable(5, 3, 43))
    assert (cases["sum_grows"], cases["intersection_grows"]) == (24, 24)
    assert relation_table.cache_info().currsize == 0


# The jh_corpus algebras (n <= 4, p <= 3), and the random algebra whose
# series pairs reach all four transfer cases over GF(3).
WITNESS_CORPUS = {e.name: e.algebra for e in registry()
                  if e.dim <= 4 and e.p <= 3} | {
    "random_solvable(5,3,43)": random_solvable(5, 3, 43)}


@pytest.mark.parametrize("name", sorted(WITNESS_CORPUS))
def test_jh_witnesses_agree_with_m_related_on_the_corpus(name):
    _assert_witnesses_agree_with_m_related(WITNESS_CORPUS[name], cap=5000)


# -- matching from answers kept per (factor, ideal), (factor, series) and
# series ------------------------------------------------------------------


# WITNESS_CORPUS, and seeded random algebras over GF(2), GF(3) and GF(5)
# with their first 24 chief series.
KEPT_ANSWER_CORPUS = {name: (l, 5000) for name, l in WITNESS_CORPUS.items()}
KEPT_ANSWER_CORPUS.update(
    (f"random_solvable({n},{p},{s})", (random_solvable(n, p, s), 24))
    for n, p, s in [(5, 2, 1), (5, 2, 2), (5, 3, 0), (5, 3, 2), (4, 5, 0),
                    (5, 5, 0), (5, 5, 5)])


def _per_call_evidence(f, second):
    """jh_permutation's per-index code before its evidence was kept on the
    transfer record: the transfer, uncached, then its pair's relation,
    connection and shared supplements and complements, checked."""
    if f.supplemented:
        tr = transfer_supplemented.__wrapped__(f, second)
    else:
        tr = transfer_frattini.__wrapped__(f, second)
    g = tr.series_factor
    rel = tr.relation or m_related(f, g)
    assert rel is not None
    conn = l_connected(f, g)
    assert conn is not None
    assert f.frattini == g.frattini and f.supplemented == g.supplemented
    shared_s = common_supplements(f, g) if f.supplemented else ()
    if f.supplemented and g.supplemented:
        assert shared_s
    shared_c = common_complements(f, g) if f.complemented else ()
    if f.complemented and g.complemented and f.abelian and g.abelian:
        assert shared_c
    return tr.index, g, rel, conn, shared_s, shared_c


def _per_factor_matching(first, second):
    """matching_permutations as the four-case relation asked pair by pair:
    m_related on each factor pair, not the series' packed rows."""
    l = first.algebra
    partners = [get_factor(l, a, b) for a, b in second.factor_pairs()]
    perms = [()]
    for a, b in first.factor_pairs():
        f = get_factor(l, a, b)
        related = [j for j, g in enumerate(partners, 1)
                   if m_related(f, g, (1, 2, 3, 4)) is not None]
        perms = [q + (j,) for q in perms for j in related if j not in q]
    return tuple(perms)


@pytest.mark.parametrize("name", sorted(KEPT_ANSWER_CORPUS))
def test_kept_match_evidence_equals_per_call_code(name):
    l, cap = KEPT_ANSWER_CORPUS[name]
    series = all_series(l, cap=cap)
    for xs in series:
        for ys in series:
            rep = jh_permutation(xs, ys)
            for m, (a, b) in zip(rep.matches, xs.factor_pairs()):
                assert m.factor == get_factor(l, a, b)
                assert (m.image, m.partner, m.relation, m.connection,
                        m.shared_supplements, m.shared_complements) == \
                    _per_call_evidence(m.factor, ys)
            assert matching_permutations(xs, ys) == \
                _per_factor_matching(xs, ys) == (rep.sigma,)


@pytest.mark.parametrize("name", sorted(KEPT_ANSWER_CORPUS))
def test_series_rows_are_each_factors_rows_packed(name):
    # a factor's supplemented ancestors and its Frattini descendants, as
    # descends_to scans of the catalog find them, each at its catalog bit
    l, cap = KEPT_ANSWER_CORPUS[name]
    t = relation_table(l)
    cat = chief_factor_catalog(l)

    @lru_cache(maxsize=None)
    def scanned_row(f):
        return sum(1 << i for i, r in enumerate(cat)
                   if r.supplemented and descends_to(r, f) or
                   r.frattini and descends_to(f, r))

    for s in all_series(l, cap=cap):
        want = tuple(scanned_row(get_factor(l, a, b))
                     for a, b in s.factor_pairs())
        for _ in range(2):    # built, then kept
            assert t.series_rows(s) == want


def test_series_factors_are_built_once_per_series():
    l = r4(2)
    for s in all_series(l):
        got = series_factors(s)
        assert got == tuple(get_factor(l, a, b) for a, b in s.factor_pairs())
        assert series_factors(s) is got


def test_permutation_enumeration_refuses_past_its_cap():
    """abelian(9, 2)'s chief series has 9 factors: 9! orderings to filter,
    over PERMUTATION_ENUM_CAP = 8!, refused before any relation is read."""
    s = chief_series(abelian(9, 2))
    with pytest.raises(BudgetExceeded) as e:
        matching_permutations(s, s)
    assert e.value.count == 362_880 > jordanholder.PERMUTATION_ENUM_CAP
    assert str(e.value).startswith("permutation enumeration too large")


@pytest.mark.parametrize("l", [heisenberg(3), h3_plus_line(2), r4(2),
                               random_solvable(5, 2, 1),
                               random_solvable(5, 3, 43),
                               random_solvable(4, 5, 0)],
                         ids=["heisenberg(3)", "h3_plus_line(2)", "r4(2)",
                              "random_solvable(5,2,1)",
                              "random_solvable(5,3,43)",
                              "random_solvable(4,5,0)"])
def test_lattice_sections_equal_fresh_sums_and_meets(l):
    # along any ideal Y, a chief factor's sections are degenerate or chief
    lat = IdealLattice(l)
    for _ in range(2):    # computed, then kept
        for f in chief_factor_catalog(l):
            for y in all_ideals(l):
                for section, op in ((_sum_section, subspace_sum),
                                    (_meet_section, subspace_intersect)):
                    top, bot = op(f.a, y), op(f.b, y)
                    if top == bot:
                        want = None
                    else:
                        assert is_chief_pair(l, top, bot)
                        want = get_factor(l, top, bot)
                    assert lat.per_ideal(section, y, f) == want


# -- landing once per (factor, step) -----------------------------------------


def _reference_envelope(f, series):
    if series.algebra != f.algebra:
        raise ValueError("factor and series must belong to the same algebra")
    if not subspace_leq(series.terms[0], f.b):
        raise ValueError("series must start inside the factor's denominator")
    if not subspace_leq(f.a, series.terms[-1]):
        raise ValueError("series must end above the factor's numerator")


def _reference_supplemented(f, series):
    """transfer_supplemented as it was before landings were kept per
    (factor, step): every sum section built and checked, the largest
    qualifying index taken."""
    _reference_envelope(f, series)
    if not f.supplemented:
        raise ValueError("transfer_supplemented needs a supplemented factor")
    l = f.algebra
    lat = ideal_lattice(l)
    a, b = f.a, f.b
    sections = [lat.per_ideal(_sum_section, y, f) for y in series.terms]
    qualifying = [j for j, s in enumerate(sections, 1) if s and s.supplemented]
    require(bool(qualifying),
            "a supplemented factor must have at least one supplemented sum "
            "section (the series starts inside its denominator)")
    index = max(qualifying)
    x = series.terms[index]
    y = series.terms[index - 1]
    series_factor = get_factor(l, x, y)
    require(series_factor.supplemented,
            "series step at the transfer index must be supplemented")
    sum_middle = sections[index - 1]
    require(descends_to(sum_middle, f),
            "qualifying sum section must descend onto the input factor")

    if sections[index] is None:
        require(lat.join(a, x) == sum_middle.a,
                "collapsed sum over the step top must match the sum over "
                "its bottom")
        require(descends_to(sum_middle, series_factor),
                "sum section must descend onto the series step")
        ay = lat.meet(a, y)
        require(ay == lat.meet(b, y) == lat.meet(b, x),
                "denominator intersections must agree in the collapsed case")
        inter_middle = lat.per_ideal(_meet_section, x, f)
        require(inter_middle is not None,
                "collapsed case must produce an intersection factor")
        require(descends_to(f, inter_middle),
                "input factor must descend onto the intersection section")
        require(descends_to(series_factor, inter_middle),
                "series step must descend onto the intersection section")
        return SupplementedTransfer(f, series, index, "sum_collapses",
                                    series_factor, sum_middle,
                                    intersection_middle=inter_middle,
                                    relation=MRelation(1, sum_middle))

    top_factor = sections[index]
    require(top_factor is not None and top_factor.frattini,
            "first non-qualifying sum section must be a Frattini factor")
    require(is_m_crossing(top_factor, sum_middle),
            "non-qualifying sum section must cross onto the qualifying one")
    crossing = make_crossing(top_factor, sum_middle)
    upper_link = _section_factor(l, top_factor.b, sum_middle.b)
    require(upper_link is not None and upper_link.supplemented,
            "denominator sum section must be a supplemented factor")
    require(descends_to(upper_link, series_factor),
            "denominator sum section must descend onto the series step")
    n = subspace_intersect(sum_middle.supplements[0], top_factor.a)
    require(is_chief_pair(l, top_factor.a, n), "U/(M n U) must be chief")
    middle = get_factor(l, top_factor.a, n)
    require(descends_to(middle, f) and descends_to(middle, series_factor)
            and middle.supplemented, "U/(M n U) must be a case-1 witness")
    return SupplementedTransfer(f, series, index, "sum_grows", series_factor,
                                sum_middle, crossing=crossing,
                                upper_link=upper_link,
                                relation=MRelation(1, middle))


def _reference_frattini(f, series):
    """transfer_frattini as it was before landings were kept per (factor,
    step)."""
    _reference_envelope(f, series)
    if not f.frattini:
        raise ValueError("transfer_frattini needs a Frattini factor")
    l = f.algebra
    lat = ideal_lattice(l)
    a, b = f.a, f.b
    for index, x in enumerate(series.terms):
        inter_middle = lat.per_ideal(_meet_section, x, f)
        if inter_middle and inter_middle.frattini:
            break
        bottom_factor = inter_middle
    require(inter_middle is not None and inter_middle.frattini,
            "a Frattini factor must have at least one Frattini intersection "
            "section (the series ends above its numerator)")
    y = series.terms[index - 1]
    series_factor = get_factor(l, x, y)
    require(series_factor.frattini,
            "series step at the transfer index must be Frattini")
    require(descends_to(f, inter_middle),
            "input factor must descend onto the qualifying intersection "
            "section")

    if bottom_factor is None:
        require(lat.meet(a, y) == inter_middle.b,
                "collapsed intersection over the step bottom must match the "
                "intersection over its top")
        require(descends_to(series_factor, inter_middle),
                "series step must descend onto the intersection section")
        ax = lat.join(a, x)
        require(lat.join(a, y) == ax == lat.join(b, x),
                "numerator sums must agree in the collapsed case")
        sum_middle = lat.per_ideal(_sum_section, y, f)
        require(sum_middle is not None,
                "collapsed case must produce a sum factor")
        require(descends_to(sum_middle, f),
                "sum section must descend onto the input factor")
        require(descends_to(sum_middle, series_factor),
                "sum section must descend onto the series step")
        return FrattiniTransfer(f, series, index, "intersection_collapses",
                                series_factor, inter_middle,
                                sum_middle=sum_middle,
                                relation=MRelation(3, inter_middle))

    require(bottom_factor is not None and bottom_factor.supplemented,
            "last non-qualifying intersection section must be a "
            "supplemented factor")
    require(is_m_crossing(inter_middle, bottom_factor),
            "qualifying intersection section must cross onto the "
            "non-qualifying one")
    crossing = make_crossing(inter_middle, bottom_factor)
    lower_link = _section_factor(l, inter_middle.a, bottom_factor.a)
    require(lower_link is not None,
            "numerator intersection section must be a chief factor")
    require(descends_to(series_factor, lower_link),
            "series step must descend onto the numerator intersection "
            "section")
    n = subspace_intersect(bottom_factor.supplements[0], inter_middle.a)
    require(is_chief_pair(l, n, bottom_factor.b), "(M n U)/X must be chief")
    middle = get_factor(l, n, bottom_factor.b)
    require(descends_to(f, middle) and descends_to(series_factor, middle)
            and middle.frattini, "(M n U)/X must be a case-3 witness")
    return FrattiniTransfer(f, series, index, "intersection_grows",
                            series_factor, inter_middle, crossing=crossing,
                            lower_link=lower_link,
                            relation=MRelation(3, middle))


def _reference_evidence(tr):
    """The checked evidence of a transfer record, as jh_permutation
    computed it per (factor, series)."""
    f, g = tr.factor, tr.series_factor
    conn = l_connected(f, g)
    require(conn is not None, "matched factors must be connected")
    require(f.frattini == g.frattini and f.supplemented == g.supplemented,
            "matched factors must be classified identically")
    shared_s = common_supplements(f, g) if f.supplemented else ()
    if f.supplemented and g.supplemented:
        require(bool(shared_s),
                "matched supplemented factors must share a maximal "
                "supplement")
    shared_c = common_complements(f, g) if f.complemented else ()
    if f.complemented and g.complemented and f.abelian and g.abelian:
        require(bool(shared_c),
                "matched complemented factors must share a maximal "
                "complement")
    return tr.relation, conn, shared_s, shared_c


@pytest.mark.parametrize("name", sorted(WITNESS_CORPUS))
def test_landed_transfers_equal_the_full_scans(name):
    # every factor against every series, both transfers: the same record,
    # field by field, the same evidence, or the same ValueError
    l = WITNESS_CORPUS[name]
    cases = Counter()
    for series in all_series(l):
        for f in chief_factor_catalog(l):
            for fn, ref in ((transfer_supplemented, _reference_supplemented),
                            (transfer_frattini, _reference_frattini)):
                got, want = _outcome(fn, f, series), _outcome(ref, f, series)
                assert got == want
                if not isinstance(want, tuple):
                    assert got.evidence == _reference_evidence(want)
                    cases[got.case] += 1
    if name == "random_solvable(5,3,43)":
        assert len(cases) == 4


def test_evidence_is_checked_once_per_factor_and_partner(monkeypatch):
    for memo in (transfer_supplemented, transfer_frattini, ideal_lattice):
        memo.cache_clear()
    calls = Counter()

    def counted(f, g):
        calls[f, g] += 1
        return l_connected(f, g)

    monkeypatch.setattr(jordanholder, "l_connected", counted)
    pairs, matches = set(), 0
    for l in (r4(2), h3_plus_line(2)):
        series = all_series(l)
        for xs in series:
            for ys in series:
                rep = jh_permutation(xs, ys)
                pairs.update((m.factor, m.partner) for m in rep.matches)
                matches += len(rep.matches)
    assert set(calls) == pairs and set(calls.values()) == {1}
    assert matches > len(pairs)


def test_envelope_is_checked_on_every_call():
    l = h3_plus_line(2)
    z, w = (0, 0, 1, 0), (0, 0, 0, 1)
    f = get_factor(l, span(l, w), span(l))
    assert transfer_supplemented(f, chief_series(l)).index >= 1
    # the same factor, then series of other ends: each call is refused
    above = chief_series(l, frm=span(l, z))
    below = chief_series(l, to=span(l, z))
    for _ in range(2):
        with pytest.raises(ValueError, match="denominator"):
            transfer_supplemented(f, above)
        with pytest.raises(ValueError, match="numerator"):
            transfer_supplemented(f, below)
        with pytest.raises(ValueError, match="same algebra"):
            transfer_supplemented(f, chief_series(heisenberg(2)))


@pytest.mark.parametrize("name", sorted(WITNESS_CORPUS))
def test_supplemented_sum_sections_below_the_index_are_supplemented(name):
    # if M supplements (A+Y_j)/(B+Y_j), every lower sum section is a chief
    # factor onto which A/B descends, and M supplements it
    l = WITNESS_CORPUS[name]
    checked = 0
    for series in all_series(l):
        for f in chief_factor_catalog(l):
            if not f.supplemented:
                continue
            tr = transfer_supplemented(f, series)
            for y in series.terms[:tr.index]:
                top, bot = subspace_sum(f.a, y), subspace_sum(f.b, y)
                assert top != bot and is_chief_pair(l, top, bot)
                s = get_factor(l, top, bot)
                assert s.supplemented and descends_to(s, f)
                assert set(tr.sum_middle.supplements) <= set(s.supplements)
                checked += 1
    assert checked


@pytest.fixture(scope="module")
def sl2_cubed():
    """sl2 + sl2 + sl2 over GF(5): three nonabelian minimal ideals, so no
    core-free maximal subalgebra.  Kept out of corpus.registry(), which
    drives the criterion tests and the benchmark's frozen outputs."""
    return direct_sum(sl2(5), direct_sum(sl2(5), sl2(5)))


def test_sl2_cubed_maximals_catalog_and_series(sl2_cubed):
    l = sl2_cubed
    maxes = maximal_subalgebras(l)
    # S_i + S_j + one of sl2(5)'s 16 maximals, or S_k + the graph of one of
    # its 120 automorphisms between S_i and S_j
    assert Counter(core(l, m).dim for m in maxes) == {6: 3 * 16, 3: 3 * 120}
    assert [r.core for r in maximal_records(l)] == [core(l, m) for m in maxes]
    assert len(chief_factor_catalog(l)) == 12
    assert len(all_series(l)) == 6


def test_sl2_cubed_nonabelian_matches_share_no_complement(sl2_cubed):
    # 0 < S2 < S1+S2 < L against 0 < S0 < S0+S1 < L pairs (S1+S2)/S2 with
    # (S0+S1)/S0; a common complement would be S0 + S2, which is not
    # maximal, so only the abelian pairs must share a complement
    l = sl2_cubed
    maxes = maximal_subalgebras(l)
    series = all_series(l)
    unshared = 0
    for xs in series:
        for ys in series:
            rep = jh_permutation(xs, ys)
            assert matching_permutations(xs, ys) == (rep.sigma,)
            for m in rep.matches:
                f, g = m.factor, m.partner
                if not (f.complemented and g.complemented):
                    continue
                assert not f.abelian and not g.abelian
                common = set(oracle_complements(l, f.a, f.b, maxes)) & \
                    set(oracle_complements(l, g.a, g.b, maxes))
                assert set(m.shared_complements) == common
                if not common:
                    assert (f.a.dim, f.b.dim, g.b.dim) == (6, 3, 3)
                    assert len(m.shared_supplements) == 16
                    unshared += 1
    assert unshared == 6


# -- cut and paste -----------------------------------------------------------


def cp_h3_plus_line():
    l = h3_plus_line(2)
    b = span(l, (0, 0, 1, 0), (0, 0, 0, 1))
    u = span(l, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    return l, b, u, cut_and_paste(l, b, u)


def test_cut_and_paste_builds_isomorphism():
    l, b, u, cp = cp_h3_plus_line()
    assert cp.quotient.algebra.n == 2
    assert cp.sub_quotient.algebra.n == 2
    assert cp.b_in_u == span(l, (0, 0, 1, 0))
    # quotient of the found supplement is abelian two-dimensional here
    assert all(all(c == 0 for c in w)
               for row in cp.quotient.algebra.sc for w in row)


def test_cut_and_paste_identity_on_disjoint_summands():
    l = sl2sum(5)
    a1 = span(l, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    a2 = span(l, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    cp = cut_and_paste(l, a1, a2)
    assert cp.iso.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert cp.b_in_u.dim == 0


def test_cut_and_paste_whole_algebra_supplement():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    cp = cut_and_paste(l, z, l.full)
    assert cp.quotient.algebra.n == 2
    assert cp.sub_quotient.algebra.n == 2


def test_cut_and_paste_validation():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    x = span(l, (1, 0, 0))
    with pytest.raises(ValueError, match="ideal"):
        cut_and_paste(l, x, l.full)
    with pytest.raises(ValueError, match="subalgebra"):
        cut_and_paste(l, z, span(l, (1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="sum"):
        cut_and_paste(l, z, x)


def test_cut_series_roundtrip():
    l, b, u, cp = cp_h3_plus_line()
    series = chief_series(l, frm=b)
    down = cut_series_down(cp, series)
    assert down.algebra == cp.inside.algebra
    assert [t.dim for t in down.terms] == [1, 2, 3]
    up = paste_series_up(cp, down)
    assert up.terms == series.terms
    # every series between the endpoints round-trips
    for s in enumerate_chief_series(l, frm=b).series:
        assert paste_series_up(cp, cut_series_down(cp, s)).terms == s.terms


def test_cut_series_down_validation():
    l, b, u, cp = cp_h3_plus_line()
    with pytest.raises(ValueError, match="above"):
        cut_series_down(cp, chief_series(l))
    with pytest.raises(ValueError, match="different algebra"):
        cut_series_down(cp, chief_series(heisenberg(2)))


def test_cut_maximal_roundtrip_h3_plus_line():
    l, b, u, cp = cp_h3_plus_line()
    above = [m for m in maximal_subalgebras(l) if subspace_leq(b, m)]
    assert len(above) == 3
    for m in above:
        trace = cut_maximal_down(cp, m)
        assert trace.dim == 2
        assert paste_maximal_up(cp, trace) == m


def test_cut_maximal_matches_sl2_structure():
    l = sl2sum(5)
    a1 = span(l, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    a2 = span(l, (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    cp = cut_and_paste(l, a1, a2)
    above = [m for m in maximal_subalgebras(l) if subspace_leq(a1, m)]
    assert len(above) == 16
    traces = {cut_maximal_down(cp, m).rows for m in above}
    # the traces are exactly the maximal subalgebras of the second summand
    sub_maxes = maximal_subalgebras(cp.inside.algebra)
    assert traces == {cp.inside.parent_subspace(t).rows for t in sub_maxes}
    for m in above:
        assert paste_maximal_up(cp, cut_maximal_down(cp, m)) == m


def test_cut_maximal_validation():
    l, b, u, cp = cp_h3_plus_line()
    zw = b
    with pytest.raises(ValueError, match="maximal"):
        cut_maximal_down(cp, zw)
    below = [m for m in maximal_subalgebras(l) if not subspace_leq(b, m)]
    for m in below[:1]:
        with pytest.raises(ValueError, match="contain"):
            cut_maximal_down(cp, m)
