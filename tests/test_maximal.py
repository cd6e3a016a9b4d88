"""Tests for maximal subalgebras, Frattini subalgebra, and primitivity."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from chieflie import maximal
from chieflie.algebra import (bracket, direct_sum, is_ideal, is_subalgebra,
                              preserves_brackets, restrict_algebra)
from chieflie.corpus import (abelian, h3_plus_line, heisenberg, nonabelian2,
                             r4, random_solvable, registry, sl2, sl2sum)
from chieflie.errors import VerificationError
from chieflie.fileio import parse_algebra
from chieflie.ideals import (all_ideals, centralizer, centralizer_of_factor,
                             core, is_chief_pair, is_solvable, minimal_ideals)
from chieflie.linalg import (BudgetExceeded, Matrix, Subspace,
                             count_subspaces, nonzero_directions, rref_rows,
                             subspace_intersect, subspace_leq, subspace_sum,
                             unit)
from chieflie.maximal import (MaximalRecord, PrimitiveKind, _abelian_part,
                              _ad_fingerprint, _apply_plan, _generating_tuple,
                              _iso_plan, _scaled_fingerprint,
                              algebra_isomorphisms,
                              complements_of, enumerated_maximal_subalgebras,
                              frattini, is_frattini_factor, is_maximal,
                              is_monolithic, maximal_records,
                              maximal_subalgebras, monolithic_supplements,
                              primitive_type, record_for, supplements_of)
from chieflie.oracle import (oracle_complements, oracle_frattini,
                             oracle_maximal_subalgebras, oracle_subalgebras,
                             oracle_supplements)

SMALL = [heisenberg(2), heisenberg(3), nonabelian2(2), nonabelian2(3),
         r4(2), h3_plus_line(2), abelian(3, 2)]


def span(l, *vs):
    return Subspace.span(l.n, l.p, vs)


def rows_set(subspaces):
    return {s.rows for s in subspaces}


def chief_pairs(l):
    ideals = all_ideals(l)
    return [(a, b) for b in ideals for a in ideals if is_chief_pair(l, a, b)]


# -- is_maximal -------------------------------------------------------------


def test_is_maximal_known_values():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    plane = span(l, (1, 0, 0), (0, 0, 1))
    assert is_maximal(l, plane)
    assert not is_maximal(l, z)                     # too small
    assert not is_maximal(l, span(l, (1, 0, 0)))    # contained in a plane
    assert not is_maximal(l, l.full)                # not proper
    assert not is_maximal(l, span(l, (1, 0, 0), (0, 1, 0)))  # not closed


def test_is_maximal_agrees_with_enumeration():
    for l in SMALL:
        maxes = rows_set(oracle_maximal_subalgebras(l))
        for u in oracle_subalgebras(l):
            assert is_maximal(l, u) == (u.rows in maxes)


# -- the enumeration --------------------------------------------------------


def test_maximal_subalgebras_match_oracle():
    for l in SMALL:
        assert rows_set(maximal_subalgebras(l)) == \
            rows_set(oracle_maximal_subalgebras(l))


def test_maximal_subalgebras_match_bounded_enumeration():
    for l in SMALL + [sl2(5)]:
        assert rows_set(maximal_subalgebras(l)) == \
            rows_set(enumerated_maximal_subalgebras(l))


def test_maximal_subalgebras_on_random_solvables():
    for seed in range(5):
        for dim, p in [(3, 2), (4, 3)]:
            l = random_solvable(dim, p, seed)
            assert rows_set(maximal_subalgebras(l)) == \
                rows_set(oracle_maximal_subalgebras(l))
        # dim 5: one quotient by an abelian minimal ideal, plus complements
        for p in (2, 3):
            l = random_solvable(5, p, seed)
            assert maximal_subalgebras(l) == enumerated_maximal_subalgebras(l)


def test_registry_maximal_and_frattini_expectations():
    for entry in registry():
        l = entry.algebra
        assert len(maximal_subalgebras(l)) == entry.expected["maximal_subalgebras"], \
            entry.name
        assert frattini(l).dim == entry.expected["frattini_dim"], entry.name


def test_canonical_order_and_determinism():
    l = r4(2)
    ms = maximal_subalgebras(l)
    assert list(ms) == sorted(ms, key=lambda s: s.key())
    assert maximal_subalgebras(r4(2)) == ms


def test_sl2sum_maximal_structure():
    l = sl2sum(5)
    a1, a2 = minimal_ideals(l)
    ms = maximal_subalgebras(l)
    assert len(ms) == 152
    over1 = [m for m in ms if subspace_leq(a1, m)]
    over2 = [m for m in ms if subspace_leq(a2, m)]
    graphs = [m for m in ms if subspace_intersect(m, a1).dim == 0
              and subspace_intersect(m, a2).dim == 0]
    assert len(over1) == 16 and len(over2) == 16 and len(graphs) == 120
    assert len(ms) == len(over1) + len(over2) + len(graphs)
    for m in graphs:
        assert m.dim == 3 and is_subalgebra(l, m)
    for m in graphs[:3]:
        assert is_maximal(l, m)


def test_budget_refusal_for_large_prime_simple_algebra():
    with pytest.raises(BudgetExceeded):
        maximal_subalgebras(sl2(11))


def witt_text(p):
    """The Witt algebra W(1;1) over GF(p) as an algebra file: basis
    e_-1 .. e_(p-2) and [e_i, e_j] = (j - i) e_(i+j), zero out of range."""
    lines = [f"field {p}", f"dim {p}"]
    for i in range(-1, p - 1):
        for j in range(i + 1, p - 1):
            if i + j <= p - 2:
                lines.append(f"bracket {i + 2} {j + 2} {i + j + 2} "
                             f"{(j - i) % p}")
    return "\n".join(lines) + "\n"


def test_simple_algebra_refusal_comes_from_the_subspace_enumeration():
    """W(1;1) over GF(7) is simple and 7-dimensional, so its maximal
    subalgebras are left to the subspace enumeration, which refuses before
    it yields anything and names the count."""
    l = parse_algebra(witt_text(7))
    assert minimal_ideals(l) == (l.full,)
    with pytest.raises(BudgetExceeded) as e:
        maximal_subalgebras(l)
    assert e.value.count == count_subspaces(7, 7) == 33_736_398_032
    assert str(e.value).startswith("subspace enumeration limited to n <= 6")


def test_complement_family_refuses_past_its_cap():
    """In nonabelian2 + abelian(4) over GF(13) the complements of the
    central line <e6> are the graphs of maps L/<e6> -> <e6> killing the
    derived line: 13^4 of them, over COMPLEMENT_FAMILY_CAP."""
    l = direct_sum(nonabelian2(13), abelian(4, 13))
    with pytest.raises(BudgetExceeded) as e:
        maximal._complement_subalgebras(l, span(l, unit(5, 6)))
    assert e.value.count == 13 ** 4 == 28_561 > maximal.COMPLEMENT_FAMILY_CAP
    assert str(e.value).startswith("complement family of size p^4")


def test_isomorphism_search_refuses_past_its_vector_cap():
    """sl2 + sl2 over GF(7) has 7^6 vectors to scan, over ISO_VECTOR_CAP."""
    l = sl2sum(7)
    with pytest.raises(BudgetExceeded) as e:
        algebra_isomorphisms(l, l)
    assert e.value.count == 7 ** 6 == 117_649 > maximal.ISO_VECTOR_CAP
    assert str(e.value).startswith("isomorphism search scans p^6 vectors")


# -- Frattini subalgebra ----------------------------------------------------


def test_frattini_matches_oracle():
    for l in SMALL:
        assert frattini(l) == oracle_frattini(l)


def test_frattini_known_subspaces():
    h = heisenberg(2)
    assert frattini(h) == span(h, (0, 0, 1))
    hl = h3_plus_line(2)
    assert frattini(hl) == span(hl, (0, 0, 1, 0))
    assert frattini(sl2(5)).dim == 0


def test_frattini_is_an_ideal():
    for l in SMALL + [sl2(5), sl2sum(5)]:
        assert is_ideal(l, frattini(l))


# -- Frattini factors and supplements ---------------------------------------


def test_frattini_factor_known_values():
    h = heisenberg(2)
    z = span(h, (0, 0, 1))
    plane = span(h, (1, 0, 0), (0, 0, 1))
    assert is_frattini_factor(h, z, h.zero_space)
    assert not is_frattini_factor(h, plane, z)
    assert not is_frattini_factor(h, h.full, plane)
    hl = h3_plus_line(2)
    z4 = span(hl, (0, 0, 1, 0))
    w = span(hl, (0, 0, 0, 1))
    zw = span(hl, (0, 0, 1, 0), (0, 0, 0, 1))
    assert is_frattini_factor(hl, z4, hl.zero_space)
    assert is_frattini_factor(hl, zw, w)
    assert not is_frattini_factor(hl, w, hl.zero_space)


def test_frattini_factor_requires_chief_input():
    l = heisenberg(2)
    with pytest.raises(ValueError):
        is_frattini_factor(l, l.full, l.zero_space)


def test_frattini_iff_no_maximal_supplement():
    # The two routes to the Frattini flag agree on every chief factor.
    for l in SMALL:
        for a, b in chief_pairs(l):
            literal = is_frattini_factor(l, a, b)
            assert literal == (len(supplements_of(l, a, b)) == 0), (l, a, b)


def test_solvable_frattini_iff_not_complemented():
    for l in SMALL:
        assert is_solvable(l)
        for a, b in chief_pairs(l):
            frat = is_frattini_factor(l, a, b)
            assert frat == (len(complements_of(l, a, b)) == 0), (l, a, b)


def test_heisenberg_plane_factor_supplements():
    l = heisenberg(2)
    z = span(l, (0, 0, 1))
    p1 = span(l, (1, 0, 0), (0, 0, 1))
    supp = supplements_of(l, p1, z)
    assert len(supp) == 2 and all(subspace_leq(z, m) for m in supp)
    assert complements_of(l, p1, z) == supp


def test_supplements_require_nested_subspaces():
    l = heisenberg(2)
    with pytest.raises(ValueError):
        supplements_of(l, span(l, (1, 0, 0)), span(l, (0, 1, 0)))


def test_supplements_require_an_ideal():
    l = heisenberg(2)
    with pytest.raises(ValueError, match="requires an ideal"):
        supplements_of(l, span(l, (1, 0, 0)), l.zero_space)
    with pytest.raises(ValueError, match="requires an ideal"):
        complements_of(l, span(l, (0, 1, 0)), l.zero_space)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_supplement_tests_match_sum_and_meet_oracles(data):
    """The containment test of supplements_of and the dimension test of
    complements_of give the maximal subalgebras that the sum and meet tests
    give, for every pair of nested ideals B <= A."""
    kind = data.draw(st.sampled_from(("corpus", "random", "sl2sum")))
    if kind == "corpus":
        l = data.draw(st.sampled_from([e.algebra for e in registry()]))
    elif kind == "random":
        l = random_solvable(5, data.draw(st.sampled_from((2, 3))),
                            data.draw(st.integers(0, 10_000)))
    else:
        l = sl2sum(5)
    pool = maximal_subalgebras(l)
    ideals = all_ideals(l)
    for a, b in itertools.product(ideals, ideals):
        if subspace_leq(b, a):
            assert supplements_of(l, a, b) == oracle_supplements(l, a, b, pool)
            assert complements_of(l, a, b) == oracle_complements(l, a, b, pool)


def test_sl2sum_supplements_and_complements():
    l = sl2sum(5)
    a1, a2 = minimal_ideals(l)
    assert len(supplements_of(l, a1, l.zero_space)) == 136
    assert len(complements_of(l, a1, l.zero_space)) == 120
    assert len(supplements_of(l, l.full, a1)) == 16


# -- monolithic supplements -------------------------------------------------


def test_monolithic_supplements_flags_frattini_input():
    l = heisenberg(2)
    res = monolithic_supplements(l, span(l, (0, 0, 1)), l.zero_space)
    assert res.frattini_input and res.records == ()


def test_monolithic_supplements_exist_for_supplemented_factors():
    for l in SMALL:
        for a, b in chief_pairs(l):
            res = monolithic_supplements(l, a, b)
            if not res.frattini_input:
                assert res.records
                for rec in res.records:
                    assert is_monolithic(rec.quotient)


def test_monolithic_supplement_core_is_factor_centralizer_nonabelian():
    # For a nonabelian chief factor, every monolithic maximal supplement has
    # core equal to the centralizer of the factor.
    for l in [sl2(5), sl2sum(5)]:
        for a, b in chief_pairs(l):
            res = monolithic_supplements(l, a, b)
            assert not res.frattini_input
            cf = centralizer_of_factor(l, a, b)
            for rec in res.records:
                assert rec.core == cf


def test_sl2sum_monolithic_supplement_count():
    l = sl2sum(5)
    a1, a2 = minimal_ideals(l)
    res = monolithic_supplements(l, a1, l.zero_space)
    assert len(res.records) == 16
    assert all(rec.core == a2 for rec in res.records)


def test_monolithic_supplements_requires_chief_factor():
    l = heisenberg(2)
    with pytest.raises(ValueError):
        monolithic_supplements(l, l.full, l.zero_space)


# -- maximal records --------------------------------------------------------


def test_records_cores_and_primitive_quotients():
    # sl2sum(5) and random_solvable(3, 5, 1) have maximals holding no
    # minimal ideal (120 and 25); sl2(5) + nonabelian2(5) and the GF(5)
    # draws of dimension 5 have none
    extra = [sl2(5), sl2sum(5), direct_sum(sl2(5), nonabelian2(5))]
    draws = [random_solvable(n, 5, s) for n in (3, 5) for s in range(6)]
    for l in SMALL + extra + draws:
        for rec in maximal_records(l):
            assert rec.core == core(l, rec.subalgebra)
            assert rec.quotient_kind is not PrimitiveKind.NOT_PRIMITIVE
            assert rec.monolithic == is_monolithic(rec.quotient)


def test_record_for_roundtrip_and_rejection():
    l = heisenberg(2)
    m = maximal_subalgebras(l)[0]
    assert record_for(l, m).subalgebra == m
    with pytest.raises(ValueError):
        record_for(l, span(l, (0, 0, 1)))


# -- primitivity ------------------------------------------------------------


def test_registry_primitivity_codes():
    for entry in registry():
        if "primitive" in entry.expected:
            assert primitive_type(entry.algebra).kind.value == \
                entry.expected["primitive"], entry.name


def test_not_primitive_evidence_lists_nonzero_cores():
    for l in [heisenberg(2), h3_plus_line(2), r4(2), abelian(3, 2)]:
        rep = primitive_type(l)
        assert not rep.primitive and rep.witness is None
        assert len(rep.core_evidence) == len(maximal_subalgebras(l))
        assert all(c.dim > 0 for _, c in rep.core_evidence)
    # in the Heisenberg algebra every maximal subalgebra is itself an ideal
    rep = primitive_type(heisenberg(2))
    assert all(m == c for m, c in rep.core_evidence)


def test_primitive_witnesses_by_kind():
    rep1 = primitive_type(nonabelian2(3))
    assert rep1.kind is PrimitiveKind.ONE_ABELIAN_MINIMAL
    assert rep1.witness.dim == 1
    rep2 = primitive_type(sl2(5))
    assert rep2.kind is PrimitiveKind.ONE_NONABELIAN_MINIMAL
    assert rep2.socle_minimals == (sl2(5).full,)
    rep3 = primitive_type(sl2sum(5))
    assert rep3.kind is PrimitiveKind.TWO_NONABELIAN_MINIMALS
    assert rep3.witness.dim == 3


def test_one_dimensional_algebra_is_primitive_abelian_kind():
    l = abelian(1, 3)
    assert maximal_subalgebras(l) == (l.zero_space,)
    rep = primitive_type(l)
    assert rep.kind is PrimitiveKind.ONE_ABELIAN_MINIMAL
    assert rep.witness.dim == 0


def test_primitive_witness_supplements_every_minimal_ideal():
    for l in [nonabelian2(2), nonabelian2(3), sl2(5), sl2sum(5)]:
        rep = primitive_type(l)
        u = rep.witness
        for a in minimal_ideals(l):
            assert subspace_sum(u, a) == l.full


def test_no_proper_subalgebra_supplements_all_minimals_when_not_primitive():
    for l in [heisenberg(2), heisenberg(3), r4(2), h3_plus_line(2), abelian(3, 2)]:
        mins = minimal_ideals(l)
        for u in oracle_subalgebras(l):
            if u.dim == l.n:
                continue
            assert not all(subspace_sum(u, a) == l.full for a in mins)


def test_centralizers_of_ideals_in_primitive_algebras():
    # In a primitive algebra, with U a core-free maximal subalgebra: the
    # centralizer C of any nonzero ideal meets U trivially and is zero or a
    # minimal ideal.
    for l in [nonabelian2(2), nonabelian2(3), sl2(5), sl2sum(5)]:
        u = primitive_type(l).witness
        mins = rows_set(minimal_ideals(l))
        for a in all_ideals(l):
            if a.dim == 0:
                continue
            c = centralizer(l, a)
            assert subspace_intersect(c, u).dim == 0
            assert c.dim == 0 or c.rows in mins


# -- algebra isomorphisms ---------------------------------------------------


def _unit(n, s):
    return tuple(1 if t == s else 0 for t in range(n))


def _brute_force_isomorphisms(a, b):
    """All isomorphisms by scanning every matrix; small dimensions only."""
    n, p = a.n, a.p
    out = set()
    for cols in itertools.product(itertools.product(range(p), repeat=n), repeat=n):
        rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        if len(rref_rows(rows, p)) < n:
            continue
        th = Matrix.from_rows(rows, p)
        if all(th.apply(bracket(a, _unit(n, s), _unit(n, t)))
               == bracket(b, th.apply(_unit(n, s)), th.apply(_unit(n, t)))
               for s in range(n) for t in range(s + 1, n)):
            out.add(rows)
    return out


def test_isomorphism_search_matches_brute_force_heisenberg():
    l = heisenberg(2)
    got = rows_set_m(algebra_isomorphisms(l, l))
    assert got == _brute_force_isomorphisms(l, l)
    assert len(got) == 24


def test_isomorphism_search_matches_brute_force_nonabelian2():
    l = nonabelian2(3)
    got = rows_set_m(algebra_isomorphisms(l, l))
    assert got == _brute_force_isomorphisms(l, l)


def rows_set_m(mats):
    return {m.rows for m in mats}


@pytest.mark.parametrize("l", [sl2(5), sl2(7), random_solvable(4, 5, 0)],
                         ids=["sl2(5)", "sl2(7)", "random_solvable(4,5,0)"])
def test_fingerprint_of_a_multiple_is_the_scaled_fingerprint(l):
    # the isomorphism search fingerprints one vector per line and derives
    # the rest: ad(cv)^k = c^k ad(v)^k
    p = l.p
    for v in itertools.product(range(p), repeat=l.n):
        if any(v):
            fp = _ad_fingerprint(l, v)
            for c in range(1, p):
                assert _ad_fingerprint(l, tuple(c * x % p for x in v)) == \
                    _scaled_fingerprint(fp, c, p)


@pytest.mark.parametrize("p", [5, 7])
def test_sl2_automorphisms_match_generator_pair_scan(p):
    # Independent search: pick images for the two standard generators among
    # all vector pairs; the third basis vector is forced as their bracket.
    l = sl2(p)
    e, h, f = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    found = set()
    vecs = [v for v in itertools.product(range(p), repeat=3) if any(v)]
    for ve in vecs:
        for vf in vecs:
            vh = bracket(l, ve, vf)
            cols = (ve, vh, vf)
            rows = tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))
            if len(rref_rows(rows, p)) < 3:
                continue
            th = Matrix.from_rows(rows, p)
            if all(th.apply(bracket(l, x, y)) == bracket(l, th.apply(x), th.apply(y))
                   for x, y in [(e, h), (e, f), (h, f)]):
                found.add(rows)
    got = rows_set_m(algebra_isomorphisms(l, l))
    assert got == found
    assert len(got) == p * (p * p - 1)  # |PGL2(p)|


def test_isomorphisms_between_distinct_copies():
    l = sl2sum(5)
    a1, a2 = minimal_ideals(l)
    r1 = restrict_algebra(l, a1).algebra
    r2 = restrict_algebra(l, a2).algebra
    isos = algebra_isomorphisms(r1, r2)
    assert len(isos) == 120
    # every map transports brackets
    n = r1.n
    for th in isos[:5]:
        for s in range(n):
            for t in range(s + 1, n):
                assert th.apply(bracket(r1, _unit(n, s), _unit(n, t))) == \
                    bracket(r2, th.apply(_unit(n, s)), th.apply(_unit(n, t)))


def _unpruned_isomorphisms(a, b):
    """algebra_isomorphisms before the bracket-fingerprint skip: every
    product of the generators' fingerprint buckets is tried."""
    if a.p != b.p or a.n != b.n:
        return ()
    p, n = a.p, a.n
    abelian_parts = (_abelian_part(a, a.full), _abelian_part(b, b.full))
    if any(abelian_parts):
        return (Matrix.identity(n, p),) if all(abelian_parts) else ()
    if n == 0:
        return (Matrix.from_rows((), p),)
    gens = _generating_tuple(a)
    fps = [_ad_fingerprint(a, g) for g in gens]
    buckets = {}
    for d in nonzero_directions(n, p):
        fp = _ad_fingerprint(b, d)
        for c in range(1, p):
            buckets.setdefault(_scaled_fingerprint(fp, c, p), []).append(
                tuple(c * x % p for x in d))
    for vs in buckets.values():
        vs.sort()
    plan = _iso_plan(a, gens)
    found = []
    for imgs in itertools.product(*(buckets.get(fp, []) for fp in fps)):
        theta = _apply_plan(b, plan, imgs)
        if theta is None:
            continue
        if len(rref_rows(theta.rows, p)) < n:
            continue
        if preserves_brackets(theta, partial(bracket, a), partial(bracket, b)):
            found.append(theta)
    return tuple(found)


def test_isomorphism_skip_keeps_the_unpruned_answers(monkeypatch):
    # every pair the registry's maximal-subalgebra searches (_graph_maximals)
    # and primitivity checks ask, on each algebra and its primitive
    # quotients, and sl2(7) with itself, whose buckets hold 48 vectors
    asked = {}
    real = maximal.algebra_isomorphisms

    def record(a, b):
        asked[a, b] = None
        return real(a, b)

    monkeypatch.setattr(maximal, "algebra_isomorphisms", record)
    for entry in registry():
        l = entry.algebra
        for q in [l] + [r.quotient for r in maximal_records(l)]:
            maximal_subalgebras.__wrapped__(q)
            primitive_type(q)
    assert asked    # the two sl2 summands of sl2sum(5)
    for a, b in list(asked) + [(sl2(7), sl2(7))]:
        assert real.__wrapped__(a, b) == _unpruned_isomorphisms(a, b)


def test_isomorphisms_mismatches_are_empty():
    assert algebra_isomorphisms(sl2(5), abelian(3, 5)) == ()
    assert algebra_isomorphisms(heisenberg(2), abelian(3, 2)) == ()
    assert algebra_isomorphisms(sl2(5), heisenberg(5)) == ()
    assert algebra_isomorphisms(sl2(5), sl2(7)) == ()
    assert algebra_isomorphisms(abelian(2, 3), abelian(3, 3)) == ()


def test_isomorphisms_abelian_single_witness():
    isos = algebra_isomorphisms(abelian(3, 2), abelian(3, 2))
    assert len(isos) == 1
