import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chieflie.algebra import (LieAlgebra, ValidationError, ad_matrix, bracket,
                              check_valid, derivation_space, direct_sum,
                              extend_by_derivation, is_ideal, is_subalgebra,
                              quotient_algebra, restrict_algebra, semidirect,
                              subspace_product, validate)
from chieflie.corpus import (abelian, heisenberg, nonabelian2, r4,
                             random_solvable, registry, sl2, sl2sum)
from chieflie.fileio import format_algebra, parse_algebra
from chieflie.ideals import all_ideals
from chieflie.linalg import Matrix, Subspace, rref_rows, vec_add
from chieflie.maximal import maximal_subalgebras


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_abelian_ok():
    assert validate(abelian(3, 5)).ok


def test_validate_catches_antisymmetry():
    # both orders set to +e3 (bypassing the antisymmetric completion)
    n = 3
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    sc[0][1][2] = 1
    sc[1][0][2] = 1
    bad = LieAlgebra(n, 3, tuple(tuple(tuple(r) for r in pl) for pl in sc))
    rep = validate(bad)
    assert not rep.ok
    assert rep.kind == "antisymmetry"
    assert rep.triple == (0, 1)


def test_validate_catches_a_nonzero_square_over_gf2():
    # [x1, x1] = x2: over GF(2), sc[0][0] + sc[0][0] = 0 for any entry, so
    # the diagonal is tested on its own; over GF(3) too
    for p in (2, 3):
        bad = LieAlgebra(2, p, (((0, 1), (0, 0)), ((0, 0), (0, 0))))
        rep = validate(bad)
        assert (rep.ok, rep.kind, rep.triple) == (False, "antisymmetry",
                                                  (0, 0))
        assert rep.lhs == rep.rhs == (0, 1)


def test_validate_catches_jacobi():
    # [x1,x2]=x3 and [x1,x3]=x1 leave a Jacobi defect of x3 at (1,2,3)
    n = 3
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), k in {(0, 1): 2, (0, 2): 0}.items():
        sc[i][j][k] = 1
        sc[j][i][k] = 2
    bad = LieAlgebra(n, 3, tuple(tuple(tuple(r) for r in pl) for pl in sc))
    rep = validate(bad)
    assert not rep.ok
    assert rep.kind == "jacobi"
    assert rep.triple == (0, 1, 2)
    assert any(rep.lhs)


def test_sl2_satisfies_jacobi_hand_check():
    l = sl2(5)
    e, h, f = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    # independent spot check of the only interesting triple
    t1 = bracket(l, e, bracket(l, h, f))
    t2 = bracket(l, h, bracket(l, f, e))
    t3 = bracket(l, f, bracket(l, e, h))
    assert tuple((a + b + c) % 5 for a, b, c in zip(t1, t2, t3)) == (0, 0, 0)
    assert validate(l).ok


def test_from_brackets_completion_is_antisymmetric():
    l = heisenberg(7)
    assert l.sc[0][1] == (0, 0, 1)
    assert l.sc[1][0] == (0, 0, 6)
    assert validate(l).ok


def test_from_brackets_rejects_bad_lengths_and_fields():
    with pytest.raises(ValueError, match="length 2, not dimension 3"):
        LieAlgebra.from_brackets(3, 2, {(0, 1): (0, 1)})
    with pytest.raises(ValueError, match="length 4, not dimension 3"):
        LieAlgebra.from_brackets(3, 3, {(0, 1): (0, 0, 1, 0)})
    for p in (0, 1, 4):
        with pytest.raises(ValueError, match=f"unsupported prime {p}"):
            LieAlgebra.from_brackets(3, p, {(0, 1): (0, 0, 1)})
        with pytest.raises(ValueError, match=f"unsupported prime {p}"):
            LieAlgebra.from_brackets(2, p, {})


def test_from_brackets_rejects_labels_of_the_wrong_length():
    """An algebra with the wrong number of labels would format to a file
    that parse_algebra refuses; from_brackets refuses it instead."""
    for labels in (("a",), ("a", "b", "c", "d")):
        with pytest.raises(ValueError, match=f"{len(labels)} labels for dimension 3"):
            LieAlgebra.from_brackets(3, 2, {(0, 1): (0, 0, 1)}, labels)
    l = LieAlgebra.from_brackets(3, 2, {(0, 1): (0, 0, 1)}, ("a", "b", "c"))
    assert parse_algebra(format_algebra(l)).labels == ("a", "b", "c")


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_bracket_heisenberg():
    l = heisenberg(2)
    assert bracket(l, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert bracket(l, (0, 1, 0), (1, 0, 0)) == (0, 0, 1)  # -1 = 1 mod 2
    assert bracket(l, (0, 0, 1), (1, 1, 0)) == (0, 0, 0)


def test_bracket_bilinear_and_alternating_random():
    rng = random.Random(5)
    for l in (heisenberg(3), sl2(5), nonabelian2(3)):
        p = l.p
        for _ in range(30):
            u = tuple(rng.randrange(p) for _ in range(l.n))
            v = tuple(rng.randrange(p) for _ in range(l.n))
            w = tuple(rng.randrange(p) for _ in range(l.n))
            assert bracket(l, u, u) == (0,) * l.n
            assert bracket(l, u, v) == tuple(-x % p for x in bracket(l, v, u))
            assert bracket(l, vec_add(u, v, p), w) == \
                vec_add(bracket(l, u, w), bracket(l, v, w), p)


def test_bracket_sl2():
    l = sl2(5)
    e, h, f = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert bracket(l, h, e) == (2, 0, 0)
    assert bracket(l, h, f) == (0, 0, 3)
    assert bracket(l, e, f) == (0, 1, 0)


# ---------------------------------------------------------------------------
# subspace products, subalgebras, ideals
# ---------------------------------------------------------------------------

def test_derived_subspace_products():
    h = heisenberg(2)
    # oracle: span of all 9 basis brackets, computed directly
    prods = [bracket(h, h.basis_vector(i), h.basis_vector(j))
             for i in range(3) for j in range(3)]
    assert rref_rows(prods, 2) == ((0, 0, 1),)
    assert subspace_product(h, h.full, h.full) == Subspace.span(3, 2, [(0, 0, 1)])

    a = abelian(3, 3)
    assert subspace_product(a, a.full, a.full).dim == 0

    s = sl2(5)
    assert subspace_product(s, s.full, s.full).dim == 3  # perfect


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_antisymmetric_products_match_all_pairs(data):
    """[U, U] and a quotient's tensor, which bracket only pairs i < j,
    equal the span of all ordered pairs and the tensor of all of them."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    l = random_solvable(data.draw(st.integers(2, 5)), p,
                        data.draw(st.integers(0, 10_000)))
    vec = st.tuples(*[st.integers(0, p - 1)] * l.n)
    u = Subspace(l.n, p, data.draw(st.lists(vec, max_size=4)))
    assert subspace_product(l, u, u) == Subspace(
        l.n, p, [bracket(l, a, b) for a in u.rows for b in u.rows])
    q = quotient_algebra(l, data.draw(st.sampled_from(all_ideals(l))))
    lifts = [q.coords.lift(e) for e in Subspace.full(q.algebra.n, p).rows]
    assert q.algebra.sc == tuple(tuple(q.coords.project(bracket(l, a, b))
                                       for b in lifts) for a in lifts)


def test_is_subalgebra_and_ideal():
    h = heisenberg(2)
    z = Subspace.span(3, 2, [(0, 0, 1)])
    plane = Subspace.span(3, 2, [(1, 0, 0), (0, 0, 1)])
    offplane = Subspace.span(3, 2, [(1, 0, 0), (0, 1, 0)])
    assert is_subalgebra(h, z) and is_ideal(h, z)
    assert is_subalgebra(h, plane) and is_ideal(h, plane)
    assert not is_subalgebra(h, offplane)  # [x1,x2] = x3 escapes
    s = sl2(5)
    borel = Subspace.span(3, 5, [(1, 0, 0), (0, 1, 0)])
    assert is_subalgebra(s, borel)
    assert not is_ideal(s, borel)


def test_predicates_refuse_a_subspace_of_another_space():
    h = heisenberg(3)
    other_field = Subspace(3, 5, [(1, 0, 0)])
    other_dim = Subspace(2, 3, [(1, 0)])
    with pytest.raises(ValueError, match=r"GF\(5\)\^3"):
        is_ideal(h, other_field)
    with pytest.raises(ValueError, match=r"GF\(3\)\^2"):
        is_subalgebra(h, other_dim)
    with pytest.raises(ValueError, match=r"GF\(3\)\^2"):
        subspace_product(h, other_dim, Subspace.full(2, 3))
    with pytest.raises(ValueError, match=r"GF\(3\)\^2"):
        subspace_product(h, h.full, other_dim)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_heisenberg_by_center_is_abelian():
    h = heisenberg(2)
    q = quotient_algebra(h, Subspace.span(3, 2, [(0, 0, 1)]))
    assert q.algebra.n == 2
    assert all(not any(v) for plane in q.algebra.sc for v in plane)


def test_quotient_by_zero_is_same_structure():
    for l in (heisenberg(3), sl2(5)):
        q = quotient_algebra(l, l.zero_space)
        assert q.algebra.sc == l.sc


def test_quotient_by_whole_algebra_is_zero():
    l = heisenberg(2)
    q = quotient_algebra(l, l.full)
    assert q.algebra.n == 0


def test_quotient_projection_is_homomorphism():
    rng = random.Random(11)
    for l, ideal in [
        (heisenberg(3), Subspace.span(3, 3, [(0, 0, 1)])),
        (r4(2), Subspace.span(4, 2, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])),
        (sl2sum(5), Subspace.span(6, 5, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                                         (0, 0, 1, 0, 0, 0)])),
    ]:
        q = quotient_algebra(l, ideal)
        for _ in range(25):
            u = tuple(rng.randrange(l.p) for _ in range(l.n))
            v = tuple(rng.randrange(l.p) for _ in range(l.n))
            lhs = q.coords.project(bracket(l, u, v))
            rhs = bracket(q.algebra, q.coords.project(u), q.coords.project(v))
            assert lhs == rhs


def test_quotient_requires_ideal():
    with pytest.raises(ValueError):
        quotient_algebra(sl2(5), Subspace.span(3, 5, [(1, 0, 0)]))


def test_induced_algebras_match_all_pairs():
    """restrict_algebra and quotient_algebra, which bracket only the pairs
    i < j, give the tensor of all ordered pairs, on every maximal
    subalgebra and every ideal of the registry algebras and of seeded
    random solvable ones.  No induced algebra carries labels, so the
    memoised quotient is the same whichever equal algebra asked first."""

    def all_pairs(l, rows, coords):
        return tuple(tuple(coords(bracket(l, x, y)) for y in rows)
                     for x in rows)

    for l in [e.algebra for e in registry()] + [
            random_solvable(n, p, seed)
            for p in (2, 3, 5) for n in (3, 4, 5) for seed in (1, 2)]:
        for m in maximal_subalgebras(l):
            r = restrict_algebra(l, m).algebra
            assert r.sc == all_pairs(l, m.rows, m.coords)
            assert r.labels is None
        for b in all_ideals(l):
            q = quotient_algebra(l, b)
            lifts = [q.coords.lift(e)
                     for e in Subspace.full(q.algebra.n, l.p).rows]
            assert q.algebra.sc == all_pairs(l, lifts, q.coords.project)
            assert q.algebra.labels is None


def test_quotient_by_zero_carries_no_labels_in_either_order():
    """quotient_algebra's memo key ignores labels, so L/0 of a labelled
    algebra and of an equal unlabelled one share one answer: it carries no
    labels, whichever of the two was asked first."""
    labelled, plain = random_solvable(2, 2, 0), abelian(2, 2)
    assert labelled == plain and labelled.labels != plain.labels
    for first, second in ((labelled, plain), (plain, labelled)):
        quotient_algebra.cache_clear()
        for l in (first, second):
            assert quotient_algebra(l, l.zero_space).algebra.labels is None


def test_section_maps_match_the_row_built_path():
    """For each section W/U, L/B for every ideal B and U/0 for every
    maximal U: coords.preimage(Q), one packed span of Q's lifts over U's
    basis, is the row-built span of the lifted rows and U's rows for every
    ideal Q of the section, image and preimage are inverse to each other,
    and image refuses a row outside W.  On the registry algebras and seeded
    random solvable ones over GF(2), GF(3), GF(5) and GF(7)."""
    for l in [e.algebra for e in registry()] + [
            random_solvable(n, p, seed) for p, top in ((2, 5), (3, 5), (5, 4),
                                                      (7, 4))
            for n in range(3, top + 1) for seed in (1, 2)]:
        for s in [quotient_algebra(l, b) for b in all_ideals(l)] + [
                restrict_algebra(l, m) for m in maximal_subalgebras(l)]:
            qc = s.coords
            for q in all_ideals(s.algebra):
                x = qc.preimage(q)
                assert x == Subspace(l.n, l.p, [qc.lift(r) for r in q.rows]
                                     + list(qc.sub.rows))
                assert qc.image(x) == q and qc.preimage(qc.image(x)) == x
            outside = [e for e in l.full.rows if not qc.space.contains(e)]
            if outside:
                with pytest.raises(ValueError, match="outside"):
                    qc.image(Subspace(l.n, l.p, outside[:1]))


def test_restrict_algebra_roundtrip():
    s = sl2sum(5)
    first = Subspace.span(6, 5, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                                 (0, 0, 1, 0, 0, 0)])
    pres = restrict_algebra(s, first)
    assert pres.algebra.sc == sl2(5).sc
    v = (2, 1, 0)
    assert pres.coords.project(pres.coords.lift(v)) == v


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_direct_sum_components_are_ideals():
    s = sl2sum(5)
    a = Subspace.span(6, 5, [tuple(1 if i == j else 0 for j in range(6)) for i in range(3)])
    b = Subspace.span(6, 5, [tuple(1 if i == j else 0 for j in range(6)) for i in range(3, 6)])
    assert is_ideal(s, a) and is_ideal(s, b)
    assert subspace_product(s, a, b).dim == 0


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(abelian(2, 2), abelian(2, 3))


def test_semidirect_r4():
    l = r4(3)
    assert bracket(l, (1, 0, 0, 0), (0, 1, 0, 0)) == (0, 1, 0, 0)
    assert bracket(l, (1, 0, 0, 0), (0, 0, 0, 1)) == (0, 0, 0, 1)
    assert bracket(l, (0, 1, 0, 0), (0, 0, 1, 0)) == (0, 0, 0, 0)
    assert validate(l).ok


def test_semidirect_rejects_noncommuting_action():
    # two non-commuting action matrices on an abelian pair of generators
    m1 = Matrix.from_rows([(0, 1), (0, 0)], 3)
    m2 = Matrix.from_rows([(1, 0), (0, 0)], 3)
    with pytest.raises(ValidationError) as err:
        semidirect([m1, m2], 2, 3)
    assert err.value.report.kind == "jacobi"
    assert err.value.report.triple is not None


def test_extend_by_derivation_builds_nonabelian2():
    l = extend_by_derivation(abelian(1, 5, ("y",)), Matrix.from_rows([(1,)], 5), "x")
    assert l.sc == nonabelian2(5).sc


def test_derivation_space_heisenberg_dimension():
    # Der(heisenberg) over GF(p) has dimension 6; cross-checked by the
    # derivation identity on random pairs
    ders = derivation_space(heisenberg(3))
    assert len(ders) == 6
    h = heisenberg(3)
    rng = random.Random(3)
    for d in ders:
        for _ in range(10):
            u = tuple(rng.randrange(3) for _ in range(3))
            v = tuple(rng.randrange(3) for _ in range(3))
            lhs = d.apply(bracket(h, u, v))
            rhs = vec_add(bracket(h, d.apply(u), v), bracket(h, u, d.apply(v)), 3)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# ad matrices
# ---------------------------------------------------------------------------

def test_ad_matrix_abelian_is_zero():
    l = abelian(3, 5)
    m = ad_matrix(l, (1, 2, 3))
    assert all(not any(r) for r in m.rows)


def test_ad_matrix_central_element_is_zero():
    h = heisenberg(3)
    m = ad_matrix(h, (0, 0, 1))
    assert all(not any(r) for r in m.rows)


def test_ad_matrix_sl2_h_is_diagonal():
    s = sl2(5)
    m = ad_matrix(s, (0, 1, 0))
    assert m.rows == ((2, 0, 0), (0, 0, 0), (0, 0, 3))  # diag(2, 0, -2)


def test_ad_matrix_matches_bracket():
    rng = random.Random(17)
    for l in (sl2(7), r4(3)):
        for _ in range(20):
            x = tuple(rng.randrange(l.p) for _ in range(l.n))
            v = tuple(rng.randrange(l.p) for _ in range(l.n))
            assert ad_matrix(l, x).apply(v) == bracket(l, x, v)
