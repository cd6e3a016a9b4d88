import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chieflie.algebra import ad_matrix, subspace_product
from chieflie.corpus import random_solvable
from chieflie.field import SUPPORTED_PRIMES, prime_field
from chieflie.linalg import (BudgetExceeded, Matrix, Subspace, _pair,
                             count_subspaces, enumerate_subspaces,
                             gaussian_binomial, nonzero_directions,
                             quotient_coords, rref_rows,
                             solve_linear, subspace_intersect, subspace_leq,
                             subspace_sum, vec_add, vec_scale)
from chieflie.oracle import oracle_rref_rows


def _brute_members(s: Subspace) -> set:
    """Independent span enumeration: all coefficient combinations."""
    out = set()
    for coeffs in itertools.product(range(s.p), repeat=s.dim):
        acc = (0,) * s.n
        for c, row in zip(coeffs, s.rows):
            acc = vec_add(acc, vec_scale(c, row, s.p), s.p)
        out.add(acc)
    return out


# ---------------------------------------------------------------------------
# rref canonicality
# ---------------------------------------------------------------------------

def test_rref_known_forms():
    assert rref_rows([(2, 4), (1, 2)], 5) == ((1, 2),)
    assert rref_rows([(1, 1, 0), (0, 1, 1)], 2) == ((1, 0, 1), (0, 1, 1))
    assert rref_rows([(0, 0), (0, 0)], 3) == ()


def test_rref_rejects_rows_of_unequal_length():
    for p in (2, 3):
        with pytest.raises(ValueError, match="unequal lengths"):
            rref_rows([(1, 0), (1, 1, 1)], p)
        with pytest.raises(ValueError, match="unequal lengths"):
            rref_rows([(1, 1, 1), (1, 0)], p)
        with pytest.raises(ValueError, match="unequal lengths"):
            solve_linear([(1, 0), (0, 1, 1)], (1, 1), p)


def test_rref_idempotent_and_mix_invariant():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(40):
            n = rng.randrange(1, 6)
            rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(1, 5))]
            base = rref_rows(rows, p)
            assert rref_rows(base, p) == base
            # random invertible row mixes span the same space
            mixed = list(rows)
            for _ in range(6):
                i = rng.randrange(len(mixed))
                j = rng.randrange(len(mixed))
                c = rng.randrange(1, p)
                if i != j:
                    mixed[i] = vec_add(mixed[i], vec_scale(c, mixed[j], p), p)
                else:
                    mixed[i] = vec_scale(c, mixed[i], p)
            assert rref_rows(mixed, p) == base


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_rref_kernels_match_generic_oracle(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = data.draw(st.integers(1, 10))
    entry = st.integers(-p, 2 * p - 1)
    row = st.one_of(st.just((0,) * n), st.tuples(*[entry] * n))
    rows = data.draw(st.lists(row, max_size=12))
    # Repeat some rows, so that duplicates are among the inputs too.
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    out = rref_rows(rows, p)
    assert out == oracle_rref_rows(rows, p)
    assert all(type(x) is int and 0 <= x < p for r in out for x in r)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES[1:])
def test_fold_is_exact_through_p_times_p_minus_1(p):
    # a kernel lane x + c*y of residues x, y and c is at most p(p-1); the
    # fold reduces every such lane exactly, with no carry into or out of its
    # neighbours
    w, top = prime_field(p).w, p * (p - 1)
    fold = _pair(p, 3)[2]
    for x in range(top + 1):
        for nb in {0, x, top}:
            word = nb << 2 * w | x << w | nb
            assert fold(word) == nb % p << 2 * w | x % p << w | nb % p


def test_subspace_structural_equality_and_hash():
    a = Subspace.span(3, 2, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.span(3, 2, [(1, 0, 1), (0, 1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace.span(3, 2, [(1, 1, 0)])


def test_constructor_canonicalizes_raw_rows():
    raw = Subspace(2, 2, ((1, 1), (0, 1)))
    assert raw == Subspace.full(2, 2)
    assert hash(raw) == hash(Subspace.full(2, 2))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_constructor_is_canonical_property(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    n = data.draw(st.integers(1, 5))
    entry = st.integers(-p, 2 * p - 1)
    rows = data.draw(st.lists(st.tuples(*[entry] * n), max_size=6))
    s = Subspace(n, p, rows)
    assert s == Subspace.span(n, p, rows)
    assert rref_rows(s.rows, p) == s.rows
    assert all(s.contains(r) for r in rows)
    coeffs = data.draw(st.tuples(*[st.integers(0, p - 1)] * s.dim))
    assert s.coords(s.combine(coeffs)) == coeffs


# ---------------------------------------------------------------------------
# sum / intersection / membership
# ---------------------------------------------------------------------------

def test_sum_example_gf2():
    u = Subspace.span(3, 2, [(1, 1, 0)])
    v = Subspace.span(3, 2, [(0, 1, 1)])
    s = subspace_sum(u, v)
    assert s.dim == 2
    assert s.contains((1, 0, 1))
    members = _brute_members(s)
    assert members == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}


def test_intersection_of_two_planes_gf2():
    # distinct hyperplanes of GF(2)^3 meet in a line; verified element-wise
    planes = [s for s in enumerate_subspaces(3, 2, dims=[2])]
    assert len(planes) == 7
    for u, v in itertools.combinations(planes, 2):
        w = subspace_intersect(u, v)
        assert w.dim == 1
        assert _brute_members(w) == _brute_members(u) & _brute_members(v)


def test_dimension_formula_exhaustive_gf2_cube():
    subs = list(enumerate_subspaces(3, 2))
    assert len(subs) == 16
    for u in subs:
        for v in subs:
            s = subspace_sum(u, v)
            i = subspace_intersect(u, v)
            assert s.dim + i.dim == u.dim + v.dim
            assert subspace_leq(i, u) and subspace_leq(i, v)
            assert subspace_leq(u, s) and subspace_leq(v, s)


def test_modular_law_seeded_random():
    rng = random.Random(13)
    for p in (2, 3):
        subs = list(enumerate_subspaces(3, p))
        for _ in range(120):
            u, w = rng.choice(subs), rng.choice(subs)
            if not subspace_leq(u, w):
                continue
            v = rng.choice(subs)
            lhs = subspace_intersect(subspace_sum(u, v), w)
            rhs = subspace_sum(u, subspace_intersect(v, w))
            assert lhs == rhs


def test_leq_and_contains():
    u = Subspace.span(4, 3, [(1, 0, 2, 0), (0, 1, 1, 0)])
    assert u.contains((1, 1, 0, 0))
    assert not u.contains((0, 0, 0, 1))
    assert subspace_leq(Subspace.span(4, 3, [(1, 1, 0, 0)]), u)
    assert subspace_leq(Subspace.zero(4, 3), u)
    assert subspace_leq(u, Subspace.full(4, 3))


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(3, 2), Subspace.zero(3, 3))
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(3, 2), Subspace.zero(4, 2))


# ---------------------------------------------------------------------------
# linear solving
# ---------------------------------------------------------------------------

def test_solve_unique():
    part, kernel = solve_linear([(1, 0), (0, 1)], (2, 3), 5)
    assert part == (2, 3)
    assert kernel.dim == 0


def test_solve_inconsistent():
    part, kernel = solve_linear([(1, 1), (1, 1)], (1, 2), 3)
    assert part is None
    assert kernel.dim == 1


def test_solve_underdetermined_gf3():
    # x + 2y = 0 over GF(3): kernel is the line through (1, 1)
    part, kernel = solve_linear([(1, 2)], (0,), 3)
    assert part == (0, 0)
    assert kernel == Subspace.span(2, 3, [(1, 1)])
    # oracle: check all 9 candidate vectors by substitution
    sols = {v for v in itertools.product(range(3), repeat=2) if (v[0] + 2 * v[1]) % 3 == 0}
    assert sols == _brute_members(kernel)


def test_solve_random_consistency():
    rng = random.Random(99)
    for p in (2, 3, 5):
        for _ in range(60):
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            a = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(m)]
            x = tuple(rng.randrange(p) for _ in range(n))
            b = tuple(sum(r[j] * x[j] for j in range(n)) % p for r in a)
            part, kernel = solve_linear(a, b, p)
            assert part is not None
            # particular really solves, and kernel members really annihilate
            assert all(sum(r[j] * part[j] for j in range(n)) % p == bv
                       for r, bv in zip(a, b))
            for k in kernel.rows:
                assert all(sum(r[j] * k[j] for j in range(n)) % p == 0 for r in a)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_solve_linear_matches_brute_force_property(data):
    """The kernel is the null space of A found by trying every vector, and
    a particular solution comes back exactly when some x solves A x = b."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    a = [tuple(data.draw(entries)) for _ in range(m)]
    # most calls in the library are homogeneous
    b = (0,) * m if data.draw(st.booleans()) else tuple(
        data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))

    def image(x):
        return tuple(sum(r[j] * x[j] for j in range(n)) % p for r in a)

    points = list(itertools.product(range(p), repeat=n))
    part, kernel = solve_linear(a, b, p)
    assert _brute_members(kernel) == {x for x in points if not any(image(x))}
    solvable = any(image(x) == b for x in points)
    assert (part is not None) == solvable
    if part is not None:
        assert image(part) == b


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    assert count_subspaces(2, 2) == 5
    assert count_subspaces(3, 2) == 16
    assert count_subspaces(4, 2) == 67
    assert count_subspaces(3, 3) == 28


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_enumeration_matches_counts_and_is_unique(n, p):
    subs = list(enumerate_subspaces(n, p))
    assert len(subs) == count_subspaces(n, p)
    assert len(set(subs)) == len(subs)
    dims = [s.dim for s in subs]
    assert dims == sorted(dims)


def test_enumeration_gf2_plane_lists_all_five():
    subs = list(enumerate_subspaces(2, 2))
    expect = [
        Subspace.zero(2, 2),
        Subspace.span(2, 2, [(0, 1)]),
        Subspace.span(2, 2, [(1, 0)]),
        Subspace.span(2, 2, [(1, 1)]),
        Subspace.full(2, 2),
    ]
    assert subs == expect


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_line_has_two_subspaces(p):
    assert len(list(enumerate_subspaces(1, p))) == 2


def test_enumeration_budget_refusal():
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_subspaces(7, 2))
    assert err.value.count == count_subspaces(7, 2)
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(3, 11))
    with pytest.raises(BudgetExceeded) as err2:
        list(enumerate_subspaces(6, 5))
    assert err2.value.count == count_subspaces(6, 5)


# ---------------------------------------------------------------------------
# quotient coordinates
# ---------------------------------------------------------------------------

def test_quotient_coords_full_space():
    u = Subspace.span(3, 2, [(1, 0, 1)])
    qc = quotient_coords(Subspace.full(3, 2), u)
    assert qc.dim == 2
    for q in itertools.product(range(2), repeat=2):
        assert qc.project(qc.lift(q)) == q
    # kernel is exactly u
    for v in _brute_members(u):
        assert qc.project(v) == (0, 0)
    assert qc.project((1, 0, 0)) != (0, 0)


def test_quotient_coords_inside_proper_subspace():
    w = Subspace.span(4, 3, [(1, 0, 0, 2), (0, 1, 0, 0), (0, 0, 1, 1)])
    u = Subspace.span(4, 3, [(0, 1, 0, 0)])
    qc = quotient_coords(w, u)
    assert qc.dim == 2
    for q in itertools.product(range(3), repeat=2):
        lifted = qc.lift(q)
        assert w.contains(lifted)
        assert qc.project(lifted) == q
    # cosets: shifting by u does not change the image
    for v in _brute_members(w):
        for s in _brute_members(u):
            assert qc.project(v) == qc.project(vec_add(v, s, 3))
    with pytest.raises(ValueError):
        qc.project((1, 0, 0, 0))  # not in w


def _u_in_w_quotient_coords(w: Subspace, u: Subspace):
    """(project, lift) built from U's coordinates in W, row-reduced, and the
    positions of W's basis off their pivots."""
    p = w.p
    u_in_w = Subspace(w.dim, p, [w.coords(r) for r in u.rows])
    comp = [j for j in range(w.dim) if j not in u_in_w.pivots]

    def project(v):
        resid = u_in_w.reduce(w.coords(v))
        return tuple(resid[c] for c in comp)

    def lift(q):
        coeffs = [0] * w.dim
        for c, pos in zip(q, comp):
            coeffs[pos] = c
        return w.combine(coeffs)

    return project, lift


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_coords_match_u_in_w_construction(p):
    rng = random.Random(1000 + p)
    for trial in range(60):
        n = rng.randint(1, 7)
        full = Subspace.full(n, p)
        if trial % 2:
            w = full
        else:
            w = Subspace(n, p, [tuple(rng.randrange(p) for _ in range(n))
                                for _ in range(rng.randint(0, n - 1))])
        u = Subspace(n, p, [w.combine([rng.randrange(p) for _ in range(w.dim)])
                            for _ in range(rng.randint(0, w.dim))])
        qc = quotient_coords(w, u)
        project, lift = _u_in_w_quotient_coords(w, u)
        assert qc.dim == w.dim - u.dim
        for _ in range(10):
            q = tuple(rng.randrange(p) for _ in range(qc.dim))
            assert qc.lift(q) == lift(q)
            assert qc.project(qc.lift(q)) == q
            v = w.combine([rng.randrange(p) for _ in range(w.dim)])
            assert qc.project(v) == project(v)
            s = u.combine([rng.randrange(p) for _ in range(u.dim)])
            assert qc.project(s) == (0,) * qc.dim
        for s in u.rows:
            assert qc.project(s) == (0,) * qc.dim
        outside = [v for v in full.rows if not w.contains(v)]
        assert bool(outside) == (w != full)
        for v in outside:
            with pytest.raises(ValueError, match="outside"):
                qc.project(v)


def _assert_lines_match_tuple_path(qc, spaces=None):
    """lines() is <lift(d)> over nonzero_directions and lines(spaces) is
    <lift(s.combine(d))> over each space's, in order; each line is the
    Subspace its one row builds, so its packed row is canonical."""
    n, p = qc.sub.n, qc.sub.p
    dirs = nonzero_directions(qc.dim, p) if spaces is None else [
        s.combine(d) for s in spaces for d in nonzero_directions(s.dim, p)]
    got = list(qc.lines(spaces))
    assert got == [Subspace(n, p, [qc.lift(d)]) for d in dirs]
    assert len(got) == qc.line_count(spaces)
    for line in got:
        assert line == Subspace(n, p, [line.rows[0]]) and line.dim == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quotient_lines_match_lifted_directions(p):
    """Seeded (W, U) with every line and with the Fitting cover of a random
    matrix on W/U; then L/U for U = 0 and U = [L, L] of seeded solvable
    algebras, with the Fitting cover of a random ad x."""
    rng = random.Random(2000 + p)
    top = {2: 8, 3: 5, 5: 4, 7: 4}[p]
    for trial in range(40):
        n = rng.randint(1, top)
        w = Subspace(n, p, [tuple(rng.randrange(p) for _ in range(n))
                            for _ in range(rng.randint(0, n))])
        u = Subspace(n, p, [w.combine([rng.randrange(p) for _ in range(w.dim)])
                            for _ in range(rng.randint(0, w.dim))])
        qc = quotient_coords(w, u)
        _assert_lines_match_tuple_path(qc)
        k = qc.dim
        m = Matrix(p, tuple(tuple(rng.randrange(p) for _ in range(k))
                            for _ in range(k)))
        _assert_lines_match_tuple_path(qc, m.fitting_cover())
    for seed in range(4):
        l = random_solvable(top, p, seed)
        for u in (l.zero_space, subspace_product(l, l.full, l.full)):
            qc = quotient_coords(l.full, u)
            x = tuple(rng.randrange(p) for _ in range(l.n))
            _assert_lines_match_tuple_path(
                qc, ad_matrix(l, x, qc).fitting_cover())


def test_quotient_coords_requires_containment():
    with pytest.raises(ValueError):
        quotient_coords(Subspace.span(3, 2, [(1, 0, 0)]), Subspace.span(3, 2, [(0, 1, 0)]))


# ---------------------------------------------------------------------------
# small matrix helper
# ---------------------------------------------------------------------------

def test_matrix_apply_and_column():
    m = Matrix.from_rows([(1, 2), (0, 1)], 3)
    assert m.apply((1, 1)) == (0, 1)
    assert m.column(1) == (2, 1)
    assert Matrix.identity(2, 3).apply((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        m.apply((1, 0, 0))


def test_matrix_products_refuse_mismatched_shapes():
    m = Matrix.identity(3, 5)
    with pytest.raises(ValueError, match="2x2 matrix by a 3x3"):
        Matrix.identity(2, 5) @ m
    row = Matrix.from_rows([(1, 2, 3)], 5)
    with pytest.raises(ValueError, match="1x3"):
        row ** 2
    with pytest.raises(ValueError, match="1x3"):
        row ** 1
    assert (m @ m) == m and m ** 3 == m


def test_matrix_power_zero_is_identity_and_negative_refuses():
    m = Matrix.from_rows([(1, 2), (3, 4)], 5)
    assert m ** 0 == Matrix.identity(2, 5)
    assert m ** 1 == m and m ** 2 == m @ m
    with pytest.raises(ValueError, match="power -1"):
        m ** -1
    with pytest.raises(ValueError, match="1x3"):
        Matrix.from_rows([(1, 2, 3)], 5) ** 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_matrix_inverse_against_random_matrices(p):
    rng = random.Random(2100 + p)
    singular = 0
    for _ in range(200):
        k = rng.randint(1, 5)
        m = Matrix.from_rows([[rng.randrange(p) for _ in range(k)]
                              for _ in range(k)], p)
        if len(rref_rows(m.rows, p)) < k:
            singular += 1
            with pytest.raises(ValueError, match="no inverse"):
                m.inverse()
        else:
            assert m @ m.inverse() == Matrix.identity(k, p)
            assert m.inverse() @ m == Matrix.identity(k, p)
    assert singular > 0
    with pytest.raises(ValueError, match="no inverse"):
        Matrix.from_rows([(1, 0, 0), (0, 1, 0)], p).inverse()
    with pytest.raises(ValueError, match="no inverse"):
        Matrix.from_rows([(0, 0), (0, 0)], p).inverse()


def test_nonzero_directions():
    assert nonzero_directions(2, 2) == ((0, 1), (1, 0), (1, 1))
    assert len(nonzero_directions(3, 5)) == (5 ** 3 - 1) // 4
