"""Chief factors and the relations between them.

A chief factor A/B is a pair of ideals B < A with A/B a minimal ideal of
L/B.  Each factor is classified three ways:

* abelian        -- [A, A] <= B;
* Frattini       -- A/B lies inside the Frattini subalgebra of L/B;
* supplemented   -- some maximal subalgebra M satisfies L = A + M, B <= M;
  complemented additionally requires A n M = B.

Frattini and supplemented are mutually exclusive and exhaustive; the factory
computes both routes independently and refuses to construct a factor where
they disagree.

The *descent* relation A/B -> C/D (written descends_to) holds when
A = B + C and B n C = D; the two factors are then isomorphic as modules.
For chief factors it is three containments, C <= A, D <= B and C not <= B:
then B + C is an ideal strictly above B inside A, so it is A, and B n C is
an ideal strictly below C containing D, so it is D.  A *crossing* is a
descent from a Frattini factor onto a supplemented one; its factors are
forced to be abelian.  Crossings can be swapped: the two intermediate
quotients A/C and B/D form a crossing again, with B/D picking up exactly
the supplements of C/D.

Two chief factors are *related* when they are tied together by one of four
witness shapes: a common supplemented ancestor, a crossing hanging below
both, a common Frattini descendant, or a crossing hanging above both.  This
is the equivalence used by the chief-series matching theorems.  The two
crossing shapes never decide it: a crossing below both gives them a common
supplemented ancestor, and one above both a common Frattini descendant
(proof in RelationTable).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial

from .algebra import (LieAlgebra, ad_matrix, bracket, is_ideal,
                      is_subalgebra, preserves_brackets, quotient_algebra,
                      subspace_product)
from .errors import VerificationError, require
from .ideals import (ChiefSeries, all_ideals, centralizer_of_factor,
                     ideal_lattice, is_chief_pair, minimal_ideals_over)
from .linalg import (BudgetExceeded, Matrix, Subspace, _hash_once,
                     quotient_coords, rref_rows, solve_linear,
                     subspace_intersect, subspace_leq, subspace_sum)
from .maximal import (MaximalRecord, PrimitiveKind, complements_among,
                      is_maximal, is_frattini_factor, maximal_subalgebras,
                      monolithic_supplements, primitive_type, record_for,
                      supplements_of)

# Cap on the scan over nonzero module homomorphisms when looking for one
# that also transports the factor-algebra bracket.
HOM_SCAN_CAP = 4096


# -- the factor object ------------------------------------------------------


@_hash_once
@dataclass(frozen=True)
class ChiefFactor:
    """A chief factor A/B with its classification and supplement lists."""

    algebra: LieAlgebra
    a: Subspace
    b: Subspace
    abelian: bool = dc_field(compare=False)
    frattini: bool = dc_field(compare=False)
    supplemented: bool = dc_field(compare=False)
    complemented: bool = dc_field(compare=False)
    supplements: tuple[Subspace, ...] = dc_field(compare=False)
    complements: tuple[Subspace, ...] = dc_field(compare=False)

    @property
    def dim(self) -> int:
        return self.a.dim - self.b.dim

    @property
    def classification(self) -> str:
        if self.frattini:
            return "frattini"
        return "complemented" if self.complemented else "supplemented"

    def key(self):
        return (self.a.key(), self.b.key())

    def __repr__(self) -> str:
        flags = "F" if self.frattini else ("C" if self.complemented else "S")
        return (f"ChiefFactor({self.a.dim}/{self.b.dim}, "
                f"{'abelian' if self.abelian else 'nonabelian'}, {flags})")


@lru_cache(maxsize=None)
def get_factor(l: LieAlgebra, a: Subspace, b: Subspace) -> ChiefFactor:
    """Build the chief factor A/B, classifying it along the way.

    Raises ValueError when A/B is not a chief factor (naming an intermediate
    ideal when one exists), and VerificationError if the two routes to the
    Frattini flag disagree.
    """
    if not subspace_leq(b, a) or b.dim >= a.dim:
        raise ValueError("a chief factor needs ideals b < a")
    # is_chief_pair tests both ends for being ideals; is_ideal runs only to
    # pick the message.
    if not is_chief_pair(l, a, b):
        if not is_ideal(l, a) or not is_ideal(l, b):
            raise ValueError("chief factor endpoints must be ideals")
        between = minimal_ideals_over(l, b, within=a)[0]
        raise ValueError(
            f"not a chief factor: a {between.dim}-dimensional ideal sits "
            f"strictly between the endpoints")
    abelian = subspace_leq(ideal_lattice(l).per_ideal(_derived, a), b)
    supps = supplements_of(l, a, b)
    comps = complements_among(a, b, supps)
    frat = is_frattini_factor(l, a, b)
    if frat == bool(supps):
        raise VerificationError(
            "Frattini flag and maximal-supplement search disagree")
    return ChiefFactor(l, a, b, abelian, frat, bool(supps), bool(comps),
                       supps, comps)


def _derived(l: LieAlgebra, u: Subspace) -> Subspace:
    return subspace_product(l, u, u)


def series_factors(series: ChiefSeries) -> tuple[ChiefFactor, ...]:
    """series' chief factors, bottom up, kept once per series on its
    algebra's ideal lattice."""
    return ideal_lattice(series.algebra).per_ideal(_series_factors, series)


def _series_factors(l: LieAlgebra, series: ChiefSeries):
    return tuple(get_factor(l, a, b) for a, b in series.factor_pairs())


def chief_factor_catalog(l: LieAlgebra) -> tuple[ChiefFactor, ...]:
    """Every chief factor between ideals of L, canonically ordered: A/B is
    chief exactly when A is a minimal ideal over B."""
    out = [get_factor(l, a, b)
           for b in all_ideals(l) for a in minimal_ideals_over(l, b)]
    out.sort(key=ChiefFactor.key)
    return tuple(out)


# -- relaxed (subalgebra-level) predicates ----------------------------------


def supplements_relaxed(l: LieAlgebra, a: Subspace, b: Subspace,
                        m: Subspace) -> bool:
    """L = A + M and B <= M for a subalgebra M, maximal or not."""
    return (is_subalgebra(l, m) and subspace_sum(a, m) == l.full
            and subspace_leq(b, m))


def complements_relaxed(l: LieAlgebra, a: Subspace, b: Subspace,
                        m: Subspace) -> bool:
    return (supplements_relaxed(l, a, b, m)
            and subspace_intersect(a, m) == b)


def _same_algebra(f: ChiefFactor, g: ChiefFactor) -> None:
    if f.algebra != g.algebra:
        raise ValueError("the two chief factors must be of the same algebra")


# -- descent ----------------------------------------------------------------


# descends_to and the two series transfers (jordanholder) are memoised
# because matching revisits the same arguments: on a seed-0 jh_corpus pass
# (the 1663 ordered pairs of criterion 3), descends_to runs 5,790 times on
# 543 distinct factor pairs and the transfers 6,132 times on 2,682 distinct
# (factor, series) pairs, which land at 1,445 (factor, step) pairs.
@lru_cache(maxsize=None)
def descends_to(f: ChiefFactor, g: ChiefFactor) -> bool:
    """Whether A/B descends onto C/D: A = B + C and B n C = D."""
    _same_algebra(f, g)
    return (subspace_leq(g.a, f.a) and subspace_leq(g.b, f.b)
            and not subspace_leq(g.a, f.b))


# -- crossings --------------------------------------------------------------


@dataclass(frozen=True)
class MCrossing:
    """A descent from a Frattini chief factor onto a supplemented one."""

    top: ChiefFactor
    bottom: ChiefFactor

    def __repr__(self) -> str:
        return (f"MCrossing({self.top.a.dim}/{self.top.b.dim} -> "
                f"{self.bottom.a.dim}/{self.bottom.b.dim})")


def is_m_crossing(f: ChiefFactor, g: ChiefFactor) -> bool:
    _same_algebra(f, g)
    return f.frattini and g.supplemented and descends_to(f, g)


def make_crossing(f: ChiefFactor, g: ChiefFactor) -> MCrossing:
    if not is_m_crossing(f, g):
        raise ValueError("not a crossing: need a Frattini factor descending "
                         "onto a supplemented one")
    # Were the bottom nonabelian, monolithic supplements would climb the
    # descent and contradict the Frattini top.
    if not g.abelian or not f.abelian:
        raise VerificationError("crossing factors must be abelian")
    return MCrossing(f, g)


def crossing_catalog(l: LieAlgebra) -> tuple[MCrossing, ...]:
    return relation_table(l).crossings


def m_crossing_swap(x: MCrossing) -> MCrossing:
    """Swap the crossing [A/B -> C/D] into [A/C -> B/D].

    Requires the intermediate quotients A/C and B/D to be chief factors;
    verifies that the swapped pair is again a crossing and that B/D has
    exactly the supplements of C/D.
    """
    l = x.top.algebra
    a_, b_ = x.top.a, x.top.b
    c_, d_ = x.bottom.a, x.bottom.b
    if not is_chief_pair(l, a_, c_) or not is_chief_pair(l, b_, d_):
        raise ValueError("swap requires both intermediate quotients to be "
                         "chief factors")
    mid_top = get_factor(l, a_, c_)
    mid_bot = get_factor(l, b_, d_)
    if not descends_to(mid_top, mid_bot):
        raise VerificationError("swapped crossing does not descend")
    if not mid_top.frattini:
        raise VerificationError("swapped top is not Frattini")
    if not mid_bot.supplemented:
        raise VerificationError("swapped bottom is not supplemented")
    if set(mid_bot.supplements) != set(x.bottom.supplements):
        raise VerificationError(
            "swapped bottom must have exactly the supplements of the "
            "original bottom")
    return make_crossing(mid_top, mid_bot)


# -- module and algebra comparison ------------------------------------------


@lru_cache(maxsize=None)
def _action_matrices(f: ChiefFactor):
    """For each ambient basis element, the matrix of its action on A/B."""
    l = f.algebra
    qc = quotient_coords(f.a, f.b)
    return qc, [ad_matrix(l, e, qc).rows for e in l.full.rows]


def module_hom_space(f: ChiefFactor, g: ChiefFactor) -> Subspace:
    """The space of module homomorphisms A/B -> C/D as flattened matrices."""
    _same_algebra(f, g)
    l = f.algebra
    p = l.p
    df, dg = f.dim, g.dim
    _, actf = _action_matrices(f)
    _, actg = _action_matrices(g)
    nunk = dg * df
    rows = []
    for i in range(l.n):
        af, ag = actf[i], actg[i]
        for r in range(dg):
            for c in range(df):
                row = [0] * nunk
                for k in range(df):
                    row[r * df + k] += af[k][c]
                for k in range(dg):
                    row[k * df + c] -= ag[r][k]
                rows.append(tuple(x % p for x in row))
    _, kernel = solve_linear(tuple(rows), tuple([0] * len(rows)), p)
    return kernel


def _factor_bracket(f: ChiefFactor, qc, u, v):
    """[u, v] in the factor algebra A/B, in the quotient coordinates qc."""
    return qc.project(bracket(f.algebra, qc.lift(u), qc.lift(v)))


def l_isomorphic(f: ChiefFactor, g: ChiefFactor) -> Matrix | None:
    """A single map that is simultaneously a module isomorphism and an
    isomorphism of the factor algebras, or None.

    Any nonzero module homomorphism between chief factors is bijective
    (irreducibility), which is re-verified rather than assumed.  So the
    inverse of such a map for g and f is one for f and g: only the pair's
    orientation with the smaller key first is solved, and f is its own.
    One-dimensional factors are not solved: their module maps are scalars,
    so the solve's answer is the identity when their weights agree, else None.
    """
    _same_algebra(f, g)
    if f.dim != g.dim:
        return None
    if f == g:
        return Matrix.identity(f.dim, f.algebra.p)
    if f.dim == 1:
        return (Matrix.identity(1, f.algebra.p) if _action_matrices(f)[1]
                == _action_matrices(g)[1] else None)
    if g.key() < f.key():
        theta = l_isomorphic(g, f)
        return None if theta is None else theta.inverse()
    l = f.algebra
    p = l.p
    d = f.dim
    kernel = module_hom_space(f, g)
    if kernel.dim == 0:
        return None
    if p ** kernel.dim > HOM_SCAN_CAP:
        raise BudgetExceeded(
            f"module homomorphism scan of size p^{kernel.dim} exceeds cap",
            p ** kernel.dim)
    qf, _ = _action_matrices(f)
    qg, _ = _action_matrices(g)
    for flat in kernel.vectors():
        if not any(flat):
            continue
        rows = tuple(tuple(flat[r * d + c] for c in range(d)) for r in range(d))
        if len(rref_rows(rows, p)) < d:
            raise VerificationError(
                "nonzero module homomorphism between chief factors is "
                "singular")
        theta = Matrix.from_rows(rows, p)
        if preserves_brackets(theta, partial(_factor_bracket, f, qf),
                              partial(_factor_bracket, g, qg)):
            return theta
    return None


@dataclass(frozen=True)
class LConnection:
    """Witness that two chief factors are connected.

    mode "module_isomorphic": a single bracket-and-action preserving map.
    mode "split_primitive_quotient": an ideal N with L/N primitive with two
    nonabelian minimal ideals whose pullback factors match the two inputs.
    """

    mode: str
    iso: Matrix | None = None
    ideal: Subspace | None = None
    first_factor: tuple | None = None
    second_factor: tuple | None = None


def l_connected(f: ChiefFactor, g: ChiefFactor) -> LConnection | None:
    _same_algebra(f, g)
    iso = l_isomorphic(f, g)
    if iso is not None:
        return LConnection("module_isomorphic", iso=iso)
    l = f.algebra
    for n_ideal in all_ideals(l):
        if n_ideal.dim == l.n:
            continue
        q = quotient_algebra(l, n_ideal)
        rep = primitive_type(q.algebra)
        if rep.kind is not PrimitiveKind.TWO_NONABELIAN_MINIMALS:
            continue
        m1, m2 = rep.socle_minimals
        f1 = get_factor(l, q.preimage_subspace(m1), n_ideal)
        f2 = get_factor(l, q.preimage_subspace(m2), n_ideal)
        for x, y in ((f1, f2), (f2, f1)):
            if l_isomorphic(f, x) is not None and l_isomorphic(g, y) is not None:
                return LConnection("split_primitive_quotient", ideal=n_ideal,
                                   first_factor=(x.a, x.b),
                                   second_factor=(y.a, y.b))
    return None


# -- the four-case relatedness test -----------------------------------------


@dataclass(frozen=True)
class MRelation:
    """Witness for relatedness of two chief factors.

    case 1: middle is a supplemented chief factor descending onto both.
    case 2: crossing [U/V -> W/X]; middle is V/X, descending onto the first
            factor while W/X descends onto the second.
    case 3: middle is a Frattini chief factor both factors descend onto.
    case 4: crossing [U/V -> W/X]; middle is U/W; the first factor descends
            onto U/V and the second onto U/W.
    """

    case: int
    middle: ChiefFactor
    crossing: MCrossing | None = None


class RelationTable:
    """The descents among the n chief factors of L as bitsets over the
    catalog, and each series' relation rows, on first use.  The catalog is
    the ideal lattice's cover relation: climbing it, ideal U gets the
    factors whose top (bits [0, n)) and bottom (bits [n, 2n)) lie above U,
    and descending it, those below U.  So by descends_to's three
    containments the factors descending onto C/D are tops above C &
    bottoms above D & ~bottoms above C, and those A/B descends onto tops
    below A & bottoms below B & ~tops below B (_family).

    The crossing shapes never decide relatedness: case 2 implies case 1 and
    case 4 implies case 3.  Let [U/V -> W/X] be a crossing, so U/V is
    Frattini, W/X supplemented, both abelian, U = V + W and X = V n W; let
    M be a maximal supplement of W/X and N = M n U.
    (a) Descent is transitive: if A/B -> C/D -> E/F, then E <= B would put
        E in B n C = D.
    (b) N is an ideal, U = W + N and N n W = X.  [W, U] <= X <= M, because
        [W, V] <= V n W and W/X is abelian; L = M + W, so [L, N] <= N; the
        modular law gives U = W + N; and M n W is an ideal by the same
        argument, between X and W and not W.
    (c) V is not in M, or M would supplement the Frattini U/V, since
        U + M >= W + M = L.  So neither V nor W lies in N.
    Case 2 => case 1, for V/X chief: U/N ~ W/X is chief, M supplements it,
    and by (c) it descends onto both V/X and W/X; by (a) it is a
    supplemented common ancestor of every case-2 pair of the crossing.
    Case 4 => case 3, for U/W chief: V/X ~ U/W is chief too, and U/X =
    V/X + W/X.  N/X is a module complement of W/X other than V/X, so it is
    the graph of a module isomorphism V/X -> W/X; V acts trivially on W/X,
    so, through it, on V/X too, and U/X is abelian.  Take a maximal
    subalgebra K >= X with U not in K: Y = K n U is an ideal (U/X is
    abelian) and K + U = L.  If Y != N, some subalgebra C has C n U = X
    and C + U = L: C = K if Y = X; otherwise Y/X and N/X are distinct
    simple submodules of U/X, so Y n N = X and Y + N = U, and C = K n M,
    where a dimension count gives C + U = L.  Then (C + V) n U = V, so a
    maximal subalgebra above C + V supplements U/V, a contradiction.  So
    every maximal subalgebra above X contains N, N/X is Frattini, and as
    U/V and U/W descend onto it, by (a) it is a Frattini common
    descendant of every case-4 pair.
    So in m_related's order 1, 2, 3, 4, cases 2 and 4 never come first, and
    N does not depend on M.  Relatedness is read from cases 1 and 3 only,
    from the series rows over bits [0, n) (series_rows), and the crossing
    columns are scanned only for a probe that names case 2 or 4
    (m_related)."""

    def __init__(self, l: LieAlgebra):
        cat = self.catalog = chief_factor_catalog(l)
        n, own = len(cat), {}
        for i, f in enumerate(cat):
            own[f.a] = own.get(f.a, 0) | 1 << i
            own[f.b] = own.get(f.b, 0) | 1 << n + i
        self._up, self._down = dict(own), dict(own)
        self._series = {}
        for f in reversed(cat):    # higher tops first, so up[f.a] is done
            self._up[f.b] |= self._up[f.a]
        for f in cat:
            self._down[f.a] |= self._down[f.b]
        self._supp = sum(1 << i for i, f in enumerate(cat) if f.supplemented)
        self._frat = sum(1 << i for i, f in enumerate(cat) if f.frattini)
        # Crossing k, [U/V -> W/X] in (top, bottom) catalog order, with the
        # bits of V/X, W/X, U/V and U/W, 0 for a section that is not chief.
        ends = [(i, j) for i in _bits(self._frat)
                for j in _bits(self._family(cat[i])[1] & self._supp)]
        self.crossings = tuple(make_crossing(cat[i], cat[j]) for i, j in ends)
        self._ends = [(own[cat[i].b] & own[cat[j].b] >> n, 1 << j, 1 << i,
                       own[cat[i].a] & own[cat[j].a] >> n) for i, j in ends]

    def _family(self, f: ChiefFactor) -> tuple[int, int]:
        """The factors descending onto f, and those f descends onto."""
        n, up, down = len(self.catalog), self._up, self._down
        return (up[f.a] & up[f.b] >> n & ~(up[f.a] >> n),
                down[f.a] & down[f.b] >> n & ~down[f.b])

    def series_rows(self, series):
        """A chief series' relation rows, one n-bit int per factor: its
        supplemented ancestors and its Frattini descendants.  Every catalog
        factor is supplemented or Frattini and not both, so two factors are
        related exactly when their rows share a bit."""
        out = self._series.get(series)
        if out is None:
            out = self._series[series] = tuple(
                anc & self._supp | desc & self._frat
                for anc, desc in map(self._family, series_factors(series)))
        return out


def _bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


relation_table = lru_cache(maxsize=None)(RelationTable)


@lru_cache(maxsize=None)
def m_related(f: ChiefFactor, g: ChiefFactor,
              cases: tuple[int, ...] = (1, 2, 3, 4)) -> MRelation | None:
    """First witness of relatedness among the requested cases, or None.

    The optional case restriction lets callers probe a single witness shape;
    the default order tries a common supplemented ancestor, then a crossing
    below, then a common Frattini descendant, then a crossing above, though
    a crossing never comes first (RelationTable); within a case, the first
    witness in catalog or crossing order.
    """
    _same_algebra(f, g)
    t = relation_table(f.algebra)
    (f_anc, f_desc), (g_anc, g_desc) = t._family(f), t._family(g)
    for case in cases:
        if case not in (1, 2, 3, 4):
            raise ValueError(f"unknown relatedness case {case}")
        if case in (1, 3):
            hit = (f_anc & g_anc & t._supp if case == 1
                   else f_desc & g_desc & t._frat)
            if hit:
                return MRelation(case, t.catalog[(hit & -hit).bit_length() - 1])
            continue
        # Case 2: a crossing whose V/X descends onto f and W/X onto g;
        # case 4: one with f descending onto its U/V and g onto its U/W.
        c, mf, mg = (0, f_anc, g_anc) if case == 2 else (2, f_desc, g_desc)
        for k, ends in enumerate(t._ends):
            if ends[c] & mf and ends[c + 1] & mg:
                middle = ends[0 if case == 2 else 3].bit_length() - 1
                return MRelation(case, t.catalog[middle], t.crossings[k])
    return None


def common_supplements(f: ChiefFactor, g: ChiefFactor) -> tuple[Subspace, ...]:
    """Maximal subalgebras supplementing both factors."""
    _same_algebra(f, g)
    other = set(g.supplements)
    return tuple(m for m in f.supplements if m in other)


def common_complements(f: ChiefFactor, g: ChiefFactor) -> tuple[Subspace, ...]:
    _same_algebra(f, g)
    other = set(g.complements)
    return tuple(m for m in f.complements if m in other)


# -- transfer property checks down a descent --------------------------------


@dataclass(frozen=True)
class ClauseResult:
    name: str
    applicable: bool
    passed: bool
    failures: tuple = ()


@dataclass(frozen=True)
class TransferCheckReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.clauses if c.applicable)

    def clause(self, name: str) -> ClauseResult:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)


def descent_transfer_checks(f: ChiefFactor, g: ChiefFactor,
                            pool=None) -> TransferCheckReport:
    """Check the supplement/complement transfer rules along f -> g.

    Over a pool of candidate subalgebras (default: the maximal subalgebras),
    using the relaxed subalgebra-level predicates:

    * a supplement of A/B supplements C/D;
    * with K a supplement of B/D, C + (M n K) supplements A/C and M n K
      supplements A/D;
    * both of the above with complements in place of supplements;
    * when C/D is nonabelian, the monolithic maximal supplements of C/D and
      A/B coincide, and when additionally B/D is an abelian chief factor,
      the complements of B/D and of A/C coincide over the pool.
    """
    l = f.algebra
    if not descends_to(f, g):
        raise ValueError("transfer checks require f to descend onto g")
    if pool is None:
        pool = maximal_subalgebras(l)
    a_, b_, c_, d_ = f.a, f.b, g.a, g.b
    sup_f = [m for m in pool if supplements_relaxed(l, a_, b_, m)]
    sup_bd = [m for m in pool if supplements_relaxed(l, b_, d_, m)]
    comp_f = [m for m in pool if complements_relaxed(l, a_, b_, m)]
    comp_bd = [m for m in pool if complements_relaxed(l, b_, d_, m)]
    clauses = []
    for kind, rel, mine, below in (("supplement", supplements_relaxed, sup_f, sup_bd),
                                   ("complement", complements_relaxed, comp_f, comp_bd)):
        bad = tuple(m for m in mine if not rel(l, c_, d_, m))
        clauses.append(ClauseResult(f"{kind}_descends", True, not bad, bad))
        bad = tuple((m, k) for m in mine for k in below
                    if not rel(l, a_, c_, subspace_sum(c_, mk := subspace_intersect(m, k)))
                    or not rel(l, a_, d_, mk))
        clauses.append(ClauseResult(f"{kind}_pairs_join", True, not bad, bad))

    mono = ClauseResult("monolithic_sets_match", False, True)
    bottom = ClauseResult("abelian_bottom_complement_sets_match", False, True)
    if not g.abelian:
        mono_f = monolithic_supplements(l, a_, b_)
        mono_g = monolithic_supplements(l, c_, d_)
        mono = ClauseResult(mono.name, True, {r.subalgebra for r in mono_f.records}
                            == {r.subalgebra for r in mono_g.records})
        if is_chief_pair(l, b_, d_) and get_factor(l, b_, d_).abelian:
            comp_ac = {m for m in pool if complements_relaxed(l, a_, c_, m)}
            bottom = ClauseResult(bottom.name, True, set(comp_bd) == comp_ac)
    return TransferCheckReport(tuple(clauses) + (mono, bottom))


# -- joining two supplements ------------------------------------------------


@dataclass(frozen=True)
class JoinResult:
    """Outcome of joining two maximal supplements of the same chief factor.

    case "abelian_factor": the factor is abelian and the join complements
    the two core sections over their intersection.
    case "split_with_monolithic": nonabelian factor, one input has a
    two-minimal primitive quotient and the other is monolithic; the join
    supplements the section between the two cores.
    case "both_split": nonabelian factor, both inputs have two-minimal
    primitive quotients; the join complements the two mixed sections.
    """

    case: str
    record: MaximalRecord
    intersection: Subspace


def supplement_join(u: MaximalRecord, s: MaximalRecord,
                    f: ChiefFactor) -> JoinResult:
    """Join two maximal supplements U, S of f with distinct cores into the
    maximal subalgebra M = A + (U n S), verifying the structural claims."""
    l = f.algebra
    if u.algebra != l or s.algebra != l:
        raise ValueError("join inputs must belong to the factor's algebra")
    if u.subalgebra == s.subalgebra or u.core == s.core:
        raise ValueError("join requires distinct subalgebras with distinct "
                         "cores")
    if u.subalgebra not in f.supplements or s.subalgebra not in f.supplements:
        raise ValueError("join inputs must both supplement the factor")

    inter = subspace_intersect(u.subalgebra, s.subalgebra)
    m = subspace_sum(f.a, inter)
    require(is_maximal(l, m), "join of two supplements is not maximal")
    rec = record_for(l, m)
    core_m = rec.core
    require(core_m == subspace_sum(f.a, subspace_intersect(u.core, s.core)),
            "join core is not A plus the intersection of the cores")

    if f.abelian:
        require(rec.quotient_kind is PrimitiveKind.ONE_ABELIAN_MINIMAL,
                "join over an abelian factor must have an abelian-socle "
                "primitive quotient")
        h = subspace_intersect(u.core, s.core)
        for top in (u.core, s.core):
            require(is_chief_pair(l, top, h),
                    "core section over the core intersection is not chief")
            require(subspace_sum(top, m) == l.full
                    and subspace_intersect(top, m) == h,
                    "join does not complement a core section")
        require(subspace_intersect(m, u.subalgebra) == inter
                and subspace_intersect(m, s.subalgebra) == inter,
                "join meets an input beyond their intersection")
        return JoinResult("abelian_factor", rec, inter)

    ku, ks = u.quotient_kind, s.quotient_kind
    split = PrimitiveKind.TWO_NONABELIAN_MINIMALS
    if ku is split and ks is split:
        require(rec.quotient_kind is split,
                "join of two split supplements must be split")
        for top in (subspace_sum(f.a, s.core), subspace_sum(f.a, u.core)):
            require(is_chief_pair(l, top, core_m),
                    "mixed section over the join core is not chief")
            require(subspace_sum(top, m) == l.full
                    and subspace_intersect(top, m) == core_m,
                    "join does not complement a mixed section")
        require(subspace_intersect(m, u.subalgebra) == inter
                and subspace_intersect(m, s.subalgebra) == inter,
                "join meets an input beyond their intersection")
        return JoinResult("both_split", rec, inter)
    if ks is split and ku is not split:
        u, s = s, u
        ku, ks = ks, ku
    if ku is split:
        require(s.monolithic,
                "non-split join partner must be monolithic")
        require(subspace_leq(u.core, s.core) and u.core != s.core,
                "split partner's core must sit strictly inside the "
                "monolithic partner's core")
        require(s.core == centralizer_of_factor(l, f.a, f.b),
                "monolithic partner's core must centralize the factor")
        require(rec.quotient_kind is PrimitiveKind.ONE_NONABELIAN_MINIMAL,
                "mixed join must have a monolithic nonabelian quotient")
        require(is_chief_pair(l, s.core, u.core),
                "section between the two cores is not chief")
        require(subspace_sum(s.core, m) == l.full
                and subspace_leq(u.core, subspace_intersect(s.core, m)),
                "join does not supplement the section between the cores")
        return JoinResult("split_with_monolithic", rec, inter)
    raise VerificationError(
        "two monolithic supplements of a nonabelian chief factor must share "
        "their core")
