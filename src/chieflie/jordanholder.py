"""Matching the factors of two chief series, and moving data between a
quotient and a supplementing subalgebra.

Given a chief factor A/B and a chief series Y_0 < ... < Y_m, the sum
sections (A+Y_j)/(B+Y_j) and intersection sections (A n Y_j)/(B n Y_j) are
each either degenerate or again chief factors.  The two transfer operations
locate the distinguished series index for A/B:

* for a supplemented factor, the largest j whose preceding sum section is a
  supplemented chief factor;
* for a Frattini factor, the smallest j whose intersection section is a
  Frattini chief factor.

Each transfer re-verifies the structural claims along the way (descents,
crossings, section classifications) and raises VerificationError when a
claim that is forced by the inputs fails.  Everything past the index
depends only on the factor and the step Y = terms[index-1] < X =
terms[index] where it lands, so that landing is built and checked once per
(factor, step) and kept in the factor's _Landings, keyed by the ideal
numbers of the algebra's IdealLattice; only the index is found per
(factor, series).

jh_permutation runs the appropriate transfer for every factor of the first
series (read once per series) against the second, producing a permutation
that pairs the factors index by index.  Every pair is verified to be
related (by the witness its transfer built: a section when the transfer
collapses, else one from the transfer's own crossing), connected
(l_connected), identically classified, and to share a common maximal
supplement (and, for abelian factors, complement) when both sides admit
them: the landing's evidence, once per (factor, partner).  The permutation
produced this way is the unique one pairing every index relatedly;
matching_permutations enumerates all such pairings for small lengths so the
uniqueness can be checked exhaustively.

cut_and_paste handles L = B + U for an ideal B and subalgebra U: the natural
map U/(B n U) -> L/B is verified to be an isomorphism, and chief series and
maximal subalgebras move down to U and back up to L with their cores
tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial

from .algebra import (LieAlgebra, Section, bracket, is_ideal, is_subalgebra,
                      preserves_brackets, quotient_algebra, restrict_algebra)
from .errors import require
from .factors import (ChiefFactor, LConnection, MCrossing, MRelation,
                      common_complements, common_supplements, descends_to,
                      get_factor, is_m_crossing, l_connected, make_crossing,
                      relation_table, series_factors)
from .ideals import (ChiefSeries, _term_numbers, core, ideal_lattice,
                     is_chief_pair, make_chief_series)
from .linalg import (BudgetExceeded, Matrix, Subspace, rref_rows,
                     subspace_intersect, subspace_leq, subspace_sum)
from .maximal import is_maximal

PERMUTATION_ENUM_CAP = 40_320  # 8!


def _section_factor(l: LieAlgebra, top: Subspace,
                    bot: Subspace) -> ChiefFactor | None:
    """The chief factor top/bot, None when degenerate.

    Sum and intersection sections of a chief factor along ideals can only be
    degenerate or chief, so anything else is a verification failure.
    """
    if top == bot:
        return None
    require(is_chief_pair(l, top, bot),
            "section of a chief factor along a series is neither "
            "degenerate nor chief")
    return get_factor(l, top, bot)


# A seed-0 jh_corpus pass reads 8,710 sections of the 1,973 its factors'
# _Landings keep, and its collapsed supplemented landings 1,432 of the other
# kind, 957 of them built, kept by per_ideal.  A collapsed Frattini landing
# is itself kept once per (factor, step), so it builds its sum section
# directly (9 per pass).
def _sum_section(l: LieAlgebra, y: Subspace, f: ChiefFactor):
    """f's sum section (A+Y)/(B+Y) along the ideal Y, None when
    degenerate (_section_factor)."""
    lat = ideal_lattice(l)
    return _section_factor(l, lat.join(f.a, y), lat.join(f.b, y))


def _meet_section(l: LieAlgebra, y: Subspace, f: ChiefFactor):
    """f's intersection section (A n Y)/(B n Y), as _sum_section."""
    lat = ideal_lattice(l)
    return _section_factor(l, lat.meet(f.a, y), lat.meet(f.b, y))


class _Landings:
    """A chief factor f's answers along the chief series of its algebra,
    kept on the algebra's IdealLattice (per_ideal) and keyed by the
    lattice's ideal numbers, so a read hashes ints, not subspaces:

    * sections: f's sum sections (f supplemented) or intersection sections
      (f Frattini) along each ideal, by the ideal's number;
    * steps: where f lands at a series step Y < X, by the pair of numbers:
      the fields of its transfer record past the index (_landed), the
      evidence among them, each computed and checked once per (f, step);
    * ends: the (first, last) term numbers of the series whose envelope f
      has passed, a tuple: a factor meets few, and a set would cost more.
    """

    __slots__ = ("f", "build", "sections", "steps", "ends")

    def __init__(self, l: LieAlgebra, f: ChiefFactor):
        self.f = f
        self.build = _sum_section if f.supplemented else _meet_section
        self.sections, self.steps, self.ends = {}, {}, ()

    def section(self, k: int, y: Subspace):
        try:
            return self.sections[k]
        except KeyError:
            out = self.sections[k] = self.build(self.f.algebra, y, self.f)
            return out


def _along(f: ChiefFactor, series: ChiefSeries):
    """(f's _Landings, series' term numbers), refusing a series of another
    algebra on every call and checking series' envelope once per (f, first
    term, last term)."""
    if series.algebra != f.algebra:
        raise ValueError("factor and series must belong to the same algebra")
    lat = ideal_lattice(f.algebra)
    nums = lat.per_ideal(_term_numbers, series)
    t = lat.per_ideal(_Landings, f)
    if (nums[0], nums[-1]) not in t.ends:
        if not subspace_leq(series.terms[0], f.b):
            raise ValueError("series must start inside the factor's "
                             "denominator")
        if not subspace_leq(f.a, series.terms[-1]):
            raise ValueError("series must end above the factor's numerator")
        t.ends += ((nums[0], nums[-1]),)
    return t, nums


def _evidence(f: ChiefFactor, g: ChiefFactor, relation: MRelation):
    """jh_permutation's checked (relation, connection, shared supplements,
    shared complements) of f matched with the series step g."""
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
    return relation, conn, shared_s, shared_c


def _landed(f, case, g, middle, relation, other=None, cross=None, link=None):
    """A landing of f at the series step g: its transfer record's fields
    after the index, in order, ending with the evidence."""
    return (case, g, middle, relation, other, cross, link,
            _evidence(f, g, relation))


# -- transfer of a supplemented factor --------------------------------------


@dataclass(frozen=True)
class SupplementedTransfer:
    """Where a supplemented chief factor lands along a chief series.

    index is the largest j whose sum section over terms[j-1] is a
    supplemented chief factor; series_factor is the series step at that
    index; sum_middle is the qualifying sum section, which descends onto the
    input factor in both cases.

    case "sum_collapses" (A+X = B+X): intersection_middle is the common
    descendant (A n X)/(B n Y) of the input factor and the series step, and
    relation is m_related's case 1 with middle sum_middle, a supplemented
    common ancestor of both, as required on the way.
    case "sum_grows": the next sum section is a Frattini factor and crossing
    records the crossing [U/V -> W/X] onto sum_middle; upper_link is the
    chief V/X = (B+X)/(B+Y), a supplemented factor descending onto the
    series step; and relation is case 1 with middle U/(M n U), for M the
    first supplement of W/X: a supplemented factor descending onto W/X and
    V/X, so onto both (factors.RelationTable).

    evidence is jh_permutation's (_evidence), kept with the landing.
    """

    factor: ChiefFactor
    series: ChiefSeries
    index: int
    case: str
    series_factor: ChiefFactor
    sum_middle: ChiefFactor
    relation: MRelation
    intersection_middle: ChiefFactor | None = None
    crossing: MCrossing | None = None
    upper_link: ChiefFactor | None = None
    evidence: tuple | None = dc_field(default=None, compare=False, repr=False)


@lru_cache(maxsize=None)
def transfer_supplemented(f: ChiefFactor,
                          series: ChiefSeries) -> SupplementedTransfer:
    """f's SupplementedTransfer along series: the index is found per
    (f, series), from the top down to the first supplemented sum section;
    the landing at that step is built once per (f, step).

    The sections below the index are not built, and need no check: if a
    maximal M supplements (A+Y_j)/(B+Y_j), then A + M = L, so for i < j
    A <= B + Y_i <= M is impossible and (A+Y_i)/(B+Y_i) is not degenerate;
    by the modular law it is then a chief factor isomorphic to A/B, and M
    supplements it.  The supplemented sections are an initial segment.
    """
    t, nums = _along(f, series)
    if not f.supplemented:
        raise ValueError("transfer_supplemented needs a supplemented factor")
    terms = series.terms
    # above is the section over terms[index]: over the last term, which
    # holds A, it is degenerate.
    above = t.section(nums[-1], terms[-1])
    for index in range(series.length, 0, -1):
        below = t.section(nums[index - 1], terms[index - 1])
        if below and below.supplemented:
            break
        above = below
    require(below is not None and below.supplemented,
            "a supplemented factor must have at least one supplemented sum "
            "section (the series starts inside its denominator)")
    step = nums[index - 1], nums[index]
    if step not in t.steps:
        t.steps[step] = _land_supplemented(f.algebra, terms[index - 1],
                                           terms[index], f, below, above)
    return SupplementedTransfer(f, series, index, *t.steps[step])


def _land_supplemented(l, y, x, f, sum_middle, top_factor):
    """The checked landing (_landed) of supplemented f at the step y < x, whose
    sum sections along y and x are sum_middle (supplemented) and
    top_factor."""
    lat = ideal_lattice(l)
    a, b = f.a, f.b
    series_factor = get_factor(l, x, y)
    require(series_factor.supplemented,
            "series step at the transfer index must be supplemented")
    require(descends_to(sum_middle, f),
            "qualifying sum section must descend onto the input factor")

    if top_factor is None:
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
        return _landed(f, "sum_collapses", series_factor, sum_middle,
                       MRelation(1, sum_middle), inter_middle)

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
    return _landed(f, "sum_grows", series_factor, sum_middle,
                   MRelation(1, middle), None, crossing, upper_link)


# -- transfer of a Frattini factor ------------------------------------------


@dataclass(frozen=True)
class FrattiniTransfer:
    """Where a Frattini chief factor lands along a chief series.

    index is the smallest j whose intersection section with terms[j] is a
    Frattini chief factor; intersection_middle is that section, onto which
    the input factor descends in both cases.

    case "intersection_collapses" (A n Y = B n Y): sum_middle is the common
    ancestor (A+X)/(B+Y) descending onto the input factor and series step,
    and relation is case 3 with middle intersection_middle, a Frattini
    common descendant of both, as required on the way.
    case "intersection_grows": the previous intersection section is a
    supplemented factor and crossing records the crossing [U/V -> W/X]
    onto it from intersection_middle; lower_link is the chief
    U/W = (A n X)/(A n Y), onto which the series step descends; and
    relation is case 3 with middle (M n U)/X, for M the first supplement
    of W/X: a Frattini factor onto which U/V and U/W descend, so both do
    (factors.RelationTable).
    In both cases, case 3 is m_related's first for a Frattini factor: it
    has no supplemented ancestor (if A/B -> C/D, a supplement M of A/B has
    D <= B <= M and C + M = A + M = L), so case 1 fails, and so does case
    2, which implies case 1.

    evidence is jh_permutation's (_evidence), kept with the landing.
    """

    factor: ChiefFactor
    series: ChiefSeries
    index: int
    case: str
    series_factor: ChiefFactor
    intersection_middle: ChiefFactor
    relation: MRelation
    sum_middle: ChiefFactor | None = None
    crossing: MCrossing | None = None
    lower_link: ChiefFactor | None = None
    evidence: tuple | None = dc_field(default=None, compare=False, repr=False)


@lru_cache(maxsize=None)
def transfer_frattini(f: ChiefFactor, series: ChiefSeries) -> FrattiniTransfer:
    """f's FrattiniTransfer along series: the index is found per (f,
    series), from the bottom up to the first Frattini intersection section;
    the landing at that step is built once per (f, step)."""
    t, nums = _along(f, series)
    if not f.frattini:
        raise ValueError("transfer_frattini needs a Frattini factor")
    terms = series.terms
    # The first term lies inside B, so its section is degenerate and passed.
    for index, x in enumerate(terms):
        inter_middle = t.section(nums[index], x)
        if inter_middle and inter_middle.frattini:
            break
        bottom_factor = inter_middle
    require(inter_middle is not None and inter_middle.frattini,
            "a Frattini factor must have at least one Frattini intersection "
            "section (the series ends above its numerator)")
    step = nums[index - 1], nums[index]
    if step not in t.steps:
        t.steps[step] = _land_frattini(f.algebra, terms[index - 1], x, f,
                                       bottom_factor, inter_middle)
    return FrattiniTransfer(f, series, index, *t.steps[step])


def _land_frattini(l, y, x, f, bottom_factor, inter_middle):
    """The checked landing (_landed) of Frattini f at the step y < x, whose
    intersection sections along y and x are bottom_factor and inter_middle
    (Frattini)."""
    lat = ideal_lattice(l)
    a, b = f.a, f.b
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
        sum_middle = _sum_section(l, y, f)
        require(sum_middle is not None,
                "collapsed case must produce a sum factor")
        require(descends_to(sum_middle, f),
                "sum section must descend onto the input factor")
        require(descends_to(sum_middle, series_factor),
                "sum section must descend onto the series step")
        return _landed(f, "intersection_collapses", series_factor,
                       inter_middle, MRelation(3, inter_middle), sum_middle)

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
    return _landed(f, "intersection_grows", series_factor, inter_middle,
                   MRelation(3, middle), None, crossing, lower_link)


# -- the permutation between two chief series -------------------------------


@dataclass(frozen=True)
class IndexMatch:
    """One matched pair of series factors with all verified evidence."""

    position: int              # 1-based index into the first series
    image: int                 # 1-based index into the second series
    factor: ChiefFactor
    partner: ChiefFactor
    relation: MRelation
    connection: LConnection
    transfer: SupplementedTransfer | FrattiniTransfer
    shared_supplements: tuple[Subspace, ...]
    shared_complements: tuple[Subspace, ...]


@dataclass(frozen=True)
class JHReport:
    """A verified factor-matching permutation between two chief series."""

    algebra: LieAlgebra
    first: ChiefSeries
    second: ChiefSeries
    sigma: tuple[int, ...]     # 1-based images: factor i pairs with sigma[i-1]
    matches: tuple[IndexMatch, ...]

    def to_dict(self) -> dict:
        def rows(s: Subspace):
            return [list(r) for r in s.rows]

        def factor_dict(f: ChiefFactor):
            return {"top": rows(f.a), "bottom": rows(f.b),
                    "dimension": f.dim, "abelian": f.abelian,
                    "classification": f.classification}

        return {
            "length": len(self.sigma),
            "first_series": [rows(t) for t in self.first.terms],
            "second_series": [rows(t) for t in self.second.terms],
            "permutation": list(self.sigma),
            "matches": [
                {"position": m.position,
                 "image": m.image,
                 "factor": factor_dict(m.factor),
                 "partner": factor_dict(m.partner),
                 "relation_case": m.relation.case,
                 "connection_mode": m.connection.mode,
                 "transfer_case": m.transfer.case,
                 "shared_supplements": len(m.shared_supplements),
                 "shared_complements": len(m.shared_complements)}
                for m in self.matches],
        }


def _check_series_pair(first: ChiefSeries, second: ChiefSeries):
    if first.algebra != second.algebra:
        raise ValueError("series must belong to the same algebra")
    if first.terms[0] != second.terms[0] or first.terms[-1] != second.terms[-1]:
        raise ValueError("series must share both endpoints")
    require(first.length == second.length,
            "chief series between the same endpoints must have equal length")


def jh_permutation(first: ChiefSeries, second: ChiefSeries) -> JHReport:
    """Match the factors of two chief series with the same endpoints.

    The i-th factor of the first series is sent to the transfer index of the
    appropriate kind along the second series.  The resulting pairing is
    verified to be a permutation whose pairs are related, connected, and
    identically classified, sharing a maximal supplement whenever both sides
    are supplemented and a maximal complement whenever both sides are
    complemented and abelian; the shared complements of a nonabelian pair
    are reported, and may be none.
    """
    _check_series_pair(first, second)
    l = first.algebra
    matches = []
    for i, f in enumerate(series_factors(first), 1):
        tr = (transfer_supplemented if f.supplemented
              else transfer_frattini)(f, second)
        rel, conn, shared_s, shared_c = tr.evidence
        matches.append(IndexMatch(i, tr.index, f, tr.series_factor, rel, conn,
                                  tr, shared_s, shared_c))
    sigma = [m.image for m in matches]
    require(sorted(sigma) == list(range(1, first.length + 1)),
            "transfer indices must form a permutation")
    return JHReport(l, first, second, tuple(sigma), tuple(matches))


def matching_permutations(first: ChiefSeries,
                          second: ChiefSeries) -> tuple[tuple[int, ...], ...]:
    """All permutations pairing every index of the two series relatedly,
    in lexicographic order, grown index by index through related pairs.

    There can be n! of them, so lengths are capped; the
    jh_permutation result is always among these, and the matching theorems
    say it is the only one.
    """
    _check_series_pair(first, second)
    l = first.algebra
    n = first.length
    if math.factorial(n) > PERMUTATION_ENUM_CAP:
        raise BudgetExceeded("permutation enumeration too large",
                             math.factorial(n))
    t = relation_table(l)
    second_rows = t.series_rows(second)
    perms = [()]
    for row in t.series_rows(first):
        related = [j for j, r in enumerate(second_rows, 1) if row & r]
        perms = [q + (j,) for q in perms for j in related if j not in q]
    return tuple(perms)


# -- cutting to a supplement and pasting back -------------------------------


@dataclass(frozen=True)
class CutPaste:
    """The correspondence between L/B and U/(B n U) when L = B + U."""

    algebra: LieAlgebra
    b: Subspace
    u: Subspace
    inside: Section   # U as an algebra
    quotient: Section   # L/B
    sub_quotient: Section  # U/(B n U), in U-coordinates
    iso: Matrix   # U/(B n U)-coordinates -> L/B-coordinates

    @property
    def b_in_u(self) -> Subspace:
        return subspace_intersect(self.b, self.u)


def cut_and_paste(l: LieAlgebra, b: Subspace, u: Subspace) -> CutPaste:
    """Verify the natural isomorphism U/(B n U) -> L/B for L = B + U."""
    if not is_ideal(l, b):
        raise ValueError("cut_and_paste needs an ideal to cut by")
    if not is_subalgebra(l, u):
        raise ValueError("cut_and_paste needs a supplementing subalgebra")
    if subspace_sum(b, u) != l.full:
        raise ValueError("the ideal and subalgebra must sum to the whole "
                         "algebra")
    inside = restrict_algebra(l, u)
    bu_sub = inside.coords.image(subspace_intersect(b, u))
    quotient = quotient_algebra(l, b)
    sub_quotient = quotient_algebra(inside.algebra, bu_sub)
    k = quotient.algebra.n
    require(sub_quotient.algebra.n == k,
            "the two quotients must have equal dimension")
    cols = [quotient.coords.project(inside.coords.lift(v))
            for v in sub_quotient.coords.lifts.rows]
    theta_rows = tuple(tuple(cols[c][r] for c in range(k)) for r in range(k))
    require(len(rref_rows(theta_rows, l.p)) == k,
            "natural map between the quotients must be bijective")
    theta = Matrix.from_rows(theta_rows, l.p)
    require(preserves_brackets(theta, partial(bracket, sub_quotient.algebra),
                               partial(bracket, quotient.algebra)),
            "natural map between the quotients must preserve brackets")
    return CutPaste(l, b, u, inside, quotient, sub_quotient, theta)


def cut_series_down(cp: CutPaste, series: ChiefSeries) -> ChiefSeries:
    """Intersect a chief series of L above B with U, landing in U-coordinates.

    Each term satisfies T = B + (T n U), so the intersected series is again
    strictly ascending with chief steps (validated on construction).
    """
    l = cp.algebra
    if series.algebra != l:
        raise ValueError("series belongs to a different algebra")
    if not subspace_leq(cp.b, series.terms[0]):
        raise ValueError("series must start at or above the cut ideal")
    sub_terms = []
    for t in series.terms:
        tu = subspace_intersect(t, cp.u)
        require(subspace_sum(cp.b, tu) == t,
                "series term must be recovered as the ideal plus its trace "
                "on the supplement")
        sub_terms.append(cp.inside.coords.image(tu))
    return make_chief_series(cp.inside.algebra, sub_terms)


def paste_series_up(cp: CutPaste, series: ChiefSeries) -> ChiefSeries:
    """Add B to a chief series of U above B n U, landing back in L.

    Each new term satisfies (B + T) n U = T, so the pasted series is again
    strictly ascending with chief steps (validated on construction).
    """
    if series.algebra != cp.inside.algebra:
        raise ValueError("series must belong to the supplement's algebra")
    if not subspace_leq(cp.inside.coords.image(cp.b_in_u), series.terms[0]):
        raise ValueError("series must start at or above the trace of the "
                         "cut ideal")
    parent_terms = []
    for t in series.terms:
        tp = cp.inside.coords.preimage(t)
        lifted = subspace_sum(cp.b, tp)
        require(subspace_intersect(lifted, cp.u) == tp,
                "pasted term must trace back to the original term")
        parent_terms.append(lifted)
    return make_chief_series(cp.algebra, parent_terms)


def cut_maximal_down(cp: CutPaste, m: Subspace) -> Subspace:
    """Send a maximal subalgebra of L above B to its trace on U.

    The trace is verified maximal in U with core equal to the trace of the
    original core; returned in ambient coordinates.
    """
    l = cp.algebra
    if not is_maximal(l, m):
        raise ValueError("cut_maximal_down needs a maximal subalgebra")
    if not subspace_leq(cp.b, m):
        raise ValueError("the maximal subalgebra must contain the cut ideal")
    trace = subspace_intersect(m, cp.u)
    trace_sub = cp.inside.coords.image(trace)
    require(is_maximal(cp.inside.algebra, trace_sub),
            "trace of a maximal subalgebra on the supplement must be "
            "maximal there")
    core_trace = cp.inside.coords.preimage(core(cp.inside.algebra, trace_sub))
    require(core_trace == subspace_intersect(core(l, m), cp.u),
            "core of the trace must be the trace of the core")
    return trace


def paste_maximal_up(cp: CutPaste, t: Subspace) -> Subspace:
    """Send a maximal subalgebra of U above B n U back to B + T in L.

    The result is verified maximal in L with core B plus the original core;
    input and output in ambient coordinates.
    """
    t_sub = cp.inside.coords.image(t)
    if not is_maximal(cp.inside.algebra, t_sub):
        raise ValueError("paste_maximal_up needs a maximal subalgebra of "
                         "the supplement")
    if not subspace_leq(cp.b_in_u, t):
        raise ValueError("the subalgebra must contain the trace of the cut "
                         "ideal")
    m = subspace_sum(cp.b, t)
    require(is_maximal(cp.algebra, m),
            "pasting the ideal onto a maximal trace must give a maximal "
            "subalgebra")
    core_t = cp.inside.coords.preimage(core(cp.inside.algebra, t_sub))
    require(core(cp.algebra, m) == subspace_sum(cp.b, core_t),
            "core of the pasted subalgebra must be the ideal plus the "
            "original core")
    return m
