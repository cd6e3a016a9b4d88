"""Maximal subalgebras, the Frattini subalgebra, and primitivity analysis.

A maximal subalgebra is a proper subalgebra contained in no larger proper
subalgebra.  The Frattini subalgebra is the intersection of all maximal
subalgebras.  The core of a subalgebra is the largest ideal inside it; an
algebra is *primitive* when some maximal subalgebra has zero core, and
primitive algebras split into three kinds by the shape of their socle:
one abelian minimal ideal, one nonabelian minimal ideal, or exactly two
nonabelian minimal ideals.

Enumeration strategy.  Every maximal subalgebra with nonzero core contains a
minimal ideal, so it is the preimage of a maximal subalgebra of the quotient
by that minimal ideal; this recurses into strictly smaller algebras.
Core-free maximal subalgebras are found structurally:

* if some minimal ideal A is abelian, every maximal subalgebra without A is
  a subalgebra complement of A and every complement is maximal, so the
  quotient by A alone gives the rest; the complements are graphs of linear
  maps into A cut out by an explicit linear system;
* if there is no abelian minimal ideal but exactly two nonabelian minimal
  ideals A, B with A + B = L, every core-free maximal subalgebra is the graph
  of an algebra isomorphism A -> B;
* with three or more minimal ideals A, B, C there is none: for a core-free
  maximal M, C_L(A) n M is an ideal inside M, so 0; B and C lie in C_L(A),
  so each complements M and B + C meets M in 0, yet dim(B + C) = 2 codim M;
* otherwise (simple algebras and other small leftovers) a bounded
  brute-force subspace enumeration takes over, refusing with BudgetExceeded
  when out of range.

Cores.  A maximal subalgebra's core is decided without a search where the
structure decides it: over an abelian algebra it is the subalgebra itself,
and it is 0 when the subalgebra holds no minimal ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property, lru_cache, partial, reduce

from .algebra import (LieAlgebra, bracket, is_ideal, is_subalgebra,
                      preserves_brackets, quotient_algebra, restrict_algebra,
                      ad_matrix, subspace_product)
from .errors import VerificationError, require
from .ideals import (core, centralizer, ideal_lattice, is_chief_pair,
                     minimal_ideals, subalgebra_closure)
from .linalg import (BudgetExceeded, Matrix, Subspace, enumerate_subspaces,
                     nonzero_directions, quotient_coords, rref_rows,
                     solve_linear, subspace_intersect, subspace_leq,
                     subspace_sum, unit, vec_add)

# Cap on solution families when enumerating complements of an abelian minimal
# ideal (p ** kernel_dim candidate complements).
COMPLEMENT_FAMILY_CAP = 20_000
# Cap on the raw vector scan used by the isomorphism search (p ** n vectors).
ISO_VECTOR_CAP = 20_000


def _abelian_part(l: LieAlgebra, u: Subspace) -> bool:
    return subspace_product(l, u, u).dim == 0


@lru_cache(maxsize=None)
def is_maximal(l: LieAlgebra, u: Subspace) -> bool:
    """Proper subalgebra such that adjoining any outside vector generates L."""
    if u.dim >= l.n or not is_subalgebra(l, u):
        return False
    return all(subalgebra_closure(l, subspace_sum(u, line)).dim == l.n
               for line in quotient_coords(l.full, u).lines())


def enumerated_maximal_subalgebras(l: LieAlgebra) -> tuple[Subspace, ...]:
    """Maximal subalgebras by full subspace enumeration (bounded fallback:
    enumerate_subspaces refuses before it yields anything)."""
    subs = [u for u in enumerate_subspaces(l.n, l.p)
            if u.dim < l.n and is_subalgebra(l, u)]
    out = [u for u in subs
           if not any(u.dim < v.dim and subspace_leq(u, v) for v in subs)]
    return tuple(sorted(out, key=lambda s: s.key()))


def _hyperplanes(n: int, p: int) -> list[Subspace]:
    return [solve_linear([f], (0,), p)[1] for f in nonzero_directions(n, p)]


def _complement_subalgebras(l: LieAlgebra, a: Subspace) -> list[Subspace]:
    """All subalgebras M with M + A = L and M n A = 0, for an abelian ideal A.

    Such an M is the graph of a linear map from a lifted transversal of L/A
    into A; closure under the bracket is a linear condition on the map because
    [A, A] = 0 and [L, A] <= A.
    """
    p = l.p
    qc = quotient_coords(l.full, a)
    dq, da = qc.dim, a.dim
    if dq == 0:
        return []
    sigma = qc.lifts.rows
    act = [[a.coords(bracket(l, sigma[s], a.rows[t])) for t in range(da)]
           for s in range(dq)]
    nunk = dq * da
    eq_rows: list[tuple[int, ...]] = []
    rhs: list[int] = []
    for i in range(dq):
        for j in range(i + 1, dq):
            w = bracket(l, sigma[i], sigma[j])
            wq = qc.project(w)
            wsig = qc.lift(wq)
            resid = a.coords(tuple((x - y) % p for x, y in zip(w, wsig)))
            for t0 in range(da):
                row = [0] * nunk
                for t in range(da):
                    row[j * da + t] += act[i][t][t0]
                    row[i * da + t] -= act[j][t][t0]
                for s in range(dq):
                    row[s * da + t0] -= wq[s]
                eq_rows.append(tuple(x % p for x in row))
                rhs.append((-resid[t0]) % p)
    part, kernel = solve_linear(eq_rows or [(0,) * nunk], tuple(rhs) or (0,), p)
    if part is None:
        return []
    if p ** kernel.dim > COMPLEMENT_FAMILY_CAP:
        raise BudgetExceeded(
            f"complement family of size p^{kernel.dim} exceeds cap "
            f"{COMPLEMENT_FAMILY_CAP}", p ** kernel.dim)
    out = []
    for kv in kernel.vectors():
        phi = tuple((x + y) % p for x, y in zip(part, kv))
        rows = [vec_add(sigma[s], a.combine(phi[s * da:(s + 1) * da]), p)
                for s in range(dq)]
        out.append(Subspace.span(l.n, p, rows))
    return out


# -- algebra isomorphisms ---------------------------------------------------


def _ad_fingerprint(l: LieAlgebra, v) -> tuple:
    """Conjugation-invariant data of ad(v): rank and trace of its powers."""
    powers = itertools.accumulate([ad_matrix(l, v)] * l.n, Matrix.__matmul__)
    return tuple((len(rref_rows(m.rows, l.p)),
                  sum(m.rows[i][i] for i in range(l.n)) % l.p) for m in powers)


def _scaled_fingerprint(fp: tuple, c: int, p: int) -> tuple:
    """The fingerprint of c v from that of v: ad(c v)^k = c^k ad(v)^k, of
    the same rank for c != 0."""
    return tuple((r, pow(c, k, p) * t % p) for k, (r, t) in enumerate(fp, 1))


def _generating_tuple(l: LieAlgebra):
    dirs = nonzero_directions(l.n, l.p)
    for r in (2, 3):
        for combo in itertools.combinations(dirs, r):
            seed = Subspace.span(l.n, l.p, combo)
            if seed.dim < r:
                continue
            if subalgebra_closure(l, seed).dim == l.n:
                return combo
    raise ValueError("no generating pair or triple found")


def _express(vec, basis, p):
    """Coefficients writing vec in the (independent) basis list, or None."""
    a_rows = tuple(tuple(b[t] for b in basis) for t in range(len(vec)))
    part, _ = solve_linear(a_rows, tuple(x % p for x in vec), p)
    return part


def _iso_plan(a: LieAlgebra, gens):
    """(steps, units) growing a bracket-closed basis of A, the words, from
    gens.  Step (i, None, c) takes generator i, (i, j, c) brackets words i
    and j; c is None for a new word, else its coordinates in the words so
    far, a relation every image must satisfy.  Column t of units writes
    unit vector t of A in the words."""
    words, steps = [], []
    queue = [(i, None, tuple(g)) for i, g in enumerate(gens)]
    while queue:
        i, j, w = queue.pop(0)
        c = _express(w, words, a.p)
        steps.append((i, j, c))
        if c is None:
            queue += [(t, len(words), bracket(a, u, w))
                      for t, u in enumerate(words)]
            words.append(w)
    units = Matrix(a.p, tuple(zip(*(_express(unit(t, a.n), words, a.p)
                                    for t in range(a.n)))))
    return steps, units


def _apply_plan(b: LieAlgebra, plan, imgs) -> Matrix | None:
    """The linear map sending gens to imgs and brackets of words to the
    brackets of their images; None when a relation of the plan fails."""
    steps, units = plan
    img: list[tuple] = []
    for i, j, c in steps:
        v = tuple(imgs[i]) if j is None else bracket(b, img[i], img[j])
        if c is None:
            img.append(v)
        elif Matrix(b.p, tuple(zip(*img))).apply(c) != v:
            return None
    return Matrix(b.p, tuple(zip(*img))) @ units


@lru_cache(maxsize=None)
def algebra_isomorphisms(a: LieAlgebra, b: LieAlgebra) -> tuple[Matrix, ...]:
    """All algebra isomorphisms a -> b as matrices (columns = basis images).

    For a pair of abelian algebras of equal dimension a single witness (the
    identity-shaped bijection) is returned instead of all of GL(n, p).
    """
    if a.p != b.p or a.n != b.n:
        return ()
    p, n = a.p, a.n
    abelian = (_abelian_part(a, a.full), _abelian_part(b, b.full))
    if any(abelian):
        return (Matrix.identity(n, p),) if all(abelian) else ()
    if n == 0:
        return (Matrix.from_rows((), p),)
    if p ** n > ISO_VECTOR_CAP:
        raise BudgetExceeded(f"isomorphism search scans p^{n} vectors", p ** n)
    gens = _generating_tuple(a)
    fps = [_ad_fingerprint(a, g) for g in gens]
    fp_of = {}    # every vector of b's fingerprint
    for d in nonzero_directions(n, p):
        fp = _ad_fingerprint(b, d)
        for c in range(1, p):
            fp_of[tuple(c * x % p for x in d)] = _scaled_fingerprint(fp, c, p)
    buckets: dict[tuple, list] = {}
    for v, fp in sorted(fp_of.items()):
        buckets.setdefault(fp, []).append(v)
    fp_of[(0,) * n] = _ad_fingerprint(b, (0,) * n)
    # An isomorphism sends [g_i, g_j] to [img_i, img_j], of equal fingerprint.
    pairs = [(i, j, _ad_fingerprint(a, bracket(a, gens[i], gens[j])))
             for i, j in itertools.combinations(range(len(gens)), 2)]
    plan = _iso_plan(a, gens)
    found = []
    for imgs in itertools.product(*(buckets.get(fp, []) for fp in fps)):
        if any(fp_of[bracket(b, imgs[i], imgs[j])] != fp
               for i, j, fp in pairs):
            continue
        theta = _apply_plan(b, plan, imgs)
        if theta is None:
            continue
        if len(rref_rows(theta.rows, p)) < n:
            continue
        if preserves_brackets(theta, partial(bracket, a), partial(bracket, b)):
            found.append(theta)
    return tuple(found)


def _graph_maximals(l: LieAlgebra, a: Subspace, b: Subspace) -> list[Subspace]:
    """Graphs {v + theta(v)} of algebra isomorphisms between the ideals a, b."""
    if a.dim != b.dim:
        return []
    ra, rb = restrict_algebra(l, a), restrict_algebra(l, b)
    return [Subspace.span(l.n, l.p, [vec_add(v, rb.coords.lift(theta.column(s)), l.p)
                                     for s, v in enumerate(a.rows)])
            for theta in algebra_isomorphisms(ra.algebra, rb.algebra)]


# -- the main enumeration ---------------------------------------------------


@lru_cache(maxsize=None)
def maximal_subalgebras(l: LieAlgebra) -> tuple[Subspace, ...]:
    """All maximal subalgebras, canonically ordered.  Given an abelian
    minimal ideal A, they are the preimages of those of L/A and the
    complements of A: for M maximal without A, M + A = L, so M n A is an
    ideal of L ([A, A] = 0), hence 0; for a complement M < S, S n A is an
    ideal of L and S = M + (S n A), so S n A = A and S = L."""
    if l.n == 0:
        return ()
    if _abelian_part(l, l.full):
        return tuple(sorted(_hyperplanes(l.n, l.p), key=lambda s: s.key()))
    mins = minimal_ideals(l)
    abelian_mins = [a for a in mins if _abelian_part(l, a)]
    found: set[Subspace] = set()
    for a in abelian_mins[:1] or mins:
        if a.dim == l.n:
            continue
        q = quotient_algebra(l, a)
        for mq in maximal_subalgebras(q.algebra):
            found.add(q.coords.preimage(mq))
    if abelian_mins:
        found.update(_complement_subalgebras(l, abelian_mins[0]))
    elif (len(mins) == 2
          and mins[0].dim + mins[1].dim == l.n):
        found.update(_graph_maximals(l, mins[0], mins[1]))
    elif len(mins) < 3:
        return enumerated_maximal_subalgebras(l)
    return tuple(sorted(found, key=lambda s: s.key()))


@lru_cache(maxsize=None)
def frattini(l: LieAlgebra) -> Subspace:
    """Intersection of all maximal subalgebras."""
    maxes = maximal_subalgebras(l)
    return reduce(subspace_intersect, maxes) if maxes else l.full


def is_frattini_factor(l: LieAlgebra, a: Subspace, b: Subspace) -> bool:
    """Whether the chief factor A/B sits inside the Frattini subalgebra of
    L/B: A <= the preimage of Phi(L/B), taken once per B."""
    if not is_chief_pair(l, a, b):
        raise ValueError("is_frattini_factor requires a chief factor")
    return subspace_leq(a, ideal_lattice(l).per_ideal(_frattini_preimage, b))


def _frattini_preimage(l: LieAlgebra, b: Subspace) -> Subspace:
    q = quotient_algebra(l, b)
    return q.coords.preimage(frattini(q.algebra))


# -- supplements and complements by maximal subalgebras ---------------------


def supplements_of(l: LieAlgebra, a: Subspace, b: Subspace) -> tuple[Subspace, ...]:
    """Maximal subalgebras M with L = A + M and B <= M, for an ideal A.

    A + M is then a subalgebra containing M, so it is L exactly when A is
    not inside M: the maximals whose bit is set in B's containment mask and
    clear in A's, no sum."""
    if not subspace_leq(b, a):
        raise ValueError("supplements_of requires b <= a")
    lat = ideal_lattice(l)
    if not lat.per_ideal(is_ideal, a):
        raise ValueError("supplements_of requires an ideal a")
    bits = lat.per_ideal(_containment_mask, b) & \
        ~lat.per_ideal(_containment_mask, a)
    return tuple(m for i, m in enumerate(maximal_subalgebras(l))
                 if bits >> i & 1)


def _containment_mask(l: LieAlgebra, u: Subspace) -> int:
    """Bit i set when U <= the i-th maximal subalgebra."""
    return sum(1 << i for i, m in enumerate(maximal_subalgebras(l))
               if subspace_leq(u, m))


def complements_of(l: LieAlgebra, a: Subspace, b: Subspace) -> tuple[Subspace, ...]:
    """Maximal subalgebras M with L = A + M and A n M = B, for an ideal A."""
    return complements_among(a, b, supplements_of(l, a, b))


def complements_among(a: Subspace, b: Subspace,
                      supplements) -> tuple[Subspace, ...]:
    """The supplements M of A/B that are complements: A n M = B.  B <= A n M
    and dim(A n M) = dim A + dim M - n when A + M is the whole space, so
    the dimensions decide: no meet."""
    return tuple(m for m in supplements if a.dim + m.dim - m.n == b.dim)


# -- primitivity ------------------------------------------------------------


class PrimitiveKind(IntEnum):
    NOT_PRIMITIVE = 0
    ONE_ABELIAN_MINIMAL = 1
    ONE_NONABELIAN_MINIMAL = 2
    TWO_NONABELIAN_MINIMALS = 3


@dataclass(frozen=True)
class PrimitivityReport:
    algebra: LieAlgebra
    kind: PrimitiveKind
    witness: Subspace | None
    socle_minimals: tuple[Subspace, ...]
    core_evidence: tuple[tuple[Subspace, Subspace], ...]

    @property
    def primitive(self) -> bool:
        return self.kind is not PrimitiveKind.NOT_PRIMITIVE

    def __repr__(self) -> str:
        return (f"PrimitivityReport(kind={self.kind.name}, "
                f"witness={'none' if self.witness is None else self.witness.dim})")


def primitive_type(l: LieAlgebra) -> PrimitivityReport:
    """Classify L as non-primitive or primitive of kind 1, 2 or 3.

    The returned witness is the first core-free maximal subalgebra in
    canonical order; the structural equations of the relevant socle shape are
    re-verified against the witness before returning.  When L is not
    primitive, core_evidence lists every (maximal subalgebra, core) pair, all
    cores nonzero.
    """
    pairs = tuple((r.subalgebra, r.core) for r in maximal_records(l))
    corefree = [m for m, c in pairs if c.dim == 0]
    mins = minimal_ideals(l)
    if not corefree:
        return PrimitivityReport(l, PrimitiveKind.NOT_PRIMITIVE, None, mins, pairs)
    u = corefree[0]
    full = l.full
    if len(mins) == 1:
        a = mins[0]
        ca = centralizer(l, a)
        if _abelian_part(l, a):
            require(ca == a, "abelian socle is not self-centralizing")
            require(subspace_intersect(u, a).dim == 0,
                    "witness does not complement the abelian socle")
            require(subspace_sum(u, a) == full,
                    "witness plus abelian socle is not everything")
            return PrimitivityReport(l, PrimitiveKind.ONE_ABELIAN_MINIMAL, u, mins, ())
        require(ca.dim == 0, "nonabelian monolithic socle has a centralizer")
        require(subspace_sum(u, a) == full,
                "witness plus nonabelian socle is not everything")
        return PrimitivityReport(l, PrimitiveKind.ONE_NONABELIAN_MINIMAL, u, mins, ())
    if len(mins) == 2 and not any(_abelian_part(l, a) for a in mins):
        a, b = mins
        for x in (a, b):
            require(subspace_intersect(u, x).dim == 0,
                    "witness meets a minimal ideal of the split socle")
            require(subspace_sum(u, x) == full,
                    "witness plus a minimal ideal is not everything")
        require(centralizer(l, a) == b and centralizer(l, b) == a,
                "the two minimal ideals are not each other's centralizers")
        soc = subspace_sum(a, b)
        g = subspace_intersect(soc, u)
        require(not _abelian_part(l, g), "socle trace on the witness is abelian")
        ra = restrict_algebra(l, a).algebra
        require(bool(algebra_isomorphisms(ra, restrict_algebra(l, b).algebra)),
                "the two minimal ideals are not isomorphic")
        require(bool(algebra_isomorphisms(ra, restrict_algebra(l, g).algebra)),
                "socle trace on the witness is not isomorphic to the minimal ideals")
        return PrimitivityReport(l, PrimitiveKind.TWO_NONABELIAN_MINIMALS, u, mins, ())
    raise VerificationError(
        f"primitive algebra with unexpected socle shape: "
        f"{len(mins)} minimal ideals of dims {[m.dim for m in mins]}")


def is_monolithic(l: LieAlgebra) -> bool:
    """Whether L has a unique minimal ideal."""
    return len(minimal_ideals(l)) == 1


# -- per-maximal records ----------------------------------------------------


@dataclass(frozen=True)
class MaximalRecord:
    """A maximal subalgebra with its core and the primitive quotient's data."""

    algebra: LieAlgebra
    subalgebra: Subspace
    core: Subspace

    @cached_property
    def quotient(self) -> LieAlgebra:
        return quotient_algebra(self.algebra, self.core).algebra

    @cached_property
    def quotient_kind(self) -> PrimitiveKind:
        kind = primitive_type(self.quotient).kind
        if kind is PrimitiveKind.NOT_PRIMITIVE:
            raise VerificationError(
                "quotient by the core of a maximal subalgebra must be primitive")
        return kind

    @cached_property
    def monolithic(self) -> bool:
        return is_monolithic(self.quotient)

    def __repr__(self) -> str:
        return (f"MaximalRecord(dim={self.subalgebra.dim}, "
                f"core_dim={self.core.dim})")


@lru_cache(maxsize=None)
def maximal_records(l: LieAlgebra) -> tuple[MaximalRecord, ...]:
    """A record per maximal subalgebra M.  The core is M when L is abelian,
    every subspace being an ideal; 0 when M holds no minimal ideal, since a
    nonzero ideal inside M would contain one; else the core iteration."""
    maxes = maximal_subalgebras(l)
    if _abelian_part(l, l.full):
        return tuple(MaximalRecord(l, m, m) for m in maxes)
    mins = minimal_ideals(l)
    return tuple(MaximalRecord(l, m, core(l, m) if any(
        subspace_leq(a, m) for a in mins) else l.zero_space) for m in maxes)


@lru_cache(maxsize=None)
def record_for(l: LieAlgebra, m: Subspace) -> MaximalRecord:
    for rec in maximal_records(l):
        if rec.subalgebra == m:
            return rec
    raise ValueError("subspace is not a maximal subalgebra of this algebra")


@dataclass(frozen=True)
class SupplementSearch:
    """Monolithic-supplement query result; empty iff the factor is Frattini."""

    records: tuple[MaximalRecord, ...]
    frattini_input: bool


def monolithic_supplements(l: LieAlgebra, a: Subspace, b: Subspace) -> SupplementSearch:
    """Maximal supplements of the chief factor A/B whose primitive quotient
    by the core is monolithic (kinds 1 and 2).

    A supplemented chief factor always admits one; a Frattini factor has no
    supplements at all and yields the explanatory frattini_input flag.
    """
    if not is_chief_pair(l, a, b):
        raise ValueError("monolithic_supplements requires a chief factor")
    supps = supplements_of(l, a, b)
    if not supps:
        return SupplementSearch((), True)
    recs = tuple(record_for(l, m) for m in supps)
    mono = tuple(r for r in recs if r.monolithic)
    if not mono:
        raise VerificationError(
            "supplemented chief factor with no monolithic maximal supplement")
    return SupplementSearch(mono, False)
