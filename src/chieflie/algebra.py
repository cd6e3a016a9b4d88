"""Finite-dimensional Lie algebras over GF(p) by structure constants.

An algebra is a dense tensor sc[i][j][k] with [x_i, x_j] = sum_k sc[i][j][k] x_k,
stored antisymmetrically in both orders.  Validation checks antisymmetry and
the Jacobi identity and reports the first violating basis triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

from .field import prime_field
from .linalg import (Matrix, PackedMaps, QuotientCoords, Subspace, Vector,
                     _hash_once, quotient_coords, solve_linear, unit)


class ValidationError(ValueError):
    """Structure constants violate the Lie algebra axioms."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(str(report))
        self.report = report


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    kind: str | None = None          # "antisymmetry" | "jacobi"
    triple: tuple | None = None      # offending basis indices (0-based)
    lhs: Vector | None = None
    rhs: Vector | None = None

    def __str__(self):
        if self.ok:
            return "valid"
        if self.kind == "antisymmetry":
            i, j = self.triple
            return (f"antisymmetry fails at basis pair ({i + 1},{j + 1}): "
                    f"[x{i + 1},x{j + 1}]={self.lhs} but [x{j + 1},x{i + 1}]={self.rhs}")
        i, j, k = self.triple
        return (f"Jacobi fails at basis triple ({i + 1},{j + 1},{k + 1}): "
                f"[x,[y,z]]+[y,[z,x]]+[z,[x,y]] = {self.lhs}")


@_hash_once
@dataclass(frozen=True)
class LieAlgebra:
    n: int
    p: int
    sc: tuple[tuple[Vector, ...], ...]
    labels: tuple[str, ...] | None = dc_field(default=None, compare=False)

    @classmethod
    def from_brackets(cls, n: int, p: int, brackets: dict, labels=None) -> "LieAlgebra":
        """Build from {(i, j): vector} for i < j (0-based); the (j, i) entries
        are filled by antisymmetry, everything else is zero.  p must be a
        supported prime, every vector must have length n, and labels, if
        given, must name n basis vectors (ValueError)."""
        prime_field(p)
        labels = tuple(labels) if labels else None
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for dimension {n}")
        sc = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j), vec in brackets.items():
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad bracket index pair ({i},{j}) for dimension {n}")
            if len(vec) != n:
                raise ValueError(f"bracket ({i},{j}) has length {len(vec)}, "
                                 f"not dimension {n}")
            for k, c in enumerate(vec):
                sc[i][j][k] = c % p
                sc[j][i][k] = -c % p
        tensor = tuple(tuple(tuple(row) for row in plane) for plane in sc)
        alg = cls(n, p, tensor, labels)
        check_valid(alg)
        return alg

    # Computed once per algebra: the whole space is asked for constantly.
    @cached_property
    def full(self) -> Subspace:
        return Subspace.full(self.n, self.p)

    @cached_property
    def zero_space(self) -> Subspace:
        return Subspace.zero(self.n, self.p)

    @cached_property
    def ad_maps(self) -> PackedMaps:
        """ad x_0, ..., ad x_{n-1} on packed vectors."""
        return PackedMaps(self.sc, self.p)

    def basis_vector(self, i: int) -> Vector:
        return unit(i, self.n)

    def __repr__(self):
        return f"LieAlgebra(dim={self.n}, GF({self.p}))"


def bracket(l: LieAlgebra, u: Vector, v: Vector) -> Vector:
    p, sc = l.p, l.sc
    acc = [0] * l.n
    for i, a in enumerate(u):
        if not a % p:
            continue
        row = sc[i]
        for j, b in enumerate(v):
            if not b % p:
                continue
            ab = a * b
            cij = row[j]
            for k in range(l.n):
                c = cij[k]
                if c:
                    acc[k] += ab * c
    return tuple(x % p for x in acc)


def validate(l: LieAlgebra) -> ValidationReport:
    n, p, sc = l.n, l.p, l.sc
    if len(sc) != n or any(len(plane) != n for plane in sc) or \
            any(len(row) != n for plane in sc for row in plane):
        raise ValueError(f"structure tensor is not {n}x{n}x{n}")
    for i in range(n):
        for j in range(i, n):
            lhs = sc[i][j]
            rhs = sc[j][i]
            # [e_i, e_i] = 0 on its own: over GF(2), a + a = 0 for any a.
            if any(a % p if i == j else (a + b) % p
                   for a, b in zip(lhs, rhs)):
                return ValidationReport(False, "antisymmetry", (i, j),
                                        tuple(a % p for a in lhs), tuple(b % p for b in rhs))
    basis = [l.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s1 = bracket(l, basis[i], sc[j][k])
                s2 = bracket(l, basis[j], sc[k][i])
                s3 = bracket(l, basis[k], sc[i][j])
                total = tuple((a + b + c) % p for a, b, c in zip(s1, s2, s3))
                if any(total):
                    return ValidationReport(False, "jacobi", (i, j, k), total, None)
    return ValidationReport(True)


def check_valid(l: LieAlgebra) -> None:
    report = validate(l)
    if not report.ok:
        raise ValidationError(report)


def _check_subspaces(l: LieAlgebra, *spaces: Subspace) -> None:
    """Refuse (ValueError) a subspace of another GF(p)^n than L's."""
    for u in spaces:
        if (u.n, u.p) != (l.n, l.p):
            raise ValueError(f"subspace of GF({u.p})^{u.n}, not of L's "
                             f"GF({l.p})^{l.n}")


def subspace_product(l: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """[U, V]: span of all brackets of basis elements; for [U, U] only the
    pairs i < j, since [a, a] = 0 and [b, a] = -[a, b]."""
    _check_subspaces(l, u, v)
    pairs = itertools.combinations(u.rows, 2) if u == v else \
        itertools.product(u.rows, v.rows)
    return Subspace(l.n, l.p, [bracket(l, a, b) for a, b in pairs])


def is_subalgebra(l: LieAlgebra, u: Subspace) -> bool:
    _check_subspaces(l, u)
    rows = u.rows
    for a_i, a in enumerate(rows):
        for b in rows[a_i + 1:]:
            if not u.contains(bracket(l, a, b)):
                return False
    return True


def is_ideal(l: LieAlgebra, u: Subspace) -> bool:
    _check_subspaces(l, u)
    return u.invariant_under(l.ad_maps)


def ad_matrix(l: LieAlgebra, x: Vector,
              qc: QuotientCoords | None = None) -> Matrix:
    """Matrix of v -> [x, v] in the standard basis (rows = output coords),
    or of the map it induces on qc.space/qc.sub, in qc's coordinates, when
    ad x maps qc.space into itself (unchecked: project then raises)."""
    if qc is None:
        cols = [bracket(l, x, e) for e in l.full.rows]
    else:
        cols = [qc.project(bracket(l, x, v)) for v in qc.lifts.rows]
    return Matrix(l.p, tuple(zip(*cols)))


def preserves_brackets(theta: Matrix, src, dst) -> bool:
    """Whether theta[e_s, e_t] = [theta e_s, theta e_t] for all s < t, where
    src and dst compute the brackets in the domain and codomain of theta."""
    d = theta.ncols
    for s in range(d):
        for t in range(s + 1, d):
            es, et = unit(s, d), unit(t, d)
            if theta.apply(src(es, et)) != dst(theta.apply(es), theta.apply(et)):
                return False
    return True


# -- quotients -------------------------------------------------------------


@dataclass(frozen=True)
class QuotientPresentation:
    """L/I with explicit project/lift between parent and quotient coordinates."""

    parent: LieAlgebra
    ideal: Subspace
    algebra: LieAlgebra
    coords: QuotientCoords

    def project(self, v: Vector) -> Vector:
        return self.coords.project(v)

    def lift(self, q: Vector) -> Vector:
        return self.coords.lift(q)

    def preimage_subspace(self, q: Subspace) -> Subspace:
        rows = [self.lift(r) for r in q.rows] + list(self.ideal.rows)
        return Subspace(self.parent.n, self.parent.p, rows)


@lru_cache(maxsize=None)
def quotient_algebra(l: LieAlgebra, ideal: Subspace) -> QuotientPresentation:
    if not is_ideal(l, ideal):
        raise ValueError("quotient by a non-ideal subspace")
    qc = quotient_coords(l.full, ideal)
    k, lifts = qc.dim, qc.lifts.rows
    # [x_i, x_i] = 0 and [x_j, x_i] = -[x_i, x_j]: bracket only i < j
    sc = [[(0,) * k] * k for _ in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        c = sc[i][j] = qc.project(bracket(l, lifts[i], lifts[j]))
        sc[j][i] = tuple([-x % l.p for x in c])
    labels = None
    if l.labels and ideal.dim == 0:
        labels = l.labels
    q = LieAlgebra(k, l.p, tuple(map(tuple, sc)), labels)
    check_valid(q)
    return QuotientPresentation(l, ideal, q, qc)


# -- subalgebras as algebras ----------------------------------------------


@dataclass(frozen=True)
class SubalgebraPresentation:
    """A subalgebra U of L as an algebra in its own right, with coordinate
    maps between U-coordinates and ambient vectors."""

    parent: LieAlgebra
    subspace: Subspace
    algebra: LieAlgebra

    def to_sub(self, v: Vector) -> Vector:
        if not self.subspace.contains(v):
            raise ValueError(f"vector {v} outside the subalgebra")
        return self.subspace.coords(v)

    def to_parent(self, c: Vector) -> Vector:
        return self.subspace.combine(c)

    def sub_subspace(self, u: Subspace) -> Subspace:
        """Intersection-free restriction: u must already lie inside U."""
        rows = [self.to_sub(r) for r in u.rows]
        return Subspace(self.algebra.n, self.parent.p, rows)

    def parent_subspace(self, u: Subspace) -> Subspace:
        rows = [self.to_parent(r) for r in u.rows]
        return Subspace(self.parent.n, self.parent.p, rows)


def restrict_algebra(l: LieAlgebra, u: Subspace) -> SubalgebraPresentation:
    if not is_subalgebra(l, u):
        raise ValueError("restriction to a non-subalgebra subspace")
    brackets = [[bracket(l, x, y) for y in u.rows] for x in u.rows]
    if not all(u.contains(w) for row in brackets for w in row):
        raise ValueError("vector outside subspace")
    pres_sc = tuple(tuple(u.coords(w) for w in row) for row in brackets)
    alg = LieAlgebra(u.dim, l.p, pres_sc)
    check_valid(alg)
    return SubalgebraPresentation(l, u, alg)


# -- constructors ----------------------------------------------------------


def direct_sum(l1: LieAlgebra, l2: LieAlgebra) -> LieAlgebra:
    if l1.p != l2.p:
        raise ValueError(f"direct sum over different fields GF({l1.p}), GF({l2.p})")
    n = l1.n + l2.n
    brackets = {}
    for i in range(l1.n):
        for j in range(i + 1, l1.n):
            brackets[(i, j)] = tuple(l1.sc[i][j]) + (0,) * l2.n
    for i in range(l2.n):
        for j in range(i + 1, l2.n):
            brackets[(l1.n + i, l1.n + j)] = (0,) * l1.n + tuple(l2.sc[i][j])
    labels = None
    if l1.labels and l2.labels:
        right = tuple(x + "'" for x in l2.labels) if l1.labels == l2.labels else tuple(l2.labels)
        labels = tuple(l1.labels) + right
    return LieAlgebra.from_brackets(n, l1.p, brackets, labels)


def semidirect(action: list, module_dim: int, p: int, labels=None) -> LieAlgebra:
    """Abelian algebra of dim len(action) acting on an abelian module:
    [a_i, m] = action[i] m, module abelian.  Jacobi is validated, so
    non-commuting action matrices are rejected with the offending triple."""
    k = len(action)
    mats = [m if isinstance(m, Matrix) else Matrix.from_rows(m, p) for m in action]
    for m in mats:
        if m.nrows != module_dim or m.ncols != module_dim:
            raise ValueError(f"action matrix is {m.nrows}x{m.ncols}, expected {module_dim}x{module_dim}")
    n = k + module_dim
    brackets = {}
    for i in range(k):
        for j in range(module_dim):
            col = mats[i].column(j)
            brackets[(i, k + j)] = (0,) * k + tuple(col)
    return LieAlgebra.from_brackets(n, p, brackets, labels)


def extend_by_derivation(l: LieAlgebra, d: Matrix, new_label: str | None = None) -> LieAlgebra:
    """One-dimensional extension: new basis element x with [x, v] = D v on L."""
    if d.nrows != l.n or d.ncols != l.n:
        raise ValueError(f"derivation matrix is {d.nrows}x{d.ncols}, expected {l.n}x{l.n}")
    n = l.n + 1
    brackets = {}
    for i in range(l.n):
        for j in range(i + 1, l.n):
            brackets[(1 + i, 1 + j)] = (0,) + tuple(l.sc[i][j])
    for j in range(l.n):
        brackets[(0, 1 + j)] = (0,) + tuple(d.column(j))
    labels = None
    if l.labels:
        labels = (new_label or "t",) + tuple(l.labels)
    return LieAlgebra.from_brackets(n, l.p, brackets, labels)


def derivation_space(l: LieAlgebra) -> list[Matrix]:
    """Basis of Der(L): matrices D with D[x,y] = [Dx,y] + [x,Dy]."""
    n, p = l.n, l.p
    # Unknowns D[r][c] flattened row-major; one vector equation per basis pair.
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            cij = l.sc[i][j]
            for k in range(n):
                # coefficient of D[r][c] in ( D[x_i,x_j] - [Dx_i,x_j] - [x_i,Dx_j] )_k
                coeff = [0] * (n * n)
                for c in range(n):
                    coeff[k * n + c] = (coeff[k * n + c] + cij[c]) % p
                for r in range(n):
                    # [Dx_i, x_j]_k picks up D[r][i] * [x_r, x_j]_k
                    coeff[r * n + i] = (coeff[r * n + i] - l.sc[r][j][k]) % p
                    coeff[r * n + j] = (coeff[r * n + j] - l.sc[i][r][k]) % p
                rows.append(tuple(coeff))
                rhs.append(0)
    if not rows:
        rows = [tuple([0] * (n * n))]
        rhs = [0]
    _, kernel = solve_linear(rows, tuple(rhs), p)
    return [Matrix(p, tuple(tuple(flat[r * n + c] for c in range(n))
                            for r in range(n))) for flat in kernel.rows]
