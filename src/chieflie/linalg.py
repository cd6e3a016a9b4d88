"""Exact linear algebra over GF(p): canonical subspaces and solvers.

Vectors are tuples of ints in [0, p); inside a Subspace they are packed into
one int each, a fixed-width lane per coordinate (see the packed kernel
below).  The Subspace constructor owns
canonical form: it reduces whatever spanning rows it is given to reduced row
echelon form, so no non-canonical Subspace can be built, structural equality
and hashing are subspace equality, and (dim, rows) is a total deterministic
order used for every canonical choice in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

from .field import prime_field

# Hard enumeration bounds plus a count cap: (6,7) alone is ~1.1e8 subspaces.
ENUM_MAX_DIM = 6
ENUM_MAX_PRIME = 7
ENUM_COUNT_CAP = 120_000


class BudgetExceeded(RuntimeError):
    """An enumeration was refused; .count carries the computed size."""

    def __init__(self, message: str, count: int):
        super().__init__(f"{message} (computed count: {count})")
        self.count = count


Vector = tuple[int, ...]
Rows = tuple[Vector, ...]


def vec_add(u: Vector, v: Vector, p: int) -> Vector:
    return tuple((a + b) % p for a, b in zip(u, v))

def vec_scale(c: int, u: Vector, p: int) -> Vector:
    return tuple((c * a) % p for a in u)

def unit(i: int, n: int) -> Vector:
    """The i-th standard basis vector of length n."""
    return tuple(1 if j == i else 0 for j in range(n))


def rref_rows(rows, p: int) -> Rows:
    """Canonical reduced row echelon form; zero rows dropped.  Entries may
    be any ints; the output entries lie in [0, p).  Rows of unequal length
    raise ValueError."""
    rows = tuple(rows)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError(f"rows of unequal lengths {sorted({len(r) for r in rows})}")
    basis = _span(p, n, [_pack(r, p) for r in rows])
    return tuple([_unpack(m, n, p) for m in sorted(basis, reverse=True)])


# -- the packed kernel ------------------------------------------------------
#
# A packed vector of GF(p)^n is one int with a w-bit lane per coordinate
# (w = prime_field(p).w, 1 over GF(2)), column 0 in the top lane.  Lanes
# hold residues in [0, p), so integer order is lexicographic row order and
# a vector's pivot is its top nonzero lane.  Every subspace algorithm below
# runs through one elimination pair, _pair(p, lanes): XOR over GF(2), and
# over odd p a lane add of a multiple, x + (p - c) * row, then the pair's
# fold, _folder's branch-free reduction x - q*(((x + K) & H) >> (w - 1)).
# A basis kept by add is fully reduced, so sorted in descending order it is
# the RREF.  _combine sums multiples of packed rows with the same fold.


def _pack(v: Vector, p: int) -> int:
    """v as a packed vector."""
    w, m = prime_field(p).w, 0
    for x in v:
        m = (m << w) | (x % p)
    return m


def _unpack(m: int, n: int, p: int) -> Vector:
    """The vector of GF(p)^n packed as m."""
    w = prime_field(p).w
    low = (1 << w) - 1
    return tuple([m >> s & low for s in range(w * (n - 1), -1, -w)])


def _gf2_residue(basis, mask: int) -> int:
    """A packed vector reduced modulo basis, packed rows kept by _gf2_add:
    each row's top bit is its pivot, and no other row has it set, so one
    pass clears every pivot (x ^ row < x iff x has row's pivot set)."""
    for row in basis:
        if (mask ^ row) < mask:
            mask ^= row
    return mask


def _gf2_add(basis: list[int], mask: int) -> int:
    """The one GF(2) elimination step: reduce mask modulo basis; a nonzero
    residual is cleared out of the rows and added.  Returns the residual."""
    mask = _gf2_residue(basis, mask)
    if mask:
        top = 1 << (mask.bit_length() - 1)
        for i, row in enumerate(basis):
            if row & top:
                basis[i] = row ^ mask
        basis.append(mask)
    return mask


def _folder(p: int, lanes: int):
    """x -> x mod p in every lane of a packed GF(p)^lanes vector whose lanes
    are at most p(p-1): each step subtracts q where a lane is >= q."""
    field = prime_field(p)
    w, (h, steps) = field.w, field.lanes(lanes)

    def fold(x: int) -> int:
        for q, k in steps:
            x -= q * (((x + k) & h) >> w - 1)
        return x

    return fold


def _pair(p: int, lanes: int):
    """(residue, add, fold) on packed vectors of GF(p)^lanes, built once per
    (p, lanes) and kept on the field.  residue(basis, v) is v reduced
    modulo a basis kept by add, 0 if v lies in its span; add(basis, v)
    appends that residue, normalised and cleared out of the other rows,
    and returns it.  fold is _folder(p, lanes), None over GF(2)."""
    if p == 2:
        return _gf2_residue, _gf2_add, None
    field = prime_field(p)
    if lanes in field.kernels:
        return field.kernels[lanes]
    w, inv = field.w, field.inv_table
    fold = _folder(p, lanes)
    low = (1 << w) - 1

    def residue(basis, v):
        for row in basis:
            c = v >> (row.bit_length() - 1) // w * w & low
            if c:
                v = fold(v + (p - c) * row)
        return v

    def add(basis, v):
        v = residue(basis, v)
        if v:
            s = (v.bit_length() - 1) // w * w
            head = v >> s
            if head != 1:
                v = fold(inv[head] * v)
            for i, row in enumerate(basis):
                c = row >> s & low
                if c:
                    basis[i] = fold(row + (p - c) * v)
            basis.append(v)
        return v

    field.kernels[lanes] = residue, add, fold
    return residue, add, fold


def _combine(p: int, lanes: int, rows, coeffs) -> int:
    """The packed sum of coeffs[i] * rows[i], rows packed vectors of
    GF(p)^lanes and each coefficient taken mod p: XOR over GF(2), folded
    lane adds over odd p.  Each add stays within the fold's bound: every
    lane of acc is below p and of c * row at most (p-1)^2, so their sum is
    at most p(p-1)."""
    fold, acc = _pair(p, lanes)[2], 0
    for c, row in zip(coeffs, rows):
        c %= p
        if c:
            acc = fold(acc + c * row) if fold else acc ^ row
    return acc


def _span(p: int, lanes: int, vectors, basis=()) -> list:
    """A basis kept by _pair(p, lanes)'s add of the span of vectors and
    basis."""
    add = _pair(p, lanes)[1]
    basis = list(basis)
    for v in vectors:
        add(basis, v)
    return basis


def _hash_once(cls):
    """Class decorator for the immutable values used as memo keys: keep the
    value of their __hash__ (the hash of the compared-field tuple, or of
    (n, p, rows) for Subspace) on the instance after its first use."""
    fieldwise = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = fieldwise(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@_hash_once
class Subspace:
    """A subspace of GF(p)^n in canonical (RREF) form.

    Construction reduces any spanning rows, each of length n, to their RREF,
    so rows is always the canonical basis of the span it was given.  The
    basis is also kept packed (_pack) in pivot order, and a subspace built
    from packed rows (sum, meet, spin) unpacks rows only on first use.
    Equality compares that basis; the hash is hash((n, p, rows)).
    """

    def __init__(self, n: int, p: int, rows):
        rows = tuple(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError(f"vector of length {len(r)} in ambient dimension {n}")
        rows = rref_rows(rows, p)
        self.__dict__.update(n=n, p=p, rows=rows,
                             _basis=tuple([_pack(r, p) for r in rows]))

    @classmethod
    def _of(cls, n: int, p: int, basis: list) -> "Subspace":
        """The subspace spanned by basis, a list kept by _pair(p, n)'s
        add."""
        s = object.__new__(cls)
        s.__dict__.update(n=n, p=p, _basis=tuple(sorted(basis, reverse=True)))
        return s

    @cached_property
    def rows(self) -> Rows:
        return tuple([_unpack(m, self.n, self.p) for m in self._basis])

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        n, w = self.n, prime_field(self.p).w
        return tuple([n - 1 - (m.bit_length() - 1) // w for m in self._basis])

    def __eq__(self, other):
        if other.__class__ is not Subspace:
            return NotImplemented
        return (self.n, self.p, self._basis) == (other.n, other.p, other._basis)

    def __hash__(self):
        return hash((self.n, self.p, self.rows))

    def __setattr__(self, name, value):
        raise AttributeError(f"Subspace is immutable; cannot set {name}")

    # -- construction ------------------------------------------------------

    @classmethod
    def span(cls, n: int, p: int, vectors) -> "Subspace":
        return cls(n, p, vectors)

    @classmethod
    def zero(cls, n: int, p: int) -> "Subspace":
        return cls(n, p, ())

    @classmethod
    def full(cls, n: int, p: int) -> "Subspace":
        return cls(n, p, tuple(unit(i, n) for i in range(n)))

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._basis)

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after reduction modulo this subspace."""
        n, p = self.n, self.p
        return _unpack(_pair(p, n)[0](self._basis, _pack(v, p)), n, p)

    def contains(self, v: Vector) -> bool:
        return not _pair(self.p, self.n)[0](self._basis, _pack(v, self.p))

    def invariant_under(self, maps: "PackedMaps") -> bool:
        """Whether every map of maps sends this subspace into itself."""
        residue = _pair(self.p, self.n)[0]
        return not any(residue(self._basis, w)
                       for a in self._basis for w in maps.images(a))

    def coords(self, v: Vector) -> Vector:
        """Coordinates of v in the canonical basis; v must lie in this
        subspace (unchecked), so the pivot entries are the coordinates."""
        return tuple(v[piv] % self.p for piv in self.pivots)

    def combine(self, coeffs) -> Vector:
        """The member sum of coeffs[i] * rows[i]."""
        n, p = self.n, self.p
        return _unpack(_combine(p, n, self._basis, coeffs), n, p)

    def vectors(self):
        """All p^dim member vectors (small dims only)."""
        for coeffs in itertools.product(range(self.p), repeat=self.dim):
            yield self.combine(coeffs)

    def key(self):
        """Total deterministic order: by dimension, then basis rows."""
        return (self.dim, self.rows)

    def __repr__(self):
        if not self.rows:
            return f"<0 in GF({self.p})^{self.n}>"
        return "<" + ", ".join(str(r) for r in self.rows) + f" in GF({self.p})^{self.n}>"


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if (u.n, u.p) != (v.n, v.p):
        raise ValueError(f"ambient mismatch: GF({u.p})^{u.n} vs GF({v.p})^{v.n}")


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    basis = _span(u.p, u.n, v._basis, u._basis)
    return u if len(basis) == u.dim else Subspace._of(u.n, u.p, basis)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus: rows [x|x] for x in U and [y|0] for y in V; the reduced
    rows with zero left half carry a basis of the intersection in the right
    half.  The rows are packed vectors of 2n lanes, the left half on top."""
    _check_ambient(u, v)
    n, p = u.n, u.p
    s = n * prime_field(p).w
    basis = _span(p, 2 * n, [(x << s) | x for x in u._basis] +
                  [y << s for y in v._basis])
    return Subspace._of(n, p, [m for m in basis if not m >> s])


def subspace_leq(u: Subspace, v: Subspace) -> bool:
    _check_ambient(u, v)
    residue = _pair(u.p, u.n)[0]
    return not any(residue(v._basis, m) for m in u._basis)


class PackedMaps:
    """Linear maps f_0, ..., f_{n-1} of GF(p)^n on packed vectors, given by
    maps[i][j] = f_i(e_j): the column of e_j packs its n images end to end
    in n * n lanes, so images(v) is one _combine of the columns with v's
    coordinates, one XOR (GF(2)) or one folded lane add (odd p) per nonzero
    coordinate.  columns[j] is the column of e_j."""

    def __init__(self, maps, p: int):
        self.n = n = len(maps)
        self.p = p
        self.columns = tuple([_pack([x for f in maps for x in f[j]], p)
                              for j in range(n)])

    def images(self, v: int) -> list[int]:
        """The packed f_0(v), ..., f_{n-1}(v) of a packed v."""
        n, p = self.n, self.p
        acc = _combine(p, n * n, self.columns, _unpack(v, n, p))
        s = n * prime_field(p).w
        block = (1 << s) - 1
        return [acc >> k & block for k in range(s * (n - 1), -1, -s)]

    def sending(self, a: Subspace, b: Subspace) -> Subspace:
        """The x with sum x_i f_i mapping A into B.  Row i holds the
        residues mod B of f_i(v) for every basis vector v of A, with e_i in
        the low n lanes; as in subspace_intersect, the reduced rows with
        zero top part carry the answer (all of them when A = 0)."""
        n, p = self.n, self.p
        w = prime_field(p).w
        residue, s = _pair(p, n)[0], n * w
        tops = [0] * n
        for v in a._basis:
            tops = [(t << s) | residue(b._basis, fv)
                    for t, fv in zip(tops, self.images(v))]
        basis = _span(p, (a.dim + 1) * n, [(t << s) | 1 << (n - 1 - i) * w
                                           for i, t in enumerate(tops)])
        return Subspace._of(n, p, [m for m in basis if not m >> s])


def spin(maps: PackedMaps, seed: Subspace, base: Subspace | None = None,
         stop=()) -> Subspace | None:
    """The smallest subspace containing seed and base that maps sends into
    itself.  base must already be invariant (unchecked), so only the rows
    new to the span are mapped.  None as soon as the span, grown past one
    dimension over base, contains one of the lines stop."""
    n, p = maps.n, maps.p
    residue, add, _ = _pair(p, n)
    basis = [] if base is None else list(base._basis)
    floor = len(basis) + 1
    todo, fresh = list(seed._basis), []
    while len(basis) < n and (todo or fresh):
        if not todo:
            todo = maps.images(fresh.pop())
        v = add(basis, todo.pop())
        if v:
            if len(basis) > floor and not all(
                    residue(basis, s._basis[0]) for s in stop):
                return None
            fresh.append(v)
    return Subspace._of(n, p, basis)


def solve_linear(a_rows, b: Vector, p: int):
    """Solve A x = b over GF(p) with A given by rows.

    Returns (particular, kernel) where particular is None when the system is
    inconsistent; kernel is always the full solution space of A x = 0.
    """
    a_rows = tuple(tuple(x % p for x in r) for r in a_rows)
    m = len(a_rows)
    n = len(a_rows[0]) if m else len(b)
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)} does not match {m} equations")
    aug = rref_rows(tuple(r + (bv % p,) for r, bv in zip(a_rows, b)), p)
    pivots = tuple([r.index(1) for r in aug])
    # A row pivoting on column n (the last row, if any) reads 0 = 1; the
    # rows before it are the RREF of A, so they also give the kernel.
    consistent = not pivots or pivots[-1] < n
    if not consistent:
        aug, pivots = aug[:-1], pivots[:-1]
    kernel_rows = []
    for fc in (j for j in range(n) if j not in pivots):
        vec = [0] * n
        vec[fc] = 1
        for row, piv in zip(aug, pivots):
            vec[piv] = (-row[fc]) % p
        kernel_rows.append(tuple(vec))
    kernel = Subspace(n, p, kernel_rows)
    if not consistent:
        return None, kernel
    particular = [0] * n
    for row, piv in zip(aug, pivots):
        particular[piv] = row[n]
    return tuple(particular), kernel


# -- counting and enumeration ---------------------------------------------


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_subspaces(n: int, p: int, dims=None) -> int:
    dims = range(n + 1) if dims is None else dims
    return sum(gaussian_binomial(n, d, p) for d in dims)


def enumerate_subspaces(n: int, p: int, dims=None, count_cap: int = ENUM_COUNT_CAP):
    """Yield every subspace of GF(p)^n exactly once, canonically ordered.

    Order: dimension ascending, then lexicographic on the canonical basis
    rows.  Refuses (BudgetExceeded) outside n <= 6, p <= 7 or when the
    total count exceeds count_cap.
    """
    if dims is None:
        dims = list(range(n + 1))
    else:
        dims = sorted(set(dims))
        if any(d < 0 or d > n for d in dims):
            raise ValueError(f"dims {dims} out of range for ambient dimension {n}")
    total = count_subspaces(n, p, dims)
    if n > ENUM_MAX_DIM or p > ENUM_MAX_PRIME:
        raise BudgetExceeded(
            f"subspace enumeration limited to n <= {ENUM_MAX_DIM}, p <= {ENUM_MAX_PRIME}; "
            f"got n={n}, p={p}", total)
    if total > count_cap:
        raise BudgetExceeded(
            f"subspace enumeration of GF({p})^{n} dims {dims} exceeds cap {count_cap}", total)
    for d in dims:
        batch = []
        for pivots in itertools.combinations(range(n), d):
            pivot_set = set(pivots)
            free_cells = [(i, j) for i in range(d)
                          for j in range(pivots[i] + 1, n) if j not in pivot_set]
            for values in itertools.product(range(p), repeat=len(free_cells)):
                rows = [[0] * n for _ in range(d)]
                for i, piv in enumerate(pivots):
                    rows[i][piv] = 1
                for (i, j), val in zip(free_cells, values):
                    rows[i][j] = val
                batch.append(Subspace(n, p, tuple(tuple(r) for r in rows)))
        batch.sort(key=lambda s: s.rows)
        yield from batch


# -- quotient coordinates --------------------------------------------------
#
# W/U is read off the packed canonical bases of W and U: no second
# coordinate system and no row reduction (see QuotientCoords).


@dataclass(frozen=True)
class QuotientCoords:
    """Coordinates for W/U: project is a linear surjection W -> GF(p)^k with
    kernel exactly U, and lift is a right inverse of project.  lifts is
    spanned by W's canonical rows whose pivots are not pivots of U: U <= W
    puts U's pivots among W's, so those rows vanish at U's pivots, and a v
    in W reduced modulo U, which vanishes there too, is their combination
    with its entries at their pivots as coefficients."""

    space: Subspace
    sub: Subspace
    lifts: Subspace

    @property
    def dim(self) -> int:
        return self.lifts.dim

    def project(self, v: Vector) -> Vector:
        if not self.space.contains(v):
            raise ValueError(f"vector {v} outside the ambient subspace")
        return self.lifts.coords(self.sub.reduce(v))

    def lift(self, q: Vector) -> Vector:
        return self.lifts.combine(q)

    def line_count(self, spaces=None) -> int:
        """Lines of space/sub, or of the union of spaces (see lines)."""
        dims = [self.dim] if spaces is None else [s.dim for s in spaces]
        return sum((self.sub.p ** d - 1) // (self.sub.p - 1) for d in dims)

    def lines(self, spaces=None):
        """Yield each line of space/sub, or of the union of spaces (subspaces
        of GF(p)^k meeting pairwise in 0), as <v> for a lift v: every X with
        sub < X <= space, and X/sub meeting one of spaces if given, contains
        sub + <v> for one of them.  v is a _combine of lifts' packed rows,
        which have distinct pivots, the first with coefficient 1, so it is
        canonical as packed.  Refuses (BudgetExceeded) above ENUM_COUNT_CAP
        lines."""
        k, n, p = self.dim, self.sub.n, self.sub.p
        count = self.line_count(spaces)
        if count > ENUM_COUNT_CAP:
            raise BudgetExceeded(
                f"direction scan of a {k}-dimensional quotient over GF({p}) "
                f"exceeds cap {ENUM_COUNT_CAP}", count)
        lifts = self.lifts._basis
        for rows in [lifts] if spaces is None else [
                [_combine(p, n, lifts, q) for q in s.rows] for s in spaces]:
            for d in nonzero_directions(len(rows), p):
                yield Subspace._of(n, p, [_combine(p, n, rows, d)])


def quotient_coords(space: Subspace, sub: Subspace) -> QuotientCoords:
    if not subspace_leq(sub, space):
        raise ValueError("quotient_coords requires sub <= space")
    # a canonical row's pivot entry is 1, so its bit length marks its pivot
    tops = {m.bit_length() for m in sub._basis}
    lifts = [m for m in space._basis if m.bit_length() not in tops]
    return QuotientCoords(space, sub, Subspace._of(space.n, space.p, lifts))


# -- a minimal dense matrix for API surfaces -------------------------------


@dataclass(frozen=True)
class Matrix:
    """Dense matrix over GF(p); apply() computes M v with rows as the map's
    output coordinates."""

    p: int
    rows: Rows

    @classmethod
    def from_rows(cls, rows, p: int) -> "Matrix":
        rows = tuple(tuple(x % p for x in r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix rows")
        return cls(p, rows)

    @classmethod
    def identity(cls, n: int, p: int) -> "Matrix":
        return cls(p, tuple(unit(i, n) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError(f"matrix is {self.nrows}x{self.ncols}, vector has length {len(v)}")
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.rows)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply a {self.nrows}x{self.ncols} "
                             f"matrix by a {other.nrows}x{other.ncols} matrix")
        p, cols = self.p, tuple(zip(*other.rows))
        return Matrix(p, tuple(tuple(sum(x * y for x, y in zip(row, col)) % p
                                     for col in cols) for row in self.rows))

    def __pow__(self, e: int) -> "Matrix":
        if self.nrows != self.ncols or e < 0:
            raise ValueError(f"cannot raise a {self.nrows}x{self.ncols} "
                             f"matrix to the power {e}")
        return reduce(Matrix.__matmul__, [self] * e,
                      Matrix.identity(self.nrows, self.p))

    def inverse(self) -> "Matrix":
        """M^-1: the RREF of [M | I] is [I | M^-1] exactly when its last
        row does not vanish on M's columns; ValueError otherwise."""
        n = self.nrows
        red = rref_rows([r + unit(i, n) for i, r in enumerate(self.rows)],
                        self.p)
        if n != self.ncols or n and not any(red[-1][:n]):
            raise ValueError(f"a {n}x{self.ncols} matrix that is singular or "
                             f"not square has no inverse")
        return Matrix(self.p, tuple(r[n:] for r in red))

    def fitting_cover(self) -> tuple[Subspace, ...]:
        """For square M on GF(p)^k: each nonzero ker(M - c), c in GF(p), and
        im(S^k) for S = M^p - M, if nonzero.  Any two meet only in 0, and
        each nonzero M-invariant W meets one: by Fitting's lemma W lies in
        im(S^k) or meets ker(S^k), where S = prod_c (M - c) is nilpotent, so
        some w != 0 in W has S w = 0 and a nonzero partial product
        (M - c_1)...(M - c_j) w in W lies in ker(M - c_{j+1})."""
        p, k, rows = self.p, self.ncols, self.rows
        out = [solve_linear([[(x - c * (i == j)) % p for j, x in enumerate(r)]
                             for i, r in enumerate(rows)], (0,) * k, p)[1]
               for c in range(p)]
        s = Matrix(p, tuple(tuple((x - y) % p for x, y in zip(r, q))
                            for r, q in zip((self ** p).rows, rows)))
        out.append(Subspace(k, p, tuple(zip(*(s ** k).rows))))
        return tuple(u for u in out if u.dim)


@lru_cache(maxsize=None)
def nonzero_directions(k: int, p: int) -> tuple[Vector, ...]:
    """One representative per line of GF(p)^k: first nonzero coordinate 1."""
    return tuple(v for v in itertools.product(range(p), repeat=k)
                 if next((x for x in v if x), None) == 1)
