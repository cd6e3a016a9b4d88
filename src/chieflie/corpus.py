"""Built-in example algebras and seeded random solvable towers.

The registry pins concrete instances used by package-wide scans; the
constructors accept any supported prime (sl2-type families need p >= 5 so
the defining constants 2, -2 stay distinct and nonzero).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (LieAlgebra, Matrix, check_valid, derivation_space,
                      direct_sum, extend_by_derivation, semidirect)
from .field import SUPPORTED_PRIMES


def abelian(n: int, p: int, labels=None) -> LieAlgebra:
    """All brackets zero."""
    if n < 1:
        raise ValueError("dimension must be positive")
    if labels is None:
        labels = tuple(f"a{i + 1}" for i in range(n))
    return LieAlgebra.from_brackets(n, p, {}, labels)


def nonabelian2(p: int) -> LieAlgebra:
    """The only nonabelian 2-dimensional algebra: [x, y] = y."""
    return LieAlgebra.from_brackets(2, p, {(0, 1): (0, 1)}, ("x", "y"))


def heisenberg(p: int) -> LieAlgebra:
    """[x1, x2] = x3, x3 central."""
    return LieAlgebra.from_brackets(3, p, {(0, 1): (0, 0, 1)}, ("x1", "x2", "x3"))


def r4(p: int) -> LieAlgebra:
    """One generator acting as the identity on an abelian 3-dim module:
    [x, y_i] = y_i."""
    alg = semidirect([Matrix.identity(3, p)], 3, p, ("x", "y1", "y2", "y3"))
    return alg


def sl2(p: int) -> LieAlgebra:
    """Basis (e, h, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h; needs p >= 5."""
    if p not in SUPPORTED_PRIMES or p < 5:
        raise ValueError(f"sl2 needs a supported prime >= 5, got {p}")
    return LieAlgebra.from_brackets(
        3, p,
        {(0, 1): (-2 % p, 0, 0),   # [e, h] = -2e
         (0, 2): (0, 1, 0),        # [e, f] = h
         (1, 2): (0, 0, -2 % p)},  # [h, f] = -2f
        ("e", "h", "f"))


def sl2sum(p: int) -> LieAlgebra:
    """sl2 + sl2 (direct sum of ideals)."""
    return direct_sum(sl2(p), sl2(p))


def h3_plus_line(p: int) -> LieAlgebra:
    """Heisenberg plus a central line."""
    return direct_sum(heisenberg(p), abelian(1, p, ("w",)))


def random_solvable(dim: int, p: int, seed: int) -> LieAlgebra:
    """Deterministic random solvable algebra: a tower of one-dimensional
    extensions by derivations sampled from the exact derivation space.

    Every step extends a solvable algebra by a derivation, so the result is
    always solvable and always satisfies Jacobi; the final validation is a
    guard against derivation-solver bugs, not an expected path.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    rng = random.Random(f"{seed}:{dim}:{p}")
    alg = abelian(1, p, ("t1",))
    while alg.n < dim:
        ders = derivation_space(alg)
        coeffs = [rng.randrange(p) for _ in ders]
        combined = [[0] * alg.n for _ in range(alg.n)]
        for c, mat in zip(coeffs, ders):
            if c:
                for r in range(alg.n):
                    for s in range(alg.n):
                        combined[r][s] = (combined[r][s] + c * mat.rows[r][s]) % p
        d = Matrix.from_rows(combined, p)
        alg = extend_by_derivation(alg, d, new_label=f"t{alg.n + 1}")
        check_valid(alg)
    return alg


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    algebra: LieAlgebra
    expected: dict

    @property
    def p(self) -> int:
        return self.algebra.p

    @property
    def dim(self) -> int:
        return self.algebra.n


def _entries() -> list[CorpusEntry]:
    return [
        CorpusEntry("abelian(2,2)", abelian(2, 2), {
            "solvable": True, "minimal_ideals": 3, "maximal_subalgebras": 3,
            "frattini_dim": 0, "chief_series": 3, "primitive": 0}),
        CorpusEntry("abelian(3,2)", abelian(3, 2), {
            "solvable": True, "minimal_ideals": 7, "maximal_subalgebras": 7,
            "frattini_dim": 0, "chief_series": 21, "primitive": 0}),
        CorpusEntry("abelian(2,3)", abelian(2, 3), {
            "solvable": True, "minimal_ideals": 4, "maximal_subalgebras": 4,
            "frattini_dim": 0, "chief_series": 4, "primitive": 0}),
        CorpusEntry("nonabelian2(2)", nonabelian2(2), {
            "solvable": True, "minimal_ideals": 1, "maximal_subalgebras": 3,
            "frattini_dim": 0, "chief_series": 1, "primitive": 1}),
        CorpusEntry("nonabelian2(3)", nonabelian2(3), {
            "solvable": True, "minimal_ideals": 1, "maximal_subalgebras": 4,
            "frattini_dim": 0, "chief_series": 1, "primitive": 1}),
        CorpusEntry("heisenberg(2)", heisenberg(2), {
            "solvable": True, "minimal_ideals": 1, "maximal_subalgebras": 3,
            "frattini_dim": 1, "chief_series": 3, "primitive": 0}),
        CorpusEntry("heisenberg(3)", heisenberg(3), {
            "solvable": True, "minimal_ideals": 1, "maximal_subalgebras": 4,
            "frattini_dim": 1, "chief_series": 4, "primitive": 0}),
        CorpusEntry("r4(2)", r4(2), {
            "solvable": True, "minimal_ideals": 7, "maximal_subalgebras": 15,
            "frattini_dim": 0, "chief_series": 21, "chief_series_pairs": 441,
            "primitive": 0}),
        CorpusEntry("h3_plus_line(2)", h3_plus_line(2), {
            "solvable": True, "minimal_ideals": 3, "maximal_subalgebras": 7,
            "frattini_dim": 1, "chief_series": 27, "primitive": 0}),
        CorpusEntry("sl2(5)", sl2(5), {
            "solvable": False, "minimal_ideals": 1, "maximal_subalgebras": 16,
            "frattini_dim": 0, "chief_series": 1, "primitive": 2}),
        CorpusEntry("sl2sum(5)", sl2sum(5), {
            "solvable": False, "minimal_ideals": 2, "maximal_subalgebras": 152,
            "frattini_dim": 0, "chief_series": 2, "primitive": 3}),
    ]


_REGISTRY: list[CorpusEntry] | None = None


def registry() -> list[CorpusEntry]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _entries()
    return _REGISTRY


_BUILDERS = {
    "abelian": abelian,
    "nonabelian2": nonabelian2,
    "heisenberg": heisenberg,
    "r4": r4,
    "sl2": sl2,
    "sl2sum": sl2sum,
    "h3_plus_line": h3_plus_line,
}


def builtin(name: str, p: int, dim: int | None = None) -> LieAlgebra:
    """Construct a named family member: builtin('heisenberg', 3) etc.;
    abelian additionally needs dim."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown builtin {name!r}; known: {sorted(_BUILDERS)}")
    if name == "abelian":
        if dim is None:
            raise ValueError("abelian needs an explicit dimension")
        return abelian(dim, p)
    if dim is not None:
        raise ValueError(f"{name} does not take a dimension")
    return _BUILDERS[name](p)
