"""Chief-factor machinery for finite-dimensional Lie algebras over GF(p)."""

from .field import Fp, PrimeField, prime_field, SUPPORTED_PRIMES
from .linalg import (BudgetExceeded, Matrix, Subspace, enumerate_subspaces,
                     gaussian_binomial, count_subspaces, quotient_coords,
                     solve_linear, subspace_intersect, subspace_leq, subspace_sum)
from .algebra import (LieAlgebra, Section, ValidationError, ValidationReport,
                      ad_matrix, bracket, check_valid, derivation_space,
                      direct_sum, extend_by_derivation, is_ideal,
                      is_subalgebra, quotient_algebra, restrict_algebra,
                      semidirect, subspace_product, validate)
from .errors import VerificationError
from .ideals import (ChiefSeries, SeriesEnumeration, all_ideals,
                     centralizer_of_factor, chief_series, core, derived_series,
                     enumerate_chief_series, ideal_closure, is_chief_pair,
                     is_solvable, make_chief_series, minimal_ideals,
                     minimal_ideals_over, socle)
from .maximal import (MaximalRecord, PrimitiveKind, PrimitivityReport,
                      SupplementSearch, algebra_isomorphisms, complements_of,
                      frattini, is_frattini_factor, is_maximal,
                      maximal_records, maximal_subalgebras,
                      monolithic_supplements, primitive_type, record_for,
                      supplements_of)
from .factors import (ChiefFactor, ClauseResult, JoinResult, LConnection,
                      MCrossing, MRelation, TransferCheckReport,
                      chief_factor_catalog, common_complements,
                      common_supplements, complements_relaxed, crossing_catalog,
                      descends_to, descent_transfer_checks, get_factor,
                      is_m_crossing, l_connected, l_isomorphic, m_crossing_swap,
                      m_related, make_crossing, module_hom_space,
                      supplement_join, supplements_relaxed)
from .jordanholder import (CutPaste, FrattiniTransfer, IndexMatch, JHReport,
                           SupplementedTransfer, cut_and_paste,
                           cut_maximal_down, cut_series_down, jh_permutation,
                           matching_permutations, paste_maximal_up,
                           paste_series_up, transfer_frattini,
                           transfer_supplemented)
from .corpus import CorpusEntry, builtin, random_solvable, registry
from .fileio import (AlgebraFileError, format_algebra, load_algebra,
                     parse_algebra, save_algebra)

__version__ = "0.1.0"
