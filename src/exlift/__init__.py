"""exlift: exact exchange-ideal computations over finite rings.

Finite rings by operation tables, exchange-ring predicates decided by
theorem, V(R) = N^t by rank vector, refinement and separativity checkers
for truncated abstract monoids, the K0 index map, and certificate-producing
elementary-matrix diagonalization and unit lifting.
"""

__version__ = "0.1.0"

from .config import Guards, default_guards
from .errors import (DimensionMismatch, ExliftError, GuardExceeded,
                     HypothesisFailed, InvalidSpec, NotAUnit, NotDownwardClosed,
                     NotFredholm, NotInIdeal, PreconditionFailed,
                     RingMismatch, SearchExhausted, VerificationFailed)
from .rings import (FiniteRing, Ideal, MatrixSpec, ProductSpec, QuotientSpec,
                    TriangularSpec, ZmodSpec, all_ideals, build_ring,
                    element_descriptor, element_from_descriptor, full_ideal,
                    ideal_closure, parse_ring_spec, quotient_by, ring_spec_obj,
                    zero_ideal)
from .matrices import (ElemOp, ElemWord, RMatrix, apply_elem_word, direct_sum,
                       e_orbit_factor, identity, left_op, mat_mul, matrix,
                       matrix_ideal, right_op, try_inverse, word_in_ideal)
from .exchange import is_exchange_ideal, is_exchange_ring
from .vmonoid import (CheckOutcome, FinMonoid, OrderIdeal, VClass, VMonoid,
                      build_v_monoid, has_refinement_wrt, is_separative,
                      lemma13_check, monoid_to_obj, parse_monoid_obj,
                      v_order_ideal)
from .ktheory import (K0Element, connecting_delta, fredholm_elements, index,
                      is_fredholm, k0_zero_test)
from .lifting import (DiagonalizationResult, LiftCertificate, LiftResult,
                      ReductionResult, diagonalize_2x2, join_idempotent,
                      lift_unit, oracle_lift, reduce_col, reduce_row,
                      separative_exchange_status, unit_regular_witness)
from .certificates import (dumps_certificate, load_certificate,
                           save_certificate, verify_payload)
