"""Exact symbolic computation for stable-pairs descendent series.

The package verifies, with exact arithmetic only, the structural
properties of descendent partition functions on 3-folds: rationality
fixtures with functional-equation and pole checks, the operator algebra
acting on the descendent ring of projective 3-space with its constraint
checks, closed-form local-curve and equivariant cap series, the
variable change to the angle variable with its parity/reality test, the
set-partition expansion layer of the descendent correspondence, and an
algebraic-cobordism series example.  A command-line interface exposes
every checker; `pdc check-all` runs the full acceptance registry.
"""

from .checks import CheckResult, run_all, run_check
from .correspondence import (CorrespondenceTerm, KCoefficient, expand_bar,
                             format_expansion, format_term, leading_term,
                             parity_reality_check)
from .descendents import (DescElement, DescParseError, Generator,
                          class_degree, format_element, format_monomial,
                          from_tau, gen, generator_degree, kunneth_pairs,
                          monomial, monomial_degree, normalize,
                          parse_element)
from .fields import (FIELDS, GaussianRational, ParamRational, Q, QI, QLAMBDA,
                     QS, Field, field)
from .laurent import LaurentSeries, laurent_expand, u_expand
from .partitions import koszul_sign, partitions_of, set_partitions, zaut
from .polynomial import Polynomial
from .ratfun import (RationalFunction, RFParseError, fe_check, parse_rf,
                     pole_check, q_ddq, q_ddq_minus)
from .series import (CobordismSeries, SeriesDB, SeriesKey,
                     SeriesRecord, UnknownSeriesError, builtin_db,
                     canonical_insertions, cap_series, cobordism_example,
                     cobordism_fe_check, dump_db, key_from_str, key_str,
                     load_db, local_curve_series, make_key, partition_label,
                     partition_from_label, record_from_obj, record_to_obj,
                     records_from_json, records_to_json, reduce,
                     reduce_with_records, virasoro_constraint_check,
                     weakest_provenance)
from .virasoro import (Term, VirasoroOperator, apply_op, apply_shift,
                       bracket_check, build_constraint,
                       build_constraint_composed, build_quadratic, commutator,
                       generator_monomials, multiplication_op, shift_weight)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
