"""Exact q-analogue arithmetic and finite projective geometry validation.

The package computes Gaussian binomial coefficients by two independent
routes, verifies the noncommutative binomial theorem for yx = qxy by
direct expansion, enumerates subspaces of F_q^n, constructs and
validates finite incidence geometries (including the order-1 Boolean
case), checks the subspace-counting theorems, lattice-path area
identity, plane conditions, and classical group order formulas.  All
arithmetic is exact.
"""

from .errors import (BudgetExceeded, DegenerateQ, DimensionMismatch,
                     GeometryFormatError, InexactDivision, NotAPrimePower)
from .qcalc import (QPoly, q_binomial_quotient, q_binomial_recurrence,
                    q_factorial, q_integer)
from .qword import NoncommPoly, expand_binomial, nc_coefficient, nc_multiply
from .gf import FiniteField, factor_prime_power, make_field
from .linalg import (count_independent_tuples, enumerate_subspaces, rref,
                     span_canonical)
from .geometry import (AxiomReport, CensusReport, Check,
                       DerivedPropertiesReport, IncidenceGeometry, PointCountCheck,
                       affine_decomposition, build_boolean_geometry,
                       build_projective_space, check_derived_properties,
                       collineation_order, geometry_from_json,
                       geometry_to_json, point_count_check, subspace_census,
                       validate_axioms)
from .planes import (BruckRyserVerdict, PlaneReport, PlaneStructure,
                     bruck_ryser, plane_from_geometry, plane_from_json,
                     plane_to_json, two_squares, validate_plane)
from .paths import area_generating_function
from .groups import (AlternatingComparison, GroupOrderReport,
                     alternating_group_comparison, brute_force_psl_order,
                     gl_order, group_order, pgl_order, psl_order, sl_order)

__version__ = "0.1.0"
