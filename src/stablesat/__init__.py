"""SAT solving by stable sets of points and stable sets of cube clusters.

A set of falsifying points closed under 1-neighborhoods through a
transport function certifies unsatisfiability; clusters (cubes here, or
symmetry orbits) make that certificate compact. This package provides
the point engine, the cube-cluster engine with merging/clause learning,
independent certificate verifiers, a symmetry-aware variant, pigeon-hole
generators, a brute-force oracle and the DIMACS/proof/trace formats.
"""

from .core import (Clause, CnfFormula, VerifyReport, evaluate_clause,
                   falsified_clauses, parse_point, point_nbhd, point_str,
                   resolvable_on, resolve)
from .coverage import (COVERED, SCOPE_FULL, SCOPE_SHARED, UNCOVERED, UNKNOWN,
                       CoverageConfig, is_covered, union_count)
from .cubes import (Cube, cube_falsifies, cube_nbhd, cube_satisfies, merge,
                    unsat_cube)
from .dimacs import DimacsError, parse_dimacs, write_dimacs
from .oracle import OracleResult, brute_force_sat
from .proofs import (Proof, emit_proof, format_proof, parse_proof,
                     proof_from_result, replay_proof)
from .ssc import (LearnStep, SscConfig, SscResult, expand_body_to_points,
                  gen_ssc, pick_split_var, verify_ssc)
from .ssp import SspConfig, SspResult, gen_ssp, verify_ssp
from .symmetry import (OrbitLimitExceeded, Permutation, PhInstance,
                       SymmetryGroup, apply_perm_clause, apply_perm_point,
                       expand_mod_sym_to_ssp, gen_ssp_mod_symmetry,
                       group_order, in_same_orbit, is_symmetric,
                       parse_permutation, parse_symmetry_file, ph_formula,
                       ph_symmetry_generators, verify_stable_mod_symmetry)
from .trace import TraceRecord, emit_trace, format_trace

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
