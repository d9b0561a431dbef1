"""Exact-arithmetic kernels for sewing graded blocks: coordinate-change
operators, a concrete free-boson vertex algebra, Schwarzian calculus, the
q^{L_0} contraction, and regular-singular ODE solvers with convergence
certificates."""

from .series import (
    CoordJet,
    LaurentJet,
    TruncSeries,
    compose_jets,
    diagonal_contract,
    jet_compose,
    residue,
    reverse_jet,
)
from .coords import extract_c, c2_formula, gamma_xi, varrho, u_matrix, u_apply, huang_conjugation_check, huang_conjugation_checks
from .fock import FockModule, NilpotentToyModule, vacuum_module, partitions_of, partition_count
from .schwarzian import schwarzian, cocycle_check, vir_transition, projective_term, mobius_from_quadratic
from .sewing import SewingBlock, SpherePoint, q_l0_resolvent, sew, sew_multi, residue_identity_check, genus0_invariance_check
from .fuchs import FuchsSystem, Certificate, solve_formal, certify, residual, ode_residual

__version__ = "0.1.0"
