"""Spinning-switches puzzles as wreath products: verification, synthesis,
decision, and counting."""

from . import analysis, catalog, decision, fileio, groups, synthesis
from .actions import (GroupAction, WreathContext, WreathElement,
                      cyclic_rotation_action, dihedral_action,
                      natural_symmetric_action, regular_action,
                      trivial_action, wreath_identity, wreath_inverse,
                      wreath_multiply)
from .decision import (DecisionResult, classify_abelian, decide_by_search,
                       decide_existence, find_nonexistence_certificate,
                       min_spin_period, render_certificate,
                       validate_certificate)
from .errors import SpinWreathError
from .groups import FiniteGroup, Homomorphism, Subgroup
from .puzzle_parser import parse_expr, parse_puzzle, print_expr
from .strategies import (Strategy, VerificationReport, initial_belief,
                         interleave, minimal_length_bound,
                         strategy_from_coords, verify, verify_naive)
from .synthesis import (construct_involution_pair, construct_pgroup,
                        construct_trivial, covering_walk)

__version__ = "0.1.0"
