"""A desk-scale laboratory for forcing over finite partial orders.

The package provides finite posets and their antichains, names over a poset
with evaluation along filters, a decidable forcing relation computed by two
independent routes, name-mixing along maximal antichains, witness
construction for existential statements, translations between maximal
antichains (or witness names) and choice functions on a family of finite
sets, and a permutation apparatus for names over two-dimensional grids.
"""

from .errors import (
    ColumnCollision, DuplicateIdentifier, ForceLabError, InvalidInput,
    MalformedSigma, NonInjective, NotDense, NotInSubgroup, NotMaximal,
    NotMaximalBelow, OutOfRange, ParseError, PreconditionViolated,
    ReportTooLarge, TruncationEscape, UnknownCondition, UnresolvedReference,
    ValueEscapesBlock,
)
from .hf import EMPTY, HF, from_int_set, kuratowski, nat, nat_value, render
from .posets import (
    BinaryTreePoset, ChoicePoset, CohenGridPoset, ExplicitPoset, Family,
    Filter, FlatPoset, InjPoset, MapPoset, ONE, Poset,
    enumerate_maximal_antichains, fn_omega_omega, generic_filter,
    inj_omega_omega, is_antichain, is_dense, is_maximal_antichain,
)
from .names import (
    EMPTY_NAME, PName, check_name, eval_name, gamma_name,
    hereditary_closure, name_conditions, name_hf, ordered_pair_name,
    union_name, unordered_pair_name,
)
from .formulas import (
    And, Cname, Eq, Exists, Forall, Formula, Implies, InName, Member, Not,
    Or, OrdLT, RankLE, Var, conj, constants, disj, free_vars, is_closed,
    single_free_var, subst,
)
from .forcing import (
    NameSpace, forces_semantic, forces_syntactic, holds_along,
    indexed_witness_name, least_ordinal_name, mix, mp_witness_search,
)
from .choice import (
    ChoiceFunction, all_choice_functions, antichain_from_choice,
    build_witness_flat, choice_from_antichain, extract_choice_flat,
    extract_choice_wellordered, theta_family,
)
from .perms import (
    Chain, Perm, act_condition, act_name, column_support,
    compose, decompose, is_fixed_by_Hn, sigma_conjugate,
    transposition,
)
from .cohen import (
    Assignment, GridSectionFilter, e_dense, g1_to_g, g_to_g1, hat_map,
    r_sigma_condition, r_sigma_name, section_g1_conditions, square_below,
    xcheckcheck_name, xdot_name,
)
from .dsl import Command, Scenario, parse_scenario, tokenize

__version__ = "0.1.0"
