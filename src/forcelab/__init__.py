"""A desk-scale laboratory for forcing over finite partial orders.

The package provides finite posets and their antichains, names over a poset
with evaluation along filters, a decidable forcing relation computed by two
independent routes, name-mixing along maximal antichains, witness
construction for existential statements, translations between maximal
antichains (or witness names) and choice functions on a family of finite
sets, and a permutation apparatus for names over two-dimensional grids.

Importing the package loads the forcing core only (``errors``, ``hf``,
``posets``, ``names``, ``formulas`` and ``forcing``); ``choice``, ``perms``,
``cohen`` and ``dsl`` load when one of their names is first read.
"""

from .errors import (
    ColumnCollision, DuplicateIdentifier, ForceLabError, InvalidInput,
    MalformedSigma, NonInjective, NotDense, NotInSubgroup, NotMaximal,
    NotMaximalBelow, OutOfRange, ParseError, PreconditionViolated,
    ReportTooLarge, TruncationEscape, UnknownCondition, UnresolvedReference,
    ValueEscapesBlock,
)
from .hf import EMPTY, HF, kuratowski, nat, nat_value
from .posets import (
    BinaryTreePoset, ChoicePoset, CohenGridPoset, ExplicitPoset, Family,
    Filter, FlatPoset, InjPoset, MapPoset, ONE, Poset,
    enumerate_maximal_antichains, fn_omega_omega, generic_filter,
    inj_omega_omega, is_dense, is_maximal_antichain,
)
from .names import (
    EMPTY_NAME, PName, check_name, eval_name, gamma_name, hereditary_closure,
    name_conditions, name_hf, ordered_pair_name, unordered_pair_name,
)
from .formulas import (
    And, Cname, Eq, Exists, Forall, Formula, Implies, InName, Member, Not,
    Or, OrdLT, RankLE, Var, constants, disj, single_free_var, subst,
)
from .forcing import (
    NameSpace, forces_semantic, forces_syntactic, least_ordinal_name, mix,
    mp_witness_search,
)

__version__ = "0.1.0"

# The names re-exported from the modules that load on first use, by module:
# a script that only forces never compiles them, nor ``dataclasses``, which
# only ``perms`` and ``dsl`` import.  ``forcelab.cli`` imports them all.
_LAZY = (
    ("choice", (
        "ChoiceFunction", "all_choice_functions", "antichain_from_choice",
        "build_witness_flat", "choice_from_antichain", "extract_choice_flat",
        "theta_family")),
    ("perms", (
        "Chain", "Perm", "act_name", "column_support",
        "decompose", "is_fixed_by_Hn", "sigma_conjugate", "transposition")),
    ("cohen", (
        "Assignment", "GridSectionFilter", "e_dense", "g1_to_g", "g_to_g1",
        "hat_map", "r_sigma_condition", "r_sigma_name",
        "section_g1_conditions", "square_below", "xcheckcheck_name",
        "xdot_name")),
    ("dsl", ("Command", "Scenario", "parse_scenario", "tokenize")),
)

# Every public name: the core's imports and submodules, then the lazy ones.
__all__ = (*(name for name in globals() if not name.startswith("_")),
           *(name for module, names in _LAZY for name in (module, *names)))


def __getattr__(name):
    """Import a lazy submodule, or the one exporting ``name``, on first use
    and bind the value here, so later reads are plain global lookups."""
    for module, names in _LAZY:
        if name == module or name in names:
            from importlib import import_module
            value = import_module(f".{module}", __name__)
            if name != module:
                value = globals()[name] = getattr(value, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
