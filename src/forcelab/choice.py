"""Correspondences between choice functions, maximal antichains, and
forcing witnesses over a family of disjoint finite sets.

A maximal antichain of the levels-by-blocks poset picks exactly one element
per block, so it reads off as a choice function, and conversely any choice
function plus a level assignment yields a maximal antichain.  On the flat
poset, a name that provably lands in the block selected by the generic
filter evaluates, below each block condition, to one chosen element; those
values again form a choice function.  The flat poset's generic filters are
the filters at its block labels, so one read of the name's values off the
kernel at the labels both decides that precondition and gives the choice:
no formula is built or decided.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    InvalidInput, NotMaximal, PreconditionViolated, ValueEscapesBlock,
    check_natural, described, takes,
)
from .forcing import forces_semantic  # noqa: F401  (perfbench's tracer wraps it here)
from .formulas import (
    MAX_NESTING, And, Cname, Formula, Member, Var, _TOO_DEEP, disj,
)
from .formulas import subst  # noqa: F401  (perfbench's tracer wraps it here)
from .hf import HF
from .names import PName, check_name, gamma_name
from .names import eval_name  # noqa: F401  (perfbench's tracer wraps it here)
from .posets import Family, FlatPoset, _is_nat, _one_per_block


@takes(family=Family, mapping=dict)
class ChoiceFunction:
    """One element chosen from every block of a family."""

    def __init__(self, family: Family, mapping: dict[str, HF]):
        blocks = family.blocks
        if mapping.keys() != blocks.keys():
            extra = [lab for lab in mapping if lab not in blocks]
            if extra:
                raise InvalidInput(
                    f"unknown block labels: {described(extra)}")
            missing = [lab for lab in family.labels if lab not in mapping]
            raise InvalidInput(
                f"no value chosen for blocks: {described(missing)}")
        for lab, value in mapping.items():
            if not (isinstance(value, HF) and value in blocks[lab]):
                raise ValueEscapesBlock(
                    f"{described(value)} is not in block {lab!r}")
        self.family = family
        self.mapping = dict(mapping)
        # HF sets are interned, so the chosen sets themselves compare and
        # hash by identity; their canonical keys would hash in time
        # exponential in their rank.
        self._key = tuple([(lab, mapping[lab]) for lab in family.labels])

    def __getitem__(self, label: str) -> HF:
        return self.mapping[label]

    def items(self) -> tuple[tuple[str, HF], ...]:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, ChoiceFunction) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ",".join(f"{lab}->{v!r}" for lab, v in self.items())
        return "choice{" + inner + "}"


@takes(family=Family)
def all_choice_functions(family: Family) -> list[ChoiceFunction]:
    """Every choice function of the family, in canonical order."""
    stack: list[dict[str, HF]] = [{}]
    for lab in family.labels:
        stack = [{**m, lab: v}
                 for m in stack for v in family.sorted_block(lab)]
    return [ChoiceFunction(family, m) for m in stack]


# ---------------------------------------------------------------------------
# antichains of the levels-by-blocks poset


@takes(family=Family, antichain=[object])
def choice_from_antichain(family: Family, antichain: Iterable) -> ChoiceFunction:
    """Read the one element per block off a maximal antichain."""
    mapping = _one_per_block(family, antichain)
    if mapping is None:
        raise NotMaximal(
            "the antichain does not pick exactly one element per block")
    return ChoiceFunction(family, mapping)


@takes(f=ChoiceFunction, levels=dict)
def antichain_from_choice(f: ChoiceFunction,
                          levels: dict[str, int]) -> frozenset:
    """The maximal antichain placing each chosen element at its level."""
    chosen = f.mapping
    if levels.keys() != chosen.keys():
        raise InvalidInput("levels must assign every block label exactly once")
    for lab, n in levels.items():
        if not _is_nat(n):  # word the refusal only for a level it refuses
            check_natural(n, f"the level of block {lab!r}")
    return frozenset([(n, chosen[lab]) for lab, n in levels.items()])


# ---------------------------------------------------------------------------
# flat-poset witnesses


@takes(flat=FlatPoset)
def theta_family(flat: FlatPoset) -> Formula:
    """The block-selection formula in the variable x: some block label lies
    in the generic filter and x lies in that block.  Finite family, so the
    existential over labels unfolds to a disjunction."""
    gamma = gamma_name(flat)
    k = flat.kernel()
    parts = []
    for lab in flat.family.labels:
        lab_check = check_name(k.codes[k.index[lab]])
        block_check = check_name(HF(flat.family.blocks[lab]))
        parts.append(And(Member(Cname(lab_check), Cname(gamma)),
                         Member(Var("x"), Cname(block_check))))
    return disj(parts)


@takes(f=ChoiceFunction)
def build_witness_flat(f: ChoiceFunction) -> PName:
    """The name whose value below each block condition is the chosen
    element: entries (i, y-check) for every member y of f(i)."""
    return PName((lab, check_name(y))
                 for lab in f.family.labels for y in f[lab])


@takes(tau=PName, flat=FlatPoset)
def extract_choice_flat(tau: PName, flat: FlatPoset) -> ChoiceFunction:
    """Read a witness's value below each block condition of the flat poset
    as the element chosen from that block; the witness must provably select
    from the generic block.  theta_family(tau) holds along the filter at a
    label exactly when that value lies in the label's block, so 1 forces it
    exactly when no value read here escapes its block."""
    if 4 * tau.rank > MAX_NESTING:
        raise InvalidInput(_TOO_DEEP)
    family = flat.family
    k = flat.kernel()
    # Every value is read before any is checked, so an entry that is no
    # condition is refused wherever it lies, as deciding theta would.
    mapping = {lab: k.value(tau, k.index[lab]) for lab in family.labels}
    if any(v not in family.blocks[lab] for lab, v in mapping.items()):
        raise PreconditionViolated(
            "the name is not forced to select from the generic block")
    return ChoiceFunction(family, mapping)
