"""The default rule set: 84 rewrite rules plus the ``END`` action.

The rule set is the agent's action space.  Rules are indexed in a stable
order so that a trained policy's action indices remain meaningful across
runs; the ``END`` action always has the last index.

:meth:`RuleSet.find_all` is the one matching entry point: a single
pre-order walk yields every rule's location list.  Which rules apply at a
node depends on the node alone, so the caller may pass a memo that maps
nodes to the indices of the rules applying there; after a rewrite only the
rebuilt spine misses it.  On a miss only the pattern rules whose
left-hand-side operator equals the node's are tried, plus every procedural
rule.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.analysis import iter_subexpressions
from repro.ir.nodes import Expr
from repro.ir.pattern import PatternVar
from repro.trs.rule import PatternRule, Rule
from repro.trs.rules.algebraic import algebraic_rules
from repro.trs.rules.balance import balance_rules
from repro.trs.rules.rotation import rotation_rules
from repro.trs.rules.vectorize import vectorization_rules

__all__ = ["RuleSet", "MatchMemo", "default_ruleset", "END_ACTION_NAME"]

Path = Tuple[int, ...]
#: Caller-owned memo for :meth:`RuleSet.find_all`: node -> indices of the
#: rules that apply at that node.
MatchMemo = Dict[Expr, Tuple[int, ...]]

#: Name of the special episode-terminating action.
END_ACTION_NAME = "END"


class RuleSet:
    """An ordered, indexable collection of rewrite rules plus ``END``.

    The ``END`` action is not a rule; it carries the index ``len(rules)`` and
    is exposed through :attr:`end_index` so policies can select it uniformly
    with rewrite rules.
    """

    def __init__(self, rules: Sequence[Rule]) -> None:
        if not rules:
            raise ValueError("a RuleSet needs at least one rule")
        names = [rule.name for rule in rules]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(f"duplicate rule names: {sorted(duplicates)}")
        self._rules: Tuple[Rule, ...] = tuple(rules)
        self._by_name: Dict[str, int] = {rule.name: i for i, rule in enumerate(rules)}
        # Head index: pattern rules keyed by their left-hand side's operator;
        # every other rule is a candidate at every node.
        by_head: Dict[str, List[int]] = {}
        anywhere: List[int] = []
        for index, rule in enumerate(self._rules):
            if isinstance(rule, PatternRule) and not isinstance(rule.lhs, PatternVar):
                by_head.setdefault(rule.lhs.op, []).append(index)
            else:
                anywhere.append(index)
        self._candidates: Dict[str, Tuple[int, ...]] = {
            op: tuple(sorted(indices + anywhere)) for op, indices in by_head.items()
        }
        self._anywhere: Tuple[int, ...] = tuple(anywhere)

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    # -- lookups ----------------------------------------------------------------
    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self._rules

    @property
    def names(self) -> List[str]:
        """Rule names in index order (without ``END``)."""
        return [rule.name for rule in self._rules]

    @property
    def action_count(self) -> int:
        """Number of actions a policy chooses from (rules plus ``END``)."""
        return len(self._rules) + 1

    @property
    def end_index(self) -> int:
        """Action index of the ``END`` action."""
        return len(self._rules)

    def index_of(self, name: str) -> int:
        """Index of the rule called ``name``."""
        return self._by_name[name]

    def by_name(self, name: str) -> Rule:
        """The rule called ``name``."""
        return self._rules[self._by_name[name]]

    def categories(self) -> Dict[str, List[str]]:
        """Rule names grouped by category (for documentation and reporting)."""
        grouped: Dict[str, List[str]] = {}
        for rule in self._rules:
            grouped.setdefault(rule.category, []).append(rule.name)
        return grouped

    # -- applicability ------------------------------------------------------------
    def find_all(self, expr: Expr, memo: Optional[MatchMemo] = None) -> List[List[Path]]:
        """Every rule's match locations in ``expr``, in one pre-order walk.

        Entry ``i`` equals ``self[i].find(expr)``.  ``memo`` maps nodes to
        the indices of the rules applying there; it is filled on misses, so
        a caller rewriting one expression step by step can pass the same
        dict every time (and owns its lifetime).
        """
        if memo is None:
            memo = {}
        rules = self._rules
        found: List[List[Path]] = [[] for _ in rules]
        for path, node in iter_subexpressions(expr):
            applying = memo.get(node)
            if applying is None:
                candidates = self._candidates.get(node.op, self._anywhere)
                applying = tuple(i for i in candidates if rules[i].matches(node))
                memo[node] = applying
            for index in applying:
                found[index].append(path)
        return found

    def applicable_rules(self, expr: Expr) -> List[int]:
        """Indices of the rules that match somewhere in ``expr``."""
        return [index for index, locations in enumerate(self.find_all(expr)) if locations]

    def action_mask(self, expr: Expr, include_end: bool = True) -> List[bool]:
        """Boolean mask over the action space (``END`` is always valid)."""
        mask = [bool(locations) for locations in self.find_all(expr)]
        if include_end:
            mask.append(True)
        return mask

    def apply(
        self, expr: Expr, rule_index: int, location_index: int = 0
    ) -> Expr:
        """Apply rule ``rule_index`` at its ``location_index``-th match."""
        rule = self._rules[rule_index]
        locations = self.find_all(expr)[rule_index]
        if not locations:
            raise ValueError(f"rule {rule.name!r} does not match the expression")
        location_index = min(location_index, len(locations) - 1)
        return rule.apply_at(expr, locations[location_index])


_DEFAULT_RULESET: Optional[RuleSet] = None


def default_ruleset() -> RuleSet:
    """The default 84-rule TRS used throughout the paper's evaluation."""
    global _DEFAULT_RULESET
    if _DEFAULT_RULESET is None:
        rules: List[Rule] = []
        rules.extend(algebraic_rules())
        rules.extend(vectorization_rules())
        rules.extend(rotation_rules())
        rules.extend(balance_rules())
        _DEFAULT_RULESET = RuleSet(rules)
    return _DEFAULT_RULESET
