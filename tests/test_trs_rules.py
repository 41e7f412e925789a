"""Unit tests for the term rewriting system: registry, specific rules, engines."""

import json
from pathlib import Path

import pytest

from repro.core.cost import CostModel
from repro.ir import parse, to_sexpr
from repro.ir.evaluate import evaluate, output_arity
from repro.ir.analysis import iter_subexpressions, variables, count_ops, multiplicative_depth
from repro.ir.pattern import find_matches
from repro.kernels.registry import small_benchmark_suite
from repro.trs import (
    BeamSearchRewriter,
    GreedyRewriter,
    RandomRewriter,
    RuleApplicationError,
    apply_sequence,
    default_ruleset,
)
from repro.trs.rule import FunctionRule, PatternRule, pattern

#: Greedy and beam step sequences and final costs on
#: ``small_benchmark_suite()``, recorded before matching went through
#: ``RuleSet.find_all``; keyed ``"<driver>/<kernel>"``.
RECORDED_SEQUENCES = Path(__file__).parent / "data" / "greedy_beam_sequences.json"


def _environment(expr, value=3):
    return {name: (index % 5) + value for index, name in enumerate(variables(expr))}


def _meaningful_slots(expr, env):
    return evaluate(expr, env, slot_count=64)[: output_arity(expr)]


def assert_semantics_preserved(before, after):
    env = _environment(before)
    assert _meaningful_slots(before, env) == _meaningful_slots(after, env)[: output_arity(before)]


class TestRegistry:
    def test_exactly_84_rules(self, ruleset):
        assert len(ruleset) == 84

    def test_end_action_is_last(self, ruleset):
        assert ruleset.end_index == 84
        assert ruleset.action_count == 85

    def test_rule_names_unique(self, ruleset):
        assert len(set(ruleset.names)) == 84

    def test_lookup_by_name(self, ruleset):
        rule = ruleset.by_name("comm-factor")
        assert ruleset.index_of("comm-factor") == ruleset.names.index("comm-factor")
        assert rule.name == "comm-factor"

    def test_categories_cover_paper_families(self, ruleset):
        categories = ruleset.categories()
        for family in ("simplify", "transform", "vectorize", "rotation", "balance"):
            assert family in categories and categories[family]

    def test_action_mask_end_always_valid(self, ruleset):
        mask = ruleset.action_mask(parse("x"))
        assert mask[-1] is True

    def test_applicable_rules_subset(self, ruleset):
        applicable = ruleset.applicable_rules(parse("(+ (* a b) (* a c))"))
        names = [ruleset[i].name for i in applicable]
        assert "comm-factor" in names
        assert "rotate-zero" not in names

    def test_apply_by_index(self, ruleset):
        expr = parse("(+ (* a b) (* a c))")
        index = ruleset.index_of("comm-factor")
        assert ruleset.apply(expr, index) == parse("(* a (+ b c))")

    def test_find_all_equals_every_rules_find(self, ruleset):
        memo = {}
        exprs = [benchmark.expression() for benchmark in small_benchmark_suite()]
        exprs += [parse("(+ (+ (* a b) (* a c)) (+ (* x 0) (* y 1)))"), parse("x")]
        for expr in exprs:
            expected = [rule.find(expr) for rule in ruleset]
            assert ruleset.find_all(expr) == expected
            # A memo shared across expressions gives the same lists.
            assert ruleset.find_all(expr, memo) == expected
            assert ruleset.find_all(expr, memo) == expected

    def test_head_index_covers_every_rule(self, ruleset):
        # Every pattern rule has an operator head, so only the procedural
        # rules are tried at every node.
        patterns = [rule for rule in ruleset if isinstance(rule, PatternRule)]
        functions = [rule for rule in ruleset if isinstance(rule, FunctionRule)]
        assert len(patterns) + len(functions) == len(ruleset)
        assert all(rule.lhs.op != "pattern" for rule in patterns)
        assert len(ruleset._anywhere) == len(functions)


class TestSpecificRewrites:
    @pytest.mark.parametrize(
        "rule_name, before, after",
        [
            ("add-identity-right", "(+ x 0)", "x"),
            ("add-identity-left", "(+ 0 x)", "x"),
            ("sub-identity", "(- x 0)", "x"),
            ("mul-identity-right", "(* x 1)", "x"),
            ("mul-absorb-right", "(* x 0)", "0"),
            ("sub-self", "(- x x)", "0"),
            ("neg-neg", "(- (- x))", "x"),
            ("const-fold-add", "(+ 2 3)", "5"),
            ("const-fold-mul", "(* 4 5)", "20"),
            ("plain-consolidate", "(* 2 (* 3 x))", "(* 6 x)"),
            ("mul-two-to-add", "(* 2 x)", "(+ x x)"),
            ("comm-factor", "(+ (* a b) (* a c))", "(* a (+ b c))"),
            ("comm-factor-right", "(+ (* b a) (* c a))", "(* (+ b c) a)"),
            ("distribute-left", "(* a (+ b c))", "(+ (* a b) (* a c))"),
            ("add-commute", "(+ a b)", "(+ b a)"),
            ("mul-assoc-right", "(* (* a b) c)", "(* a (* b c))"),
            ("sub-add-regroup", "(- (+ a b) b)", "a"),
            ("vec-factor", "(VecAdd (VecMul x y) (VecMul x z))", "(VecMul x (VecAdd y z))"),
            ("balance-mul-right", "(* x (* y (* z t)))", "(* (* x y) (* z t))"),
            ("rotate-compose", "(<< (<< x 2) 3)", "(<< x 5)"),
            (
                "rotate-hoist-add",
                "(VecAdd (<< x 2) (<< y 2))",
                "(<< (VecAdd x y) 2)",
            ),
            (
                "add-vectorize-2",
                "(Vec (+ a b) (+ c d))",
                "(VecAdd (Vec a c) (Vec b d))",
            ),
            (
                "mul-vectorize-2",
                "(Vec (* a b) (* c d))",
                "(VecMul (Vec a c) (Vec b d))",
            ),
            (
                "mul-vectorize-mixed",
                "(Vec (* a b) (* c d) (- f g))",
                "(VecMul (Vec a c (- f g)) (Vec b d 1))",
            ),
        ],
    )
    def test_rewrite_result(self, ruleset, rule_name, before, after):
        rule = ruleset.by_name(rule_name)
        rewritten = rule.apply_first(parse(before))
        assert rewritten == parse(after)

    @pytest.mark.parametrize(
        "rule_name, before",
        [
            ("comm-factor", "(+ (* a b) (* a c))"),
            ("comm-factor-mixed-left", "(+ (* b a) (* a c))"),
            ("balance-mul-chain", "(* x (* y (* z (* t u))))"),
            ("balance-add-chain", "(+ x (+ y (+ z (+ t u))))"),
            ("pack-add-of-products", "(+ (* a b) (* c d))"),
            ("pack-mul-of-products", "(* (* a b) (* c d))"),
            ("pack-mul-of-sums", "(* (+ a b) (+ c d))"),
            ("rotate-reduce-sum", "(+ (+ (* a b) (* c d)) (+ (* e f) (* g h)))"),
            ("rotate-reduce-squares", "(+ (* (- a b) (- a b)) (* (- c d) (- c d)))"),
            ("rotate-pack-sum-of-products", "(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))"),
            ("add-vectorize-full", "(Vec (+ a b) (+ c d) (+ e f) (+ g h) (+ i j))"),
            ("neg-vectorize-2", "(Vec (- a) (- b))"),
            ("sub-vectorize-3", "(Vec (- a b) (- c d) (- e f))"),
        ],
    )
    def test_rewrite_preserves_semantics(self, ruleset, rule_name, before):
        rule = ruleset.by_name(rule_name)
        expr = parse(before)
        rewritten = rule.apply_first(expr)
        assert rewritten != expr
        assert_semantics_preserved(expr, rewritten)

    def test_balance_reduces_multiplicative_depth(self, ruleset):
        expr = parse("(* x (* y (* z (* t u))))")
        rewritten = ruleset.by_name("balance-mul-chain").apply_first(expr)
        assert multiplicative_depth(rewritten) < multiplicative_depth(expr)

    def test_reduce_sum_uses_single_vec_mul(self, ruleset):
        expr = parse("(+ (+ (* a b) (* c d)) (+ (* e f) (* g h)))")
        rewritten = ruleset.by_name("rotate-reduce-sum").apply_first(expr)
        counts = count_ops(rewritten)
        assert counts.vec_mul == 1
        assert counts.rotations == 2
        assert counts.scalar_ops == 0

    def test_rule_not_matching_raises(self, ruleset):
        with pytest.raises(RuleApplicationError):
            ruleset.by_name("comm-factor").apply_first(parse("(+ a b)"))

    def test_apply_at_invalid_path_raises(self, ruleset):
        rule = ruleset.by_name("add-identity-right")
        with pytest.raises(RuleApplicationError):
            rule.apply_at(parse("(+ a 0)"), (0,))

    def test_pattern_rule_requires_rhs_or_builder(self):
        with pytest.raises(ValueError):
            PatternRule("broken", pattern("(+ ?a ?b)"))

    def test_location_selection(self, ruleset):
        expr = parse("(Vec (+ x 0) (+ y 0))")
        rule = ruleset.by_name("add-identity-right")
        locations = rule.find(expr)
        assert len(locations) == 2
        first = rule.apply_at(expr, locations[0])
        second = rule.apply_at(expr, locations[1])
        assert first == parse("(Vec x (+ y 0))")
        assert second == parse("(Vec (+ x 0) y)")

    def test_find_in_shares_one_walk_in_match_order(self, ruleset):
        exprs = [
            parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))"),
            parse("(+ (+ (* a b) (* a c)) (+ (* x 0) (* y 1)))"),
            parse("(<< (VecMul (Vec a b c) (Vec d e f)) 1)"),
        ]
        for expr in exprs:
            nodes = list(iter_subexpressions(expr))
            for rule in ruleset:
                assert rule.find_in(nodes) == rule.find(expr), rule.name
                if isinstance(rule, PatternRule):
                    expected = [
                        m.path
                        for m in find_matches(rule.lhs, expr)
                        if rule.guard is None or rule.guard(m.bindings)
                    ]
                    assert rule.find(expr) == expected, rule.name


class TestRewriters:
    def test_greedy_improves_dot_product(self, cost_model):
        expr = parse("(+ (+ (* a b) (* c d)) (+ (* e f) (* g h)))")
        result = GreedyRewriter(max_steps=20).optimize(expr)
        assert result.final_cost < result.initial_cost
        assert result.improvement > 0.5
        assert_semantics_preserved(expr, result.optimized)

    def test_greedy_stops_when_no_improvement(self):
        result = GreedyRewriter(max_steps=10).optimize(parse("(+ a b)"))
        assert result.steps == []
        assert result.final_cost == result.initial_cost

    def test_beam_search_at_least_as_good_as_greedy(self):
        expr = parse("(Vec (+ a b) (+ c d))")
        greedy = GreedyRewriter(max_steps=10).optimize(expr)
        beam = BeamSearchRewriter(beam_width=3, max_steps=6).optimize(expr)
        assert beam.final_cost <= greedy.final_cost + 1e-9
        assert_semantics_preserved(expr, beam.optimized)

    def test_random_rewriter_preserves_semantics(self):
        expr = parse("(+ (* a b) (* a c))")
        result = RandomRewriter(max_steps=8, seed=3).optimize(expr)
        assert_semantics_preserved(expr, result.optimized)

    def test_greedy_and_beam_match_recorded_sequences(self):
        recorded = json.loads(RECORDED_SEQUENCES.read_text())
        drivers = {"greedy": GreedyRewriter(), "beam": BeamSearchRewriter()}
        observed = {}
        for label, driver in drivers.items():
            for benchmark in small_benchmark_suite():
                result = driver.optimize(benchmark.expression())
                observed[f"{label}/{benchmark.name}"] = {
                    "final_cost": result.final_cost,
                    "steps": [[step.rule_name, step.location_index] for step in result.steps],
                }
        assert observed == recorded

    def test_apply_sequence_follows_actions(self, ruleset):
        expr = parse("(+ (* a b) (* a c))")
        actions = [(ruleset.index_of("comm-factor"), 0), (ruleset.end_index, 0)]
        result = apply_sequence(expr, actions, ruleset=ruleset)
        assert result.optimized == parse("(* a (+ b c))")
        assert len(result.steps) == 1

    def test_apply_sequence_skips_non_matching(self, ruleset):
        expr = parse("(+ a b)")
        actions = [(ruleset.index_of("comm-factor"), 0)]
        result = apply_sequence(expr, actions, ruleset=ruleset)
        assert result.optimized == expr
