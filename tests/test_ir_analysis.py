"""Unit tests for depth, multiplicative depth, operation counts and the DAG."""

import random

import pytest

from repro.ir import circuit_depth, count_ops, expression_size, multiplicative_depth, parse, variables
from repro.ir.analysis import (
    constants,
    dag_size,
    iter_subexpressions,
    rotation_steps,
    unique_subexpressions,
)
from repro.ir.dag import build_dag
from repro.ir.nodes import Add, Const, Mul, Neg, Rotate, Sub, Var, Vec, VecAdd, VecMul
from repro.kernels.registry import benchmark_suite


def _tree_walk_unique(expr):
    """First occurrences over the full tree walk (the reference order)."""
    seen, ordered = set(), []
    for _, node in iter_subexpressions(expr):
        if node not in seen:
            seen.add(node)
            ordered.append(node)
    return ordered


def _random_shared_expr(rng, size):
    """Random expression built from a pool, so subterms are shared."""
    pool = [Var(name) for name in "abcd"] + [Const(2), Const(0)]
    for _ in range(size):
        pick = lambda: rng.choice(pool)  # noqa: E731
        kind = rng.randrange(7)
        if kind == 0:
            node = Add(pick(), pick())
        elif kind == 1:
            node = Mul(pick(), pick())
        elif kind == 2:
            node = Sub(pick(), pick())
        elif kind == 3:
            node = Neg(pick())
        elif kind == 4:
            node = Vec(*[pick() for _ in range(rng.randrange(1, 4))])
        elif kind == 5:
            node = Rotate(VecAdd(Vec(pick()), Vec(pick())), rng.randrange(1, 4))
        else:
            node = VecMul(Vec(pick(), pick()), Vec(pick(), pick()))
        pool.append(node)
    return Vec(*pool[-6:])


class TestDepths:
    @pytest.mark.parametrize(
        "text, depth, mult_depth",
        [
            ("x", 0, 0),
            ("(+ a b)", 1, 0),
            ("(* a b)", 1, 1),
            ("(* (* a b) c)", 2, 2),
            ("(+ (* a b) (* c d))", 2, 1),
            ("(* (+ a b) (+ c d))", 2, 1),
            ("(* (* (* a b) c) d)", 3, 3),
            ("(Vec (+ a b) (* c d))", 1, 1),
            ("(VecAdd (Vec a b) (Vec c d))", 1, 0),
            ("(VecMul (VecMul (Vec a b) (Vec c d)) (Vec e f))", 2, 2),
            ("(<< (VecAdd (Vec a b) (Vec c d)) 1)", 2, 0),
        ],
    )
    def test_depths(self, text, depth, mult_depth):
        expr = parse(text)
        assert circuit_depth(expr) == depth
        assert multiplicative_depth(expr) == mult_depth

    def test_motivating_example_depths(self, motivating_expression):
        assert circuit_depth(motivating_expression) == 4
        assert multiplicative_depth(motivating_expression) == 3

    def test_depth_uses_dag_sharing(self):
        # (* t t) where t = (* a b): the shared sub-term is one DAG node.
        expr = parse("(* (* a b) (* a b))")
        assert multiplicative_depth(expr) == 2
        assert dag_size(expr) < expression_size(expr)


class TestCounts:
    def test_scalar_counts(self):
        counts = count_ops(parse("(+ (* a b) (- c d))"))
        assert counts.scalar_add == 1
        assert counts.scalar_mul == 1
        assert counts.scalar_sub == 1
        assert counts.scalar_ops == 3

    def test_vector_counts(self):
        counts = count_ops(parse("(VecAdd (VecMul (Vec a b) (Vec c d)) (<< (Vec e f) 1))"))
        assert counts.vec_add == 1
        assert counts.vec_mul == 1
        assert counts.rotations == 1
        assert counts.vec_constructors == 3

    def test_counts_are_dag_based(self):
        # The shared (* a b) sub-expression is counted once.
        counts = count_ops(parse("(+ (* a b) (* a b))"))
        assert counts.scalar_mul == 1
        assert counts.scalar_add == 1

    def test_total(self):
        counts = count_ops(parse("(+ (* a b) c)"))
        assert counts.total == 2
        assert counts.multiplications == 1

    def test_as_dict_keys(self):
        data = count_ops(parse("(+ a b)")).as_dict()
        assert data["scalar_add"] == 1
        assert set(data) == {
            "scalar_add",
            "scalar_sub",
            "scalar_mul",
            "scalar_neg",
            "vec_add",
            "vec_sub",
            "vec_mul",
            "vec_neg",
            "rotations",
            "vec_constructors",
        }


class TestStructure:
    def test_variables_in_order(self):
        assert variables(parse("(+ (* b a) (* a c))")) == ["b", "a", "c"]

    def test_constants(self):
        assert constants(parse("(+ (* 2 a) (* 3 a))")) == [2, 3]

    def test_rotation_steps(self):
        assert rotation_steps(parse("(VecAdd (<< x 4) (<< (<< x 4) 2))")) == [2, 4]

    def test_expression_vs_dag_size(self):
        expr = parse("(+ (* a b) (* a b))")
        assert expression_size(expr) == 7
        assert dag_size(expr) == 4

    def test_unique_subexpressions(self):
        expr = parse("(+ (* a b) (* a b))")
        nodes = unique_subexpressions(expr)
        assert len(nodes) == 4

    def test_unique_subexpressions_equals_the_tree_walk_on_the_suite(self):
        for benchmark in benchmark_suite():
            expr = benchmark.expression()
            assert unique_subexpressions(expr) == _tree_walk_unique(expr), benchmark.name

    @pytest.mark.parametrize("seed", range(20))
    def test_unique_subexpressions_equals_the_tree_walk_with_sharing(self, seed):
        expr = _random_shared_expr(random.Random(seed), size=30)
        expected = _tree_walk_unique(expr)
        assert expression_size(expr) > len(expected)  # some subterm is shared
        assert unique_subexpressions(expr) == expected

    def test_unique_subexpressions_is_linear_in_the_dag(self):
        # A doubling chain: 2**61 - 1 tree nodes, 61 DAG nodes.
        expr = Var("x")
        for _ in range(60):
            expr = Add(expr, expr)
        # Compare operator names only: a failure message must not print
        # the tree.
        assert [node.op for node in unique_subexpressions(expr)] == ["+"] * 60 + ["var"]


class TestDag:
    def test_dag_output_and_depths(self):
        expr = parse("(* (+ a b) (+ a b))")
        dag = build_dag(expr)
        assert dag.depth == 2
        assert dag.mult_depth == 1
        assert len(dag) == 4  # a, b, (+ a b), (* .. ..)

    def test_dag_use_counts(self):
        expr = parse("(* (+ a b) (+ a b))")
        dag = build_dag(expr)
        shared = dag.node_for(parse("(+ a b)"))
        assert shared.use_count == 2

    def test_dag_topological_order(self):
        expr = parse("(+ (* a b) c)")
        dag = build_dag(expr)
        for node in dag.nodes:
            for operand in node.operands:
                assert operand < node.node_id
