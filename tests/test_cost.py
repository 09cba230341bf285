"""Cost model: order and tree throughput, latency, hybrid, next-match, log path.

The fixture catalog (three types, W = 10) is small enough that every
expected value below is a hand-computed product and sum of W*r and
selectivity terms; the comments next to each assertion show the arithmetic.
"""
import itertools
import math
import random

import pytest

from streamcep.cost import (
    CostModel,
    CostObjective,
    FAMILY_ANY,
    FAMILY_NEXT,
    log2_weight,
)
from streamcep.model import (
    ContractError,
    StatisticsCatalog,
    join,
    leaf,
    left_deep_tree,
    selectivity_key,
)

from helpers import all_tree_shapes, cost_bj, cost_ldj, random_catalog

W = 10.0
TYPES = ("A", "B", "C")
STATS = StatisticsCatalog(
    rates={"A": 1.0, "B": 2.0, "C": 4.0},
    selectivities={("A", "B"): 0.5, ("A", "C"): 0.1, ("B", "C"): 1.0},
)
CARDS = {t: W * STATS.rate(t) for t in TYPES}  # A=10 B=20 C=40
TREE_ACB = join(join(leaf("A"), leaf("C")), leaf("B"))


def model(stats=STATS, objective=CostObjective(), **kw):
    return CostModel(TYPES, stats, W, objective, **kw)


def with_filter(type_name, sel):
    return StatisticsCatalog(STATS.rates, {**STATS.selectivities, (type_name,): sel})


def hybrid(alpha, last_type):
    return model(objective=CostObjective(FAMILY_ANY, alpha=alpha, last_type=last_type))


def order_cost(m, order):
    return m.costs(m.order_total(order))[0]


def tree_cost(m, tree):
    return m.costs(m.tree_total(tree))[0]


def order_steps(m, order):
    """Per-step partial-match counts of an order, in processing order."""
    out, bits = [], 0
    for name in order:
        bits |= 1 << m.bit_of(name)
        out.append(m.costs(m.step_pm(bits))[0])
    return out


def tree_nodes(m, tree):
    """Per-node partial-match counts of a tree, in post-order."""
    return [
        m.costs(m.node_pm(sum(1 << m.bit_of(n) for n in node.leaf_names())))[0]
        for node in tree.postorder()
    ]


class TestOrderCost:
    def test_worked_example_per_step(self):
        m = model()
        # 10; 10*20*0.5 = 100; 100*40*0.1*1 = 400
        assert order_steps(m, ("A", "B", "C")) == [10.0, 100.0, 400.0]
        assert order_cost(m, ("A", "B", "C")) == 510.0

    def test_order_sensitivity(self):
        m = model()
        assert order_cost(m, ("A", "C", "B")) == 450.0
        assert order_cost(m, ("C", "A", "B")) == 480.0
        assert order_cost(m, ("C", "B", "A")) == 1240.0

    def test_prefix_value_is_order_independent(self):
        # the k-th partial count depends only on the consumed subset
        m = model()
        full_abc = order_steps(m, ("A", "B", "C"))[-1]
        full_bac = order_steps(m, ("B", "A", "C"))[-1]
        assert full_abc == full_bac == 400.0

    def test_filter_applies_at_entry_step(self):
        stats = with_filter("B", 0.5)
        # step 2 halves: 10*20*0.5*0.5 = 50; step 3 follows: 50*40*0.1 = 200
        assert order_steps(model(stats), ("A", "B", "C")) == [10.0, 50.0, 200.0]

    def test_unknown_rate_and_bad_window(self):
        with pytest.raises(Exception):
            CostModel(("A", "Z"), STATS, W)
        with pytest.raises(ContractError):
            CostModel(("A", "B"), STATS, 0.0)
        with pytest.raises(ContractError):
            CostModel(("A", "A"), STATS, W)

    def test_left_deep_join_twin(self):
        sels = dict(STATS.selectivities)
        assert cost_ldj(("A", "B", "C"), CARDS, sels) == 510.0
        assert cost_ldj(("A", "C", "B"), CARDS, sels) == 450.0
        assert cost_ldj((), CARDS, sels) == 0.0

    def test_left_deep_join_accepts_string_filter_keys(self):
        total = cost_ldj(("A", "B"), CARDS, {"A": 0.5, ("B", "A"): 0.1})
        # 10*0.5 = 5; 5*20*0.1 = 10
        assert total == 15.0


class TestTreeCost:
    def test_worked_example_postorder(self):
        m = model()
        # A=10, C=40, AC join 10*40*0.1=40, B=20, root 40*20*0.5*1=400
        assert tree_nodes(m, TREE_ACB) == [10.0, 40.0, 40.0, 20.0, 400.0]
        assert tree_cost(m, TREE_ACB) == 510.0

    def test_left_deep_tree_matches_order_cost_totals(self):
        # same per-subset values, one extra leaf term per join step
        m = model()
        order = ("A", "C", "B")
        # leaves C and B add W*r each on top of the order model's steps
        assert tree_cost(m, left_deep_tree(order)) == order_cost(m, order) + 40.0 + 20.0

    def test_filters_do_not_enter_tree_nodes(self):
        stats = with_filter("B", 0.25)
        assert tree_cost(model(stats), TREE_ACB) == 510.0

    def test_bushy_join_twin(self):
        sels = dict(STATS.selectivities)
        assert cost_bj(TREE_ACB, CARDS, sels) == 510.0
        other = join(leaf("B"), join(leaf("A"), leaf("C")))
        assert cost_bj(other, CARDS, sels) == tree_cost(model(), other)


class TestJoinEquivalence:
    def test_plan_cost_equals_join_cost_random(self):
        """The paper's equivalence: with |R_i| = W*r_i, every order costs
        its left-deep join cost and every bushy tree its bushy join cost."""
        rng = random.Random(7)
        for _ in range(5):
            stats = random_catalog(rng, 4)
            window = rng.uniform(2.0, 20.0)
            names = tuple(sorted(stats.rates))
            cards = {t: window * stats.rate(t) for t in names}
            sels = dict(stats.selectivities)
            for log_space in (False, True):
                m = CostModel(names, stats, window, log_space=log_space)
                for perm in itertools.permutations(names):
                    got = order_cost(m, perm)
                    want = cost_ldj(perm, cards, sels)
                    assert got == pytest.approx(want, rel=1e-9)
                    for tree in all_tree_shapes(perm):
                        got = tree_cost(m, tree)
                        want = cost_bj(tree, cards, sels)
                        assert got == pytest.approx(want, rel=1e-9)


class TestLatencyAndHybrid:
    def test_order_latency_counts_types_after_anchor(self):
        # after C in (C, A, B): W*r_A + W*r_B = 30 on top of 480
        assert order_cost(hybrid(1.0, "C"), ("C", "A", "B")) == 480.0 + 30.0
        # nothing follows C in (A, B, C): throughput 510 alone
        assert order_cost(hybrid(1.0, "C"), ("A", "B", "C")) == 510.0
        with pytest.raises(ContractError):
            CostModel(("A", "B"), STATS, W, CostObjective(alpha=1.0, last_type="C"))

    def test_tree_latency_sums_sibling_instances(self):
        # path B -> root; sibling subtree (A,C) holds 40 instances
        assert tree_cost(hybrid(1.0, "B"), TREE_ACB) == 510.0 + 40.0
        # path C -> (A,C) -> root: siblings A (10) and B (20)
        assert tree_cost(hybrid(1.0, "C"), TREE_ACB) == 510.0 + 30.0
        with pytest.raises(ContractError):
            hybrid(1.0, "Z")

    def test_hybrid_combines_linearly(self):
        assert order_cost(hybrid(0.0, "C"), ("C", "A", "B")) == 480.0
        assert order_cost(hybrid(1.0, "C"), ("C", "A", "B")) == 510.0
        assert order_cost(hybrid(0.5, "C"), ("C", "A", "B")) == 495.0
        assert tree_cost(hybrid(1.0, "B"), TREE_ACB) == 550.0
        with pytest.raises(ContractError):
            hybrid(-0.1, "C")

    def test_breakdown_reports_alpha(self):
        m = hybrid(0.5, "C")
        assert m.objective.alpha == 0.5
        steps, bits = [], 0
        for name in ("C", "A", "B"):
            bit = 1 << m.bit_of(name)
            steps.append(m.step_cost(bits, bit))
            bits |= bit
        # throughput steps 40, 40, 400; A and B follow C: +0.5*10, +0.5*20
        assert steps == [40.0, 45.0, 410.0]
        latency = (sum(steps) - sum(order_steps(m, ("C", "A", "B")))) / 0.5
        assert latency == 30.0
        assert sum(steps) == 495.0


class TestNextMatchCosts:
    NEXT = CostObjective(FAMILY_NEXT)

    def test_order_next_worked_example(self):
        # steps: W*(W*min(r)*sel): 10*10, 10*(10*0.1), 10*(10*0.05)
        assert order_cost(model(objective=self.NEXT), ("A", "C", "B")) == 115.0

    def test_order_next_prefers_scarce_first_here(self):
        m = model(objective=self.NEXT)
        assert order_cost(m, ("A", "C", "B")) < order_cost(m, ("C", "B", "A"))

    def test_tree_next_worked_example(self):
        # leaves 10+40+20, AC node min(10,40)*0.1 = 1, root 10*0.05 = 0.5
        assert tree_cost(model(objective=self.NEXT), TREE_ACB) == 71.5


class TestLogSpacePath:
    def test_forced_log_space_matches_linear(self):
        linear = model(log_space=False)
        logged = model(log_space=True)
        assert logged.log_space and not linear.log_space
        full = (1 << 3) - 1
        a = linear.costs(linear.pm_ord(full))[0]
        b = logged.costs(logged.pm_ord(full))[0]
        assert abs(a - b) <= 1e-9 * a

    def test_huge_kleene_weights_choose_log_space_and_stay_ordered(self):
        stats = StatisticsCatalog(rates={"A": 200.0, "B": 2.0}, selectivities={("A", "B"): 0.5})
        m = CostModel(("A", "B"), stats, W, kleene=frozenset({"A"}))
        assert m.log_space
        # in log2 the Kleene weight 2**(r*W) is r*W itself
        assert m.wr(0) == 2000.0
        cost, cost_log2 = m.costs(m.order_total(("B", "A")))
        assert math.isinf(cost)
        assert cost_log2 < m.costs(m.order_total(("A", "B")))[1]

    def test_costs_convert_either_space(self):
        logged = model(log_space=True)
        assert logged.costs(3.0) == (8.0, 3.0)
        assert logged.costs(-math.inf) == (0.0, -math.inf)
        assert logged.costs(2000.0) == (math.inf, 2000.0)
        linear = model(log_space=False)
        assert linear.costs(8.0) == (8.0, 3.0)
        assert linear.costs(0.0) == (0.0, -math.inf)

    def test_log2_weight_of_either_kind(self):
        # a Kleene type weighs 2**(r*W): the subset rate 2**(r*W)/W times W
        assert log2_weight(0.4, W, kleene=True) == 4.0
        assert log2_weight(0.8, W) == math.log2(W) + math.log2(0.8)
        stats = StatisticsCatalog(rates={"A": 1.0, "C": 0.4})
        m = CostModel(("A", "C"), stats, W, log_space=True, kleene=frozenset({"C"}))
        assert (m.wr(0), m.wr(1)) == (log2_weight(1.0, W), 4.0)


class TestCostModel:
    def test_order_total_matches_direct_cost(self):
        m = model()
        for order, total in ((("A", "B", "C"), 510.0), (("A", "C", "B"), 450.0),
                             (("C", "A", "B"), 480.0)):
            assert order_cost(m, order) == sum(order_steps(m, order)) == total

    def test_order_total_with_hybrid_objective(self):
        assert order_cost(hybrid(1.0, "C"), ("C", "A", "B")) == 510.0

    def test_tree_total_matches_direct_cost(self):
        m = model()
        assert tree_cost(m, TREE_ACB) == sum(tree_nodes(m, TREE_ACB)) == 510.0
        assert tree_cost(hybrid(1.0, "B"), TREE_ACB) == 550.0

    def test_next_family_matches_direct_cost(self):
        m = model(objective=CostObjective(FAMILY_NEXT))
        steps = order_steps(m, ("A", "C", "B"))
        assert order_cost(m, ("A", "C", "B")) == sum(steps) == 115.0
        assert tree_cost(m, TREE_ACB) == sum(tree_nodes(m, TREE_ACB)) == 71.5

    def test_objective_validation(self):
        with pytest.raises(ContractError):
            CostObjective("fastest")
        with pytest.raises(ContractError):
            CostObjective(FAMILY_ANY, alpha=-0.5)
        with pytest.raises(ContractError):
            CostObjective(FAMILY_ANY, alpha=0.5)  # needs an anchor type

    def test_latency_anchor_must_be_a_type(self):
        # an anchor outside the types would drop the latency term silently
        for alpha in (0.0, 1.0):
            with pytest.raises(ContractError):
                model(objective=CostObjective(FAMILY_ANY, alpha=alpha, last_type="Z"))


def test_selectivity_key_used_for_symmetric_lookup():
    sels = {selectivity_key("B", "A"): 0.5}
    assert cost_ldj(("A", "B"), {"A": 10.0, "B": 20.0}, sels) == 110.0
