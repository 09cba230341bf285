"""Plan generation: searches, derived checkpoints, serialization, worked examples.

The three-type catalog is the same worked example as in the cost tests
(W = 10, rates 1/2/4, selectivities AB 0.5, AC 0.1, BC 1.0), so the
expected orders, trees, and totals are hand-checkable.
"""
import itertools
import json
import math
import random

import pytest

from streamcep.cost import CostModel, CostObjective
from streamcep.model import (
    AND,
    ContractError,
    Leaf,
    NOT,
    KLEENE,
    OperatorNode,
    OrderPlan,
    Pattern,
    ResourceLimitError,
    SEQ,
    SelectionStrategy,
    StatisticsCatalog,
    TreePlan,
    UnsupportedPatternError,
    NEXT_MATCH,
    OR,
    join,
    leaf,
)
from streamcep.plangen import (
    ALGORITHM_NAMES,
    DEFAULT_TEMPORAL_SELECTIVITY,
    DP_B_LIMIT,
    DP_LD_LIMIT,
    II_GREEDY_RESTARTS,
    II_RANDOM_RESTARTS,
    ORDER_ALGORITHMS,
    TREE_ALGORITHMS,
    _search_dp_b,
    bundle_from_json,
    bundle_to_json,
    conjunct_model,
    family_for,
    generate_plan,
    plan_cost,
)
from streamcep.nfa import NfaEngine
from streamcep.transform import normalize_pattern
from streamcep.tree_engine import TreeEngine

from helpers import (
    all_tree_shapes,
    brute_force_order,
    brute_force_tree,
    first_minimum,
    random_catalog,
)

W = 10.0
STATS = StatisticsCatalog(
    rates={"A": 1.0, "B": 2.0, "C": 4.0},
    selectivities={("A", "B"): 0.5, ("A", "C"): 0.1, ("B", "C"): 1.0},
)


def and_pattern(*types, window=W):
    leaves = tuple(Leaf(t, t.lower()) for t in types)
    return Pattern(OperatorNode(AND, leaves), (), window)


def seq_pattern(*leaves, window=W):
    return Pattern(OperatorNode(SEQ, tuple(leaves)), (), window)


P_ABC = and_pattern("A", "B", "C")


def plan_of(pattern, stats, algorithm):
    (planned,) = generate_plan(pattern, stats, algorithm).conjuncts
    return planned.plan


def internal_leaf_sets(root):
    return {
        frozenset(node.leaf_names())
        for node in root.postorder()
        if not node.is_leaf
    }


class TestWorkedExamplePlans:
    def test_trivial_keeps_declaration_order(self):
        plan = plan_of(P_ABC, STATS, "trivial")
        assert plan.order == ("A", "B", "C")
        assert plan_cost(plan, P_ABC, STATS) == 510.0

    def test_efreq_sorts_by_expected_count(self):
        plan = plan_of(P_ABC, STATS, "efreq")
        assert plan.order == ("A", "B", "C")  # W*r: 10 < 20 < 40

    def test_greedy_follows_cheapest_extension(self):
        plan = plan_of(P_ABC, STATS, "greedy")
        # A (10); then C (10*40*0.1=40) beats B (10*20*0.5=100); then B
        assert plan.order == ("A", "C", "B")
        assert plan_cost(plan, P_ABC, STATS) == 450.0

    def test_dp_order_finds_the_minimum(self):
        plan = plan_of(P_ABC, STATS, "dp-ld")
        assert plan.order == ("A", "C", "B")
        bundle = generate_plan(P_ABC, STATS, "dp-ld")
        assert bundle.conjuncts[0].report.cost == 450.0

    def test_zstream_over_declared_leaf_sequence(self):
        plan = plan_of(P_ABC, STATS, "zstream")
        # leaf sequence fixed at (A, B, C): ((A,B),C)=570 beats (A,(B,C))=1270
        assert plan.root.leaf_names() == ("A", "B", "C")
        assert internal_leaf_sets(plan.root) == {
            frozenset({"A", "B"}),
            frozenset({"A", "B", "C"}),
        }
        assert plan_cost(plan, P_ABC, STATS) == 570.0

    def test_zstream_reordered_reaches_the_better_tree(self):
        plan = plan_of(P_ABC, STATS, "zstream-ord")
        # greedy order (A, C, B) exposes ((A,C),B) = 510
        assert plan_cost(plan, P_ABC, STATS) == 510.0
        assert frozenset({"A", "C"}) in internal_leaf_sets(plan.root)

    def test_dp_tree_finds_the_minimum(self):
        plan = plan_of(P_ABC, STATS, "dp-b")
        assert plan_cost(plan, P_ABC, STATS) == 510.0
        assert frozenset({"A", "C"}) in internal_leaf_sets(plan.root)

    def test_hybrid_objective_changes_the_winner(self):
        bundle = generate_plan(P_ABC, STATS, "dp-ld", alpha=1.0)
        (planned,) = bundle.conjuncts
        # no sequence tail, so the anchor is the highest-rate type, C;
        # throughput 450 plus one trailing type (B, 20) beats 480 + 30
        assert planned.plan.order == ("A", "C", "B")
        assert planned.report.cost == 470.0

    def test_next_match_family_is_used_for_next_strategies(self):
        p = P_ABC.with_strategy(SelectionStrategy(NEXT_MATCH))
        plan = OrderPlan(("A", "C", "B"))
        assert plan_cost(plan, p, STATS) == 115.0


STRATEGIES = pytest.mark.parametrize(
    "strategy", [SelectionStrategy(), SelectionStrategy(NEXT_MATCH)], ids=["any", "next"]
)


def model_of(pattern, stats, alpha):
    conjunct = normalize_pattern(pattern).conjuncts[0]
    return conjunct_model(conjunct, stats, family_for(pattern.strategy), alpha)


class TestSearchProperties:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @STRATEGIES
    def test_dp_matches_brute_force_orders(self, alpha, strategy):
        rng = random.Random(3)
        for _ in range(8):
            stats = random_catalog(rng, 5)
            pattern = and_pattern(*sorted(stats.rates)).with_strategy(strategy)
            model = model_of(pattern, stats, alpha)
            _, best = brute_force_order(model)
            bundle = generate_plan(pattern, stats, "dp-ld", alpha)
            assert bundle.conjuncts[0].report.cost == model.costs(best)[0]

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @STRATEGIES
    def test_dp_matches_brute_force_trees(self, alpha, strategy):
        rng = random.Random(4)
        for _ in range(6):
            stats = random_catalog(rng, 4)
            pattern = and_pattern(*sorted(stats.rates)).with_strategy(strategy)
            model = model_of(pattern, stats, alpha)
            _, best = brute_force_tree(model)
            bundle = generate_plan(pattern, stats, "dp-b", alpha)
            assert bundle.conjuncts[0].report.cost == model.costs(best)[0]

    def test_a_sequence_anchors_latency_at_its_last_positive_type(self):
        # the trailing negation is not a type the plan schedules, so the
        # anchor is B, though A, the fastest type, would anchor a conjunction
        pattern = seq_pattern(Leaf("A", "a"), Leaf("B", "b"), Leaf("C", "c", (NOT,)))
        fast_a = StatisticsCatalog(rates={"A": 4.0, "B": 1.0, "C": 2.0},
                                   selectivities={("A", "B"): 0.5})
        rng = random.Random(6)
        for stats in [fast_a] + [random_catalog(rng, 3) for _ in range(5)]:
            model = model_of(pattern, stats, 0.5)
            assert model.objective.last_type == "B"
            for algorithm, brute_force in (("dp-ld", brute_force_order),
                                           ("dp-b", brute_force_tree)):
                _, best = brute_force(model)
                (planned,) = generate_plan(pattern, stats, algorithm, 0.5).conjuncts
                assert planned.report.cost == model.costs(best)[0], algorithm

    def test_iterative_improvement_is_deterministic_per_seed(self):
        rng = random.Random(11)
        stats = random_catalog(rng, 6)
        pattern = and_pattern(*sorted(stats.rates))
        a = generate_plan(pattern, stats, "ii-random", seed=5)
        b = generate_plan(pattern, stats, "ii-random", seed=5)
        assert a.conjuncts[0].plan == b.conjuncts[0].plan
        assert a.conjuncts[0].report.seed == 5

    def test_greedy_started_improvement_takes_no_seed(self):
        rng = random.Random(11)
        for n in (4, 6, 8):
            stats = random_catalog(rng, n)
            pattern = and_pattern(*sorted(stats.rates))
            bundles = [generate_plan(pattern, stats, "ii-greedy", seed=seed)
                       for seed in (0, 5, 123)]
            assert len({
                (c.plan, c.report.cost, c.report.candidates, c.report.seed)
                for b in bundles for c in b.conjuncts
            }) == 1
            assert bundles[0].conjuncts[0].report.seed is None
            assert bundle_to_json(bundles[0])["conjuncts"][0]["seed"] is None

    def test_local_search_never_beats_dp(self):
        rng = random.Random(14)
        for _ in range(5):
            stats = random_catalog(rng, 6)
            pattern = and_pattern(*sorted(stats.rates))
            best = generate_plan(pattern, stats, "dp-ld").conjuncts[0].report.cost
            for algorithm in ("trivial", "efreq", "greedy", "ii-random", "ii-greedy"):
                got = generate_plan(pattern, stats, algorithm, seed=9)
                assert got.conjuncts[0].report.cost >= best - 1e-9 * abs(best)


def reference_ii(model, seed, restarts, init_order=None):
    """Iterative improvement that prices every neighbour with
    ``order_total``; ``init_order`` starts each restart from a fixed order
    in place of a seeded shuffle."""
    rng = random.Random(seed)

    def names(order):
        return tuple(model.types[i] for i in order)

    candidates = 0
    best_order = best_cost = None
    for _ in range(restarts):
        if init_order is None:
            order = list(range(len(model.types)))
            rng.shuffle(order)
        else:
            order = list(init_order)
        cost = model.order_total(names(order))
        candidates += 1
        while True:
            neighbours = []
            n = len(order)
            for i, j in itertools.combinations(range(n), 2):
                nxt = list(order)
                nxt[i], nxt[j] = nxt[j], nxt[i]
                neighbours.append(nxt)
            for i, j, k in itertools.combinations(range(n), 3):
                for a, b, c in ((j, k, i), (k, i, j)):
                    nxt = list(order)
                    nxt[i], nxt[j], nxt[k] = order[a], order[b], order[c]
                    neighbours.append(nxt)
            move, move_cost = None, cost
            for nxt in neighbours:
                c = model.order_total(names(nxt))
                candidates += 1
                if c < move_cost:
                    move, move_cost = nxt, c
            if move is None:
                break
            order, cost = move, move_cost
        if best_cost is None or cost < best_cost:
            best_order, best_cost = order, cost
    return names(best_order), model.costs(best_cost)[0], candidates


def submask_splits(mask):
    """Proper splits of mask, the left half holding mask's lowest set bit,
    larger left halves first."""
    low = mask & -mask
    sub = (mask - 1) & mask
    while sub:
        if sub & low:
            yield sub, mask ^ sub
        sub = (sub - 1) & mask


def reference_dp_b(model):
    """Bushy dynamic programming that prices every split of every subset
    with ``join_cost``."""
    n = len(model.types)
    cost = {1 << i: model.node_pm(1 << i) for i in range(n)}
    tree = {1 << i: leaf(t) for i, t in enumerate(model.types)}
    candidates = 0
    for mask in range(1, 1 << n):
        if mask in cost:
            continue
        best = split = None
        for left, right in submask_splits(mask):
            c = model.add(model.add(cost[left], cost[right]), model.join_cost(left, right))
            candidates += 1
            if best is None or c < best:
                best, split = c, (left, right)
        cost[mask] = best
        tree[mask] = join(tree[split[0]], tree[split[1]])
    full = (1 << n) - 1
    return tree[full], cost[full], candidates


def kleene_and_pattern(types, kleene_type):
    leaves = tuple(
        Leaf(t, t.lower(), (KLEENE,) if t == kleene_type else ()) for t in types
    )
    return Pattern(OperatorNode(AND, leaves), (), W)


class TestSearchesAgainstReferences:
    def cases(self):
        """(pattern, stats) pairs: random catalogs of 4-7 types under both
        cost families, and a Kleene catalog whose subset rate forces the
        log2 path."""
        rng = random.Random(21)
        for n in (4, 5, 6, 7):
            stats = random_catalog(rng, n)
            pattern = and_pattern(*sorted(stats.rates))
            yield pattern, stats
            yield pattern.with_strategy(SelectionStrategy(NEXT_MATCH)), stats
        stats = random_catalog(rng, 6)
        stats = StatisticsCatalog(
            rates={**stats.rates, "C": 120.0}, selectivities=stats.selectivities
        )
        yield kleene_and_pattern(tuple(sorted(stats.rates)), "C"), stats

    def test_the_kleene_case_is_planned_in_log_space(self):
        *_, (pattern, stats) = self.cases()
        assert model_of(pattern, stats, 0.0).log_space

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_zstream_dp_is_the_first_minimum_of_all_trees(self, alpha):
        rng = random.Random(17)
        for n in range(3, 9):
            for _ in range(3):
                stats = random_catalog(rng, n)
                for strategy in (SelectionStrategy(), SelectionStrategy(NEXT_MATCH)):
                    pattern = and_pattern(*sorted(stats.rates)).with_strategy(strategy)
                    model = model_of(pattern, stats, alpha)
                    best, best_cost = first_minimum(
                        all_tree_shapes(model.types), model.tree_total
                    )
                    (planned,) = generate_plan(pattern, stats, "zstream", alpha).conjuncts
                    assert planned.plan.root == best
                    assert planned.report.cost == model.costs(best_cost)[0]
                    assert planned.report.candidates == math.comb(n + 1, 3)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_dp_b_equals_pricing_every_split(self, alpha):
        for pattern, stats in self.cases():
            model = model_of(pattern, stats, alpha)
            (got,) = generate_plan(pattern, stats, "dp-b", alpha).conjuncts
            tree, cost, candidates = reference_dp_b(model)
            want = (tree, model.costs(cost)[0], candidates)
            assert (got.plan.root, got.report.cost, got.report.candidates) == want

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    @pytest.mark.parametrize("log_space", [False, True])
    def test_dp_b_latency_terms_match_join_cost_on_large_catalogs(self, alpha, log_space):
        # the latency term is priced once per side, not once per split;
        # the plan and the cost must be those of join_cost to the bit
        rng = random.Random(29)
        for n in range(8, 13):
            stats = random_catalog(rng, n)
            types = sorted(stats.rates)
            objective = CostObjective(alpha=alpha, last_type=rng.choice(types))
            model = CostModel(types, stats, W, objective, log_space=log_space)
            tree, cost, candidates = _search_dp_b(model)
            want_tree, want_cost, want_candidates = reference_dp_b(model)
            assert (tree, candidates) == (want_tree, want_candidates)
            assert cost.hex() == want_cost.hex()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_incremental_ii_equals_full_repricing(self, alpha):
        for pattern, stats in self.cases():
            model = model_of(pattern, stats, alpha)
            for seed in (0, 1, 7):
                (got,) = generate_plan(pattern, stats, "ii-random", alpha, seed).conjuncts
                want = reference_ii(model, seed, II_RANDOM_RESTARTS)
                assert (got.plan.order, got.report.cost, got.report.candidates) == want
            (greedy,) = generate_plan(pattern, stats, "greedy", alpha).conjuncts
            init = [model.bit_of(t) for t in greedy.plan.order]
            order, cost, count = reference_ii(model, 0, II_GREEDY_RESTARTS, init)
            (got,) = generate_plan(pattern, stats, "ii-greedy", alpha).conjuncts
            assert (got.plan.order, got.report.cost, got.report.candidates) == (
                order, cost, count + greedy.report.candidates
            )


class TestLimits:
    def test_order_dp_size_limit(self):
        names = [f"T{i:02d}" for i in range(DP_LD_LIMIT + 1)]
        stats = StatisticsCatalog(rates={n: 1.0 for n in names})
        with pytest.raises(ResourceLimitError):
            generate_plan(and_pattern(*names), stats, "dp-ld")

    def test_tree_dp_size_limit(self):
        names = [f"T{i:02d}" for i in range(DP_B_LIMIT + 1)]
        stats = StatisticsCatalog(rates={n: 1.0 for n in names})
        with pytest.raises(ResourceLimitError):
            generate_plan(and_pattern(*names), stats, "dp-b")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ContractError):
            generate_plan(P_ABC, STATS, "quantum")

    def test_single_conjunct_helpers_reject_disjunctions(self):
        p = Pattern(
            OperatorNode(
                OR,
                (
                    OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))),
                    OperatorNode(AND, (Leaf("C", "c"), Leaf("D", "d"))),
                ),
            ),
            (),
            W,
        )
        stats = StatisticsCatalog(rates={t: 1.0 for t in "ABCD"})
        with pytest.raises(UnsupportedPatternError):
            plan_cost(OrderPlan(("A", "B")), p, stats)


def checkpoints(engine):
    """The slot of each negation the engine tests on partial matches."""
    return {spec.alias: slot for slot, checks in enumerate(engine.slot_checks)
            for spec, _ in checks}


class TestFinalization:
    """What the engines derive from a plan and its conjunct: the Kleene
    positions and the negation checkpoints."""

    def test_kleene_position_is_planned_under_its_own_name(self):
        p = seq_pattern(Leaf("A", "a"), Leaf("C", "c", (KLEENE,)), Leaf("B", "b"))
        stats = StatisticsCatalog(rates={"A": 1.0, "C": 0.4, "B": 2.0})
        model = conjunct_model(normalize_pattern(p).conjuncts[0], stats)
        assert model.types == ("A", "C", "B")

    def test_two_kleene_positions_keep_their_pair_selectivity(self):
        root = OperatorNode(AND, (Leaf("A", "a", (KLEENE,)), Leaf("B", "b", (KLEENE,))))
        stats = StatisticsCatalog(rates={"A": 0.1, "B": 0.1}, selectivities={("A", "B"): 0.5})
        # each Kleene type holds 2**(0.1*10) = 2 subsets per window
        assert plan_cost(OrderPlan(("A", "B")), Pattern(root, (), W), stats) == 4.0

    def test_kleene_markers_are_restored(self):
        p = seq_pattern(Leaf("A", "a"), Leaf("K", "k", (KLEENE,)), Leaf("B", "b"))
        conjunct = normalize_pattern(p).conjuncts[0]
        stats = StatisticsCatalog(rates={"A": 1.0, "K": 0.3, "B": 2.0})
        plan = plan_of(p, stats, "trivial")
        assert plan.order == ("A", "K", "B")
        assert NfaEngine(plan, conjunct).kl_slots == {1}
        tree = plan_of(p, stats, "dp-b")
        assert set(tree.root.leaf_names()) == {"A", "K", "B"}
        engine = TreeEngine(tree, conjunct)
        assert engine.kl_slots == {engine.leaf_index["K"]}

    def test_order_checkpoint_sits_at_dependency_cover(self):
        p = seq_pattern(
            Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"), Leaf("C", "c")
        )
        conjunct = normalize_pattern(p).conjuncts[0]
        (spec,) = conjunct.negations
        assert set(spec.dependencies) == {"A", "B"}
        engine = NfaEngine(OrderPlan(("C", "B", "A")), conjunct)
        assert checkpoints(engine) == {"n": 2}  # A and B both bound only at A

    def test_negation_without_dependencies_has_no_checkpoint(self):
        # nothing pins such a blocker between members, so it is tested on
        # the full match and needs no slot
        root = OperatorNode(AND, (Leaf("A", "a"), Leaf("N", "n", (NOT,))))
        conjunct = normalize_pattern(Pattern(root, (), W)).conjuncts[0]
        (spec,) = conjunct.negations
        assert spec.dependencies == () and not spec.ts_confined
        assert checkpoints(NfaEngine(OrderPlan(("A",)), conjunct)) == {}
        assert checkpoints(TreeEngine(TreePlan(leaf("A")), conjunct)) == {}

    def test_tree_checkpoint_sits_at_smallest_covering_node(self):
        p = seq_pattern(
            Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"), Leaf("C", "c")
        )
        conjunct = normalize_pattern(p).conjuncts[0]
        tree = join(join(leaf("A"), leaf("B")), leaf("C"))
        engine = TreeEngine(TreePlan(tree), conjunct)
        # postorder: A(0) B(1) AB(2) C(3) root(4); {A,B} covered at node 2
        assert checkpoints(engine) == {"n": 2}

    def test_missing_dependency_is_a_contract_error(self):
        p = seq_pattern(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))
        conjunct = normalize_pattern(p).conjuncts[0]
        with pytest.raises(ContractError):
            NfaEngine(OrderPlan(("A",)), conjunct)
        with pytest.raises(ContractError):
            TreeEngine(TreePlan(leaf("A")), conjunct)


class TestPlanningStatistics:
    """What ``conjunct_model`` charges beyond the catalog: each timestamp-
    order predicate of a rewritten sequence scales its pair by the default
    temporal selectivity, and a Kleene type weighs 2**(r*W), the subset
    rate 2**(r*W)/W times W."""

    STATS = StatisticsCatalog(
        rates={"A": 1.0, "B": 2.0, "C": 0.4},
        selectivities={("A", "B"): 0.5, ("A", "C"): 0.3, ("C",): 0.8},
    )

    def model(self, op, *leaves, stats=STATS, alpha=0.0):
        pattern = Pattern(OperatorNode(op, leaves), (), W)
        return conjunct_model(normalize_pattern(pattern).conjuncts[0], stats, alpha=alpha)

    @staticmethod
    def weight(model, name):
        return model.wr(model.bit_of(name))

    @staticmethod
    def pair(model, a, b):
        """Instances at a tree node over two types: W*r_a * W*r_b * sel."""
        return model.pm_tree((1 << model.bit_of(a)) | (1 << model.bit_of(b)))

    def test_temporal_predicates_scale_pair_selectivities(self):
        m = self.model(SEQ, Leaf("A", "a"), Leaf("B", "b"), Leaf("C", "c"))
        assert [self.weight(m, t) for t in "ABC"] == [W * 1.0, W * 2.0, W * 0.4]
        assert self.pair(m, "A", "B") == pytest.approx(
            10.0 * 20.0 * 0.5 * DEFAULT_TEMPORAL_SELECTIVITY
        )
        assert self.pair(m, "B", "C") == pytest.approx(20.0 * 4.0 * DEFAULT_TEMPORAL_SELECTIVITY)
        # non-adjacent pair untouched
        assert self.pair(m, "A", "C") == pytest.approx(10.0 * 4.0 * 0.3)

    def test_kleene_type_takes_the_subset_law(self):
        m = self.model(AND, Leaf("A", "a"), Leaf("C", "c", (KLEENE,)))
        assert not m.log_space
        # log2(r' * W) = r * W = 4
        assert self.weight(m, "C") == W * (2.0 ** 4.0 / W)
        assert self.weight(m, "A") == W * 1.0

    def test_rate_law_is_exact_for_the_integral_case(self):
        stats = StatisticsCatalog(rates={"A": 1.0, "C": 5.0})
        m = self.model(AND, Leaf("A", "a"), Leaf("C", "c", (KLEENE,)), stats=stats)
        assert self.weight(m, "C") == 2.0 ** 50

    def test_kleene_type_keeps_its_selectivities(self):
        m = self.model(AND, Leaf("A", "a"), Leaf("C", "c", (KLEENE,)))
        # W*r_A * 2**4 * filter(C) * sel(A, C)
        assert m.pm_ord(0b11) == pytest.approx(10.0 * 16.0 * 0.8 * 0.3)
        # the temporal factor applies to the Kleene type's own pair entry
        m = self.model(SEQ, Leaf("A", "a"), Leaf("C", "c", (KLEENE,)))
        assert self.pair(m, "A", "C") == pytest.approx(
            10.0 * 16.0 * 0.3 * DEFAULT_TEMPORAL_SELECTIVITY
        )

    def test_huge_kleene_rates_go_through_log_space(self):
        stats = StatisticsCatalog(rates={"A": 1.0, "C": 200.0})
        m = self.model(AND, Leaf("A", "a"), Leaf("C", "c", (KLEENE,)), stats=stats)
        assert m.log_space
        assert self.weight(m, "C") == 2000.0

    def test_without_kleene_or_sequence_the_catalog_is_used_as_is(self):
        m = self.model(AND, Leaf("A", "a"), Leaf("C", "c"))
        assert [self.weight(m, t) for t in "AC"] == [W * 1.0, W * 0.4]
        assert self.pair(m, "A", "C") == pytest.approx(10.0 * 4.0 * 0.3)

    @pytest.mark.parametrize("rate, anchor", [(0.5, "K"), (0.2, "B")])
    def test_latency_anchor_ranks_a_kleene_type_by_its_subset_rate(self, rate, anchor):
        # the subset rate of K is 2**(10r)/10: 3.2 beats B's 2.0, 0.4 does not
        stats = StatisticsCatalog(rates={"A": 1.0, "K": rate, "B": 2.0})
        leaves = (Leaf("A", "a"), Leaf("K", "k", (KLEENE,)), Leaf("B", "b"))
        m = self.model(AND, *leaves, stats=stats, alpha=0.5)
        assert m.objective.last_type == anchor


class TestEvaluationHelpers:
    def test_plan_cost_matches_search_report(self):
        for algorithm in ("dp-ld", "greedy"):
            bundle = generate_plan(P_ABC, STATS, algorithm)
            (planned,) = bundle.conjuncts
            assert plan_cost(planned.plan, P_ABC, STATS) == planned.report.cost
        for algorithm in TREE_ALGORITHMS:
            bundle = generate_plan(P_ABC, STATS, algorithm)
            (planned,) = bundle.conjuncts
            assert plan_cost(planned.plan, P_ABC, STATS) == planned.report.cost

    @pytest.mark.parametrize(
        "plan",
        [
            OrderPlan(("A",)),
            OrderPlan(("A", "B", "Z")),
            TreePlan(join(leaf("A"), leaf("C"))),
            TreePlan(join(join(leaf("A"), leaf("B")), join(leaf("C"), leaf("Z")))),
        ],
    )
    def test_plan_cost_rejects_plans_that_do_not_cover_the_pattern(self, plan):
        with pytest.raises(ContractError, match="do not match"):
            plan_cost(plan, P_ABC, STATS)

    def test_bundle_total_cost_sums_conjuncts(self):
        p = Pattern(
            OperatorNode(
                OR,
                (
                    OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))),
                    OperatorNode(AND, (Leaf("C", "c"), Leaf("D", "d"))),
                ),
            ),
            (),
            W,
        )
        stats = StatisticsCatalog(rates={"A": 1.0, "B": 2.0, "C": 4.0, "D": 8.0})
        bundle = generate_plan(p, stats, "dp-ld")
        assert len(bundle.conjuncts) == 2
        assert bundle.total_cost == sum(c.report.cost for c in bundle.conjuncts)


class TestSerialization:
    def make_bundle(self):
        p = seq_pattern(
            Leaf("A", "a"),
            Leaf("K", "k", (KLEENE,)),
            Leaf("N", "n", (NOT,)),
            Leaf("B", "b"),
        )
        stats = StatisticsCatalog(rates={"A": 1.0, "K": 0.2, "N": 0.5, "B": 2.0})
        return p, stats

    @pytest.mark.parametrize("algorithm", ["dp-ld", "dp-b"])
    def test_round_trip_preserves_plans(self, algorithm):
        p, stats = self.make_bundle()
        bundle = generate_plan(p, stats, algorithm)
        doc = json.loads(json.dumps(bundle_to_json(bundle)))
        back = bundle_from_json(doc)
        assert back.algorithm == bundle.algorithm
        for before, after in zip(bundle.conjuncts, back.conjuncts):
            assert after.plan == before.plan
            assert after.report.cost == before.report.cost
            assert after.report.cost_log2 == before.report.cost_log2
            assert after.report.candidates == before.report.candidates

    def test_wall_time_is_excluded_by_default(self):
        p, stats = self.make_bundle()
        bundle = generate_plan(p, stats, "dp-ld")
        doc = bundle_to_json(bundle)
        assert all("wall_time" not in entry for entry in doc["conjuncts"])

    def test_serialized_bundles_are_repeatable(self):
        p, stats = self.make_bundle()
        a = bundle_to_json(generate_plan(p, stats, "dp-b"))
        b = bundle_to_json(generate_plan(p, stats, "dp-b"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_algorithm_registry_is_partitioned():
    assert set(ORDER_ALGORITHMS) | set(TREE_ALGORITHMS) == set(ALGORITHM_NAMES)
    assert not set(ORDER_ALGORITHMS) & set(TREE_ALGORITHMS)
    assert ALGORITHM_NAMES == ORDER_ALGORITHMS + TREE_ALGORITHMS == (
        "trivial", "efreq", "greedy", "ii-random", "ii-greedy", "dp-ld",
        "zstream", "zstream-ord", "dp-b",
    )
