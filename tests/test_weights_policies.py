"""Tests for alternative update policies and the conditional bound."""

import pytest

from repro.core import BLogConfig, BLogEngine
from repro.logic import Program
from repro.ortree import ArcKey, OrArc, OrTree, best_first
from repro.weights import (
    ConditionalWeightStore,
    WeightStore,
    conditional_on_failure,
    conditional_on_success,
    on_failure_policy,
    on_success_policy,
)

from .store_writes import put_known


def arcs(*ids):
    return [
        OrArc(parent=i, child=i + 1, key=ArcKey("pointer", (0, 0, k)), weight=0.0)
        for i, k in enumerate(ids)
    ]


def key(i):
    return ArcKey("pointer", (0, 0, i))


class TestBlamePolicies:
    def test_leafmost_matches_default(self):
        a, b = WeightStore(n=8, a=4), WeightStore(n=8, a=4)
        from repro.weights import on_failure

        on_failure(a, arcs(1, 2, 3))
        on_failure_policy(b, arcs(1, 2, 3), "leafmost")
        assert a.snapshot() == b.snapshot()

    def test_rootmost(self):
        store = WeightStore(n=8, a=4)
        log = on_failure_policy(store, arcs(1, 2, 3), "rootmost")
        assert log.set_infinite == [key(1)]

    def test_all(self):
        store = WeightStore(n=8, a=4)
        log = on_failure_policy(store, arcs(1, 2, 3), "all")
        assert set(log.set_infinite) == {key(1), key(2), key(3)}

    def test_known_arcs_never_blamed(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 1.0)
        log = on_failure_policy(store, arcs(1, 2), "rootmost")
        assert log.set_infinite == [key(2)]

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            on_failure_policy(WeightStore(), arcs(1), "sideways")


class TestDistributePolicies:
    def test_equal_matches_default(self):
        a, b = WeightStore(n=12, a=4), WeightStore(n=12, a=4)
        from repro.weights import on_success

        on_success(a, arcs(1, 2, 3))
        on_success_policy(b, arcs(1, 2, 3), "equal")
        assert a.snapshot() == b.snapshot()

    def test_leaf_weighted_sums_to_n(self):
        store = WeightStore(n=12, a=4)
        on_success_policy(store, arcs(1, 2, 3), "leaf-weighted")
        weights = [store.weight(key(i)) for i in (1, 2, 3)]
        assert sum(weights) == pytest.approx(12.0)
        assert weights == sorted(weights)  # deeper gets more
        assert weights[2] == pytest.approx(6.0)  # 12 * 3/6

    def test_root_weighted_mirror(self):
        store = WeightStore(n=12, a=4)
        on_success_policy(store, arcs(1, 2, 3), "root-weighted")
        weights = [store.weight(key(i)) for i in (1, 2, 3)]
        assert weights == sorted(weights, reverse=True)
        assert sum(weights) == pytest.approx(12.0)

    def test_overshoot_anomaly(self):
        store = WeightStore(n=8, a=4)
        put_known(store, key(1), 10.0)
        log = on_success_policy(store, arcs(1, 2), "leaf-weighted")
        assert log.anomaly
        assert store.weight(key(2)) == 0.0

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            on_success_policy(WeightStore(), arcs(1), "chaotic")


class TestEnginePolicyKnobs:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BLogConfig(failure_blame="bogus")
        with pytest.raises(ValueError):
            BLogConfig(success_distribute="bogus")

    @pytest.mark.parametrize("blame", ["leafmost", "rootmost", "all"])
    @pytest.mark.parametrize("dist", ["equal", "leaf-weighted", "root-weighted"])
    def test_all_combinations_preserve_answers(self, figure1, blame, dist):
        cfg = BLogConfig(failure_blame=blame, success_distribute=dist)
        eng = BLogEngine(figure1, cfg)
        eng.begin_session()
        for _ in range(2):
            res = eng.query("gf(sam, G)")
            assert sorted(str(a["G"]) for a in res.answers) == ["den", "doug"]


CONTEXT_PROGRAM = """
go(X) :- via_a(X).
go(X) :- via_b(X).
via_a(X) :- pick(X), fin_a(X).
via_b(X) :- pick(X), fin_b(X).
pick(m1). pick(m2).
fin_a(m1).
fin_b(m2).
"""


class TestConditionalStore:
    def test_backoff_to_marginal(self):
        store = ConditionalWeightStore(n=8, a=4)
        put_known(store.marginal, key(1), 3.0)
        assert store.weight(None, key(1)) == 3.0
        assert store.weight(key(9), key(1)) == 3.0

    def test_pair_overrides_marginal(self):
        store = ConditionalWeightStore(n=8, a=4)
        put_known(store.marginal, key(1), 3.0)
        store.set_infinite(key(2), key(1))
        assert store.is_infinite(key(2), key(1))
        assert store.weight(None, key(1)) == 3.0  # other contexts intact

    def test_success_chain_sums_to_n(self):
        store = ConditionalWeightStore(n=12, a=4)
        conditional_on_success(store, arcs(1, 2, 3))
        total = (
            store.weight(None, key(1))
            + store.weight(key(1), key(2))
            + store.weight(key(2), key(3))
        )
        assert total == pytest.approx(12.0)

    def test_failure_blames_leafmost_pair(self):
        store = ConditionalWeightStore(n=8, a=4)
        log = conditional_on_failure(store, arcs(1, 2))
        assert store.is_infinite(key(1), key(2))
        assert store.is_unknown(None, key(1))

    def test_table_entries_counted(self):
        store = ConditionalWeightStore(n=8, a=4)
        conditional_on_success(store, arcs(1, 2, 3))
        assert store.table_entries == 3

    def test_copy_independent(self):
        store = ConditionalWeightStore(n=8, a=4)
        store.set_known(None, key(1), 2.0)
        c = store.copy()
        c.set_infinite(None, key(1))
        assert store.is_known(None, key(1))


class TestConditionalResolvesContextConflation:
    """The same pick(m1) pointer succeeds in context via_a and fails in
    context via_b — the marginal store conflates; the conditional store
    separates (the §5 'decision should depend on what has been
    previously decided')."""

    def _learn(self, conditional: bool):
        program = Program.from_source(CONTEXT_PROGRAM)
        if conditional:
            store = ConditionalWeightStore(n=8, a=16)
            tree_kwargs = {"pair_weight_fn": store.pair_weight_fn()}
        else:
            store = WeightStore(n=8, a=16)
            tree_kwargs = {"weight_fn": store.weight_fn()}

        # learn from a full enumeration
        tree = OrTree(program, "go(X)", max_depth=16, **tree_kwargs)
        res = best_first(tree)
        from repro.weights import on_failure, on_success

        for node in tree.solutions():
            if conditional:
                conditional_on_success(store, tree.chain_arcs(node.nid))
            else:
                on_success(store, tree.chain_arcs(node.nid))
        for node in tree.failures():
            if conditional:
                conditional_on_failure(store, tree.chain_arcs(node.nid))
            else:
                on_failure(store, tree.chain_arcs(node.nid))
        return program, store, tree_kwargs

    def _warm_failures(self, program, tree_kwargs) -> int:
        tree = OrTree(program, "go(X)", max_depth=16, **tree_kwargs)
        res = best_first(tree, max_solutions=2)
        return sum(1 for n in tree.nodes if n.is_failure)

    def test_conditional_avoids_cross_context_failures(self):
        program, store, kwargs = self._learn(conditional=True)
        # warm run: both context-specific dead picks are priced, so the
        # two solutions are reachable with at most the discovery of
        # already-priced failures
        program2 = Program.from_source(CONTEXT_PROGRAM)
        tree = OrTree(
            program2, "go(X)", max_depth=16, pair_weight_fn=store.pair_weight_fn()
        )
        res = best_first(tree, max_solutions=2)
        answers = sorted(str(tree.solution_answer(s)["X"]) for s in res.solutions)
        assert answers == ["m1", "m2"]
        # the dead (context, pick) pairs carry infinite weight
        dead_pairs = sum(
            1
            for (p, k), e in store._pairs.items()
            if e.state.value == "infinite"
        )
        assert dead_pairs >= 1

    def test_marginal_conflates(self):
        """The marginal store cannot price pick(m1) differently per
        context: after learning, at most one of the two (context, pick)
        conflicts is representable."""
        program, store, kwargs = self._learn(conditional=False)
        # the pick pointers are shared by via_a and via_b (same caller
        # clause? no — different callers), so find the shared situation:
        # callers differ here, so the marginal store *can* separate —
        # verify the genuinely shared case with the 'goal' policy where
        # canonical pick(X) arcs merge across contexts
        program2 = Program.from_source(CONTEXT_PROGRAM)
        store2 = WeightStore(n=8, a=16)
        tree = OrTree(
            program2,
            "go(X)",
            weight_fn=store2.weight_fn(),
            arc_key_policy="goal",
            max_depth=16,
        )
        best_first(tree)
        from repro.weights import on_failure, on_success

        logs = []
        for node in tree.solutions():
            logs.append(on_success(store2, tree.chain_arcs(node.nid)))
        for node in tree.failures():
            logs.append(on_failure(store2, tree.chain_arcs(node.nid)))
        # under merged goal arcs, the same pick arc sits in succeeding
        # AND failing chains: some update must degenerate (noop/anomaly)
        assert any(l.kind == "noop" or l.anomaly for l in logs)
