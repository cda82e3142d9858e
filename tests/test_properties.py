"""Property-based tests (hypothesis) on core invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.logic import (
    Atom,
    Bindings,
    Int,
    Struct,
    Term,
    Var,
    parse_term,
    term_size,
    term_vars,
    unify,
    variant_of,
)
from repro.logic.unify import rename_apart
from repro.machine import ConventionalRAM, MultiWriteRAM, Simulator, Timeout
from repro.ortree import ArcKey, OrArc
from repro.weights import WeightStore, on_failure, on_success
from repro.andpar import independence_groups, hash_join, nested_loop_join, semi_join

from .store_writes import put_known


# ---------------------------------------------------------------- term strategies
atoms = st.sampled_from(list("abcdefg")).map(Atom)
ints = st.integers(-100, 100).map(Int)
var_pool = [Var(n, vid=-(i + 1000)) for i, n in enumerate("XYZUVW")]
variables = st.sampled_from(var_pool)


def terms(max_depth=3):
    base = st.one_of(atoms, ints, variables)
    return st.recursive(
        base,
        lambda children: st.builds(
            Struct,
            st.sampled_from(list("fgh")),
            st.lists(children, min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=8,
    )


# ------------------------------------------------------------------- unification
class TestUnificationProperties:
    @given(terms())
    def test_unify_reflexive(self, t):
        assert unify(t, t, Bindings())

    @given(terms(), terms())
    def test_unify_symmetric(self, a, b):
        assert unify(a, b, Bindings()) == unify(b, a, Bindings())

    @given(terms(), terms())
    def test_unifier_makes_terms_equal(self, a, b):
        # occurs check on: cyclic bindings (where resolve would diverge)
        # are rejected, so a successful unifier is a genuine equalizer
        bnd = Bindings()
        if unify(a, b, bnd, occurs_check=True):
            assert bnd.resolve(a) == bnd.resolve(b)

    @given(terms())
    def test_rename_apart_is_variant(self, t):
        renamed = rename_apart(t)
        assert variant_of(t, renamed)
        original_ids = {v.id for v in term_vars(t)}
        renamed_ids = {v.id for v in term_vars(renamed)}
        assert not (original_ids & renamed_ids) or not original_ids

    @given(terms(), terms())
    def test_trail_restores_exactly(self, a, b):
        bnd = Bindings()
        x = Var("Pre", vid=-1)
        unify(x, Atom("pre"), bnd)
        before = dict(bnd.map)
        mark = bnd.mark()
        unify(a, b, bnd)
        bnd.undo_to(mark)
        assert bnd.map == before

    @given(terms())
    def test_occurs_check_no_cycles(self, t):
        bnd = Bindings()
        for v in var_pool:
            # bind vars only with occurs check: resolve must terminate
            pass
        if unify(Var("Root", vid=-99), t, bnd, occurs_check=True):
            bnd.resolve(Var("Root", vid=-99))  # must not hang/recurse forever


# -------------------------------------------------------------------- parser
class TestParserProperties:
    @given(terms(max_depth=2))
    @settings(max_examples=60)
    def test_str_parse_roundtrip_ground(self, t):
        """Ground terms round-trip through str() and the parser."""
        if term_vars(t):
            return
        if any(isinstance(s, Int) and s.value < 0 for s in t.walk()):
            return  # negative ints inside structs render ambiguously
        reparsed = parse_term(str(t))
        assert reparsed == t


# ----------------------------------------------------------------- weight rules
def _chain(keys):
    return [
        OrArc(parent=i, child=i + 1, key=ArcKey("pointer", (0, 0, k)), weight=0.0)
        for i, k in enumerate(keys)
    ]


class TestWeightProperties:
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True))
    def test_success_chain_sums_to_n(self, keys):
        store = WeightStore(n=16, a=8)
        log = on_success(store, _chain(keys))
        if not log.anomaly:
            total = sum(
                store.weight(ArcKey("pointer", (0, 0, k))) for k in keys
            )
            assert math.isclose(total, 16.0)

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True),
        st.data(),
    )
    def test_failure_sets_at_most_one_infinity(self, keys, data):
        store = WeightStore(n=16, a=8)
        # pre-populate a random subset as known
        known = data.draw(st.sets(st.sampled_from(keys)))
        for k in known:
            put_known(store, ArcKey("pointer", (0, 0, k)), 1.0)
        before = sum(
            1 for k in keys if store.is_infinite(ArcKey("pointer", (0, 0, k)))
        )
        on_failure(store, _chain(keys))
        after = sum(
            1 for k in keys if store.is_infinite(ArcKey("pointer", (0, 0, k)))
        )
        assert after - before in (0, 1)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True))
    def test_update_idempotent_on_second_success(self, keys):
        store = WeightStore(n=16, a=8)
        on_success(store, _chain(keys))
        snapshot = {k: store.weight(ArcKey("pointer", (0, 0, k))) for k in keys}
        on_success(store, _chain(keys))  # all known now: noop
        again = {k: store.weight(ArcKey("pointer", (0, 0, k))) for k in keys}
        assert snapshot == again

    @given(st.floats(1.0, 100.0), st.integers(2, 32))
    def test_encoding_order(self, n, a):
        store = WeightStore(n=n, a=a)
        assert store.unknown_value > n
        assert store.infinity_value >= store.unknown_value or a * n <= n + 1


# ------------------------------------------------------------------ DES kernel
class TestSimulatorProperties:
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(d):
            yield Timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.spawn(proc(d))
        sim.run()
        assert fired == sorted(fired)
        assert sim.now == max(delays)

    @given(st.lists(st.floats(0.0, 50.0), min_size=2, max_size=10))
    def test_sequential_delays_sum(self, delays):
        sim = Simulator()

        def proc():
            for d in delays:
                yield Timeout(d)

        sim.spawn(proc())
        sim.run()
        assert math.isclose(sim.now, sum(delays), abs_tol=1e-9)


# ------------------------------------------------------------------ memory
class TestMemoryProperties:
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=16),
        st.integers(1, 4),
    )
    def test_multiwrite_copies_bit_exact(self, data, n_copies):
        words = len(data)
        size = words * (n_copies + 2)
        ram = MultiWriteRAM(size)
        ram.load_block(0, data)
        dsts = [words * (i + 1) for i in range(n_copies)]
        ram.multi_copy(0, dsts, words)
        for d in dsts:
            assert ram.read_block(d, words) == data

    @given(st.integers(2, 512), st.integers(2, 64))
    def test_multiwrite_never_slower_for_real_copies(self, words, copies):
        """mw = 2w + c vs cv = w + w·c: mw <= cv exactly when
        (w-1)(c-1) >= 1, i.e. for every block of >= 2 words copied >= 2
        times.  (A 1-word block is genuinely cheaper conventionally —
        the setup bit costs more than it saves.)"""
        cv = ConventionalRAM.copy_cost(words, copies).cycles
        mw = MultiWriteRAM.copy_cost(words, copies).cycles
        assert mw <= cv

    def test_one_word_block_favors_conventional(self):
        assert (
            MultiWriteRAM.copy_cost(1, 2).cycles
            > ConventionalRAM.copy_cost(1, 2).cycles
        )


# -------------------------------------------------------------------- joins
rows = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 10)), min_size=0, max_size=30
)


class TestJoinProperties:
    @given(rows, rows)
    def test_all_join_algorithms_agree(self, left, right):
        nl, _ = nested_loop_join(left, right, 1, 0)
        hj, _ = hash_join(left, right, 1, 0)
        sj, _ = semi_join(left, right, 1, 0)
        assert sorted(nl) == sorted(hj) == sorted(sj)

    @given(rows, rows)
    def test_semi_join_reduction_sound(self, left, right):
        from repro.andpar import semi_join_reduce

        reduced, _ = semi_join_reduce(left, right, 1, 0)
        # reduction keeps exactly the right rows that participate
        participating = {r for l in left for r in right if l[1] == r[0]}
        assert set(reduced) == participating


# ---------------------------------------------------------------- independence
class TestIndependenceProperties:
    @given(st.lists(st.sampled_from(["f(X,Y)", "g(Y,Z)", "h(A)", "k(B,C)", "m(C)"]),
                    min_size=1, max_size=5))
    def test_groups_partition_goals(self, goal_srcs):
        from repro.logic import parse_query

        goals = list(parse_query(", ".join(goal_srcs)))
        groups = independence_groups(goals)
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(len(goals)))

    @given(st.lists(st.sampled_from(["f(X,Y)", "g(Y,Z)", "h(A)", "k(B,C)"]),
                    min_size=2, max_size=5))
    def test_no_variable_crosses_groups(self, goal_srcs):
        from repro.logic import parse_query
        from repro.andpar import goal_vars

        goals = list(parse_query(", ".join(goal_srcs)))
        groups = independence_groups(goals)
        for i, gi in enumerate(groups):
            vi = set().union(*(goal_vars(goals[k]) for k in gi))
            for gj in groups[i + 1 :]:
                vj = set().union(*(goal_vars(goals[k]) for k in gj))
                assert not (vi & vj)
