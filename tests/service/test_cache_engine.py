"""The decode engine: LRU caches, piece interning, epoch correctness."""

import pytest

from repro.analysis.incremental import GraphDelta
from repro.errors import DecodingError, EpochError, ServiceError
from repro.graph.callgraph import CallGraph
from repro.runtime.agent import DeltaPathProbe
from repro.runtime.plan import build_plan_from_graph
from repro.service.cache import LRUCache
from repro.service.engine import DecodeEngine


def sample_graph():
    g = CallGraph("main")
    g.add_edge("main", "a", "s1")
    g.add_edge("main", "b", "s2")
    g.add_edge("a", "c", "s3")
    g.add_edge("b", "c", "s4")
    g.add_edge("c", "d", "s5")
    g.add_edge("c", "e", "s6")
    g.add_edge("d", "g", "s7")
    g.add_edge("e", "g", "s8")
    return g


def walk_snapshot(plan, path):
    probe = DeltaPathProbe(plan, cpt=True)
    probe.begin_execution(plan.graph.entry)
    probe.enter_function(plan.graph.entry)
    node = plan.graph.entry
    for caller, label, callee in path:
        probe.before_call(caller, label, callee)
        probe.enter_function(callee)
        node = callee
    return node, probe.snapshot(node)


class TestLRUCache:
    def test_put_get_and_recency_eviction(self):
        cache = LRUCache(capacity=2)
        cache.put((0, "x"), 1)
        cache.put((0, "y"), 2)
        assert cache.get((0, "x")) == 1  # refreshes x
        cache.put((0, "z"), 3)  # evicts y, the LRU entry
        assert cache.get((0, "y")) is None
        assert cache.get((0, "x")) == 1
        assert cache.get((0, "z")) == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(capacity=0)
        cache.put((0, "x"), 1)
        assert cache.get((0, "x")) is None
        assert len(cache) == 0
        assert cache.stats().hit_rate == 0.0

    def test_drop_epoch_only_hits_that_epoch(self):
        cache = LRUCache()
        cache.put((0, "x"), 1)
        cache.put((0, "y"), 2)
        cache.put((1, "x"), 3)
        assert cache.drop_epoch(0) == 2
        assert cache.get((0, "x")) is None
        assert cache.get((1, "x")) == 3
        assert cache.stats().epoch_drops == 2

    def test_overwrite_keeps_size(self):
        cache = LRUCache(capacity=4)
        cache.put((0, "x"), 1)
        cache.put((0, "x"), 9)
        assert cache.get((0, "x")) == 9
        assert len(cache) == 1

    def test_hit_rate(self):
        cache = LRUCache()
        cache.put((0, "x"), 1)
        cache.get((0, "x"))
        cache.get((0, "missing"))
        assert cache.stats().hit_rate == pytest.approx(0.5)


class TestDecodeEngine:
    def make(self, **kwargs):
        plan = build_plan_from_graph(sample_graph())
        return plan, DecodeEngine(plan, **kwargs)

    def test_decode_matches_plan_decoder(self):
        plan, engine = self.make()
        node, snap = walk_snapshot(
            plan, [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        )
        expected = plan.decode_snapshot(node, snap).nodes()
        assert engine.decode(node, *snap).nodes() == expected
        path, has_gaps, epoch = engine.decode_path(node, snap)
        assert list(path) == expected
        assert not has_gaps
        assert epoch == 0

    def test_context_cache_hits_on_repeat(self):
        plan, engine = self.make()
        node, snap = walk_snapshot(plan, [("main", "s1", "a"), ("a", "s3", "c")])
        first = engine.decode_path(node, snap)
        second = engine.decode_path(node, snap)
        assert first == second
        stats = engine.cache_stats()["contexts"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_pieces_shared_across_distinct_contexts(self):
        plan, engine = self.make()
        # Same piece prefix main->a->c, different leaves.
        n1, s1 = walk_snapshot(
            plan, [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s5", "d")]
        )
        n2, s2 = walk_snapshot(
            plan, [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        )
        engine.decode_path(n1, s1)
        before = engine.cache_stats()["pieces"]
        engine.decode_path(n2, s2)  # distinct context, misses ctx cache
        after = engine.cache_stats()["pieces"]
        assert after["misses"] >= before["misses"]
        stats = engine.cache_stats()["contexts"]
        assert stats["hits"] == 0  # both contexts distinct

    def test_decodes_are_independent_copies(self):
        # Interned pieces must not leak mutable state between decodes.
        plan, engine = self.make()
        node, snap = walk_snapshot(
            plan, [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        )
        d1 = engine.decode(node, *snap)
        d1.segments[0].edges.append("poison")
        d2 = engine.decode(node, *snap)
        assert "poison" not in d2.segments[0].edges

    def test_uncached_engine_still_correct(self):
        plan, engine = self.make(piece_cache=0, context_cache=0)
        node, snap = walk_snapshot(plan, [("main", "s2", "b"), ("b", "s4", "c")])
        assert list(engine.decode_path(node, snap)[0]) == ["main", "b", "c"]
        assert engine.cache_stats()["contexts"]["hits"] == 0


class TestEpochs:
    def setup_swap(self, **engine_kwargs):
        """v0 plan; delta removes a->c and adds e->x (both one-sided)."""
        g = sample_graph()
        plan = build_plan_from_graph(g)
        engine = DecodeEngine(plan, **engine_kwargs)
        g2 = g.copy()
        victim = next(
            e for e in g.edges if e.caller == "a" and e.callee == "c"
        )
        added = g2.add_edge("e", "x", "load_x")
        delta = GraphDelta(
            added_nodes={"x": {}},
            added_edges=(added,),
            removed_edges=(victim,),
        )
        update = plan.apply_delta(delta)
        return plan, engine, update

    def test_install_update_bumps_epoch(self):
        plan, engine, update = self.setup_swap()
        assert engine.epoch == 0
        assert engine.install_update(update) == 1
        assert engine.epoch == 1
        assert engine.plan is update.plan
        assert engine.epoch_of(plan) == 0
        assert engine.epoch_of(update.plan) == 1

    def test_old_snapshot_decodes_only_under_old_epoch(self):
        plan, engine, update = self.setup_swap()
        node, snap = walk_snapshot(
            plan, [("main", "s1", "a"), ("a", "s3", "c"), ("c", "s6", "e")]
        )
        engine.install_update(update)
        # Under its own epoch: fine, even after the swap.
        path, _, used = engine.decode_path(node, snap, epoch=0)
        assert list(path) == ["main", "a", "c", "e"]
        assert used == 0
        # Under the new epoch the same numeric state decodes to a
        # DIFFERENT context (a->c was removed and the AVs shifted) —
        # the silent corruption that epoch stamping exists to prevent.
        wrong, _, _ = engine.decode_path(node, snap, epoch=1)
        assert list(wrong) != ["main", "a", "c", "e"]

    def test_new_snapshot_decodes_only_under_new_epoch(self):
        plan, engine, update = self.setup_swap()
        engine.install_update(update)
        node, snap = walk_snapshot(
            update.plan,
            [("main", "s2", "b"), ("b", "s4", "c"), ("c", "s6", "e"),
             ("e", "load_x", "x")],
        )
        path, _, used = engine.decode_path(node, snap)  # current epoch
        assert list(path) == ["main", "b", "c", "e", "x"]
        assert used == 1
        with pytest.raises(DecodingError):
            engine.decode_path(node, snap, epoch=0)

    def test_update_from_stale_plan_is_rejected(self):
        plan, engine, update = self.setup_swap()
        engine.install_update(update)
        with pytest.raises(ServiceError):
            engine.install_update(update)  # old_plan is no longer current

    def test_epoch_of_unknown_plan(self):
        plan, engine, update = self.setup_swap()
        with pytest.raises(EpochError):
            engine.epoch_of(update.plan)  # never installed

    def test_retention_prunes_old_epochs(self):
        plan, engine, update = self.setup_swap(retain_epochs=1)
        node, snap = walk_snapshot(plan, [("main", "s1", "a")])
        engine.decode_path(node, snap)
        engine.install_update(update)
        assert engine.retained_epochs() == [1]
        with pytest.raises(EpochError):
            engine.decode_path(node, snap, epoch=0)
        with pytest.raises(EpochError):
            engine.plan_for(0)
        # Pruning also dropped epoch-0 cache entries.
        assert engine.cache_stats()["contexts"]["size"] == 0

    def test_retention_validation(self):
        plan = build_plan_from_graph(sample_graph())
        with pytest.raises(ServiceError):
            DecodeEngine(plan, retain_epochs=0)


class TestHotStream:
    """A Zipf stream over shared-prefix contexts is what the caches serve."""

    @staticmethod
    def decode_all(plan, stream, **caches):
        import time

        engine = DecodeEngine(plan, **caches)
        start = time.perf_counter()
        for node, snapshot in stream:
            engine.decode_path(node, snapshot)
        elapsed = time.perf_counter() - start
        stats = engine.cache_stats()["contexts"]
        hit_rate = stats["hits"] / (stats["hits"] + stats["misses"])
        return len(stream) / elapsed, hit_rate

    def test_cached_beats_uncached(self):
        from repro.workloads.synthetic import lane_chain_workload, zipf_stream

        _, plan, observations, weights = lane_chain_workload(
            depth=8, contexts=24, seed=7
        )
        stream = zipf_stream(observations, weights, 400, seed=7)
        uncached_per_s, uncached_hits = self.decode_all(
            plan, stream, piece_cache=0, context_cache=0
        )
        cached_per_s, cached_hits = self.decode_all(plan, stream)
        assert uncached_hits == 0.0
        assert cached_hits > 0.5  # hot stream repeats
        assert cached_per_s > uncached_per_s
