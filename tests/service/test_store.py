"""ContextStore: trie interning, block compression, and corruption."""

import zlib

import pytest

from repro.errors import ServiceError, StoreCorruptionError
from repro.service.store import ContextStore


PATHS = [
    ("main",),
    ("main", "parse"),
    ("main", "parse", "lex"),
    ("main", "render"),
    ("main", "render", "draw"),
    ("main", "render", "draw", "blit"),
    (),
]


def fill(store, paths=PATHS):
    return {path: store.intern(path) for path in paths}


class TestRoundTrip:
    @pytest.mark.parametrize("compression", ["zlib", "none"])
    def test_intern_then_path_restores_tuples(self, compression):
        store = ContextStore(compression=compression, block_size=4)
        pids = fill(store)
        for path, pid in pids.items():
            assert store.path(pid) == path

    def test_intern_is_idempotent(self):
        store = ContextStore()
        first = fill(store)
        second = fill(store)
        assert first == second
        assert len(store) == len(PATHS)

    def test_compression_choice_does_not_change_pids(self):
        z = ContextStore(compression="zlib", block_size=4)
        n = ContextStore(compression="none", block_size=4)
        assert fill(z) == fill(n)

    def test_prefixes_share_nodes(self):
        store = ContextStore()
        fill(store)
        # 6 distinct frames across all paths: main, parse, lex, render,
        # draw, blit — prefix sharing means exactly one node per frame.
        assert store.nodes == 6

    def test_lookup_only_sees_interned_contexts(self):
        store = ContextStore()
        pids = fill(store)
        assert store.lookup(("main", "parse")) == pids[("main", "parse")]
        assert store.lookup(("main", "missing")) is None
        assert store.lookup(("ghost",)) is None

    def test_empty_path_is_a_valid_context(self):
        store = ContextStore()
        pid = store.intern(())
        assert store.path(pid) == ()
        assert store.leaf_name_id(pid) is None

    def test_unknown_pid_raises(self):
        store = ContextStore()
        fill(store)
        with pytest.raises(ServiceError, match="unknown context id"):
            store.path(10_000)

    def test_leaf_name_id_matches_last_frame(self):
        store = ContextStore()
        pids = fill(store)
        pid = pids[("main", "render", "draw")]
        assert store.name_of(store.leaf_name_id(pid)) == "draw"


class TestBlocksAndCache:
    def test_sealed_blocks_read_back_through_lru(self):
        store = ContextStore(compression="zlib", block_size=2, hot_blocks=1)
        pids = fill(store)
        stats = store.stats()
        assert stats["sealed_blocks"] >= 2
        # Alternate between contexts living in different sealed blocks so
        # the single-slot LRU keeps evicting and re-decompressing.
        before = store.unseals
        for _ in range(3):
            for path, pid in pids.items():
                assert store.path(pid) == path
        assert store.unseals > before

    def test_pid_cache_serves_repeats_without_growth(self):
        store = ContextStore(pid_cache=2)
        a = store.intern(("main", "parse"))
        assert store.intern(("main", "parse")) == a  # cache hit
        store.intern(("main",))
        store.intern(("main", "render"))  # overflows the 2-entry cap
        assert len(store._pid_cache) <= 2
        assert store.intern(("main", "parse")) == a  # still correct

    def test_pid_cache_can_be_disabled(self):
        store = ContextStore(pid_cache=0)
        store.intern(("main",))
        assert store._pid_cache == {}

    def test_zlib_blocks_are_smaller_than_raw(self):
        deep = [tuple(f"fn{i}" for i in range(d)) for d in range(1, 200)]
        z = ContextStore(compression="zlib", block_size=64)
        n = ContextStore(compression="none", block_size=64)
        fill(z, deep)
        fill(n, deep)
        assert z.stats()["block_bytes"] < n.stats()["block_bytes"]

    def test_constructor_validates_arguments(self):
        with pytest.raises(ServiceError, match="compression"):
            ContextStore(compression="lzma")
        with pytest.raises(ServiceError, match="block size"):
            ContextStore(block_size=1)
        with pytest.raises(ServiceError, match="hot block"):
            ContextStore(hot_blocks=0)


class TestCorruption:
    def build(self, compression):
        # hot_blocks=1 with several sealed blocks guarantees the read
        # path actually unpacks the planted payload instead of serving
        # the still-hot write-side view.
        store = ContextStore(
            compression=compression, block_size=2, hot_blocks=1
        )
        pids = fill(store)
        store._hot.clear()
        return store, pids

    def read_all(self, store, pids):
        for path, pid in pids.items():
            store.path(pid)

    def test_bit_flip_in_compressed_block_is_detected(self):
        store, pids = self.build("zlib")
        block = store._sealed[0]
        blob = bytearray(block.payload)
        blob[len(blob) // 2] ^= 0xFF
        block.payload = bytes(blob)
        with pytest.raises(StoreCorruptionError):
            self.read_all(store, pids)
        assert store.corruptions == 1

    def test_bit_flip_in_raw_block_fails_crc(self):
        store, pids = self.build("none")
        block = store._sealed[0]
        blob = bytearray(block.payload)
        blob[0] ^= 0xFF
        block.payload = bytes(blob)
        with pytest.raises(StoreCorruptionError, match="CRC"):
            self.read_all(store, pids)
        assert store.corruptions == 1

    def test_valid_zlib_with_wrong_content_fails_crc(self):
        store, pids = self.build("zlib")
        block = store._sealed[0]
        raw = bytearray(zlib.decompress(block.payload))
        raw[0] ^= 0xFF
        block.payload = zlib.compress(bytes(raw), 6)
        with pytest.raises(StoreCorruptionError, match="CRC"):
            self.read_all(store, pids)

    def test_untouched_blocks_still_serve_after_corruption(self):
        store, pids = self.build("zlib")
        # Corrupt the LAST sealed block. Parents always precede their
        # children, so any context whose pid lands in an earlier block
        # never walks into the corrupted one.
        last = len(store._sealed) - 1
        store._sealed[last].payload = b"garbage"
        cutoff = last * store.block_size
        for path, pid in pids.items():
            if pid < cutoff:
                assert store.path(pid) == path
            else:
                with pytest.raises(StoreCorruptionError):
                    store.path(pid)
                store._hot.clear()


class TestSnapshotOrder:
    def test_snapshot_ids_covers_every_interned_context(self):
        store = ContextStore()
        pids = fill(store)
        assert set(store.snapshot_ids()) == set(pids.values())

    def test_order_is_content_dependent_not_insertion_dependent(self):
        """Same contexts, different intern order -> same path sequence.

        This is what makes segment/checkpoint writes byte-deterministic:
        iteration follows the decoded paths, not the intern history.
        """
        forward, backward = ContextStore(), ContextStore()
        fill(forward, PATHS)
        fill(backward, list(reversed(PATHS)))
        assert (
            [forward.path(pid) for pid in forward.snapshot_ids()]
            == [backward.path(pid) for pid in backward.snapshot_ids()]
            == sorted(PATHS)
        )

    def test_iter_paths_pairs_pid_with_path(self):
        store = ContextStore()
        pids = fill(store)
        for pid, path in store.iter_paths():
            assert pids[path] == pid
        assert [p for _pid, p in store.iter_paths()] == sorted(PATHS)


def cct_paths(contexts, *, names=512, max_depth=64, seed=1):
    """Contexts forming a calling-context tree, in discovery order.

    Real collectors retain a context for *every* live frame, so the
    retained set is closed under prefixes — a CCT, not an arbitrary
    path set. Growth mimics a trace: mostly the walk deepens the
    current context (long shared trunks), sometimes it jumps back to an
    arbitrary known context (branching).
    """
    import random

    rng = random.Random(seed + 31)
    pool = [f"fn{i}" for i in range(names)]
    paths = [("main",)]
    seen = {("main",)}
    current = ("main",)
    while len(paths) < contexts:
        if len(current) >= max_depth or rng.random() >= 0.8:
            current = paths[rng.randrange(len(paths))]
        current = current + (pool[rng.randrange(names)],)
        if current not in seen:
            seen.add(current)
            paths.append(current)
    return paths


def tuple_baseline_bytes(paths):
    """Bytes of the tuples-of-shared-strings representation.

    Each retained context as a tuple of interned function-name strings:
    every tuple object plus every distinct string once.
    """
    import sys

    total = sys.getsizeof({i: None for i in range(len(paths))})
    names = set()
    for path in paths:
        total += sys.getsizeof(path)
        for name in path:
            if name not in names:
                names.add(name)
                total += sys.getsizeof(name)
    return total


class TestFootprint:
    """A calling-context tree costs less in the store than as tuples."""

    def test_cct_paths_are_prefix_closed(self):
        paths = cct_paths(200, seed=3)
        assert len(paths) == 200
        universe = set(paths)
        for path in paths:
            for cut in range(1, len(path)):
                assert path[:cut] in universe

    def test_store_round_trips_and_beats_tuples(self):
        paths = cct_paths(4000)
        footprint = {}
        for compression in ("zlib", "none"):
            # pid_cache off: the cold retained footprint is measured.
            store = ContextStore(compression=compression, pid_cache=0)
            pids = [store.intern(path) for path in paths]
            assert all(
                store.path(pid) == path
                for pid, path in zip(pids[::62], paths[::62])
            )
            footprint[compression] = store.stats()["bytes"]
        assert 0 < footprint["zlib"] <= footprint["none"]
        # At least 1.5x smaller than the tuples it replaces.
        assert tuple_baseline_bytes(paths) >= 1.5 * footprint["zlib"]
