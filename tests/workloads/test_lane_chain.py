"""The seeded lane-chain population and its Zipf sample stream."""

from repro.service.engine import DecodeEngine
from repro.workloads.synthetic import (
    lane_chain,
    lane_chain_workload,
    zipf_stream,
)


class TestLaneChainWorkload:
    def test_lane_chain_shape(self):
        g = lane_chain(depth=5, lanes=3)
        assert g.entry == "main"
        # depth hops, `lanes` parallel edges per hop.
        assert len(list(g.edges)) == 5 * 3

    def test_workload_decodes_round_trip(self):
        graph, plan, observations, weights = lane_chain_workload(
            depth=6, contexts=10, seed=3
        )
        assert len(observations) == 10
        assert len(weights) == 10
        assert weights == sorted(weights, reverse=True)  # Zipf ranks
        engine = DecodeEngine(plan)
        for node, snapshot in observations:
            path, has_gaps, _ = engine.decode_path(node, snapshot)
            assert path[0] == "main" and path[-1] == node
            assert not has_gaps
        # Distinct contexts stay distinct through the encoding. Lanes
        # share nodes and differ only by call-site label, so uniqueness
        # lives in the decoded edge sequence, not the node path.
        edge_seqs = set()
        for node, snapshot in observations:
            decoded = engine.decode(node, *snapshot)
            edge_seqs.add(tuple(
                (e.caller, e.label, e.callee)
                for seg in decoded.segments for e in seg.edges
            ))
        assert len(edge_seqs) == 10

    def test_stream_is_deterministic_and_hot(self):
        _, _, observations, weights = lane_chain_workload(
            depth=6, contexts=10, seed=3
        )
        s1 = zipf_stream(observations, weights, 200, seed=5)
        s2 = zipf_stream(observations, weights, 200, seed=5)
        assert s1 == s2
        assert len(s1) == 200
