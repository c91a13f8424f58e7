"""Graph construction, normalization, k-hop queries, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkgforge import graph as G
from pkgforge.config import PAPER_DEDUP_THRESHOLD, PAPER_INSTANCE_THRESHOLD, PAPER_MATCH_THRESHOLD
from pkgforge.corpus_io import CorpusFormatError, Ragged, SegmentCorpus, StepDatabase, Video

from oracles import khop_bruteforce, transitions_bruteforce


def _db_from_chain(node_of, dim=2):
    """One task whose steps map onto the given nodes; embeddings distinct."""
    n = len(node_of)
    embeddings = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
    db = StepDatabase.from_tasks([("t0", "t", [f"h{i}" for i in range(n)])], embeddings)
    return db, np.array(node_of)


class TestDatabaseTransitions:
    def test_chain(self):
        db, node_of = _db_from_chain([0, 1, 2])
        assert G.database_transitions(db, node_of) == [(0, 1), (1, 2)]

    def test_self_loop_dropped(self):
        db, node_of = _db_from_chain([0, 0])
        assert G.database_transitions(db, node_of) == []

    def test_idempotent_across_tasks(self):
        embeddings = np.array([[1.0, 0.0], [1.0, 1.0]] * 2)
        db = StepDatabase.from_tasks([("t0", "a", ["h0", "h1"]), ("t1", "b", ["h0", "h1"])],
                                     embeddings)
        assert G.database_transitions(db, np.array([0, 1, 0, 1])) == [(0, 1)]


class TestCorpusTransitions:
    def test_single_instance_pruned_at_default(self):
        matches = [[[(0, 12.0)], [(1, 11.0)]]]
        assert G.corpus_transitions(matches, PAPER_INSTANCE_THRESHOLD) == {}
        assert G.corpus_transitions(matches, instance_threshold=100.0) == {(0, 1): 132.0}

    def test_same_headline_never_transitions(self):
        matches = [[[(0, 12.0)], [(0, 15.0)]]]
        assert G.corpus_transitions(matches, instance_threshold=0.0) == {}

    def test_aggregation_across_videos(self):
        matches = [
            [[(0, 20.0)], [(1, 30.0)]],  # instance 600
            [[(0, 25.0)], [(1, 20.0)]],  # instance 500
        ]
        got = G.corpus_transitions(matches, instance_threshold=1000.0)
        assert got == {(0, 1): 1100.0}

    def test_boundary_not_kept(self):
        matches = [[[(0, 10.0)], [(1, 100.0)]]]  # aggregate exactly 1000
        assert G.corpus_transitions(matches, instance_threshold=1000.0) == {}

    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            videos = []
            for _ in range(int(rng.integers(1, 6))):
                segs = []
                for _ in range(int(rng.integers(1, 7))):
                    k = int(rng.integers(0, 4))
                    heads = rng.choice(10, size=k, replace=False)
                    segs.append([(int(h), float(rng.uniform(8, 20))) for h in heads])
                videos.append(segs)
            threshold = float(rng.uniform(0, 400))
            got = G.corpus_transitions(videos, threshold)
            want = transitions_bruteforce(videos, threshold)
            assert set(got) == set(want)
            for pair in got:
                assert got[pair] == pytest.approx(want[pair], abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_videos=st.integers(0, 5),
        n_headlines=st.integers(1, 6),
        repeat_rate=st.sampled_from([0.0, 0.5, 1.0]),
        on_aggregate=st.booleans(),
    )
    def test_bruteforce_oracle_property(
        self, seed, n_videos, n_headlines, repeat_rate, on_aggregate
    ):
        # Scores from a small dyadic set tie often, and every product and sum
        # of them is exact in f64: the totals must equal the oracle's bit for
        # bit whatever the accumulation order, and a threshold drawn from them
        # sits exactly on an aggregate, which the strict > must prune.
        rng = np.random.default_rng(seed)
        videos = []
        for _ in range(n_videos):
            segments = []
            for _ in range(int(rng.integers(0, 7))):  # zero segments: an empty video
                k = int(rng.integers(0, min(3, n_headlines) + 1))  # zero: an unmatched segment
                heads = set(rng.choice(n_headlines, size=k, replace=False).tolist())
                if segments and segments[-1] and rng.random() < repeat_rate:
                    heads.add(segments[-1][int(rng.integers(len(segments[-1])))][0])
                order = rng.permutation(sorted(heads)).tolist()
                segments.append([(h, float(rng.choice([8.0, 10.0, 12.5, 16.0]))) for h in order])
            videos.append(segments)
        totals = sorted(set(transitions_bruteforce(videos, -math.inf).values()))
        if on_aggregate and totals:
            threshold = float(rng.choice(totals))
        else:
            threshold = float(rng.uniform(0.0, 600.0))
        got = G.corpus_transitions(videos, threshold)
        assert got == transitions_bruteforce(videos, threshold)
        assert list(got) == sorted(got)


class TestNormalizeScores:
    def test_log_spaced(self):
        got = G.normalize_scores({(0, 1): 1000.0, (0, 2): 10000.0, (1, 2): 100000.0})
        assert got[(0, 1)] == 0.0
        assert got[(0, 2)] == pytest.approx(0.5, abs=1e-12)
        assert got[(1, 2)] == 1.0

    def test_single_value_degenerate(self):
        assert G.normalize_scores({(0, 1): 42.0}) == {(0, 1): 1.0}

    def test_endpoints_exact(self):
        rng = np.random.default_rng(3)
        values = {(i, i + 1): float(v) for i, v in enumerate(rng.uniform(1, 1e6, size=9))}
        got = G.normalize_scores(values)
        lo = min(values, key=values.get)
        hi = max(values, key=values.get)
        assert got[lo] == 0.0 and got[hi] == 1.0
        assert all(0.0 <= v <= 1.0 for v in got.values())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            G.normalize_scores({(0, 1): 0.0})

    def test_empty(self):
        assert G.normalize_scores({}) == {}


class TestAssembleGraph:
    def test_database_wins_max(self):
        db, node_of = _db_from_chain([0, 1])
        pkg = G.assemble_graph(db, node_of, [(0, 1)], {(0, 1): 0.4})
        assert len(pkg.edges) == 1
        edge = pkg.edges[0]
        assert edge.score == 1.0
        assert edge.sources == ("corpus", "database")

    def test_corpus_only_passthrough(self):
        db, node_of = _db_from_chain([0, 1])
        pkg = G.assemble_graph(db, node_of, [], {(0, 1): 0.37})
        assert pkg.edges[0].score == 0.37
        assert pkg.edges[0].sources == ("corpus",)

    def test_node_level_self_loop_dropped(self):
        # two distinct headlines dedup'd into one node
        db, node_of = _db_from_chain([0, 0])
        pkg = G.assemble_graph(db, node_of, [], {(0, 1): 0.8})
        assert pkg.edges == []

    def test_members_carry_provenance(self):
        db, node_of = _db_from_chain([0, 1, 0])
        pkg = G.assemble_graph(db, node_of, [], {})
        assert pkg.nodes[0].members == (("t0", 0, "h0"), ("t0", 2, "h2"))

    def test_invariants_enforced(self):
        nodes = [G.StepNode(0, (("t", 0, "h"),)), G.StepNode(1, (("t", 1, "g"),))]
        with pytest.raises(ValueError, match="self-loop"):
            G.ProceduralKnowledgeGraph(
                nodes=nodes, edges=[G.DirectedEdge(0, 0, 0.5, ("corpus",))]
            )
        with pytest.raises(ValueError, match="outside"):
            G.ProceduralKnowledgeGraph(
                nodes=nodes, edges=[G.DirectedEdge(0, 1, 1.5, ("corpus",))]
            )


def _one_set(pkg, seeds, hops, direction):
    """khop_neighbors of the one seed set `seeds`: per hop, node -> confidence, read off
    the result's only row, whose nodes must ascend."""
    out = []
    for hop in G.khop_neighbors(pkg, Ragged.from_lists([list(seeds)]), hops, direction):
        (row,) = hop.lists()
        assert [node for node, _ in row] == sorted(node for node, _ in row)
        out.append(dict(row))
    return out


class TestKhop:
    def _graph(self, n, edges):
        nodes = [G.StepNode(i, ((f"t", i, f"h{i}"),)) for i in range(n)]
        return G.ProceduralKnowledgeGraph(
            nodes=nodes,
            edges=[G.DirectedEdge(s, d, w, ("corpus",)) for s, d, w in edges],
        )

    def test_chain_both_directions(self):
        pkg = self._graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert _one_set(pkg, [1], 1, "in") == [{0: 1.0}]
        assert _one_set(pkg, [1], 1, "out") == [{2: 1.0}]

    def test_chain_products(self):
        pkg = self._graph(3, [(0, 1, 0.5), (1, 2, 0.4)])
        hops = _one_set(pkg, [0], 2, "out")
        assert hops[1] == {2: pytest.approx(0.2, abs=1e-12)}

    def test_diamond_max_path(self):
        pkg = self._graph(4, [(0, 1, 0.9), (1, 3, 0.5), (0, 2, 0.8), (2, 3, 0.8)])
        hops = _one_set(pkg, [0], 2, "out")
        assert hops[1][3] == pytest.approx(0.64, abs=1e-12)

    def test_cycle_revisits_seed(self):
        pkg = self._graph(2, [(0, 1, 0.5), (1, 0, 0.5)])
        hops = _one_set(pkg, [0], 2, "out")
        assert hops[1] == {0: pytest.approx(0.25)}

    def test_oracle_random_graphs(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 15))
            edges = [
                (s, d, float(rng.uniform(0.05, 1.0)))
                for s in range(n)
                for d in range(n)
                if s != d and rng.random() < 0.3
            ]
            pkg = self._graph(n, edges)
            n_seeds = int(rng.integers(1, min(4, n + 1)))
            seeds = sorted(rng.choice(n, size=n_seeds, replace=False))
            hops = int(rng.integers(1, 4))
            for direction in ("in", "out"):
                got = _one_set(pkg, [int(s) for s in seeds], hops, direction)
                want = khop_bruteforce(edges, seeds, hops, direction)
                for k in range(hops):
                    assert set(got[k]) == set(want[k])
                    for node in got[k]:
                        assert got[k][node] == pytest.approx(want[k][node], abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        hops=st.integers(1, 4),
        direction=st.sampled_from(["in", "out"]),
    )
    def test_oracle_property(self, seed, n, density, hops, direction):
        # density 0 leaves the graph edgeless; above it, 2-cycles and longer
        # cycles make paths revisit nodes and seeds. Rounding is monotone, so
        # extending only each hop's best product loses nothing: the result
        # must equal the oracle's exhaustive path maxima exactly.
        rng = np.random.default_rng(seed)
        edges = []
        for s in range(n):
            for d in range(n):
                if s != d and rng.random() < density:
                    tied = rng.random() < 0.5
                    w = rng.choice([0.25, 0.5, 1.0]) if tied else rng.uniform(0.01, 1.0)
                    edges.append((s, d, float(w)))
        seeds = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
        got = _one_set(self._graph(n, edges), seeds, hops, direction)
        assert got == khop_bruteforce(edges, seeds, hops, direction)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        density=st.sampled_from([0.0, 0.3, 0.7]),
        hops=st.integers(1, 4),
        direction=st.sampled_from(["in", "out"]),
        n_sets=st.integers(0, 12),
    )
    def test_batched_sets_equal_oracle_row_by_row(self, seed, n, density, hops, direction,
                                                  n_sets):
        # many seed sets in one call, with empty, repeated and unsorted sets, tied and
        # zero-score edges and nodes without edges: each row is its own set's result
        rng = np.random.default_rng(seed)
        edges = [(s, d, float(rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.01, 1.0)])))
                 for s in range(n) for d in range(n) if s != d and rng.random() < density]
        sets = [rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
                for _ in range(n_sets)]
        sets += sets[: n_sets // 3]
        got = G.khop_neighbors(self._graph(n, edges), Ragged.from_lists(sets), hops, direction)
        assert len(got) == hops
        for k, hop in enumerate(got):
            assert len(hop) == len(sets) and hop.ids.dtype == np.int64
            assert hop.scores.dtype == np.float64
            for seeds, row in zip(sets, hop.lists()):
                want = khop_bruteforce(edges, seeds, hops, direction)[k]
                assert row == sorted(want.items())

    def test_bad_args(self):
        pkg = self._graph(2, [(0, 1, 0.5)])
        with pytest.raises(ValueError, match="hops"):
            G.khop_neighbors(pkg, Ragged.from_lists([[0]]), 0, "out")
        with pytest.raises(ValueError, match="direction"):
            G.khop_neighbors(pkg, Ragged.from_lists([[0]]), 1, "sideways")
        with pytest.raises(ValueError, match="seed"):
            G.khop_neighbors(pkg, Ragged.from_lists([[0], [9]]), 1, "out")


class TestSerialization:
    def test_round_trip_identical(self, tmp_path):
        from builders import random_graph

        for seed in range(8):
            pkg = random_graph(np.random.default_rng(seed))
            p1, p2 = tmp_path / f"a{seed}.json", tmp_path / f"b{seed}.json"
            G.save_graph(pkg, p1)
            G.save_graph(G.load_graph(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("part, key, value, message", [
        ("edges", "sources", "database", "sources 'database' is not a list drawn from"),
        ("edges", "sources", ["bogus"], r"sources \['bogus'\] is not a list drawn from"),
        ("edges", "src", True, "src True is not a JSON integer"),
        ("edges", "dst", 1.0, "dst 1.0 is not a JSON integer"),
        ("nodes", "node_id", "0", "node_id '0' is not a JSON integer"),
        ("members", "step_index", 0.9, "step_index 0.9 is not a JSON integer"),
        ("members", "headline", 5, "headline 5 is not a string"),
        ("members", "task_id", None, "task_id None is not a string"),
        ("edges", "score", "0.5", r"edge 0->1 score '0\.5' is not a JSON number"),
        ("edges", "score", True, "edge 0->1 score True is not a JSON number"),
        # valid JSON values that make no graph; the graph holds edges (0, 1), (0, 2), (1, 2)
        ("nodes", "members", [], "node 0 has no members"),
        ("nodes", "node_id", 5, r"node ids must be dense 0\.\.N-1 in order"),
        ("edges", "dst", 0, "self-loop on node 0"),
        ("edges", "dst", 2, r"duplicate edge \(0, 2\)"),
        ("edges", "dst", 7, r"edge \(0, 7\) references unknown node"),
        ("edges", "score", 1.5, r"edge \(0, 1\) score 1\.5 outside \[0, 1\]"),
        # tokens Python's json reads but JSON does not have
        ("edges", "score", float("nan"), "NaN is not valid JSON"),
        ("edges", "score", float("inf"), "Infinity is not valid JSON"),
        ("members", "step_index", float("-inf"), "-Infinity is not valid JSON"),
    ])
    def test_wrong_shape_rejected(self, tmp_path, part, key, value, message):
        db, node_of = _db_from_chain([0, 1, 2])
        path = tmp_path / "graph.json"
        G.save_graph(G.assemble_graph(db, node_of, [(0, 1), (1, 2)], {(0, 2): 0.5}), path)
        obj = json.loads(path.read_text())
        target = obj["nodes"][0]["members"][0] if part == "members" else obj[part][0]
        target[key] = value
        path.write_text(json.dumps(obj))
        with pytest.raises(CorpusFormatError, match=rf"graph\.json:1: malformed graph file: {message}"):
            G.load_graph(path)

    def test_integer_score_loads_as_float(self, tmp_path):
        db, node_of = _db_from_chain([0, 1, 2])
        path = tmp_path / "graph.json"
        G.save_graph(G.assemble_graph(db, node_of, [(0, 1), (1, 2)], {}), path)
        obj = json.loads(path.read_text())
        obj["edges"][0]["score"] = 1
        path.write_text(json.dumps(obj))
        score = G.load_graph(path).edges[0].score
        assert type(score) is float and score == 1.0

    def test_assignment_recovery(self):
        # any dense numbering reads back as written, not renumbered by first member
        for numbering in ([0, 1, 0, 2], [2, 0, 2, 1]):
            db, node_of = _db_from_chain(numbering)
            pkg = G.assemble_graph(db, node_of, [], {})
            assert [[m[1] for m in node.members] for node in pkg.nodes] == [
                np.flatnonzero(node_of == n).tolist() for n in range(3)
            ]
            assert pkg.node_of(db).dtype == np.int64
            assert pkg.node_of(db).tolist() == numbering

    def test_stats(self):
        db, node_of = _db_from_chain([0, 1, 0])
        pkg = G.assemble_graph(db, node_of, [(0, 1)], {(0, 1): 0.4, (1, 0): 0.2})
        stats = G.graph_stats(pkg)
        assert stats["num_nodes"] == 2
        assert stats["num_multi_member_nodes"] == 1
        assert stats["num_edges"] == 2
        assert sum(stats["score_histogram"]) == 2

    def test_dot_export(self):
        db, node_of = _db_from_chain([0, 1, 2])
        pkg = G.assemble_graph(db, node_of, [(0, 1), (1, 2)], {})
        dot = G.export_dot(pkg, None, 1)
        assert dot.startswith("digraph")
        assert "n0 -> n1" in dot and "n1 -> n2" in dot
        around = G.export_dot(pkg, around_nodes=[0], hops=1)
        assert "n0 -> n1" in around and "n2" not in around
        # the neighborhood walks edges both ways, one hop per step
        assert "n2" in G.export_dot(pkg, around_nodes=[1], hops=1)
        assert "n2" not in G.export_dot(pkg, around_nodes=[0], hops=1)
        assert "n1 -> n2" in G.export_dot(pkg, around_nodes=[0], hops=2)

    def test_dot_label_escapes_backslash(self):
        # a trailing backslash must not escape the label's closing quote; a double
        # quote still becomes a single one, as it always has
        nodes = [G.StepNode(0, (("t", 0, "press C:\\"),)),
                 G.StepNode(1, (("t", 1, 'say "hi" \\n'),))]
        lines = G.export_dot(G.ProceduralKnowledgeGraph(nodes, []), None, 1).splitlines()
        assert '  n0 [label="0: press C:\\\\"];' in lines
        assert "  n1 [label=\"1: say 'hi' \\\\n\"];" in lines


class TestBuildGraph:
    def _world(self):
        db = StepDatabase.from_tasks([("t0", "a", ["h0", "h1", "h2"])], np.eye(3) * 2.0)
        video = Video(
            video_id="v0",
            corpus_task_name="a",
            segments=np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]),
        )
        return db, SegmentCorpus(videos=[video])

    def test_zero_video_corpus_gives_database_edges_only(self):
        db, _ = self._world()
        pkg = G.build_graph(db, SegmentCorpus(videos=[]), PAPER_DEDUP_THRESHOLD,
                            PAPER_MATCH_THRESHOLD, PAPER_INSTANCE_THRESHOLD)
        assert [(e.src, e.dst) for e in pkg.edges] == [(0, 1), (1, 2)]
        assert all(e.sources == ("database",) for e in pkg.edges)
        assert all(e.score == 1.0 for e in pkg.edges)

    def test_corpus_adds_edges(self):
        db, corpus = self._world()
        pkg = G.build_graph(db, corpus, dedup_threshold=PAPER_DEDUP_THRESHOLD,
                            match_threshold=10.0, instance_threshold=100.0)
        by_pair = {(e.src, e.dst): e for e in pkg.edges}
        assert by_pair[(0, 1)].sources == ("corpus", "database")

    def test_rerun_does_not_change_result(self, tmp_path):
        rng = np.random.default_rng(9)
        from builders import random_corpus, random_database

        db = random_database(rng, n_tasks=3, dim=4)
        corpus = random_corpus(rng, dim=4, n_videos=6)
        a, b = (G.build_graph(db, corpus, dedup_threshold=PAPER_DEDUP_THRESHOLD,
                              match_threshold=0.5, instance_threshold=0.1) for _ in range(2))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        G.save_graph(a, p1)
        G.save_graph(b, p2)
        assert p1.read_bytes() == p2.read_bytes()
