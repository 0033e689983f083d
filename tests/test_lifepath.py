"""Guided-random-walk tests: graph validation, walk mechanics on graphs
with hand-computable behaviour, the exploration blend law, and the
bundled life-event graph's structural hygiene.
"""

import json

import numpy as np
import pytest
from scipy import stats

from event2vec.errors import DataFormatError, UsageError
from event2vec.lifepath import (
    TransitionGraph,
    default_graph,
    generate_dataset,
    generate_sequence,
    load_graph,
    save_graph,
)
from event2vec.seeding import derive_seed


def chain_graph(explore: float = 0.0, max_len: int = 10) -> TransitionGraph:
    return TransitionGraph(
        events=("a", "b", "c"),
        start="a",
        terminal="c",
        transitions={"a": (("b", 1.0),), "b": (("c", 1.0),)},
        explore_prob=explore,
        max_len=max_len,
    )


# ---------------------------------------------------------------------------
# Graph validation and serialisation
# ---------------------------------------------------------------------------


class TestTransitionGraph:
    def test_valid_graph_builds(self):
        g = chain_graph()
        assert g.events == ("a", "b", "c")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"events": ("a", "a", "c")},
            {"start": "zz"},
            {"terminal": "zz"},
            {"explore_prob": -0.1},
            {"explore_prob": 1.5},
            {"max_len": 0},
            {"transitions": {"zz": (("b", 1.0),)}},
            {"transitions": {"a": (("zz", 1.0),)}},
            {"transitions": {"a": (("b", 0.0),)}},
            {"transitions": {"a": (("b", -2.0),)}},
            {"transitions": {"a": (("b", float("inf")),)}},
        ],
    )
    def test_rejects_malformed_graphs(self, kwargs):
        base = dict(
            events=("a", "b", "c"),
            start="a",
            terminal="c",
            transitions={"a": (("b", 1.0),), "b": (("c", 1.0),)},
        )
        with pytest.raises(UsageError):
            TransitionGraph(**{**base, **kwargs})

    def test_warns_on_dead_end_events(self):
        with pytest.warns(UserWarning, match="without outgoing"):
            TransitionGraph(
                events=("a", "b", "c"),
                start="a",
                terminal="c",
                transitions={"a": (("c", 1.0),)},  # b is a dead end
            )

    def test_dict_round_trip(self):
        g = chain_graph(explore=0.25, max_len=7)
        assert TransitionGraph.from_dict(g.to_dict()) == g

    def test_from_dict_takes_integers_as_numbers(self):
        doc = chain_graph().to_dict()
        doc["explore_prob"], doc["transitions"]["a"][0][1] = 1, 2
        g = TransitionGraph.from_dict(doc)
        assert g.explore_prob == 1.0 and g.transitions["a"] == (("b", 2.0),)

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(DataFormatError):
            TransitionGraph.from_dict({"events": ["a"]})

    def test_file_round_trip(self, tmp_path):
        g = chain_graph(explore=0.1)
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        assert load_graph(path) == g

    def test_load_rejects_bad_files(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_graph(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(DataFormatError):
            load_graph(str(bad))


# ---------------------------------------------------------------------------
# Walk mechanics on hand-checkable graphs
# ---------------------------------------------------------------------------


class TestWalks:
    def test_deterministic_chain_walk(self):
        # No exploration, single targets: the walk is forced.
        g = chain_graph(explore=0.0)
        for seed in range(5):
            assert generate_sequence(g, seed) == ["a", "b", "c"]

    def test_length_cap_appends_terminal(self):
        # A self-loop never reaches the terminal by itself, so the walk
        # runs to max_len and the terminal is appended afterwards.
        g = TransitionGraph(
            events=("a", "end"),
            start="a",
            terminal="end",
            transitions={"a": (("a", 1.0),)},
            explore_prob=0.0,
            max_len=5,
        )
        assert generate_sequence(g, 0) == ["a", "a", "a", "a", "a", "end"]

    def test_walk_is_seed_deterministic(self):
        g = default_graph()
        assert generate_sequence(g, 7) == generate_sequence(g, 7)
        seqs = {tuple(generate_sequence(g, s)) for s in range(20)}
        assert len(seqs) > 1

    def test_exploration_blend_law_on_hand_graph(self):
        # explore 0.5 with a single listed target makes the first-step
        # law exactly: P(b) = 0.5 + 0.5/3, P(a) = P(c) = 0.5/3.
        g = chain_graph(explore=0.5, max_len=4)
        n = 3000
        first = [generate_sequence(g, derive_seed(0, "eval", 1, i))[1] for i in range(n)]
        counts = np.array([first.count(e) for e in ("a", "b", "c")], dtype=float)
        expected = np.array([0.5 / 3, 0.5 + 0.5 / 3, 0.5 / 3]) * n
        _, p = stats.chisquare(counts, expected)
        assert p > 0.001

    def test_explore_prob_one_is_uniform(self):
        g = chain_graph(explore=1.0, max_len=3)
        n = 3000
        first = [generate_sequence(g, derive_seed(1, "eval", 2, i))[1] for i in range(n)]
        counts = np.array([first.count(e) for e in ("a", "b", "c")], dtype=float)
        _, p = stats.chisquare(counts, np.full(3, n / 3.0))
        assert p > 0.001


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


class TestGenerateDataset:
    def test_shapes_and_vocab_order(self):
        g = default_graph()
        ds = generate_dataset(g, 50, seed=3)
        assert len(ds) == 50
        assert ds.vocab.names == g.events

    def test_every_walk_starts_and_terminates(self):
        g = default_graph()
        ds = generate_dataset(g, 200, seed=1)
        start_id = ds.vocab.id_of(g.start)
        terminal_id = ds.vocab.id_of(g.terminal)
        for seq in ds.sequences:
            assert seq[0] == start_id
            assert seq[-1] == terminal_id
            assert len(seq) <= g.max_len + 1

    def test_matches_per_sequence_generator(self):
        # Dual route: element i of the dataset is the standalone walk
        # under the same derived seed.
        g = default_graph()
        ds = generate_dataset(g, 10, seed=9)
        for i, seq in enumerate(ds.sequences):
            standalone = generate_sequence(g, derive_seed(9, "generate", i))
            assert ds.vocab.decode(seq) == standalone

    def test_seed_determinism_and_variation(self):
        g = default_graph()
        a = generate_dataset(g, 20, seed=4)
        b = generate_dataset(g, 20, seed=4)
        c = generate_dataset(g, 20, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.sequences, b.sequences))
        assert any(not np.array_equal(x, y) for x, y in zip(a.sequences, c.sequences))

    def test_rejects_bad_n(self):
        with pytest.raises(UsageError):
            generate_dataset(default_graph(), 0)


# ---------------------------------------------------------------------------
# Bundled graph hygiene
# ---------------------------------------------------------------------------


class TestBundledGraph:
    def test_basic_shape(self):
        g = default_graph()
        assert len(g.events) == 45
        assert g.start == "birth"
        assert g.terminal == "death"
        assert g.explore_prob == 0.1
        assert g.max_len == 16
        assert g.terminal not in g.transitions

    def test_transition_rows_are_normalised(self):
        g = default_graph()
        for src, row in g.transitions.items():
            total = sum(w for _, w in row)
            assert total == pytest.approx(1.0, abs=1e-9), src
            targets = [dst for dst, _ in row]
            assert len(targets) == len(set(targets)), src

    def test_every_event_reachable_without_exploration(self):
        g = default_graph()
        seen = {g.start}
        frontier = [g.start]
        while frontier:
            nxt = []
            for src in frontier:
                for dst, _ in g.transitions.get(src, ()):
                    if dst not in seen:
                        seen.add(dst)
                        nxt.append(dst)
            frontier = nxt
        assert seen == set(g.events)

    def test_analogy_events_present(self):
        g = default_graph()
        for name in ("marriage", "engagement", "adoption", "parenthood"):
            assert name in g.events

    def test_bundled_file_matches_loader(self):
        from importlib import resources

        text = resources.files("event2vec").joinpath("data/life_graph.json").read_text("utf-8")
        doc = json.loads(text)
        assert TransitionGraph.from_dict(doc) == default_graph()
