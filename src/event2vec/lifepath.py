"""Synthetic life-path sequences from a guided random walk.

Each sequence starts at a fixed initial event and follows weighted
transitions; at every step there is a small probability of jumping to a
uniformly random event instead. Walks that run past ``max_len`` events
get the terminal event appended, so lengths never exceed
``max_len + 1``. A configurable default graph of life events ships with
the package.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dataset import EventDataset, Vocabulary
from .errors import DataFormatError, UsageError
from .fileio import atomic_write_json, read_json
from .seeding import derive_seed


@dataclass(frozen=True)
class TransitionGraph:
    events: tuple[str, ...]
    start: str
    terminal: str
    transitions: dict[str, tuple[tuple[str, float], ...]]
    explore_prob: float = 0.1
    max_len: int = 16
    description: str = ""

    def __post_init__(self) -> None:
        members = set(self.events)
        if len(members) != len(self.events):
            raise UsageError("graph events must be unique")
        if self.start not in members:
            raise UsageError(f"start event {self.start!r} is not in events")
        if self.terminal not in members:
            raise UsageError(f"terminal event {self.terminal!r} is not in events")
        if not (0.0 <= self.explore_prob <= 1.0):
            raise UsageError(f"explore_prob must lie in [0, 1], got {self.explore_prob}")
        if self.max_len < 1:
            raise UsageError(f"max_len must be >= 1, got {self.max_len}")
        for src, targets in self.transitions.items():
            if src not in members:
                raise UsageError(f"transition source {src!r} is not in events")
            for dst, w in targets:
                if dst not in members:
                    raise UsageError(f"transition target {dst!r} (from {src!r}) is not in events")
                if not (0.0 < w < np.inf):
                    raise UsageError(f"transition weight {src!r}->{dst!r} must be finite and positive, got {w}")
        dead_ends = [
            e for e in self.events if e != self.terminal and not self.transitions.get(e)
        ]
        if dead_ends:
            warnings.warn(
                "non-terminal events without outgoing transitions (reached only via "
                f"exploration, exit via uniform fallback): {', '.join(dead_ends)}",
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        d = {
            "events": list(self.events),
            "start": self.start,
            "terminal": self.terminal,
            "explore_prob": self.explore_prob,
            "max_len": self.max_len,
            "transitions": {src: [[dst, w] for dst, w in tgts] for src, tgts in self.transitions.items()},
        }
        if self.description:
            d["description"] = self.description
        return d

    @staticmethod
    def from_dict(doc: dict) -> "TransitionGraph":
        """Read :meth:`to_dict`'s form; anything malformed raises :class:`DataFormatError`.

        ``max_len`` must be a JSON integer, ``explore_prob`` and the weights JSON numbers.
        """
        try:
            events = tuple(doc["events"])
            transitions = {
                src: tuple((dst, float(_json_number(w, f"transition weight {src!r}->{dst!r}"))) for dst, w in targets)
                for src, targets in doc["transitions"].items()
            }
            return TransitionGraph(
                events=events,
                start=doc["start"],
                terminal=doc["terminal"],
                transitions=transitions,
                explore_prob=float(_json_number(doc.get("explore_prob", 0.1), "explore_prob")),
                max_len=_json_number(doc.get("max_len", 16), "max_len", int),
                description=str(doc.get("description", "")),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise DataFormatError(f"malformed transition graph: {e}") from None


def _json_number(value, field: str, kinds=(int, float)):
    """``value`` if it is a JSON number (integer if ``kinds`` is ``int``); ``true`` and ``"2"`` are neither."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise DataFormatError(f"{field} must be {'an integer' if kinds is int else 'a number'}, got {value!r}")
    return value


def load_graph(path: str) -> TransitionGraph:
    doc = read_json(path, "graph")
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: graph file must hold a JSON object")
    try:
        return TransitionGraph.from_dict(doc)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from None


def save_graph(graph: TransitionGraph, path: str) -> None:
    atomic_write_json(path, graph.to_dict())


def default_graph() -> TransitionGraph:
    """The bundled life-event graph used by the stock experiments."""
    text = resources.files("event2vec").joinpath("data/life_graph.json").read_text("utf-8")
    return TransitionGraph.from_dict(json.loads(text))


class _Sampler:
    """Precomputed cumulative weights per source for O(log k) sampling."""

    def __init__(self, graph: TransitionGraph):
        self.graph = graph
        self.n_events = len(graph.events)
        self.targets: dict[str, list[str]] = {}
        self.cumweights: dict[str, np.ndarray] = {}
        for src, pairs in graph.transitions.items():
            if not pairs:
                continue
            self.targets[src] = [dst for dst, _ in pairs]
            w = np.array([w for _, w in pairs], dtype=np.float64)
            self.cumweights[src] = np.cumsum(w / w.sum())

    def step(self, current: str, rng: np.random.Generator) -> str:
        explore = rng.random() < self.graph.explore_prob
        if not explore and current in self.targets:
            u = rng.random()
            idx = int(np.searchsorted(self.cumweights[current], u, side="right"))
            idx = min(idx, len(self.targets[current]) - 1)
            return self.targets[current][idx]
        # Exploration, or a dead end: uniform over every event.
        return self.graph.events[int(rng.integers(self.n_events))]


def generate_sequence(graph: TransitionGraph, rng_seed: int) -> list[str]:
    """One guided walk from the start event, as a list of event names."""
    rng = np.random.default_rng(rng_seed)
    sampler = _Sampler(graph)
    return _walk(graph, sampler, rng)


def _walk(graph: TransitionGraph, sampler: _Sampler, rng: np.random.Generator) -> list[str]:
    seq = [graph.start]
    current = graph.start
    while current != graph.terminal and len(seq) < graph.max_len:
        current = sampler.step(current, rng)
        seq.append(current)
    if seq[-1] != graph.terminal:
        seq.append(graph.terminal)
    return seq


def generate_dataset(graph: TransitionGraph, n: int, seed: int = 0) -> EventDataset:
    """n independent walks; the vocabulary is the graph's event list (in order)."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    sampler = _Sampler(graph)
    vocab = Vocabulary(graph.events)
    sequences = []
    for i in range(n):
        rng = np.random.default_rng(derive_seed(seed, "generate", i))
        sequences.append(vocab.encode(_walk(graph, sampler, rng)))
    return EventDataset(vocab, sequences)
