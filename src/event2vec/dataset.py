"""Event vocabularies and sequence datasets.

A dataset is a list of event-id sequences plus the vocabulary mapping
ids back to names. On disk a dataset is JSON Lines: one JSON array of
event-name strings per line.
"""

from __future__ import annotations

import difflib
import json
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError, UsageError
from .fileio import atomic_write_text


class Vocabulary:
    """Immutable bidirectional mapping between event names and ids."""

    def __init__(self, names: Sequence[str]):
        names = list(names)
        if not names:
            raise UsageError("vocabulary must contain at least one event")
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise UsageError(f"event names must be non-empty strings, got {name!r}")
            if name in index:
                raise UsageError(f"duplicate event name: {name!r}")
            index[name] = i
        self._names = tuple(names)
        self._index = index

    @classmethod
    def from_sequences(cls, sequences: Iterable[Sequence[str]]) -> "Vocabulary":
        """Vocabulary of all names seen, in sorted order (deterministic)."""
        seen = {name for seq in sequences for name in seq}
        if not seen:
            raise UsageError("no events found in sequences")
        return cls(sorted(seen))

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._names == other._names

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            close = difflib.get_close_matches(name, self._names, n=3)
            hint = f"; close matches: {', '.join(close)}" if close else ""
            raise UsageError(f"unknown event name: {name!r}{hint}") from None

    def name_of(self, event_id: int) -> str:
        if not 0 <= event_id < len(self._names):
            raise UsageError(f"event id {event_id} out of range [0, {len(self._names)})")
        return self._names[event_id]

    def encode(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.id_of(n) for n in names], dtype=np.int64)

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.name_of(int(i)) for i in ids]


class EventDataset:
    """A vocabulary plus encoded event sequences."""

    def __init__(self, vocab: Vocabulary, sequences: Sequence[np.ndarray]):
        self.vocab = vocab
        checked = []
        for seq in sequences:
            arr = np.asarray(seq, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise UsageError("each sequence must be a non-empty 1-D id array")
            if arr.min() < 0 or arr.max() >= len(vocab):
                raise UsageError("sequence contains ids outside the vocabulary")
            checked.append(arr)
        self.sequences = checked

    @classmethod
    def from_names(
        cls, name_sequences: Sequence[Sequence[str]], vocab: Vocabulary | None = None
    ) -> "EventDataset":
        if vocab is None:
            vocab = Vocabulary.from_sequences(name_sequences)
        return cls(vocab, [vocab.encode(seq) for seq in name_sequences])

    def __len__(self) -> int:
        return len(self.sequences)

    def lengths(self) -> np.ndarray:
        return np.array([len(s) for s in self.sequences], dtype=np.int64)

    def to_names(self) -> list[list[str]]:
        return [self.vocab.decode(seq) for seq in self.sequences]

    def save_jsonl(self, path: str) -> None:
        lines = [json.dumps(self.vocab.decode(seq)) for seq in self.sequences]
        atomic_write_text(path, "\n".join(lines) + "\n")


def load_jsonl(path: str, vocab: Vocabulary | None = None) -> EventDataset:
    """Read a JSONL sequence file.

    Without an explicit vocabulary, one is built from the names seen
    (sorted order, so the mapping is reproducible across runs).
    """
    name_sequences: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not UTF-8 text: {e}") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON: {e}") from None
            if not isinstance(row, list) or not row or not all(isinstance(x, str) for x in row):
                raise DataFormatError(
                    f"{path}:{lineno}: expected a non-empty JSON array of strings"
                )
            name_sequences.append(row)
    if not name_sequences:
        raise DataFormatError(f"{path}: no sequences found")
    if vocab is None:
        vocab = Vocabulary.from_sequences(name_sequences)
    try:
        return EventDataset.from_names(name_sequences, vocab)
    except UsageError as e:
        raise DataFormatError(f"{path}: {e}") from None
