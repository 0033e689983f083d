"""Tagged-text ingestion and POS-pattern extraction.

Corpus files hold one sentence per line as space-separated "token/TAG"
pairs (the last slash splits, so tokens may contain slashes). Tokens
are lowercased; tags are normalized to their base form by stripping
everything from the first "-" or "$" and uppercasing, so fused tag
variants fall together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .dataset import EventDataset, Vocabulary
from .errors import DataFormatError, UsageError
from .model import ModelParams
from .seeding import rng_for

UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class TaggedCorpus:
    sentences: tuple[tuple[tuple[str, str], ...], ...]

    def __post_init__(self) -> None:
        if not self.sentences:
            raise UsageError("corpus has no sentences")
        for sent in self.sentences:
            if not sent:
                raise UsageError("corpus contains an empty sentence")

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


def normalize_tag(tag: str) -> str:
    """Base tag form: cut at the first '-' or '$', uppercase."""
    for sep in ("-", "$"):
        pos = tag.find(sep)
        if pos >= 0:
            tag = tag[:pos]
    return tag.upper()


def load_tagged_corpus(path: str) -> TaggedCorpus:
    sentences = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: corpus file is not valid UTF-8: {e}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        pairs = []
        for item in line.split():
            token, sep, tag = item.rpartition("/")
            if not sep or not token or not tag:
                raise DataFormatError(
                    f"{path}:{lineno}: malformed token/TAG pair: {item!r}"
                )
            pairs.append((token.lower(), normalize_tag(tag)))
        sentences.append(tuple(pairs))
    if not sentences:
        raise DataFormatError(f"{path}: corpus file has no sentences")
    return TaggedCorpus(tuple(sentences))


def build_vocab(corpus: TaggedCorpus, min_count: int = 1) -> Vocabulary:
    """Word vocabulary with an UNK slot at id 0.

    Words seen fewer than ``min_count`` times map to UNK. Ids are dense:
    UNK first, then words by descending frequency, ties lexicographic.
    """
    if min_count < 1:
        raise UsageError(f"min_count must be >= 1, got {min_count}")
    freq: dict[str, int] = {}
    for sent in corpus.sentences:
        for token, _ in sent:
            freq[token] = freq.get(token, 0) + 1
    kept = sorted(
        (w for w, c in freq.items() if c >= min_count),
        key=lambda w: (-freq[w], w),
    )
    return Vocabulary([UNK_TOKEN, *kept])


def _word_id(vocab: Vocabulary, token: str) -> int:
    if token in vocab:
        return vocab.id_of(token)
    if UNK_TOKEN in vocab:
        return vocab.id_of(UNK_TOKEN)
    raise UsageError(
        f"token {token!r} is not in the vocabulary and no {UNK_TOKEN!r} entry exists"
    )


def to_sequences(corpus: TaggedCorpus, vocab: Vocabulary) -> EventDataset:
    """One id sequence per sentence; tags are dropped entirely."""
    seqs = [
        np.array([_word_id(vocab, token) for token, _ in sent], dtype=np.int64)
        for sent in corpus.sentences
    ]
    return EventDataset(vocab, seqs)


@dataclass(frozen=True)
class PatternOccurrence:
    pattern: tuple[str, ...]
    tokens: tuple[str, ...]
    sentence_index: int
    start_index: int

    def __post_init__(self) -> None:
        if len(self.pattern) != len(self.tokens):
            raise UsageError("pattern and token lists must have equal length")

    @property
    def label(self) -> str:
        return "-".join(self.pattern)


def parse_patterns(text: str) -> list[tuple[str, ...]]:
    """Parse CLI pattern syntax: comma-separated, dashes within, e.g. "AT-JJ-NN,NN-NN"."""
    patterns = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        tags = tuple(t.strip().upper() for t in chunk.split("-") if t.strip())
        if not tags:
            raise UsageError(f"empty pattern in {text!r}")
        patterns.append(tags)
    if not patterns:
        raise UsageError("no patterns given")
    return patterns


def find_pattern_occurrences(
    corpus: TaggedCorpus,
    patterns: list[tuple[str, ...]],
    max_per_pattern: int = 200,
    seed: int = 0,
) -> list[PatternOccurrence]:
    """All contiguous tag matches, capped per pattern by seeded subsampling.

    Patterns with zero matches are dropped with a warning rather than
    failing the whole extraction.
    """
    if not patterns:
        raise UsageError("patterns must be nonempty")
    if max_per_pattern < 1:
        raise UsageError(f"max_per_pattern must be >= 1, got {max_per_pattern}")
    out: list[PatternOccurrence] = []
    sentence_tags = [tuple(tag for _, tag in sent) for sent in corpus.sentences]
    for p_index, pattern in enumerate(patterns):
        pattern = tuple(normalize_tag(t) for t in pattern)
        n, first = len(pattern), pattern[0]
        found = [
            PatternOccurrence(pattern, tuple(tok for tok, _ in sent[start : start + n]), s_index, start)
            for s_index, (sent, tags) in enumerate(zip(corpus.sentences, sentence_tags))
            for start in range(len(tags) - n + 1)
            if tags[start] == first and tags[start : start + n] == pattern
        ]
        if not found:
            warnings.warn(f"pattern {'-'.join(pattern)} has no occurrences; skipped", stacklevel=2)
            continue
        if len(found) > max_per_pattern:
            rng = rng_for(seed, "sample", p_index)
            pick = np.sort(rng.choice(len(found), size=max_per_pattern, replace=False))
            found = [found[i] for i in pick]
        out.extend(found)
    return out


def compose_vectors(
    params: ModelParams, occurrences: list[PatternOccurrence]
) -> list[tuple[np.ndarray, str]]:
    """Fold each occurrence's word embeddings into a single vector.

    Euclidean composition is the plain sum; hyperbolic composition is
    the left-to-right Mobius fold (order matters there).

    Occurrences of one span length are composed together, in memory
    proportional to the spans themselves; every vector is the one a
    per-occurrence fold gives, bit for bit, and comes back in the
    occurrences' order.
    """
    # Resolved in occurrence order, so an unknown token fails as it did
    # one occurrence at a time.
    ids = [[_word_id(params.vocab, tok) for tok in occ.tokens] for occ in occurrences]
    groups: dict[int, list[int]] = {}
    for i, span in enumerate(ids):
        groups.setdefault(len(span), []).append(i)
    g = params.geometry
    vecs: list = [None] * len(ids)
    for members in groups.values():
        rows = params.embeddings[np.array([ids[i] for i in members], dtype=np.int64)]
        if g.is_hyperbolic:
            folded = rows[:, 0]
            for t in range(1, rows.shape[1]):
                folded = geo.mobius_add(folded, rows[:, t], g.c)
        else:
            folded = rows.sum(axis=1)
        for i, vec in zip(members, folded):
            vecs[i] = vec
    return [(vec, occ.label) for vec, occ in zip(vecs, occurrences)]
