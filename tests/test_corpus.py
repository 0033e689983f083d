"""Tagged-corpus tests: parsing and its error reporting, vocabulary
construction, pattern extraction on hand-built sentences, composition
of occurrence vectors, and frozen statistics of the bundled sample.

The bundled-sample numbers (sentence/token/vocab counts, per-pattern
occurrence counts) were computed independently with awk/uniq before
being frozen here.
"""

import numpy as np
import pytest
from importlib import resources

from event2vec import Geometry, ModelParams, UsageError, Vocabulary, mobius_add
from event2vec.errors import DataFormatError
from event2vec.corpus import (
    UNK_TOKEN,
    TaggedCorpus,
    build_vocab,
    compose_vectors,
    find_pattern_occurrences,
    load_tagged_corpus,
    normalize_tag,
    parse_patterns,
    to_sequences,
)
from helpers import reference_find_pattern_occurrences

SAMPLE_PATH = str(resources.files("event2vec").joinpath("data/sample_tagged_corpus.txt"))


def corpus_from(text: str, tmp_path) -> TaggedCorpus:
    path = tmp_path / "corpus.txt"
    path.write_text(text)
    return load_tagged_corpus(str(path))


# ---------------------------------------------------------------------------
# Loading and normalisation
# ---------------------------------------------------------------------------


class TestLoadTaggedCorpus:
    def test_basic_parse(self, tmp_path):
        corp = corpus_from("The/AT dog/NN ran/VBD ./.\n", tmp_path)
        assert len(corp) == 1
        assert corp.sentences[0] == (("the", "AT"), ("dog", "NN"), ("ran", "VBD"), (".", "."))

    def test_tokens_lowercased_tags_normalised(self, tmp_path):
        corp = corpus_from("Fulton/NP-TL County/NN-TL said/vbd\n", tmp_path)
        assert corp.sentences[0] == (("fulton", "NP"), ("county", "NN"), ("said", "VBD"))

    def test_possessive_tag_suffix_stripped(self):
        assert normalize_tag("PP$") == "PP"
        assert normalize_tag("nn-hl") == "NN"
        assert normalize_tag("WDT") == "WDT"

    def test_token_may_contain_slash(self, tmp_path):
        corp = corpus_from("b/w/NN\n", tmp_path)
        assert corp.sentences[0] == (("b/w", "NN"),)

    def test_blank_lines_skipped(self, tmp_path):
        corp = corpus_from("a/AT\n\n\nb/NN\n", tmp_path)
        assert len(corp) == 2

    @pytest.mark.parametrize("bad", ["word", "/NN", "word/"])
    def test_malformed_pair_reports_line_number(self, bad, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(f"good/NN\n{bad}\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_tagged_corpus(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(DataFormatError):
            load_tagged_corpus(str(path))


# ---------------------------------------------------------------------------
# Vocabulary and sequence encoding
# ---------------------------------------------------------------------------


class TestVocabAndSequences:
    def test_unk_first_then_frequency_then_lexicographic(self, tmp_path):
        corp = corpus_from("b/X b/X b/X a/X a/X c/X d/X\n", tmp_path)
        vocab = build_vocab(corp)
        assert vocab.names == (UNK_TOKEN, "b", "a", "c", "d")

    def test_min_count_filters_to_unk(self, tmp_path):
        corp = corpus_from("a/X a/X rare/X\n", tmp_path)
        vocab = build_vocab(corp, min_count=2)
        assert vocab.names == (UNK_TOKEN, "a")
        ds = to_sequences(corp, vocab)
        assert ds.sequences[0].tolist() == [1, 1, 0]

    def test_min_count_validation(self, tmp_path):
        corp = corpus_from("a/X\n", tmp_path)
        with pytest.raises(UsageError):
            build_vocab(corp, min_count=0)

    def test_oov_without_unk_slot_fails(self, tmp_path):
        corp = corpus_from("a/X b/X\n", tmp_path)
        with pytest.raises(UsageError):
            to_sequences(corp, Vocabulary(["a"]))

    def test_tags_are_dropped_from_sequences(self, tmp_path):
        corp = corpus_from("walk/NN walk/VB\n", tmp_path)
        ds = to_sequences(corp, build_vocab(corp))
        assert ds.sequences[0].tolist() == [1, 1]  # one id despite two tags


# ---------------------------------------------------------------------------
# Pattern parsing and extraction
# ---------------------------------------------------------------------------


class TestPatterns:
    def test_parse_patterns(self):
        assert parse_patterns("AT-JJ-NN,NN-NN") == [("AT", "JJ", "NN"), ("NN", "NN")]
        assert parse_patterns(" at-jj , nn-nn ") == [("AT", "JJ"), ("NN", "NN")]
        assert parse_patterns("AT--NN") == [("AT", "NN")]

    @pytest.mark.parametrize("bad", ["", ",,", " - "])
    def test_parse_rejects_empty(self, bad):
        with pytest.raises(UsageError):
            parse_patterns(bad)

    def test_occurrences_record_position_and_tokens(self, tmp_path):
        corp = corpus_from(
            "the/AT red/JJ fox/NN ran/VBD\nhe/PPS saw/VBD the/AT old/JJ barn/NN\n", tmp_path
        )
        occ = find_pattern_occurrences(corp, [("AT", "JJ", "NN")])
        assert len(occ) == 2
        first, second = occ
        assert (first.sentence_index, first.start_index) == (0, 0)
        assert first.tokens == ("the", "red", "fox")
        assert (second.sentence_index, second.start_index) == (1, 2)
        assert second.tokens == ("the", "old", "barn")
        assert first.label == "AT-JJ-NN"

    def test_overlapping_matches_all_found(self, tmp_path):
        corp = corpus_from("barn/NN door/NN hinge/NN\n", tmp_path)
        occ = find_pattern_occurrences(corp, [("NN", "NN")])
        assert [(o.start_index,) for o in occ] == [(0,), (1,)]

    def test_cap_subsamples_deterministically(self, tmp_path):
        lines = "\n".join("a/NN b/NN" for _ in range(50))
        corp = corpus_from(lines + "\n", tmp_path)
        occ1 = find_pattern_occurrences(corp, [("NN", "NN")], max_per_pattern=10, seed=3)
        occ2 = find_pattern_occurrences(corp, [("NN", "NN")], max_per_pattern=10, seed=3)
        occ3 = find_pattern_occurrences(corp, [("NN", "NN")], max_per_pattern=10, seed=4)
        assert len(occ1) == 10
        assert [o.sentence_index for o in occ1] == [o.sentence_index for o in occ2]
        assert [o.sentence_index for o in occ1] != [o.sentence_index for o in occ3]
        # Indices stay in corpus order after subsampling.
        assert sorted(o.sentence_index for o in occ1) == [o.sentence_index for o in occ1]

    def test_zero_match_pattern_warns_and_is_skipped(self, tmp_path):
        corp = corpus_from("a/NN b/NN\n", tmp_path)
        with pytest.warns(UserWarning, match="no occurrences"):
            occ = find_pattern_occurrences(corp, [("ZZ", "QQ"), ("NN", "NN")])
        assert all(o.label == "NN-NN" for o in occ)

    @pytest.mark.parametrize("cap,seed", [(1000, 0), (25, 0), (25, 7)])
    def test_matches_per_pattern_scan(self, cap, seed):
        # The bundled sample with patterns of one to four tags, normalized
        # and not, some capped by the seeded subsample; the skipped ZZ-NN
        # still takes its place in the subsample seeds.
        corp = load_tagged_corpus(SAMPLE_PATH)
        patterns = parse_patterns("AT-JJ-NN,IN-AT-NN,ZZ-NN,PPS-VBD,NN-NN,nn,VBD-AT,at-nn-in-at")
        with pytest.warns(UserWarning, match="ZZ-NN"):
            found = find_pattern_occurrences(corp, patterns, cap, seed)
        assert found == reference_find_pattern_occurrences(corp, patterns, cap, seed)

    def test_validation(self, tmp_path):
        corp = corpus_from("a/NN\n", tmp_path)
        with pytest.raises(UsageError):
            find_pattern_occurrences(corp, [])
        with pytest.raises(UsageError):
            find_pattern_occurrences(corp, [("NN",)], max_per_pattern=0)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _params(geometry: Geometry, names, emb) -> ModelParams:
    return ModelParams(geometry, Vocabulary(names), np.asarray(emb, dtype=float))


class TestComposeVectors:
    def test_euclidean_composition_is_row_sum(self, tmp_path):
        corp = corpus_from("the/AT red/JJ fox/NN\n", tmp_path)
        occ = find_pattern_occurrences(corp, [("AT", "JJ", "NN")])
        emb = np.array([[0.0, 0.0], [1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
        params = _params(Geometry("euclidean"), [UNK_TOKEN, "the", "red", "fox"], emb)
        vecs = compose_vectors(params, occ)
        assert len(vecs) == 1
        vec, label = vecs[0]
        assert label == "AT-JJ-NN"
        assert np.array_equal(vec, np.array([111.0, 222.0]))

    def test_oov_tokens_fall_back_to_unk_row(self, tmp_path):
        corp = corpus_from("the/AT red/JJ fox/NN\n", tmp_path)
        occ = find_pattern_occurrences(corp, [("AT", "JJ", "NN")])
        emb = np.array([[5.0], [1.0], [2.0]])
        params = _params(Geometry("euclidean"), [UNK_TOKEN, "the", "red"], emb)
        (vec, _), = compose_vectors(params, occ)
        assert vec[0] == 1.0 + 2.0 + 5.0  # fox -> UNK

    def test_hyperbolic_composition_is_left_fold(self, tmp_path):
        corp = corpus_from("a/X b/Y c/Z\n", tmp_path)
        occ = find_pattern_occurrences(corp, [("X", "Y", "Z")])
        rng = np.random.default_rng(0)
        emb = rng.uniform(-0.3, 0.3, size=(4, 3))
        params = _params(Geometry("hyperbolic", c=1.0), [UNK_TOKEN, "a", "b", "c"], emb)
        (vec, _), = compose_vectors(params, occ)
        expected = mobius_add(mobius_add(emb[1], emb[2], 1.0), emb[3], 1.0)
        assert np.allclose(vec, expected, atol=1e-15, rtol=0)

    def test_hyperbolic_composition_is_order_sensitive(self, tmp_path):
        corp = corpus_from("a/X b/Y\nb/Y a/X\n", tmp_path)
        occ_ab = find_pattern_occurrences(corp, [("X", "Y")])
        occ_ba = find_pattern_occurrences(corp, [("Y", "X")])
        rng = np.random.default_rng(1)
        emb = rng.uniform(-0.4, 0.4, size=(3, 3))
        params = _params(Geometry("hyperbolic", c=1.0), [UNK_TOKEN, "a", "b"], emb)
        (v_ab, _), = compose_vectors(params, occ_ab)
        (v_ba, _), = compose_vectors(params, occ_ba)
        assert np.linalg.norm(v_ab - v_ba) > 1e-3


# ---------------------------------------------------------------------------
# Bundled sample: frozen statistics
# ---------------------------------------------------------------------------


class TestBundledSample:
    def test_frozen_counts(self):
        corp = load_tagged_corpus(SAMPLE_PATH)
        assert len(corp) == 500
        assert corp.n_tokens == 3946
        assert len(build_vocab(corp, min_count=1)) == 143
        # Every word occurs at least 8 times, so min_count=5 keeps all.
        assert len(build_vocab(corp, min_count=5)) == 143

    def test_frozen_pattern_counts(self):
        corp = load_tagged_corpus(SAMPLE_PATH)
        patterns = parse_patterns("AT-JJ-NN,IN-AT-NN,PPS-VBD,NN-NN")
        occ = find_pattern_occurrences(corp, patterns, max_per_pattern=10**9)
        by_label = {}
        for o in occ:
            by_label[o.label] = by_label.get(o.label, 0) + 1
        assert by_label == {
            "AT-JJ-NN": 296,
            "IN-AT-NN": 201,
            "PPS-VBD": 257,
            "NN-NN": 209,
        }

    def test_every_evaluated_pattern_exceeds_the_cap(self):
        corp = load_tagged_corpus(SAMPLE_PATH)
        patterns = parse_patterns("AT-JJ-NN,IN-AT-NN,PPS-VBD,NN-NN")
        occ = find_pattern_occurrences(corp, patterns, max_per_pattern=200, seed=0)
        assert len(occ) == 800
