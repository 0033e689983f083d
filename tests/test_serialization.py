"""Checkpoint and train-state files: bit-exact round trips of every float64
(signed zeros, subnormals, the largest finite values, rows at the edge of
the ball), file bytes equal to ``json.dumps`` of the document, the
writer's refusal of non-finite arrays, the mode of written files, and the
loading of schema version 1 files, whose arrays are nested lists of
numbers.
"""

import dataclasses
import json
import os
import stat
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from event2vec import EventDataset, Geometry, Vocabulary, fileio, model, trainer
from event2vec.model import ModelParams, load_checkpoint, param_arrays, save_checkpoint
from event2vec.trainer import AdamState, TrainConfig, TrainState, load_train_state, save_train_state, train
from helpers import tiny_params, to_v1

DATA = Path(__file__).parent / "data"
TINY = np.finfo(np.float64).tiny
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, np.nextafter(TINY, 0.0),
               np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0]
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
SMALL_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, TINY]), st.floats(-0.5, 0.5))
# Fractions of the ball radius for one boundary row; the largest lie within an ulp or two of it.
EDGE_RADII = [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0))]


@st.composite
def models(draw):
    """Decoder models in flat or ball geometry whose arrays hold edge-case floats."""
    vocab_size, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shape = (vocab_size, dim)
    if draw(st.booleans()):
        c = draw(st.sampled_from([0.5, 1.0, 2.0]))
        geometry = Geometry("hyperbolic", c=c)
        emb = draw(hnp.arrays(np.float64, shape, elements=SMALL_FLOATS)) * min(1.0, 1.0 / np.sqrt(c))
        if draw(st.booleans()):
            axis = draw(st.integers(0, dim - 1))
            emb[0] = 0.0
            emb[0, axis] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from(EDGE_RADII)) / np.sqrt(c)
        assume(np.all(c * np.sum(emb**2, axis=1) < 1.0))
    else:
        geometry = Geometry("euclidean", max_norm=draw(st.sampled_from([None, 10.0])))
        emb = draw(hnp.arrays(np.float64, shape, elements=FLOATS))
    return ModelParams(
        geometry,
        Vocabulary([f"e{i}" for i in range(vocab_size)]),
        emb,
        draw(hnp.arrays(np.float64, shape, elements=FLOATS)),
        draw(hnp.arrays(np.float64, (vocab_size,), elements=FLOATS)),
    )


def same_bits(a, b) -> bool:
    """Same dtype, shape and bytes (so ``-0.0`` differs from ``0.0``)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_params(p, q):
    assert p.geometry == q.geometry and p.vocab == q.vocab
    for name, arr in param_arrays(p).items():
        assert same_bits(arr, param_arrays(q)[name]), name


ROUND_TRIP = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


class TestRoundTrip:
    @ROUND_TRIP
    @given(params=models())
    def test_checkpoint_is_bit_exact(self, params):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
        assert_same_params(params, loaded)
        assert all(a.flags.writeable for a in param_arrays(loaded).values())

    @ROUND_TRIP
    @given(params=models(), data=st.data())
    def test_train_state_is_bit_exact(self, params, data):
        arrs = param_arrays(params)
        m = {k: data.draw(hnp.arrays(np.float64, a.shape, elements=FLOATS)) for k, a in arrs.items()}
        v = {k: np.abs(data.draw(hnp.arrays(np.float64, a.shape, elements=FLOATS))) for k, a in arrs.items()}
        v["decoder_bias"].flat[0] = -0.0  # v >= 0 admits a negative zero
        state = TrainState(params, AdamState(arrs, m, v, step=data.draw(st.integers(0, 10**6))),
                           next_epoch=data.draw(st.integers(0, 10**6)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.json")
            save_train_state(path, state)
            loaded = load_train_state(path)
        assert_same_params(params, loaded.params)
        for name, moments in (("m", m), ("v", v)):
            for k, a in moments.items():
                assert same_bits(a, getattr(loaded.adam, name)[k]), f"adam.{name}.{k}"
        assert (loaded.adam.step, loaded.next_epoch) == (state.adam.step, state.next_epoch)
        assert all(a.flags.writeable for a in loaded.adam.m.values())


# Names the JSON encoder must escape: quote, backslash, control characters,
# NUL, DEL, non-ASCII, astral-plane and lone-surrogate characters.
ESCAPED_NAMES = ['say "hi"', "back\\slash", "tab\tnew\nline\r", "nul\x00", "del\x7f", "caf\u00e9",
                 "\u4e8b\u4ef6", "astral \U0001f600", "lone \ud800", "\u2028sep"]


def captured(module, save) -> tuple[bytes, dict]:
    """The bytes ``save(path)`` writes, and the document it hands to ``module.write_array_document``."""
    docs = []

    def write(path, doc):
        docs.append(doc)
        fileio.write_array_document(path, doc)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(module, "write_array_document", write):
        path = os.path.join(tmp, "doc.json")
        save(path)
        return Path(path).read_bytes(), docs[0]


def save_model(params):
    return captured(model, lambda path: save_checkpoint(params, path))


def save_state(params, step: int = 7, next_epoch: int = 3):
    adam = AdamState.for_params(param_arrays(params))
    for k, a in adam.m.items():
        a[...] = np.linspace(-1.0, 1.0, a.size).reshape(a.shape)
        adam.v[k][...] = np.abs(a)
    adam.step = step
    return captured(trainer, lambda path: save_train_state(path, TrainState(params, adam, next_epoch=next_epoch)))


def assert_dumps_bytes(content: bytes, doc: dict) -> None:
    assert content == (json.dumps(doc) + "\n").encode("utf-8")


class TestFileIsJsonDumpsOfTheDocument:
    @pytest.mark.parametrize("geometry,with_decoder", [
        (Geometry("euclidean"), True),
        (Geometry("euclidean", max_norm=10.0), True),
        (Geometry("hyperbolic", c=0.5), True),
        (Geometry("euclidean", max_norm=2.5), False),
    ], ids=["flat", "flat-max-norm", "ball", "no-decoder"])
    def test_checkpoint(self, geometry, with_decoder):
        params = tiny_params(50, geometry)
        if not with_decoder:
            params = dataclasses.replace(params, decoder_weights=None, decoder_bias=None)
        content, doc = save_model(params)
        assert doc == model.model_to_doc(params)
        assert_dumps_bytes(content, doc)
        assert ('"decoder_weights": null' in content.decode()) is not with_decoder

    @pytest.mark.parametrize("geometry", [Geometry("euclidean", max_norm=10.0), Geometry("hyperbolic", c=2.0)])
    def test_train_state(self, geometry):
        content, doc = save_state(tiny_params(51, geometry))
        assert_dumps_bytes(content, doc)
        assert set(doc) == {"schema_version", "model", "adam", "next_epoch"}

    def test_names_the_encoder_escapes(self):
        params = tiny_params(52, Geometry("euclidean"), vocab_size=len(ESCAPED_NAMES))
        params = dataclasses.replace(params, vocab=Vocabulary(ESCAPED_NAMES))
        for content, doc in (save_model(params), save_state(params)):
            assert_dumps_bytes(content, doc)
            assert content.isascii()
        assert load_checkpoint_bytes(save_model(params)[0]).vocab == params.vocab

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(params=models(), data=st.data())
    def test_any_names_and_shapes(self, params, data):
        names = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=len(params.vocab),
                                   max_size=len(params.vocab), unique=True))
        params = dataclasses.replace(params, vocab=Vocabulary(names))
        content, doc = save_model(params)
        assert_dumps_bytes(content, doc)
        content, doc = save_state(params, step=data.draw(st.integers(0, 10**9)),
                                  next_epoch=data.draw(st.integers(0, 10**9)))
        assert_dumps_bytes(content, doc)

    def test_any_dict_walks_as_json_dumps(self):
        payload = fileio.encode_array(np.arange(3.0), "x")
        # Only encode_array's own payloads skip the encoder: a plain "b64" key is escaped.
        for doc in ({}, {"a": {}}, {"a": [1, {"b": None}], "c": {"d": payload, "e": "\u00e9"}}, payload,
                    {"b64": 'a"b\\c\n'}):
            parts = []
            fileio._append_json(doc, parts)
            assert "".join(parts) == json.dumps(doc)

    def test_non_finite_metadata_is_refused_like_json_dumps(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_array_document(str(tmp_path / "doc.json"), {"x": 1.0, "y": float("nan")})
        assert list(tmp_path.iterdir()) == []


def load_checkpoint_bytes(content: bytes) -> ModelParams:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        Path(path).write_bytes(content)
        return load_checkpoint(path)


class TestFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_written_files_get_the_mode_open_gives(self, tmp_path, umask):
        params = tiny_params(53, Geometry("euclidean"))
        old = os.umask(umask)
        try:
            (tmp_path / "plain").write_text("")
            save_checkpoint(params, str(tmp_path / "model.json"))
            save_checkpoint(params, str(tmp_path / "model.json"))  # replacing a file too
            save_train_state(str(tmp_path / "state.json"),
                             TrainState(params, AdamState.for_params(param_arrays(params)), next_epoch=0))
            fileio.atomic_write_json(str(tmp_path / "report.json"), {"a": 1})
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["plain", "model.json", "state.json", "report.json"], 0o666 & ~umask)

    def test_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        fileio.atomic_write_json(str(path), {"a": 1})
        with mock.patch.object(os, "replace", side_effect=OSError("disk gone")), pytest.raises(OSError):
            fileio.atomic_write_json(str(path), {"a": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert json.loads(path.read_text()) == {"a": 1}


class TestWriterRefusesNonFinite:
    @pytest.mark.parametrize("field,value", [("embeddings", np.nan), ("decoder_weights", np.inf),
                                             ("decoder_bias", -np.inf)])
    def test_checkpoint(self, tmp_path, field, value):
        params = tiny_params(40, Geometry("euclidean"))
        getattr(params, field).flat[0] = value
        with pytest.raises(ValueError, match=field):
            save_checkpoint(params, str(tmp_path / "model.json"))
        assert list(tmp_path.iterdir()) == []  # neither model.json nor a .tmp-*.part file

    @pytest.mark.parametrize("field", ["embeddings", "adam.m.decoder_weights", "adam.v.decoder_bias"])
    def test_train_state(self, tmp_path, field):
        params = tiny_params(41, Geometry("euclidean"))
        adam = AdamState.for_params(param_arrays(params))
        *moment, name = field.split(".")
        arr = getattr(adam, moment[1])[name] if moment else getattr(params, name)
        arr.flat[0] = np.nan
        with pytest.raises(ValueError, match=field):
            save_train_state(str(tmp_path / "state.json"), TrainState(params, adam, next_epoch=1))
        assert list(tmp_path.iterdir()) == []


class TestVersion1Files:
    """The fixtures were written by the version 1 writer: a one-epoch ball run."""

    def test_checkpoint_loads_its_numbers_exactly(self, tmp_path):
        path = str(DATA / "v1_checkpoint.json")
        doc = json.loads(Path(path).read_text())
        params = load_checkpoint(path)
        assert doc["schema_version"] == 1 and params.geometry == Geometry("hyperbolic", c=1.0)
        for name, arr in param_arrays(params).items():
            assert same_bits(arr, np.array(doc[name], dtype=np.float64)), name
        save_checkpoint(params, str(tmp_path / "v2.json"))
        assert json.loads((tmp_path / "v2.json").read_text())["schema_version"] == 2
        assert_same_params(params, load_checkpoint(str(tmp_path / "v2.json")))

    def test_train_state_loads_its_numbers_exactly(self):
        path = str(DATA / "v1_train_state.json")
        doc = json.loads(Path(path).read_text())
        state = load_train_state(path)
        assert doc["schema_version"] == 1 and (state.adam.step, state.next_epoch) == (3, 1)
        assert_same_params(state.params, load_checkpoint(str(DATA / "v1_checkpoint.json")))
        for name in ("m", "v"):
            for k, a in getattr(state.adam, name).items():
                assert same_bits(a, np.array(doc["adam"][name][k], dtype=np.float64)), f"adam.{name}.{k}"

    def test_resume_from_v1_state_matches_uninterrupted_run(self, tmp_path):
        vocab = Vocabulary([f"e{i}" for i in range(5)])
        ds = EventDataset(vocab, [np.array([(s + t) % 5 for t in range(n)]) for s, n in [(0, 4), (1, 6), (2, 5)]])
        config = dict(dim=3, batch_size=2, seed=0, geometry=Geometry("hyperbolic", c=1.0))
        full, _ = train(ds, TrainConfig(epochs=2, **config))
        state = tmp_path / "state.json"
        train(ds, TrainConfig(epochs=1, **config), state_path=str(state))
        state.write_text(json.dumps(to_v1(json.loads(state.read_text()))))
        resumed, _ = train(ds, TrainConfig(epochs=2, **config), resume_state=load_train_state(str(state)))
        assert_same_params(full, resumed)
