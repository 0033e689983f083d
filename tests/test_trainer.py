"""Trainer tests: config validation, the Adam update against its textbook
definition, bit-level determinism, epoch accounting, and exact resume.
"""

import json
import io
import re

import numpy as np
import pytest

from event2vec import (
    DataFormatError,
    DropoutSpec,
    Geometry,
    NumericalError,
    UsageError,
    EventDataset,
    Vocabulary,
    init_params,
    total_loss,
)
from event2vec.seeding import derive_seed
from event2vec.trainer import (
    AdamState,
    TrainConfig,
    TrainState,
    adam_step,
    load_train_state,
    save_train_state,
    train,
)
from helpers import poke_first, to_v1


def toy_dataset(n: int = 12, seed: int = 0) -> EventDataset:
    """Cyclic sequences with a strongly learnable next-event structure."""
    vocab = Vocabulary([f"e{i}" for i in range(5)])
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n):
        start = int(rng.integers(5))
        length = int(rng.integers(4, 9))
        seqs.append(np.array([(start + t) % 5 for t in range(length)], dtype=np.int64))
    return EventDataset(vocab, seqs)


SMALL = dict(dim=6, epochs=3, batch_size=4, seed=0)


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------


class TestTrainConfig:
    def test_default_geometry_is_clipped_euclidean(self):
        config = TrainConfig()
        assert config.geometry == Geometry("euclidean", max_norm=10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.5},
            {"dim": 0},
            {"adam_beta1": 1.0},
            {"adam_beta2": 0.0},
            {"adam_eps": 0.0},
            {"checkpoint_every": -1},
            {"dim": 2.5},
            {"epochs": float("inf")},
            {"batch_size": True},
            {"seed": 1.0},
            {"learning_rate": float("inf")},
            {"lambda_recon": float("nan")},
            {"adam_eps": float("inf")},
            {"geometry": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(UsageError):
            TrainConfig(**kwargs)

    def test_dict_round_trip(self):
        config = TrainConfig(dim=8, geometry=Geometry("hyperbolic", c=2.0), epochs=7)
        assert TrainConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(UsageError):
            TrainConfig.from_dict({"dim": 4, "momentum": 0.9})


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class TestAdam:
    def test_first_step_matches_definition(self):
        # After one step the bias corrections cancel the (1-beta)
        # factors, so the update is -lr * g / (|g| + eps).
        p0 = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -0.1, 0.0])
        state = AdamState.for_params({"w": p0.copy()})
        config = TrainConfig(learning_rate=0.01)
        adam_step(state, {"w": g}, config)
        expected = p0 - 0.01 * g / (np.abs(g) + config.adam_eps)
        assert np.allclose(state.params["w"], expected, rtol=1e-12, atol=0)
        assert state.step == 1

    def test_two_steps_match_hand_computation(self):
        # Independent route: run the published update equations in the
        # test and demand agreement.
        rng = np.random.default_rng(5)
        p0 = rng.normal(size=(3, 2))
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        config = TrainConfig(learning_rate=0.05)
        state = AdamState.for_params({"w": p0.copy()})
        adam_step(state, {"w": g1}, config)
        adam_step(state, {"w": g2}, config)

        b1, b2, eps, lr = config.adam_beta1, config.adam_beta2, config.adam_eps, 0.05
        m = v = np.zeros_like(p0)
        p = p0.copy()
        for t, g in [(1, g1), (2, g2)]:
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.allclose(state.params["w"], p, rtol=1e-12, atol=0)

    def test_rejects_unknown_or_mismatched_gradients(self):
        state = AdamState.for_params({"w": np.zeros(3)})
        config = TrainConfig()
        with pytest.raises(UsageError):
            adam_step(state, {"q": np.zeros(3)}, config)
        with pytest.raises(UsageError):
            adam_step(state, {"w": np.zeros(4)}, config)


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------


class TestTrain:
    def test_zero_epochs_returns_untouched_init(self):
        ds = toy_dataset()
        config = TrainConfig(dim=6, epochs=0, seed=3)
        params, log = train(ds, config)
        init = init_params(ds.vocab, 6, config.geometry, seed=3)
        assert log == []
        assert np.array_equal(params.embeddings, init.embeddings)
        assert np.array_equal(params.decoder_weights, init.decoder_weights)

    def test_bitwise_deterministic_across_runs(self):
        ds = toy_dataset()
        p1, l1 = train(ds, TrainConfig(**SMALL))
        p2, l2 = train(ds, TrainConfig(**SMALL))
        assert np.array_equal(p1.embeddings, p2.embeddings)
        assert np.array_equal(p1.decoder_weights, p2.decoder_weights)
        assert np.array_equal(p1.decoder_bias, p2.decoder_bias)
        assert [r.mean_total for r in l1] == [r.mean_total for r in l2]

    def test_seed_changes_the_run(self):
        ds = toy_dataset()
        p1, _ = train(ds, TrainConfig(**{**SMALL, "seed": 0}))
        p2, _ = train(ds, TrainConfig(**{**SMALL, "seed": 1}))
        assert not np.array_equal(p1.embeddings, p2.embeddings)

    def test_loss_decreases_on_learnable_data(self):
        ds = toy_dataset(n=20)
        config = TrainConfig(dim=8, epochs=40, seed=0, learning_rate=0.1, dropout_rate=0.0)
        _, log = train(ds, config)
        assert log[-1].mean_total < 0.5 * log[0].mean_total

    def test_epoch_records_are_well_formed(self):
        ds = toy_dataset()
        stream = io.StringIO()
        _, log = train(ds, TrainConfig(**SMALL), log_stream=stream)
        assert [r.epoch for r in log] == [0, 1, 2]
        for r in log:
            assert np.isfinite([r.mean_total, r.mean_pred, r.mean_recon, r.mean_consist]).all()
            assert r.wall_seconds >= 0.0
        lines = [json.loads(s) for s in stream.getvalue().strip().split("\n")]
        assert [ln["epoch"] for ln in lines] == [0, 1, 2]
        assert lines[1]["mean_total"] == log[1].mean_total

    def test_first_epoch_accounting_matches_per_sequence_losses(self):
        # Full-batch first epoch: every sequence is evaluated at the
        # initial parameters, so the logged means must equal means of
        # independently computed per-sequence losses.
        ds = toy_dataset(n=6)
        config = TrainConfig(dim=5, epochs=1, batch_size=100, seed=2, dropout_rate=0.2)
        init = init_params(ds.vocab, 5, config.geometry, seed=2)
        _, log = train(ds, config)
        totals, preds = [], []
        for i, seq in enumerate(ds.sequences):
            spec = DropoutSpec(0.2, derive_seed(2, "dropout", 0, i))
            lb = total_loss(init, seq, config.lambda_recon, config.lambda_consist, spec)
            totals.append(lb.total)
            preds.append(lb.pred)
        assert log[0].mean_total == pytest.approx(float(np.mean(totals)), rel=1e-12)
        assert log[0].mean_pred == pytest.approx(float(np.mean(preds)), rel=1e-12)

    def test_hyperbolic_training_keeps_embeddings_in_ball(self):
        ds = toy_dataset()
        geom = Geometry("hyperbolic", c=1.0)
        config = TrainConfig(dim=4, epochs=4, seed=0, geometry=geom)
        params, log = train(ds, config)
        assert np.all(np.linalg.norm(params.embeddings, axis=1) < geom.ball_radius)
        assert log[-1].mean_total < log[0].mean_total

    def test_rejects_empty_dataset(self):
        ds = toy_dataset()
        empty = EventDataset.__new__(EventDataset)
        empty.vocab = ds.vocab
        empty.sequences = []
        with pytest.raises(UsageError):
            train(empty, TrainConfig(**SMALL))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_raises_numerical_error(self):
        ds = toy_dataset(n=4)
        config = TrainConfig(dim=4, epochs=2, batch_size=1, seed=0, learning_rate=1e160)
        with pytest.raises(NumericalError):
            train(ds, config)


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------


class TestResume:
    def test_resumed_run_is_bitwise_identical(self, tmp_path):
        ds = toy_dataset()
        full_config = TrainConfig(dim=6, epochs=6, batch_size=4, seed=1)
        params_full, log_full = train(ds, full_config)

        # Phase one: stop after two epochs, saving the state.
        state_path = str(tmp_path / "state.json")
        half_config = TrainConfig(dim=6, epochs=2, batch_size=4, seed=1)
        train(ds, half_config, state_path=state_path)

        # Phase two: reload and continue to six.
        state = load_train_state(state_path)
        assert state.next_epoch == 2
        params_res, log_res = train(ds, full_config, resume_state=state)

        assert np.array_equal(params_res.embeddings, params_full.embeddings)
        assert np.array_equal(params_res.decoder_weights, params_full.decoder_weights)
        assert np.array_equal(params_res.decoder_bias, params_full.decoder_bias)
        assert [r.epoch for r in log_res] == [2, 3, 4, 5]
        for resumed, original in zip(log_res, log_full[2:]):
            assert resumed.mean_total == original.mean_total
            assert resumed.mean_pred == original.mean_pred
            assert resumed.mean_recon == original.mean_recon
            assert resumed.mean_consist == original.mean_consist

    def test_state_round_trip_is_exact(self, tmp_path):
        ds = toy_dataset()
        state_path = str(tmp_path / "state.json")
        train(ds, TrainConfig(**SMALL), state_path=state_path)
        state = load_train_state(state_path)
        save_train_state(str(tmp_path / "again.json"), state)
        again = load_train_state(str(tmp_path / "again.json"))
        assert again.adam.step == state.adam.step
        assert again.next_epoch == state.next_epoch
        for key in state.adam.m:
            assert np.array_equal(again.adam.m[key], state.adam.m[key])
            assert np.array_equal(again.adam.v[key], state.adam.v[key])
        assert np.array_equal(again.params.embeddings, state.params.embeddings)

    def test_resume_rejects_mismatched_config(self, tmp_path):
        ds = toy_dataset()
        state_path = str(tmp_path / "state.json")
        train(ds, TrainConfig(**SMALL), state_path=state_path)
        state = load_train_state(state_path)
        with pytest.raises(UsageError):
            train(ds, TrainConfig(**{**SMALL, "dim": 7}), resume_state=state)
        with pytest.raises(UsageError):
            train(
                ds,
                TrainConfig(**SMALL, geometry=Geometry("hyperbolic", c=1.0)),
                resume_state=state,
            )

    def test_resume_rejects_mismatched_vocab(self, tmp_path):
        ds = toy_dataset()
        state_path = str(tmp_path / "state.json")
        train(ds, TrainConfig(**SMALL), state_path=state_path)
        state = load_train_state(state_path)
        other = EventDataset(
            Vocabulary([f"x{i}" for i in range(5)]),
            [np.array([0, 1, 2])],
        )
        with pytest.raises(UsageError):
            train(other, TrainConfig(**SMALL), resume_state=state)

    def test_load_rejects_malformed_state(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(DataFormatError):
            load_train_state(str(missing))

        bad_version = tmp_path / "bad_version.json"
        bad_version.write_text('{"schema_version": 99}')
        with pytest.raises(DataFormatError):
            load_train_state(str(bad_version))

        ds = toy_dataset()
        state_path = tmp_path / "state.json"
        train(ds, TrainConfig(**SMALL), state_path=str(state_path))
        doc = json.loads(state_path.read_text())
        doc["adam"]["m"]["embeddings"] = [[0.0]]
        state_path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_train_state(str(state_path))

    @staticmethod
    def _corrupted_state(tmp_path, corrupt, version: int = 2) -> str:
        state_path = tmp_path / "state.json"
        train(toy_dataset(), TrainConfig(**SMALL), state_path=str(state_path))
        doc = json.loads(state_path.read_text())
        if version == 1:
            doc = to_v1(doc)
        corrupt(doc)
        state_path.write_text(json.dumps(doc))
        return str(state_path)

    INVALID_VALUES = [
        ("embeddings", float("nan")),
        ("decoder_bias", float("inf")),
        ("adam.m.decoder_weights", float("nan")),
        ("adam.v.embeddings", float("inf")),
        ("adam.v.decoder_bias", -1e-3),
    ]

    @pytest.mark.parametrize("field,value", INVALID_VALUES)
    def test_load_rejects_invalid_values(self, tmp_path, field, value, version=2):
        # Errors name model fields bare and Adam buffers as adam.<m|v>.<param>.
        def corrupt(doc):
            *buffer, name = field.split(".")
            owner = doc[buffer[0]][buffer[1]] if buffer else doc["model"]
            poke_first(owner[name], value)

        with pytest.raises(DataFormatError, match=re.escape(field)):
            load_train_state(self._corrupted_state(tmp_path, corrupt, version))

    @pytest.mark.parametrize("field,value", INVALID_VALUES)
    def test_load_rejects_invalid_values_in_v1(self, tmp_path, field, value):
        self.test_load_rejects_invalid_values(tmp_path, field, value, version=1)

    def test_load_rejects_missing_moment_buffer(self, tmp_path):
        path = self._corrupted_state(tmp_path, lambda doc: doc["adam"]["v"].pop("decoder_bias"))
        with pytest.raises(DataFormatError, match=re.escape("adam.v")):
            load_train_state(path)

    @pytest.mark.parametrize("key", ["step", "next_epoch"])
    def test_load_rejects_negative_counters(self, tmp_path, key):
        path = self._corrupted_state(
            tmp_path, lambda doc: (doc["adam"] if key == "step" else doc).__setitem__(key, -1))
        with pytest.raises(DataFormatError, match=key):
            load_train_state(path)

    def test_snapshot_written_when_paths_given(self, tmp_path):
        ds = toy_dataset()
        ckpt = tmp_path / "model.json"
        state = tmp_path / "state.json"
        train(
            ds,
            TrainConfig(dim=6, epochs=5, batch_size=4, seed=0, checkpoint_every=2),
            checkpoint_path=str(ckpt),
            state_path=str(state),
        )
        assert ckpt.exists()
        final = load_train_state(str(state))
        assert final.next_epoch == 5
