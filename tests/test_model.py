"""Model tests: the additive recurrence, the three losses, hand-checked
gradients, and checkpoint round-trips.

Sources of truth used here:
- closed-form values derived by hand (uniform cross-entropy, the clipped
  reconstruction case, the complementary-mask consistency case);
- central-difference gradients recomputed independently in the tests;
- structural invariants of the recurrence (prefix sums, ball membership,
  left-cancellation event recovery).
"""

import math

import numpy as np
import pytest

from event2vec import (
    DataFormatError,
    DropoutSpec,
    Geometry,
    ModelParams,
    UsageError,
    Vocabulary,
    consistency_seed,
    forward,
    gradients,
    init_params,
    load_checkpoint,
    loss_pred,
    loss_recon,
    mobius_add,
    predict_logits,
    save_checkpoint,
    total_loss,
)
from event2vec.geometry import ATANH_BOUND
from event2vec.model import _dropout_masks, zero_grads
from event2vec.seeding import derive_seed
from helpers import fd_total_loss_grads, max_rel_err, tiny_params, to_v1

EUCLID = Geometry("euclidean")
HYPER = Geometry("hyperbolic", c=1.0)


def _random_seq(rng, vocab_size, length):
    return rng.integers(0, vocab_size, size=length).astype(np.int64)


# ---------------------------------------------------------------------------
# Forward recurrence
# ---------------------------------------------------------------------------


class TestForward:
    def test_initial_state_is_origin(self):
        params = tiny_params(0, EUCLID)
        traj = forward(params, np.array([1, 2, 3]))
        assert np.array_equal(traj.states[0], np.zeros(params.dim))

    def test_euclidean_final_state_is_embedding_sum(self):
        rng = np.random.default_rng(7)
        params = tiny_params(1, EUCLID)
        for length in (1, 2, 5, 9):
            seq = _random_seq(rng, params.vocab_size, length)
            traj = forward(params, seq)
            expected = params.embeddings[seq].sum(axis=0)
            assert np.allclose(traj.final_state, expected, atol=1e-12, rtol=0)

    def test_euclidean_states_are_prefix_sums(self):
        rng = np.random.default_rng(8)
        params = tiny_params(2, EUCLID)
        seq = _random_seq(rng, params.vocab_size, 6)
        traj = forward(params, seq)
        for t in range(len(seq)):
            step = traj.states[t] + params.embeddings[seq[t]]
            assert np.allclose(traj.states[t + 1], step, atol=1e-12, rtol=0)

    def test_clip_caps_state_norms(self):
        geom = Geometry("euclidean", max_norm=0.2)
        params = tiny_params(3, geom, scale=0.15)
        seq = np.array([0, 1, 2, 3, 4, 5, 0, 1])
        traj = forward(params, seq)
        norms = np.linalg.norm(traj.states[1:], axis=1)
        assert np.any(np.linalg.norm(traj.raw_states, axis=1) > geom.max_norm)
        assert np.all(norms <= geom.max_norm + 1e-12)

    def test_clip_preserves_direction(self):
        geom = Geometry("euclidean", max_norm=0.1)
        params = tiny_params(4, geom, scale=0.2)
        seq = np.array([1, 2, 3])
        traj = forward(params, seq)
        for t in range(3):
            raw = traj.raw_states[t]
            state = traj.states[t + 1]
            cosine = raw @ state / (np.linalg.norm(raw) * np.linalg.norm(state))
            assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_clipped_recurrence_steps_from_clipped_state(self):
        # With clipping active the recurrence must feed the *clipped*
        # state forward, not the raw prefix sum.
        geom = Geometry("euclidean", max_norm=0.15)
        params = tiny_params(5, geom, scale=0.2)
        seq = np.array([0, 1, 2, 3])
        traj = forward(params, seq)
        for t in range(len(seq)):
            assert np.allclose(
                traj.raw_states[t], traj.states[t] + traj.inputs[t], atol=1e-12, rtol=0
            )

    def test_hyperbolic_states_stay_in_ball(self):
        geom = Geometry("hyperbolic", c=2.0)
        params = tiny_params(6, geom, scale=0.4)
        seq = np.array([0, 1, 2, 3, 4, 5] * 3)
        traj = forward(params, seq)
        norms = np.linalg.norm(traj.states[1:], axis=1)
        assert np.all(norms < geom.ball_radius)

    def test_hyperbolic_step_recovers_event(self):
        # Left cancellation: combining the previous state's inverse with
        # the next state recovers the event vector that was added, as
        # long as the ball projection stayed inactive.
        params = tiny_params(7, HYPER, scale=0.05)
        seq = np.array([2, 0, 5, 1, 4, 3])
        traj = forward(params, seq)
        assert np.array_equal(traj.raw_states, traj.states[1:])  # projection inactive
        for t in range(len(seq)):
            recovered = mobius_add(-traj.states[t], traj.states[t + 1], 1.0)
            assert np.allclose(recovered, traj.inputs[t], atol=1e-10, rtol=0)

    def test_dropout_mask_values_are_zero_or_inverted_keep(self):
        spec = DropoutSpec(rate=0.25, seed=11)
        masks = _dropout_masks(spec, 50, 8)
        assert set(np.unique(masks)) == {0.0, 1.0 / 0.75}

    def test_dropout_is_deterministic_per_seed(self):
        params = tiny_params(8, EUCLID)
        seq = np.array([1, 2, 3, 4])
        a = forward(params, seq, DropoutSpec(0.4, seed=5))
        b = forward(params, seq, DropoutSpec(0.4, seed=5))
        c = forward(params, seq, DropoutSpec(0.4, seed=6))
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_zero_rate_dropout_equals_clean_pass(self):
        params = tiny_params(9, EUCLID)
        seq = np.array([0, 3, 5])
        clean = forward(params, seq)
        dropped = forward(params, seq, DropoutSpec(0.0, seed=1))
        assert dropped.masks is None
        assert np.array_equal(clean.states, dropped.states)

    def test_rejects_empty_and_out_of_range_sequences(self):
        params = tiny_params(10, EUCLID)
        with pytest.raises(UsageError):
            forward(params, np.array([], dtype=np.int64))
        with pytest.raises(UsageError):
            forward(params, np.array([0, params.vocab_size]))
        with pytest.raises(UsageError):
            forward(params, np.array([-1, 0]))

    def test_dropout_spec_validates_rate(self):
        with pytest.raises(UsageError):
            DropoutSpec(rate=1.0)
        with pytest.raises(UsageError):
            DropoutSpec(rate=-0.1)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


class TestLosses:
    def test_pred_with_zero_decoder_is_uniform_cross_entropy(self):
        # A zero decoder scores every event equally, so each of the
        # T-1 prediction terms is exactly ln(V): 4 * ln(3) here.
        vocab = Vocabulary(["a", "b", "c"])
        params = ModelParams(
            EUCLID,
            vocab,
            embeddings=np.random.default_rng(0).normal(size=(3, 4)) * 0.1,
            decoder_weights=np.zeros((3, 4)),
            decoder_bias=np.zeros(3),
        )
        traj = forward(params, np.array([0, 1, 2, 1, 0]))
        assert loss_pred(params, traj) == pytest.approx(4 * math.log(3), rel=1e-12)

    def test_pred_length_one_sequence_warns_and_returns_zero(self):
        params = tiny_params(11, EUCLID)
        traj = forward(params, np.array([2]))
        with pytest.warns(UserWarning):
            assert loss_pred(params, traj) == 0.0

    def test_recon_is_zero_for_unclipped_euclidean(self):
        rng = np.random.default_rng(12)
        params = tiny_params(12, EUCLID)
        for _ in range(20):
            seq = _random_seq(rng, params.vocab_size, int(rng.integers(1, 10)))
            traj = forward(params, seq)
            assert loss_recon(params, traj) <= 1e-24

    def test_recon_hand_case_with_clipping(self):
        # max_norm=1, e0=(1,0), e1=(0.5,0): the second state clips from
        # (1.5,0) back to (1,0), so stepping back by e1 lands 0.5 away
        # from the previous state and the squared miss is 0.25.
        geom = Geometry("euclidean", max_norm=1.0)
        vocab = Vocabulary(["a", "b"])
        params = ModelParams(
            geom,
            vocab,
            embeddings=np.array([[1.0, 0.0], [0.5, 0.0]]),
            decoder_weights=np.zeros((2, 2)),
            decoder_bias=np.zeros(2),
        )
        traj = forward(params, np.array([0, 1]))
        assert not np.array_equal(traj.raw_states, traj.states[1:])  # clip fired
        assert loss_recon(params, traj) == pytest.approx(0.25, rel=1e-12)

    def test_recon_rejects_masked_trajectories(self):
        params = tiny_params(13, EUCLID)
        traj = forward(params, np.array([0, 1]), DropoutSpec(0.5, seed=0))
        with pytest.raises(UsageError):
            loss_recon(params, traj)

    def test_consist_hand_case_complementary_masks(self):
        # dim=1, rate 0.5: seed 22 keeps only step one, its consistency
        # seed only step two (each scaled by 2). With both embeddings
        # equal to 2 the two state paths are (4, 4) and (0, 4):
        # divergence 16.
        spec = DropoutSpec(0.5, seed=22)
        assert np.array_equal(_dropout_masks(spec, 2, 1), [[2.0], [0.0]])
        assert np.array_equal(_dropout_masks(DropoutSpec(0.5, consistency_seed(22)), 2, 1), [[0.0], [2.0]])
        vocab = Vocabulary(["a", "b"])
        params = ModelParams(
            EUCLID,
            vocab,
            embeddings=np.array([[2.0], [2.0]]),
            decoder_weights=np.zeros((2, 1)),
            decoder_bias=np.zeros(2),
        )
        assert total_loss(params, np.array([0, 1]), dropout=spec).consist == 16.0

    def test_consist_vanishes_without_mask_noise(self):
        params = tiny_params(14, EUCLID)
        seq = np.array([1, 2, 3])
        assert total_loss(params, seq, dropout=DropoutSpec(0.0, seed=0)).consist == 0.0

    def test_consist_matches_state_divergence(self):
        # Independent route: recompute the loss from the two
        # trajectories' states directly.
        params = tiny_params(15, EUCLID)
        seq = np.array([0, 2, 4, 1])
        spec = DropoutSpec(0.3, seed=9)
        value = total_loss(params, seq, dropout=spec).consist
        a = forward(params, seq, spec).states[1:]
        b = forward(params, seq, DropoutSpec(0.3, seed=consistency_seed(9))).states[1:]
        assert value == pytest.approx(float(np.sum((a - b) ** 2)), rel=1e-12)

    def test_total_loss_orchestration_matches_standalone_losses(self):
        params = tiny_params(16, EUCLID)
        seq = np.array([3, 1, 4, 1, 5])
        spec = DropoutSpec(0.3, seed=21)
        breakdown = total_loss(params, seq, lambda_recon=0.7, lambda_consist=1.9, dropout=spec)

        pass_a = forward(params, seq, spec)
        pass_b = forward(params, seq, DropoutSpec(0.3, consistency_seed(spec.seed)))
        pred = loss_pred(params, pass_a)
        recon = loss_recon(params, forward(params, seq))
        consist = float(np.sum((pass_a.states[1:] - pass_b.states[1:]) ** 2))
        assert breakdown.pred == pytest.approx(pred, rel=1e-12)
        assert breakdown.recon == pytest.approx(recon, abs=1e-24)
        assert breakdown.consist == pytest.approx(consist, rel=1e-12)
        assert breakdown.total == pytest.approx(pred + 0.7 * recon + 1.9 * consist, rel=1e-12)

    def test_total_loss_without_dropout_has_no_consistency_term(self):
        params = tiny_params(17, EUCLID)
        breakdown = total_loss(params, np.array([0, 1, 2]))
        assert breakdown.consist == 0.0

    def test_predict_logits_requires_decoder(self):
        params = init_params(Vocabulary(["a", "b"]), 3, EUCLID, with_decoder=False)
        with pytest.raises(UsageError):
            predict_logits(params, np.zeros(3))

    def test_consistency_seed_is_derived_and_stable(self):
        assert consistency_seed(5) == derive_seed(5, "consistency")
        assert consistency_seed(5) == consistency_seed(5)
        assert consistency_seed(5) != 5


# ---------------------------------------------------------------------------
# Gradients vs. central differences
# ---------------------------------------------------------------------------


FD_CASES = [
    ("euclid-plain", Geometry("euclidean"), None, 1e-5),
    ("euclid-clipped", Geometry("euclidean", max_norm=0.15), None, 1e-5),
    ("euclid-dropout", Geometry("euclidean"), DropoutSpec(0.3, seed=4), 1e-5),
    ("hyper-dropout", Geometry("hyperbolic", c=1.5), DropoutSpec(0.3, seed=4), 1e-5),
]


class TestGradients:
    @pytest.mark.parametrize("name,geom,dropout,tol", FD_CASES, ids=[c[0] for c in FD_CASES])
    def test_matches_finite_differences(self, name, geom, dropout, tol):
        params = tiny_params(20, geom, vocab_size=5, dim=3, scale=0.12)
        seq = np.array([1, 1, 3, 0, 2])  # repeated id exercises accumulation
        if name == "euclid-clipped":
            traj = forward(params, seq)
            assert np.any(np.linalg.norm(traj.raw_states, axis=1) > geom.max_norm)
        _, grads = gradients(params, seq, lambda_recon=0.8, lambda_consist=1.3, dropout=dropout)
        fd = fd_total_loss_grads(params, seq, lambda_recon=0.8, lambda_consist=1.3, dropout=dropout)
        assert max_rel_err(grads, fd) < tol

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_matches_finite_differences_where_the_arctanh_guard_fires(self, seed):
        # Ball embeddings near the rim: the two masked passes end almost
        # antipodal, so the consistency head's sqrt(c)|m| reaches
        # ATANH_BOUND, where the computed distance is flat.
        rng = np.random.default_rng(seed)
        params = tiny_params(seed, HYPER, vocab_size=6, dim=4, scale=0.6)
        seq = rng.integers(0, 6, size=5)
        spec = DropoutSpec(0.3, seed=seed)
        a = forward(params, seq, spec).states[1:]
        b = forward(params, seq, DropoutSpec(0.3, consistency_seed(seed))).states[1:]
        assert np.linalg.norm(mobius_add(-a, b, HYPER.c), axis=1).max() >= ATANH_BOUND
        _, grads = gradients(params, seq, lambda_recon=0.8, lambda_consist=1.3, dropout=spec)
        fd = fd_total_loss_grads(params, seq, lambda_recon=0.8, lambda_consist=1.3, dropout=spec)
        assert max_rel_err(grads, fd) < 1e-4

    def test_loss_values_match_total_loss(self):
        params = tiny_params(21, EUCLID)
        seq = np.array([0, 4, 2, 5])
        spec = DropoutSpec(0.2, seed=8)
        via_grad, _ = gradients(params, seq, lambda_recon=0.5, lambda_consist=2.0, dropout=spec)
        direct = total_loss(params, seq, lambda_recon=0.5, lambda_consist=2.0, dropout=spec)
        assert via_grad.pred == direct.pred
        assert via_grad.recon == direct.recon
        assert via_grad.consist == direct.consist
        assert via_grad.total == direct.total

    def test_gradients_are_deterministic(self):
        params = tiny_params(22, HYPER)
        seq = np.array([0, 1, 2, 3])
        spec = DropoutSpec(0.3, seed=2)
        _, g1 = gradients(params, seq, dropout=spec)
        _, g2 = gradients(params, seq, dropout=spec)
        for key in g1:
            assert np.array_equal(g1[key], g2[key])

    def test_into_adds_to_the_callers_arrays(self):
        params = tiny_params(23, HYPER)
        spec = DropoutSpec(0.3, seed=2)
        seq_a, seq_b = np.array([4, 1, 1]), np.array([0, 1, 2, 3])
        _, fresh_a = gradients(params, seq_a, dropout=spec)
        _, fresh_b = gradients(params, seq_b, dropout=spec)
        total = zero_grads(params)
        arrays = dict(total)
        gradients(params, seq_a, dropout=spec, into=total)
        _, returned = gradients(params, seq_b, dropout=spec, into=total)
        assert returned is total
        assert sorted(total) == sorted(fresh_a)
        for key in total:
            assert total[key] is arrays[key]
            expected = fresh_a[key] + fresh_b[key]
            assert np.max(np.abs(total[key] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_gradients_require_decoder(self):
        params = init_params(Vocabulary(["a", "b"]), 3, EUCLID, with_decoder=False)
        with pytest.raises(UsageError):
            gradients(params, np.array([0, 1]))


# ---------------------------------------------------------------------------
# Initialisation
# ---------------------------------------------------------------------------


class TestInitParams:
    def test_embedding_range_and_decoder_zeros(self):
        vocab = Vocabulary([f"e{i}" for i in range(40)])
        params = init_params(vocab, 8, EUCLID, seed=3)
        assert params.embeddings.shape == (40, 8)
        assert np.all(np.abs(params.embeddings) <= 0.5 / 8)
        assert np.array_equal(params.decoder_weights, np.zeros((40, 8)))
        assert np.array_equal(params.decoder_bias, np.zeros(40))

    def test_hyperbolic_init_lies_in_ball(self):
        geom = Geometry("hyperbolic", c=4.0)
        params = init_params(Vocabulary(["a", "b", "c"]), 6, geom, seed=1)
        assert np.all(np.linalg.norm(params.embeddings, axis=1) < geom.ball_radius)

    def test_seed_determinism(self):
        vocab = Vocabulary(["a", "b"])
        p1 = init_params(vocab, 4, EUCLID, seed=9)
        p2 = init_params(vocab, 4, EUCLID, seed=9)
        p3 = init_params(vocab, 4, EUCLID, seed=10)
        assert np.array_equal(p1.embeddings, p2.embeddings)
        assert not np.array_equal(p1.embeddings, p3.embeddings)

    def test_rejects_bad_dim(self):
        with pytest.raises(UsageError):
            init_params(Vocabulary(["a"]), 0, EUCLID)

    def test_params_validation(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(UsageError):
            ModelParams(EUCLID, vocab, np.zeros((3, 2)))  # wrong vocab rows
        with pytest.raises(UsageError):
            ModelParams(EUCLID, vocab, np.zeros((2, 2)), np.zeros((2, 2)), None)
        with pytest.raises(UsageError):
            ModelParams(EUCLID, vocab, np.zeros((2, 2)), np.zeros((2, 3)), np.zeros(2))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoints:
    def test_round_trip_is_bitwise_exact(self, tmp_path):
        # Full-precision floats: awkward values must survive exactly,
        # including subnormals and values with no short decimal form.
        vocab = Vocabulary(["a", "b", "c"])
        emb = np.array(
            [
                [0.1, 1.0 / 3.0, 1e-300],
                [-1.2345678901234567e-5, 2.0 / 7.0, 0.0],
                [1.234567890123e300, -0.1, 5e-324],
            ]
        )
        params = ModelParams(
            EUCLID,
            vocab,
            emb,
            decoder_weights=np.full((3, 3), 1.0 / 7.0),
            decoder_bias=np.array([0.1, -0.2, 1.0 / 3.0]),
        )
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.embeddings, params.embeddings)
        assert np.array_equal(loaded.decoder_weights, params.decoder_weights)
        assert np.array_equal(loaded.decoder_bias, params.decoder_bias)
        assert loaded.geometry == params.geometry
        assert loaded.vocab.names == params.vocab.names

    def test_round_trip_without_decoder(self, tmp_path):
        params = init_params(Vocabulary(["a", "b"]), 3, EUCLID, with_decoder=False)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.decoder_weights is None
        assert loaded.decoder_bias is None
        assert np.array_equal(loaded.embeddings, params.embeddings)

    def test_save_then_save_is_byte_identical(self, tmp_path):
        params = tiny_params(30, EUCLID)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rejects_wrong_schema_version(self, tmp_path):
        params = tiny_params(31, EUCLID)
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(params, path)
        import json

        doc = json.load(open(path))
        doc["schema_version"] = 999
        json.dump(doc, open(path, "w"))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_rejects_missing_keys_and_bad_values(self, tmp_path):
        params = tiny_params(32, EUCLID)
        path = str(tmp_path / "ckpt.json")
        import json

        save_checkpoint(params, path)
        doc = json.load(open(path))
        del doc["embeddings"]
        json.dump(doc, open(path, "w"))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

        save_checkpoint(params, path)
        doc = to_v1(json.load(open(path)))  # a null exists only in the nested-list form
        doc["embeddings"][0][0] = None  # becomes NaN on load
        json.dump(doc, open(path, "w"))
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_rejects_unreadable_and_non_object_files(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_checkpoint(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(DataFormatError):
            load_checkpoint(str(bad))

    def test_copy_is_independent(self):
        params = tiny_params(33, EUCLID)
        dup = params.copy()
        dup.embeddings[0, 0] += 1.0
        assert params.embeddings[0, 0] != dup.embeddings[0, 0]
