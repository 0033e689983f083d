"""Shared test utilities: tiny models, ball samplers, finite-difference gradients,
document corruption and the schema version 1 form, the per-step reference
recurrence built from the public geometry functions and the reference
reconstruction and consistency heads, the per-row
reference rankers and silhouette, the per-trial additivity curve,
the per-pattern occurrence scan and per-occurrence composition, and the
skip-gram pair loss and per-pair training loop."""

import base64

import numpy as np

from event2vec import (
    Geometry,
    ModelParams,
    Vocabulary,
    clip_norm,
    mobius_add,
    poincare_distance,
    project_to_ball,
    total_loss,
)
from event2vec import geometry as geo
from event2vec.baseline import NegativeSampler, _sigmoid
from event2vec.corpus import PatternOccurrence, _word_id, normalize_tag
from event2vec.evaluation import _cosine, _pairwise_distances
from event2vec.fileio import array_field
from event2vec.model import HiddenTrajectory, _dropout_masks, forward
from event2vec.seeding import rng_for

PARAM_ARRAYS = ("embeddings", "decoder_weights", "decoder_bias")


def tiny_params(seed: int, geometry: Geometry, vocab_size: int = 6, dim: int = 4,
                scale: float = 0.1) -> ModelParams:
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"e{i}" for i in range(vocab_size)])
    emb = rng.uniform(-scale, scale, size=(vocab_size, dim))
    if geometry.is_hyperbolic:
        emb = project_to_ball(emb, geometry.c)
    dec_w = rng.normal(0.0, 0.3, size=(vocab_size, dim))
    dec_b = rng.normal(0.0, 0.1, size=vocab_size)
    return ModelParams(geometry, vocab, emb, dec_w, dec_b)


def fd_total_loss_grads(params, seq, lambda_recon=1.0, lambda_consist=1.0,
                        dropout=None, eps=1e-5):
    """Central-difference gradient of total_loss w.r.t. every parameter array."""
    out = {}
    for name in PARAM_ARRAYS:
        arr = getattr(params, name)
        grad = np.zeros_like(arr)
        flat, gf = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = total_loss(params, seq, lambda_recon, lambda_consist, dropout).total
            flat[i] = keep - eps
            lo = total_loss(params, seq, lambda_recon, lambda_consist, dropout).total
            flat[i] = keep
            gf[i] = (hi - lo) / (2.0 * eps)
        out[name] = grad
    return out


def max_rel_err(analytic: dict, numeric: dict, floor: float = 1e-4) -> float:
    """Worst elementwise relative error, with a floor so near-zero entries compare sanely."""
    worst = 0.0
    for key, num in numeric.items():
        an = analytic[key]
        denom = np.maximum(np.maximum(np.abs(an), np.abs(num)), floor)
        worst = max(worst, float((np.abs(an - num) / denom).max()))
    return worst


def poke_first(node, value) -> None:
    """Overwrite the first scalar of a document array in place.

    ``node`` is an encoded array, whose bytes are rewritten without the
    writer's finite check, or nested JSON lists (schema version 1), which
    can also take a non-number such as ``"@"``.
    """
    if isinstance(node, dict):
        arr = array_field(node, "", "")
        arr.flat[0] = value
        node["b64"] = base64.b64encode(arr.tobytes()).decode("ascii")
        return
    while isinstance(node[0], list):
        node = node[0]
    node[0] = value


def to_v1(doc):
    """A checkpoint or train-state document in schema version 1: every
    encoded array as nested lists of numbers."""
    if isinstance(doc, dict):
        if "b64" in doc:
            return array_field(doc, "", "").tolist()
        return {k: 1 if k == "schema_version" else to_v1(v) for k, v in doc.items()}
    return doc


def ball_points(rng: np.random.Generator, n: int, dim: int, c: float,
                max_frac: float = 0.85) -> np.ndarray:
    """Random directions with radii up to max_frac of the ball radius."""
    v = rng.normal(size=(n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = rng.uniform(0.0, max_frac, size=(n, 1)) / np.sqrt(c)
    return v * radii


# ---------------------------------------------------------------------------
# Reference recurrence
# ---------------------------------------------------------------------------
#
# The recurrence as first written: every step calls the public, validating
# geometry functions on 1-row arrays, with one loop per geometry.
# ``model.forward`` and ``model._backward_through_trajectory`` run the same
# arithmetic through unchecked row kernels and must match these byte for
# byte. The reconstruction and consistency heads as first written, with a
# flat and a ball copy each: the model's shared squared-distance head must
# match them byte for byte too.


def reference_forward(params, seq, dropout=None) -> HiddenTrajectory:
    seq = np.asarray(seq, dtype=np.int64)
    t_len, dim = len(seq), params.dim
    g = params.geometry
    emb_rows = params.embeddings[seq]
    masks = None
    if dropout is not None and dropout.rate > 0.0:
        masks = _dropout_masks(dropout, t_len, dim)
        masked = emb_rows * masks
    else:
        masked = emb_rows.copy()
    states = np.zeros((t_len + 1, dim))
    if g.is_hyperbolic:
        inputs = project_to_ball(masked, g.c)
        raw_states = np.empty((t_len, dim))
        for t in range(t_len):
            raw_states[t] = mobius_add(states[t], inputs[t], g.c)
            states[t + 1] = project_to_ball(raw_states[t], g.c)
        return HiddenTrajectory(seq, states, inputs, masked, raw_states, masks)
    inputs = masked
    raw_states = np.cumsum(inputs, axis=0)
    if g.max_norm is None or not np.any(np.sum(raw_states**2, axis=1) > g.max_norm**2):
        states[1:] = raw_states
    else:
        for t in range(t_len):
            raw_states[t] = states[t] + inputs[t]
            states[t + 1] = clip_norm(raw_states[t], g.max_norm)
    return HiddenTrajectory(seq, states, inputs, masked, raw_states, masks)


def reference_backward(params, traj, g_states, acc) -> None:
    g = params.geometry
    t_len = traj.length
    if g.is_hyperbolic:
        c = g.c
        g_inputs = np.empty_like(traj.inputs)
        for t in range(t_len - 1, -1, -1):
            gr = geo._clip_norm_vjp(traj.raw_states[t], geo._ball_limit(c), g_states[t + 1])
            gh_prev, g_inputs[t] = geo._mobius_add_vjp(traj.states[t], traj.inputs[t], c, gr)
            g_states[t] += gh_prev
        g_masked = geo._clip_norm_vjp(traj.masked, geo._ball_limit(c), g_inputs)
    else:
        clipped = g.max_norm is not None and not np.array_equal(traj.raw_states, traj.states[1:])
        if clipped:
            g_masked = np.empty_like(traj.inputs)
            for t in range(t_len - 1, -1, -1):
                gr = geo._clip_norm_vjp(traj.raw_states[t], g.max_norm, g_states[t + 1])
                g_states[t] += gr
                g_masked[t] = gr
        else:
            g_masked = np.cumsum(g_states[1:][::-1], axis=0)[::-1]
    if traj.masks is not None:
        g_masked = g_masked * traj.masks
    np.add.at(acc["embeddings"], traj.sequence, g_masked)


def reference_recon_grads(params, clean, weight, g_states, grads) -> float:
    """The reconstruction head as first written, one flat and one ball copy."""
    g = params.geometry
    emb = params.embeddings[clean.sequence]
    h_prev, h_cur = clean.states[:-1], clean.states[1:]
    if g.is_hyperbolic:
        c = g.c
        back = geo.mobius_add(h_cur, -emb, c)
        m = geo.mobius_add(-back, h_prev, c)
        d = geo._distance_of_difference(m, c)
        value = float(np.sum(d * d))
        if weight != 0.0:
            g_back, g_hprev = geo._poincare_dist_sq_vjp(back, h_prev, m, c, weight)
            g_hcur, g_negemb = geo._mobius_add_vjp(h_cur, -emb, c, g_back)
            g_states[1:] += g_hcur
            g_states[:-1] += g_hprev
            np.add.at(grads["embeddings"], clean.sequence, -g_negemb)
        return value
    delta = h_cur - emb - h_prev
    value = float(np.sum(delta * delta))
    if weight != 0.0:
        gd = 2.0 * weight * delta
        g_states[1:] += gd
        g_states[:-1] -= gd
        np.add.at(grads["embeddings"], clean.sequence, -gd)
    return value


def reference_consist_grads(params, traj_a, traj_b, weight, g_a, g_b) -> float:
    """The consistency head as first written, one flat and one ball copy."""
    g = params.geometry
    a, b = traj_a.states[1:], traj_b.states[1:]
    if g.is_hyperbolic:
        m = geo.mobius_add(-a, b, g.c)
        d = geo._distance_of_difference(m, g.c)
        value = float(np.sum(d * d))
        if weight != 0.0:
            ga, gb = geo._poincare_dist_sq_vjp(a, b, m, g.c, weight)
            g_a[1:] += ga
            g_b[1:] += gb
        return value
    delta = a - b
    value = float(np.sum(delta * delta))
    if weight != 0.0:
        gd = 2.0 * weight * delta
        g_a[1:] += gd
        g_b[1:] -= gd
    return value


# ---------------------------------------------------------------------------
# Reference evaluations
# ---------------------------------------------------------------------------
#
# The rankers and the silhouette as first written: one ``_cosine`` call or
# one Python iteration per row. ``evaluation.analogy``,
# ``evaluation.nearest_neighbors`` and ``evaluation.silhouette`` score whole
# arrays at once and must return the same names, with scores that agree to
# rounding. The additivity curve and pattern composition as first written:
# one sequence or occurrence at a time. ``evaluation.additivity_curve`` and
# ``corpus.compose_vectors`` compose all those of one length together and
# must match these byte for byte.


def _reference_take(names, order, scores, skip, k):
    out = []
    for i in order:
        if int(i) in skip:
            continue
        out.append((names[int(i)], float(scores[int(i)])))
        if len(out) == k:
            break
    return out


def reference_analogy(params, a, b, c, k, exclude_queries=True):
    ids = [params.vocab.id_of(name) for name in (a, b, c)]
    e_a, e_b, e_c = (params.embeddings[i] for i in ids)
    g = params.geometry
    if g.is_hyperbolic:
        target = mobius_add(mobius_add(e_a, -e_b, g.c), e_c, g.c)
        scores = -poincare_distance(params.embeddings, target, g.c)
    else:
        target = e_a - e_b + e_c
        scores = np.array([_cosine(row, target) for row in params.embeddings])
    skip = set(ids) if exclude_queries else set()
    return _reference_take(params.vocab.names, np.argsort(-scores, kind="stable"), scores, skip, k)


def reference_nearest_neighbors(params, event, k):
    query_id = params.vocab.id_of(event)
    query = params.embeddings[query_id]
    g = params.geometry
    if g.is_hyperbolic:
        scores = poincare_distance(params.embeddings, query, g.c)
        order = np.argsort(scores, kind="stable")
    else:
        scores = np.array([_cosine(row, query) for row in params.embeddings])
        order = np.argsort(-scores, kind="stable")
    return _reference_take(params.vocab.names, order, scores, {query_id}, k)


def reference_silhouette(points, labels, metric, c=1.0):
    """(overall, per_cluster) from the per-point loop."""
    x = np.asarray(points, dtype=np.float64)
    labels = [str(label) for label in labels]
    unique = sorted(set(labels))
    dist = _pairwise_distances(x, metric, c)
    members = {lab: np.array([i for i, l in enumerate(labels) if l == lab]) for lab in unique}
    scores = np.zeros(len(x))
    for i in range(len(x)):
        own = members[labels[i]]
        if len(own) == 1:
            continue
        a = dist[i, own].sum() / (len(own) - 1)
        b = min(dist[i, members[lab]].mean() for lab in unique if lab != labels[i])
        denom = max(a, b)
        scores[i] = 0.0 if denom <= 0.0 else (b - a) / denom
    return float(scores.mean()), {lab: float(scores[idx].mean()) for lab, idx in members.items()}


def reference_additivity_curve(params, lengths, num_trials, seed) -> list[float]:
    """Mean cosines ``evaluation.additivity_curve`` must reproduce exactly:
    one ``forward`` call and one ideal sum per trial."""
    rng = rng_for(seed, "eval")
    means = []
    for length in lengths:
        total = 0.0
        for _ in range(num_trials):
            seq = rng.integers(0, params.vocab_size, size=length)
            h = forward(params, seq).final_state
            ideal = params.embeddings[seq].sum(axis=0)
            total += _cosine(h, ideal)
        means.append(total / num_trials)
    return means


def reference_find_pattern_occurrences(corpus, patterns, max_per_pattern, seed):
    """``corpus.find_pattern_occurrences`` as first written: every pattern
    rescans every sentence's tags, comparing a slice at each start."""
    out = []
    for p_index, pattern in enumerate(patterns):
        pattern = tuple(normalize_tag(t) for t in pattern)
        found = []
        for s_index, sent in enumerate(corpus.sentences):
            tags = [tag for _, tag in sent]
            for start in range(0, len(sent) - len(pattern) + 1):
                if tuple(tags[start : start + len(pattern)]) == pattern:
                    tokens = tuple(tok for tok, _ in sent[start : start + len(pattern)])
                    found.append(PatternOccurrence(pattern, tokens, s_index, start))
        if len(found) > max_per_pattern:
            rng = rng_for(seed, "sample", p_index)
            pick = np.sort(rng.choice(len(found), size=max_per_pattern, replace=False))
            found = [found[i] for i in pick]
        out.extend(found)
    return out


def reference_compose_vectors(params, occurrences):
    """``corpus.compose_vectors`` one occurrence at a time: a row sum, or a
    left-to-right Mobius fold in the ball."""
    out = []
    for occ in occurrences:
        ids = [_word_id(params.vocab, tok) for tok in occ.tokens]
        rows = params.embeddings[ids]
        if params.geometry.is_hyperbolic:
            vec = rows[0]
            for row in rows[1:]:
                vec = mobius_add(vec, row, params.geometry.c)
        else:
            vec = rows.sum(axis=0)
        out.append((vec, occ.label))
    return out


# ---------------------------------------------------------------------------
# Reference skip-gram
# ---------------------------------------------------------------------------
#
# The pair loss, written independently of ``baseline._sgd_pair_step`` as the
# oracle its update is checked against, and the training loop as first
# written: one negative draw per pair, the pair update inline.
# ``baseline.train_sgns`` must match the loop byte for byte.


def reference_pair_loss(w_vec, c_vec, neg_vecs) -> float:
    """-log sigmoid(w.c) - sum_i log sigmoid(-w.n_i), with -log sigmoid(x) = log(1 + e^-x)."""
    w_vec = np.asarray(w_vec, dtype=np.float64)
    neg_vecs = np.asarray(neg_vecs, dtype=np.float64).reshape(-1, len(w_vec))
    return float(np.logaddexp(0.0, -(w_vec @ c_vec)) + np.logaddexp(0.0, neg_vecs @ w_vec).sum())


def reference_train_sgns(dataset, config) -> np.ndarray:
    """The input-vector table ``baseline.train_sgns`` must reproduce exactly."""
    vocab_size = len(dataset.vocab)
    counts = np.zeros(vocab_size)
    for seq in dataset.sequences:
        np.add.at(counts, seq, 1)
    sampler = NegativeSampler(counts, config.unigram_power)

    rng = rng_for(config.seed, "sgns")
    w_in = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(vocab_size, config.dim))
    w_out = np.zeros((vocab_size, config.dim))

    lr = config.learning_rate
    for _epoch in range(config.epochs):
        for seq in dataset.sequences:
            n = len(seq)
            for i in range(n):
                center = int(seq[i])
                lo, hi = max(0, i - config.window), min(n, i + config.window + 1)
                for j in range(lo, hi):
                    if j == i:
                        continue
                    context = int(seq[j])
                    negs = sampler.sample(rng, config.negatives)
                    negs = negs[negs != context]
                    w_vec = w_in[center]
                    s_pos = _sigmoid(np.array([w_vec @ w_out[context]]))[0]
                    g_pos = s_pos - 1.0
                    if len(negs):
                        nv = w_out[negs]
                        s_negs = _sigmoid(nv @ w_vec)
                        g_w = g_pos * w_out[context] + s_negs @ nv
                        np.subtract.at(w_out, negs, lr * s_negs[:, None] * w_vec[None, :])
                    else:
                        g_w = g_pos * w_out[context]
                    w_out[context] -= lr * g_pos * w_vec
                    w_in[center] = w_vec - lr * g_w
    return w_in
