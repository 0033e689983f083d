"""The benchmark's four workloads and the closed loop that runs them.

Every workload is one process with one caller: each operation starts
only after the previous one returned. A run sets up its inputs
``SETUP_REPS`` times from the seed, then runs two stages: training
(e2v, and SGNS on words), then evaluation, checkpoints and queries.
Within a stage the phases' operations interleave until each phase has
spent its share of ``--seconds`` and done its minimum repetitions.
Only package calls sit inside the timed regions; checks run outside
them.

With tracing on, odd repetitions of every operation run under the
:class:`tracer.Tracer` and even ones do not, so one run yields the
per-layer figures and the untraced figures that measure the tracing
overhead. README.md gives the reasons for each workload and metric.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources

import numpy as np

from event2vec import baseline, corpus, dataset, evaluation, lifepath, model, trainer
from event2vec.dataset import EventDataset, Vocabulary
from event2vec.geometry import EUCLIDEAN, HYPERBOLIC, Geometry

import checks
from tracer import GEOMETRY_FUNCS, EpochClock, Tracer

SETUP_REPS = 7
TRAINING_PHASES = ("train", "sgns")
QUANTUM_S = 0.25
QUERY_K = 10
N_QUERY_SPECS = 256
ADDITIVITY_LENGTHS = [1, 5, 25, 50]
PATTERNS = "AT-JJ-NN,IN-AT-NN,PPS-VBD,NN-NN"

# Stages named in the bundled graph's description; silhouette labels for life-ball.
LIFE_STAGES = {
    "early_life": ("birth", "infancy", "early_childhood", "elementary_school", "late_childhood", "friendship"),
    "education": ("middle_school", "high_school", "college", "study_abroad", "vocational_training",
                  "internship", "graduation"),
    "career": ("military_service", "job_search", "first_job", "career_start", "promotion", "career_change",
               "job_loss", "leadership_role", "entrepreneurship"),
    "family": ("dating", "engagement", "marriage", "parenthood", "adoption", "relationship_challenge",
               "divorce", "grandparenthood"),
    "health_finances": ("health_issue", "recovery", "investment", "inheritance", "business_success",
                        "financial_hardship", "major_purchase"),
    "leisure": ("travel", "relocation", "volunteer_work", "hobby"),
    "later_life": ("retirement", "terminal_illness", "hospice_care", "death"),
}


@dataclass(frozen=True)
class Spec:
    name: str
    source: str  # "life", "zipf" or "words"
    geometry: Geometry
    dim: int
    dropout: float
    epochs: int  # per train() call; the first is warm-up
    evaluation: str  # "additivity", "stages" or "patterns"
    phases: tuple[tuple[str, float, int], ...]  # (phase, share of --seconds, minimum repetitions)
    n_seqs: int = 0
    vocab_size: int = 0


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("life-clip", "life", Geometry(EUCLIDEAN, max_norm=1.0), dim=32, dropout=0.1, epochs=3,
             evaluation="additivity", n_seqs=1000,
             phases=(("train", 0.5, 2), ("eval", 0.1, 3), ("ckpt", 0.1, 5), ("query", 0.3, 200))),
        Spec("life-ball", "life", Geometry(HYPERBOLIC, c=1.0), dim=32, dropout=0.1, epochs=3,
             evaluation="stages", n_seqs=200,
             phases=(("train", 0.5, 2), ("eval", 0.1, 3), ("ckpt", 0.1, 5), ("query", 0.3, 200))),
        Spec("vocab-10k", "zipf", Geometry(EUCLIDEAN), dim=64, dropout=0.1, epochs=3,
             evaluation="additivity", n_seqs=128, vocab_size=10_000,
             phases=(("train", 0.35, 2), ("eval", 0.05, 3), ("ckpt", 0.2, 2), ("query", 0.4, 200))),
        Spec("words", "words", trainer.TrainConfig().geometry, dim=64, dropout=0.0, epochs=8,
             evaluation="patterns",
             phases=(("train", 0.3, 2), ("sgns", 0.3, 2), ("eval", 0.1, 2), ("ckpt", 0.05, 5),
                     ("query", 0.25, 200))),
    )
}

# Per-layer metrics: name -> (unit, better). Training-scope figures are per
# post-warm-up epoch; the rest are per call of the named function.
PER_LAYER = {
    "trainer.epoch_s": ("s/epoch", "lower"),
    "trainer.self_s": ("s/epoch", "lower"),
    "trainer.adam_step.s": ("s/epoch", "lower"),
    "trainer.adam_step.calls": ("calls/epoch", "lower"),
    "model.gradients.calls": ("calls/epoch", "lower"),
    "model.gradients.self_s": ("s/epoch", "lower"),
    "model.gradients.grad_bytes": ("B/call", "lower"),
    "model.forward.calls_per_seq": ("calls/seq", "lower"),
    "model.forward.s": ("s/epoch", "lower"),
    **{
        f"geometry.{f}.{m}": unit
        for f in GEOMETRY_FUNCS
        for m, unit in (("calls", ("calls/epoch", "lower")), ("rows_per_call", ("rows/call", "higher")),
                        ("s", ("s/epoch", "lower")))
    },
    "baseline.train_sgns.s": ("s/call", "lower"),
    "baseline.NegativeSampler.sample.calls": ("calls/epoch", "lower"),
    "evaluation.analogy.s": ("s/call", "lower"),
    "evaluation.nearest_neighbors.s": ("s/call", "lower"),
    "evaluation.silhouette.s": ("s/call", "lower"),
    "evaluation.additivity_curve.s": ("s/call", "lower"),
    "corpus.find_pattern_occurrences.s": ("s/call", "lower"),
    "corpus.compose_vectors.s": ("s/call", "lower"),
    "model.save_checkpoint.s": ("s/call", "lower"),
    "model.load_checkpoint.s": ("s/call", "lower"),
    "fileio.atomic_write_text.s": ("s/call", "lower"),
    "lifepath.generate_dataset.s": ("s/call", "lower"),
    "dataset.load_jsonl.s": ("s/call", "lower"),
    "corpus.load_tagged_corpus.s": ("s/call", "lower"),
    "corpus.build_vocab.s": ("s/call", "lower"),
    "corpus.to_sequences.s": ("s/call", "lower"),
    "sgns_tok_per_s": ("tok/s", "higher"),
    "silhouette_e2v": ("score", "higher"),
    "silhouette_sgns": ("score", "higher"),
    "trace.train_overhead": ("ratio", "lower"),
    "trace.query_overhead": ("ratio", "lower"),
}

# Per-call metrics: metric -> (phase the calls are made in, traced function).
_CALL_METRICS = {
    "baseline.train_sgns.s": ("sgns", "baseline.train_sgns"),
    "evaluation.analogy.s": ("query", "evaluation.analogy"),
    "evaluation.nearest_neighbors.s": ("query", "evaluation.nearest_neighbors"),
    "evaluation.silhouette.s": ("eval", "evaluation.silhouette"),
    "evaluation.additivity_curve.s": ("eval", "evaluation.additivity_curve"),
    "corpus.find_pattern_occurrences.s": ("eval", "corpus.find_pattern_occurrences"),
    "corpus.compose_vectors.s": ("eval", "corpus.compose_vectors"),
    "model.save_checkpoint.s": ("ckpt", "model.save_checkpoint"),
    "model.load_checkpoint.s": ("ckpt", "model.load_checkpoint"),
    "fileio.atomic_write_text.s": ("ckpt", "fileio.atomic_write_text"),
    "lifepath.generate_dataset.s": ("setup", "lifepath.generate_dataset"),
    "dataset.load_jsonl.s": ("setup", "dataset.load_jsonl"),
    "corpus.load_tagged_corpus.s": ("setup", "corpus.load_tagged_corpus"),
    "corpus.build_vocab.s": ("setup", "corpus.build_vocab"),
    "corpus.to_sequences.s": ("setup", "corpus.to_sequences"),
}


def zipf_dataset(vocab_size: int, n: int, seed: int) -> EventDataset:
    """n sequences of 4-17 events drawn i.i.d. from Zipf(1) over vocab_size events."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, vocab_size + 1)
    lengths = rng.integers(4, 18, size=n)
    ids = rng.choice(vocab_size, size=int(lengths.sum()), p=p / p.sum())
    vocab = Vocabulary([f"e{i:05d}" for i in range(vocab_size)])
    return EventDataset(vocab, np.split(ids, np.cumsum(lengths)[:-1]))


def words_corpus_path() -> str:
    return str(resources.files("event2vec").joinpath("data/sample_tagged_corpus.txt"))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class Run:
    """One benchmark run of one workload: set-up, phases, checks, metrics."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool, workdir: str):
        self.spec, self.seed, self.seconds, self.workdir = spec, seed, seconds, workdir
        self.tracer = Tracer() if trace else None
        self.tally = checks.Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)  # untraced timings
        self.traced_samples: dict[str, list[float]] = defaultdict(list)
        self.config = trainer.TrainConfig(
            epochs=spec.epochs, dropout_rate=spec.dropout, dim=spec.dim, seed=seed, geometry=spec.geometry
        )
        self.sgns_config = baseline.SgnsConfig(dim=spec.dim, epochs=1, seed=seed)
        self.dataset = self.tagged = self.params = self.sgns_params = None
        self.first_params = self.first_sgns = None
        self.final_loss = None
        self.ckpt_mb = None
        self.silhouettes: dict[str, float] = {}

    # -- the closed loop -------------------------------------------------

    def execute(self) -> None:
        for rep in range(SETUP_REPS):
            self.tally.op(self.setup_op, rep)
        self.queries = self._query_specs()
        # Evaluation, checkpoints and queries need trained models, so they form a second stage.
        for training in (True, False):
            self._interleave([p for p in self.spec.phases if (p[0] in TRAINING_PHASES) == training])

    def _interleave(self, phases) -> None:
        """Run the phases' operations interleaved until the stage's time is spent.

        The phase that has used the smallest part of its share so far
        runs next, for at least ``QUANTUM_S``. So every phase takes its
        samples across the whole stage rather than in one burst, which
        would catch whatever the machine happened to be doing then. The
        quantum keeps switches rare: the first query after a checkpoint
        or an evaluation runs on cold caches.
        """
        if not phases:
            return
        spent = {name: 0.0 for name, _, _ in phases}
        reps = {name: 0 for name, _, _ in phases}
        least = {name: n for name, _, n in phases}
        deadline = time.perf_counter() + self.seconds * sum(share for _, share, _ in phases)

        def pending(name: str, now: float) -> bool:
            return reps[name] < least[name] or now < deadline

        while True:
            start = time.perf_counter()
            candidates = [(name, share) for name, share, _ in phases if pending(name, start)]
            if not candidates:
                return
            name, _ = min(candidates, key=lambda p: spent[p[0]] / max(p[1], 1e-9))
            op = getattr(self, f"{name}_op")
            now = start
            while now - start < QUANTUM_S and pending(name, now):
                self.tally.op(op, reps[name])
                reps[name] += 1
                now = time.perf_counter()
            spent[name] += now - start

    def _traced(self, rep: int) -> bool:
        return self.tracer is not None and rep % 2 == 1

    def _call(self, traced: bool, thunk):
        """Run ``thunk`` (under the tracer if ``traced``) and return (result, seconds)."""
        with self.tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = thunk()
            return out, time.perf_counter() - t0

    def _record(self, traced: bool, key: str, value: float) -> None:
        (self.traced_samples if traced else self.samples)[key].append(value)

    # -- operations --------------------------------------------------------

    def setup_op(self, rep: int) -> bool:
        traced = self._traced(rep)
        path = os.path.join(self.workdir, "sequences.jsonl")
        (data, tagged, initial), seconds = self._call(traced, lambda: self._build_inputs(path))
        if traced:
            self.tracer.reduce_calls("setup")
        self._record(traced, "setup_s", seconds)
        ok = len(data) > 0 and checks.all_finite(initial.embeddings)
        if self.dataset is None:
            self.dataset, self.tagged = data, tagged
        else:  # every set-up from the same seed builds the same inputs
            ok = ok and data.vocab == self.dataset.vocab and all(
                np.array_equal(a, b) for a, b in zip(data.sequences, self.dataset.sequences)
            )
        return ok

    def _build_inputs(self, path: str):
        spec, tagged = self.spec, None
        if spec.source == "life":
            generated = lifepath.generate_dataset(lifepath.default_graph(), spec.n_seqs, self.seed)
        elif spec.source == "zipf":
            generated = zipf_dataset(spec.vocab_size, spec.n_seqs, self.seed)
        else:
            tagged = corpus.load_tagged_corpus(words_corpus_path())
            generated = corpus.to_sequences(tagged, corpus.build_vocab(tagged))
        generated.save_jsonl(path)
        data = dataset.load_jsonl(path, generated.vocab)
        initial = model.init_params(data.vocab, spec.dim, spec.geometry, self.seed)
        return data, tagged, initial

    def train_op(self, rep: int) -> bool:
        traced = self._traced(rep)
        clock = EpochClock()
        (params, log), _ = self._call(traced, lambda: trainer.train(self.dataset, self.config, log_stream=clock))
        for record in log[1:]:
            self._record(traced, "epoch_s", record.wall_seconds)
        ok = len(log) == self.spec.epochs and all(
            np.isfinite([r.mean_total, r.mean_pred, r.mean_recon, r.mean_consist]).all() for r in log
        )
        ok = ok and checks.all_finite(params.embeddings, params.decoder_weights, params.decoder_bias)
        if traced:
            for epoch_s, covered in self.tracer.reduce_train(clock, log):
                ok = ok and covered <= epoch_s + 1e-9
        if self.first_params is None:
            self.first_params, self.final_loss = params, log[-1].mean_total
        else:  # same seed, same parameters, traced or not
            ok = ok and checks.same_params(params, self.first_params)
        self.params = params
        return ok

    def sgns_op(self, rep: int) -> bool:
        traced = self._traced(rep)
        params, seconds = self._call(traced, lambda: baseline.train_sgns(self.dataset, self.sgns_config))
        if traced:
            self.tracer.reduce_calls("sgns")
        self._record(traced, "sgns_s", seconds)
        ok = checks.all_finite(params.embeddings)
        if self.first_sgns is None:
            self.first_sgns = params
        else:
            ok = ok and checks.same_params(params, self.first_sgns)
        self.sgns_params = params
        return ok

    def eval_op(self, rep: int) -> bool:
        traced = self._traced(rep)
        values, seconds = self._call(traced, getattr(self, f"_eval_{self.spec.evaluation}"))
        if traced:
            self.tracer.reduce_calls("eval")
        self._record(traced, "eval_s", seconds)
        return all(np.isfinite(v) and -1.0 - 1e-12 <= v <= 1.0 + 1e-12 for v in values)

    def _eval_additivity(self) -> list[float]:
        curve = evaluation.additivity_curve(self.params, ADDITIVITY_LENGTHS, num_trials=100, seed=self.seed)
        return list(curve.mean_cosine)

    def _eval_stages(self) -> list[float]:
        names = self.params.vocab.names
        stage = {event: label for label, events in LIFE_STAGES.items() for event in events}
        report = evaluation.silhouette(
            self.params.embeddings, [stage[n] for n in names], metric="poincare", c=self.params.geometry.c
        )
        self.silhouettes["stages"] = report.overall
        return [report.overall]

    def _eval_patterns(self) -> list[float]:
        occurrences = corpus.find_pattern_occurrences(
            self.tagged, corpus.parse_patterns(PATTERNS), max_per_pattern=200, seed=self.seed
        )
        labels = [occ.label for occ in occurrences]
        for key, params in (("e2v", self.params), ("sgns", self.sgns_params)):
            points = np.array([vec for vec, _ in corpus.compose_vectors(params, occurrences)])
            self.silhouettes[key] = evaluation.silhouette(points, labels, metric="cosine").overall
        return [self.silhouettes["e2v"], self.silhouettes["sgns"]]

    def ckpt_op(self, rep: int) -> bool:
        traced = self._traced(rep)
        path = os.path.join(self.workdir, "model.json")
        _, save_s = self._call(traced, lambda: model.save_checkpoint(self.params, path))
        self.ckpt_mb = os.path.getsize(path) / 1e6
        loaded, load_s = self._call(traced, lambda: model.load_checkpoint(path))
        if traced:
            self.tracer.reduce_calls("ckpt")
        self._record(traced, "ckpt_save_s", save_s)
        self._record(traced, "ckpt_load_s", load_s)
        return checks.same_params(loaded, self.params)

    def _query_specs(self) -> list[tuple[int, ...]]:
        """One analogy (three distinct ids) to two neighbors queries (one id).

        On the ball an analogy costs more than a neighbors query. With an
        even mix the median would sit in the gap between the two and jump
        from run to run; at 1:2 it lies inside the neighbors latencies.
        """
        rng = np.random.default_rng([self.seed, 1])
        size = len(self.dataset.vocab)
        return [
            tuple(int(i) for i in rng.choice(size, 3, replace=False)) if j % 3 == 0 else (int(rng.integers(size)),)
            for j in range(N_QUERY_SPECS)
        ]

    def query_op(self, rep: int) -> bool:
        traced = self._traced(rep)
        names = self.params.vocab.names
        # Traced and untraced repetitions alternate, so under tracing each query runs twice.
        index = rep // 2 if self.tracer is not None else rep
        query = [names[i] for i in self.queries[index % len(self.queries)]]
        if len(query) == 3:
            result, seconds = self._call(traced, lambda: evaluation.analogy(self.params, *query, k=QUERY_K))
            ok = checks.analogy_ok(self.params, *query, QUERY_K, list(result.ranked))
        else:
            result, seconds = self._call(
                traced, lambda: evaluation.nearest_neighbors(self.params, query[0], QUERY_K)
            )
            ok = checks.neighbors_ok(self.params, query[0], QUERY_K, result)
        if traced:
            self.tracer.reduce_calls("query")
        self._record(traced, "query_ms", seconds * 1e3)
        return ok

    # -- results ---------------------------------------------------------

    @property
    def tokens(self) -> int:
        return int(sum(len(s) for s in self.dataset.sequences))

    def clip_share(self) -> float | None:
        """Share of clean-pass steps whose state norm exceeded max_norm, from the final parameters."""
        max_norm = self.spec.geometry.max_norm
        if max_norm is None:
            return None
        fired = 0
        for seq in self.dataset.sequences:
            raw = model.forward(self.params, seq).raw_states
            fired += int(np.sum(np.sum(raw * raw, axis=1) > max_norm**2))
        return fired / self.tokens

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        s = self.samples
        queries = s["query_ms"]
        return {
            "setup_s": (statistics.median(s["setup_s"]), "s"),
            "train_tok_per_s": (self.tokens / statistics.median(s["epoch_s"]), "tok/s"),
            "final_loss": (float(self.final_loss), "loss"),
            "eval_s": (statistics.median(s["eval_s"]), "s"),
            "ckpt_save_s": (statistics.median(s["ckpt_save_s"]), "s"),
            "ckpt_load_s": (statistics.median(s["ckpt_load_s"]), "s"),
            "ckpt_mb": (self.ckpt_mb, "MB"),
            "query_p50_ms": (_percentile(queries, 50), "ms"),
            "query_p95_ms": (_percentile(queries, 95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, float]:
        t = self.tracer
        epochs = max(t.epochs, 1)
        sums = t.epoch_sums
        grad_calls = sums["model.gradients.calls"]
        out = {
            "trainer.epoch_s": sums["trainer.epoch_s"] / epochs,
            "trainer.self_s": sums["trainer.self_s"] / epochs,
            "trainer.adam_step.s": sums["trainer.adam_step.s"] / epochs,
            "trainer.adam_step.calls": sums["trainer.adam_step.calls"] / epochs,
            "model.gradients.calls": grad_calls / epochs,
            "model.gradients.self_s": (sums["model.gradients.s"] - sums["model.gradients.children_s"]) / epochs,
            "model.gradients.grad_bytes": sums["model.gradients.grad_bytes"] / grad_calls if grad_calls else 0.0,
            "model.forward.calls_per_seq": sums["model.forward.calls"] / grad_calls if grad_calls else 0.0,
            "model.forward.s": sums["model.forward.s"] / epochs,
        }
        for f in GEOMETRY_FUNCS:
            calls = sums[f"geometry.{f}.calls"]
            out[f"geometry.{f}.calls"] = calls / epochs
            out[f"geometry.{f}.rows_per_call"] = sums[f"geometry.{f}.rows"] / calls if calls else 0.0
            out[f"geometry.{f}.s"] = sums[f"geometry.{f}.s"] / epochs
        for metric, key in _CALL_METRICS.items():
            calls, seconds = t.calls.get(key, (0, 0.0))
            out[metric] = seconds / calls if calls else 0.0
        sgns_runs = t.calls.get(("sgns", "baseline.train_sgns"), (0, 0.0))[0]
        samples = t.calls.get(("sgns", "baseline.NegativeSampler.sample"), (0, 0.0))[0]
        out["baseline.NegativeSampler.sample.calls"] = (
            samples / (sgns_runs * self.sgns_config.epochs) if sgns_runs else 0.0
        )
        out.update(self.quality())
        untraced, traced = self.samples, self.traced_samples
        out["trace.train_overhead"] = statistics.median(traced["epoch_s"]) / statistics.median(untraced["epoch_s"]) - 1
        out["trace.query_overhead"] = statistics.median(traced["query_ms"]) / statistics.median(untraced["query_ms"]) - 1
        return out

    def quality(self) -> dict[str, float]:
        """SGNS throughput and the composed-pattern silhouettes (words only; 0 elsewhere)."""
        sgns = self.samples["sgns_s"]
        return {
            "sgns_tok_per_s": self.tokens * self.sgns_config.epochs / statistics.median(sgns) if sgns else 0.0,
            "silhouette_e2v": self.silhouettes.get("e2v", 0.0),
            "silhouette_sgns": self.silhouettes.get("sgns", 0.0),
        }

    def report(self) -> dict:
        """Everything the run measured, with its inputs and sample counts."""
        spec = self.spec
        doc = {
            "workload": spec.name,
            "inputs": {
                "sequences": len(self.dataset),
                "tokens": self.tokens,
                "vocab": len(self.dataset.vocab),
                "dim": spec.dim,
                "geometry": spec.geometry.to_dict(),
                "dropout": spec.dropout,
                "epochs_per_train": spec.epochs,
            },
            "samples": {k: len(v) for k, v in self.samples.items()},
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in self.end_to_end().items()},
            "quality": self.quality(),
            "clip_share": self.clip_share(),
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "error_rate": self.tally.failed / self.tally.attempted,
            "failures": self.tally.failures,
        }
        if "stages" in self.silhouettes:
            doc["stage_silhouette"] = self.silhouettes["stages"]
        if self.tracer is not None:
            doc["traced_samples"] = {k: len(v) for k, v in self.traced_samples.items()}
            doc["traced_epochs"] = self.tracer.epochs
        return doc
