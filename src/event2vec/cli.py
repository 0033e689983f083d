"""Command-line pipeline: generate data, train either model, evaluate.

Conventions: reports go to stdout as JSON, progress notes to stderr,
files are written atomically. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import baseline, corpus as corpus_mod, evaluation, lifepath, trainer
from .dataset import load_jsonl
from .errors import DataFormatError, NumericalError, UsageError
from .fileio import atomic_write_json, atomic_write_text, read_json
from .geometry import EUCLIDEAN, HYPERBOLIC, Geometry
from .model import load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

DEFAULT_PATTERNS = "AT-JJ-NN,IN-AT-NN,PPS-VBD,NN-NN"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; we promise 1."""

    def error(self, message):
        raise UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(report: dict, out_path: str | None = None) -> None:
    text = json.dumps(report, indent=2)
    print(text)
    if out_path:
        atomic_write_json(out_path, report)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("EVENT2VEC_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"EVENT2VEC_SEED must be an integer, got {env!r}") from None


def _max_norm_value(text: str):
    if text.lower() == "none":
        return "none"
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--max-norm expects a number or 'none', got {text!r}") from None
    return value


def _load_graph_arg(spec: str) -> lifepath.TransitionGraph:
    if spec == "default":
        return lifepath.default_graph()
    return lifepath.load_graph(spec)


def _load_corpus_arg(spec: str) -> corpus_mod.TaggedCorpus:
    if spec == "sample":
        from importlib import resources

        with resources.as_file(
            resources.files("event2vec").joinpath("data/sample_tagged_corpus.txt")
        ) as path:
            return corpus_mod.load_tagged_corpus(str(path))
    return corpus_mod.load_tagged_corpus(spec)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="event2vec",
        description="Additive recurrent event embeddings: data generation, training, evaluation.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen-life", help="generate synthetic life-path sequences", formatter_class=fmt)
    p.add_argument("--graph", default="default", help="transition graph JSON path, or 'default'")
    p.add_argument("--n", type=int, default=1000, help="number of sequences")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (falls back to EVENT2VEC_SEED, then 0)")
    p.add_argument("--out", default=None, help="output JSONL path")
    p.add_argument("--dump-graph", action="store_true", help="print the graph as JSON and exit")

    p = sub.add_parser("train", help="train an event embedding model", formatter_class=fmt)
    p.add_argument("--data", required=True, help="training sequences (JSONL)")
    p.add_argument("--out", required=True, help="where to write the model checkpoint")
    p.add_argument("--config", default=None, help="JSON file with train config fields (flags override)")
    p.add_argument("--geometry", choices=[EUCLIDEAN, HYPERBOLIC], default=None, help="state space (default euclidean)")
    p.add_argument("--c", type=float, default=None, help="ball curvature parameter, hyperbolic only (default 1.0)")
    p.add_argument("--max-norm", type=_max_norm_value, default=None, metavar="X|none",
                   help="Euclidean state norm clip (default 10.0; 'none' disables)")
    p.add_argument("--dim", type=int, default=None, help="embedding dimension (default 32)")
    p.add_argument("--epochs", type=int, default=None, help="training epochs (default 30)")
    p.add_argument("--batch-size", type=int, default=None, help="sequences per update (default 32)")
    p.add_argument("--lr", type=float, default=None, help="Adam learning rate (default 0.02)")
    p.add_argument("--lambda-recon", type=float, default=None, help="reconstruction loss weight (default 1.0)")
    p.add_argument("--lambda-consist", type=float, default=None, help="consistency loss weight (default 1.0)")
    p.add_argument("--dropout", type=float, default=None, help="embedding dropout rate (default 0.1)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (falls back to EVENT2VEC_SEED, then 0)")
    p.add_argument("--checkpoint-every", type=int, default=None, help="snapshot cadence in epochs (0 = final only)")
    p.add_argument("--log", default=None, help="per-epoch JSONL log path")
    p.add_argument("--state", default=None, help="resumable train state path to maintain")
    p.add_argument("--resume", default=None, help="train state file to continue from")

    p = sub.add_parser("train-sgns", help="train the skip-gram baseline", formatter_class=fmt)
    p.add_argument("--data", required=True, help="training sequences (JSONL)")
    p.add_argument("--out", required=True, help="where to write the embedding checkpoint")
    p.add_argument("--dim", type=int, default=64, help="embedding dimension")
    p.add_argument("--window", type=int, default=5, help="context window half-width")
    p.add_argument("--negatives", type=int, default=5, help="negative samples per pair")
    p.add_argument("--epochs", type=int, default=5, help="training epochs")
    p.add_argument("--lr", type=float, default=0.025, help="SGD learning rate")
    p.add_argument("--unigram-power", type=float, default=0.75, help="negative-sampling distortion")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (falls back to EVENT2VEC_SEED, then 0)")

    p = sub.add_parser("eval-additivity", help="cosine between running state and ideal sum", formatter_class=fmt)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--lengths", default="1,2,5,10,20,50,100", help="comma-separated sequence lengths")
    p.add_argument("--trials", type=int, default=100, help="random sequences per length")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (falls back to EVENT2VEC_SEED, then 0)")
    p.add_argument("--out", default=None, help="also write the report JSON here")

    p = sub.add_parser("eval-analogy", help="rank events against A - B + C", formatter_class=fmt)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--a", required=True, help="event A")
    p.add_argument("--b", required=True, help="event B")
    p.add_argument("--c", dest="c_event", required=True, help="event C")
    p.add_argument("--k", type=int, default=5, help="entries to return")
    p.add_argument("--keep-queries", action="store_true", help="allow A, B, C in the ranking")
    p.add_argument("--out", default=None, help="also write the report JSON here")

    p = sub.add_parser("eval-silhouette", help="cluster quality of composed pattern vectors", formatter_class=fmt)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--corpus", default="sample", help="tagged corpus path, or 'sample'")
    p.add_argument("--patterns", default=DEFAULT_PATTERNS, help="comma-separated dash-joined tag patterns")
    p.add_argument("--max-per-pattern", type=int, default=200, help="occurrence cap per pattern")
    p.add_argument("--metric", choices=list(evaluation.SILHOUETTE_METRICS), default="cosine", help="distance metric")
    p.add_argument("--seed", type=int, default=None, help="subsampling seed (falls back to EVENT2VEC_SEED, then 0)")
    p.add_argument("--out", default=None, help="also write the report JSON here")

    p = sub.add_parser("neighbors", help="nearest vocabulary entries to an event", formatter_class=fmt)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--event", required=True, help="query event name")
    p.add_argument("--k", type=int, default=10, help="neighbors to return")
    p.add_argument("--out", default=None, help="also write the report JSON here")

    p = sub.add_parser("export-pca", help="project embeddings to 2-D/3-D CSV", formatter_class=fmt)
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--dim", type=int, choices=[2, 3], default=2, help="projection dimension")
    p.add_argument("--events", default=None, help="comma-separated subset of events (default: all)")

    p = sub.add_parser("corpus-prepare", help="convert a tagged corpus to training JSONL", formatter_class=fmt)
    p.add_argument("--corpus", default="sample", help="tagged corpus path, or 'sample'")
    p.add_argument("--min-count", type=int, default=1, help="words below this frequency become <unk>")
    p.add_argument("--out", required=True, help="output JSONL path")

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_gen_life(args) -> int:
    graph = _load_graph_arg(args.graph)
    if args.dump_graph:
        print(json.dumps(graph.to_dict(), indent=2))
        return EXIT_OK
    if args.out is None:
        raise UsageError("--out is required unless --dump-graph is given")
    dataset = lifepath.generate_dataset(graph, args.n, _resolve_seed(args.seed))
    dataset.save_jsonl(args.out)
    lengths = dataset.lengths()
    _emit(
        {
            "out": args.out,
            "n_sequences": len(dataset),
            "vocab_size": len(dataset.vocab),
            "min_length": int(lengths.min()),
            "max_length": int(lengths.max()),
        }
    )
    return EXIT_OK


def _train_config_from_args(args) -> trainer.TrainConfig:
    fields: dict = {}
    if args.config is not None:
        fields = read_json(args.config, "--config")
        if not isinstance(fields, dict):
            raise DataFormatError(f"--config {args.config} must hold a JSON object")
        # A bad value in the file is a data error (exit 2); an unknown field
        # stays a usage error (exit 1), raised with the flags below.
        known = {k: v for k, v in fields.items() if k in trainer.TrainConfig.__dataclass_fields__}
        try:
            trainer.TrainConfig.from_dict(known)
        except (ValueError, TypeError) as e:
            raise DataFormatError(f"--config {args.config}: {e}") from None

    def put(key, value):
        if value is not None:
            fields[key] = value

    put("epochs", args.epochs)
    put("batch_size", args.batch_size)
    put("learning_rate", args.lr)
    put("lambda_recon", args.lambda_recon)
    put("lambda_consist", args.lambda_consist)
    put("dropout_rate", args.dropout)
    put("dim", args.dim)
    put("checkpoint_every", args.checkpoint_every)
    put("seed", args.seed if args.seed is not None else (None if "seed" in fields else _resolve_seed(None)))

    # The file's geometry is read as Geometry.from_dict reads it; the
    # kind's default applies when the file has none or --geometry
    # switches kind. Flags then override single values.
    default = trainer.TrainConfig().geometry
    geometry = Geometry.from_dict(fields["geometry"]) if "geometry" in fields else default
    if args.geometry is not None and args.geometry != geometry.kind:
        geometry = default if args.geometry == default.kind else Geometry(args.geometry)
    if geometry.is_hyperbolic:
        if args.max_norm is not None:
            raise UsageError("--max-norm applies to euclidean geometry only")
        if args.c is not None:
            geometry = Geometry(HYPERBOLIC, c=args.c)
    else:
        if args.c is not None:
            raise UsageError("--c applies to hyperbolic geometry only")
        if args.max_norm is not None:
            geometry = Geometry(EUCLIDEAN, max_norm=None if args.max_norm == "none" else args.max_norm)
    fields["geometry"] = geometry
    return trainer.TrainConfig.from_dict(fields)


def _cmd_train(args) -> int:
    config = _train_config_from_args(args)
    dataset = load_jsonl(args.data)
    resume_state = trainer.load_train_state(args.resume) if args.resume else None
    _log(f"training on {len(dataset)} sequences (vocab {len(dataset.vocab)}, dim {config.dim}, "
         f"{config.geometry.kind}) for {config.epochs} epochs")
    log_stream = None
    try:
        if args.log:
            log_stream = open(args.log, "w", encoding="utf-8")
        params, log = trainer.train(
            dataset,
            config,
            resume_state=resume_state,
            checkpoint_path=args.out,
            state_path=args.state,
            log_stream=log_stream,
        )
    finally:
        if log_stream is not None:
            log_stream.close()
    report = {
        "out": args.out,
        "epochs_run": len(log),
        "n_sequences": len(dataset),
        "vocab_size": len(dataset.vocab),
        "geometry": params.geometry.to_dict(),
        "dim": params.dim,
    }
    if log:
        report["final"] = {k: v for k, v in asdict(log[-1]).items() if k != "wall_seconds"}
    _emit(report)
    return EXIT_OK


def _cmd_train_sgns(args) -> int:
    dataset = load_jsonl(args.data)
    config = baseline.SgnsConfig(
        dim=args.dim,
        window=args.window,
        negatives=args.negatives,
        epochs=args.epochs,
        learning_rate=args.lr,
        seed=_resolve_seed(args.seed),
        unigram_power=args.unigram_power,
    )
    _log(f"training SGNS on {len(dataset)} sequences (vocab {len(dataset.vocab)}, dim {config.dim})")
    params = baseline.train_sgns(dataset, config)
    save_checkpoint(params, args.out)
    _emit({"out": args.out, "n_sequences": len(dataset), "vocab_size": len(dataset.vocab), "dim": config.dim})
    return EXIT_OK


def _parse_lengths(text: str) -> list[int]:
    try:
        lengths = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--lengths expects comma-separated integers, got {text!r}") from None
    if not lengths:
        raise UsageError("--lengths is empty")
    return lengths


def _cmd_eval_additivity(args) -> int:
    params = load_checkpoint(args.model)
    curve = evaluation.additivity_curve(
        params, _parse_lengths(args.lengths), num_trials=args.trials, seed=_resolve_seed(args.seed)
    )
    _emit(curve.to_dict(), args.out)
    return EXIT_OK


def _cmd_eval_analogy(args) -> int:
    params = load_checkpoint(args.model)
    result = evaluation.analogy(
        params, args.a, args.b, args.c_event, k=args.k, exclude_queries=not args.keep_queries
    )
    _emit(result.to_dict(), args.out)
    return EXIT_OK


def _cmd_eval_silhouette(args) -> int:
    params = load_checkpoint(args.model)
    corpus = _load_corpus_arg(args.corpus)
    patterns = corpus_mod.parse_patterns(args.patterns)
    occurrences = corpus_mod.find_pattern_occurrences(
        corpus, patterns, max_per_pattern=args.max_per_pattern, seed=_resolve_seed(args.seed)
    )
    if not occurrences:
        raise UsageError(f"no occurrences of any pattern in {args.patterns!r}")
    vectors = corpus_mod.compose_vectors(params, occurrences)
    points = np.array([v for v, _ in vectors])
    labels = [label for _, label in vectors]
    ball_c = params.geometry.c if params.geometry.is_hyperbolic else 1.0
    report = evaluation.silhouette(points, labels, metric=args.metric, c=ball_c)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_neighbors(args) -> int:
    params = load_checkpoint(args.model)
    ranked = evaluation.nearest_neighbors(params, args.event, args.k)
    _emit({"event": args.event, "neighbors": [[name, score] for name, score in ranked]}, args.out)
    return EXIT_OK


def _cmd_export_pca(args) -> int:
    params = load_checkpoint(args.model)
    if args.events:
        names = [n.strip() for n in args.events.split(",") if n.strip()]
        if not names:
            raise UsageError("--events is empty")
        ids = [params.vocab.id_of(n) for n in names]
    else:
        names = list(params.vocab.names)
        ids = list(range(len(names)))
    projected, ratios = evaluation.pca_project(params.embeddings[ids], out_dim=args.dim)
    header = ["x", "y", "z"][: args.dim] + ["label"]
    lines = [",".join(header)]
    for row, name in zip(projected, names):
        lines.append(",".join([repr(float(v)) for v in row] + [name]))
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    _emit({"out": args.out, "n_points": len(names), "explained_variance": [float(r) for r in ratios]})
    return EXIT_OK


def _cmd_corpus_prepare(args) -> int:
    corpus = _load_corpus_arg(args.corpus)
    vocab = corpus_mod.build_vocab(corpus, min_count=args.min_count)
    dataset = corpus_mod.to_sequences(corpus, vocab)
    dataset.save_jsonl(args.out)
    _emit(
        {
            "out": args.out,
            "n_sequences": len(dataset),
            "n_tokens": int(dataset.lengths().sum()),
            "vocab_size": len(vocab),
        }
    )
    return EXIT_OK


_COMMANDS = {
    "gen-life": _cmd_gen_life,
    "train": _cmd_train,
    "train-sgns": _cmd_train_sgns,
    "eval-additivity": _cmd_eval_additivity,
    "eval-analogy": _cmd_eval_analogy,
    "eval-silhouette": _cmd_eval_silhouette,
    "neighbors": _cmd_neighbors,
    "export-pca": _cmd_export_pca,
    "corpus-prepare": _cmd_corpus_prepare,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); silence the flush at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as e:
        _log(f"error: {e}")
        return EXIT_USAGE
    except DataFormatError as e:
        _log(f"error: {e}")
        return EXIT_DATA
    except NumericalError as e:
        _log(f"error: {e}")
        return EXIT_NUMERICAL
    except OSError as e:
        _log(f"error: {e}")
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
