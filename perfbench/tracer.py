"""Span tracing around the package's public functions, from outside the package.

While a :class:`Tracer` is active, each target function is replaced, in
every ``event2vec`` module namespace that holds it, by a wrapper that
records one span per call: (name, start, end, parent span, extra). The
parent is the innermost traced call still running, so a span tree falls
out of the single-threaded call stack. Nothing under ``src/`` changes.

Spans stay in memory only until the operation that produced them ends;
the ``reduce_*`` methods fold them into per-layer totals and clear them,
so a long traced run holds a bounded number of spans.

Training epochs have no function boundary of their own. Their spans are
rebuilt from the program's own clock: ``trainer.train`` writes one log
line per epoch to ``log_stream`` right after timing the epoch, so epoch
k covers ``[write_k - wall_seconds_k, write_k]``.

Once the trainer reports stage timings itself (ROADMAP item 5), those
timers replace these wrapper spans.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "event2vec"

GEOMETRY_FUNCS = ("mobius_add", "project_to_ball", "poincare_distance", "log_map_origin", "clip_norm")


def _rows(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _geometry_rows(args, kwargs) -> int:
    """Rows one geometry call processes: the larger leading size of its array operands."""
    arrays = [a for a in args[:2] if not np.isscalar(a)]
    return max(_rows(a) for a in arrays) if arrays else 0


def _grad_bytes(args, kwargs, out) -> int:
    return int(sum(a.nbytes for a in out[1].values()))


TARGETS = (
    "trainer.train",
    "trainer.adam_step",
    "model.gradients",
    "model.forward",
    "model.init_params",
    "model.save_checkpoint",
    "model.load_checkpoint",
    *(f"geometry.{f}" for f in GEOMETRY_FUNCS),
    "baseline.train_sgns",
    "baseline.NegativeSampler.sample",
    "evaluation.analogy",
    "evaluation.nearest_neighbors",
    "evaluation.silhouette",
    "evaluation.additivity_curve",
    "corpus.load_tagged_corpus",
    "corpus.build_vocab",
    "corpus.to_sequences",
    "corpus.find_pattern_occurrences",
    "corpus.compose_vectors",
    "fileio.atomic_write_text",
    "lifepath.generate_dataset",
    "dataset.load_jsonl",
)

# name -> f(args, kwargs) or f(args, kwargs, out) giving the span's extra count
_ARG_EXTRA = {f"geometry.{f}": _geometry_rows for f in GEOMETRY_FUNCS}
_OUT_EXTRA = {"model.gradients": _grad_bytes}


class EpochClock:
    """A ``log_stream`` for ``trainer.train`` that notes when each epoch line arrives."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def write(self, text: str) -> None:
        self.times.append(time.perf_counter())

    def flush(self) -> None:
        pass


class Tracer:
    """Records spans while active and folds them into per-layer totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, extra]
        self._stack: list[int] = []
        self._patches = self._plan()
        # Training scope: per post-warm-up epoch sums.
        self.epochs = 0
        self.epoch_sums: dict[str, float] = defaultdict(float)
        # Everything else: (phase, name) -> [calls, seconds].
        self.calls: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0])

    # -- installation ----------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every place a target is bound."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        plan = []
        for target in TARGETS:
            module_name, *path = target.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(target, original)
            if len(path) > 1:  # a method: patch the class only
                plan.append((owner, path[-1], original, wrapper))
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, attr, original, wrapper))
        return plan

    def _wrap(self, name: str, fn):
        arg_extra = _ARG_EXTRA.get(name)
        out_extra = _OUT_EXTRA.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            if arg_extra is not None:
                span[4] = arg_extra(args, kwargs)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if out_extra is not None:
                span[4] = out_extra(args, kwargs, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._stack.clear()

    # -- reduction -------------------------------------------------------

    def reduce_calls(self, phase: str) -> None:
        """Fold every recorded span into per-(phase, function) call counts and seconds."""
        for name, start, end, _, _ in self.spans:
            acc = self.calls[(phase, name)]
            acc[0] += 1
            acc[1] += end - start
        self.spans.clear()

    def reduce_train(self, clock: EpochClock, log, warmup: int = 1) -> list[tuple[float, float]]:
        """Fold one traced ``trainer.train`` call into per-epoch sums.

        Returns (epoch seconds, covered by child spans) for every epoch,
        warm-up included; only epochs after ``warmup`` enter the sums.
        """
        spans = self.spans
        # The last train call; earlier spans can only be left over from a failed operation.
        train = max(i for i, s in enumerate(spans) if s[0] == "trainer.train" and s[3] == -1)
        bounds = [(end - rec.wall_seconds, end) for end, rec in zip(clock.times, log)]
        epoch_of = [-1] * len(spans)  # parents come before children, so one pass suffices
        for i in range(train + 1, len(spans)):
            parent = spans[i][3]
            if parent == train:
                # The epoch whose log line comes next. The trainer stops its
                # epoch timer a little before it writes the line, so a child
                # can start just before write_k - wall_seconds_k.
                k = bisect.bisect_right(clock.times, spans[i][1])
                epoch_of[i] = k if k < len(bounds) else -1
            elif parent > train:
                epoch_of[i] = epoch_of[parent]

        covered = [0.0] * len(bounds)
        sums: dict[str, float] = defaultdict(float)
        child_time = defaultdict(float)  # span index -> seconds covered by its direct children
        for i in range(train + 1, len(spans)):
            name, start, end, parent, extra = spans[i]
            k = epoch_of[i]
            if k < 0:
                continue
            if parent == train:
                lo, hi = bounds[k]
                covered[k] += max(0.0, min(end, hi) - max(start, lo))
            else:
                child_time[parent] += end - start
            if k < warmup:
                continue
            if name == "model.gradients":
                sums["model.gradients.calls"] += 1
                sums["model.gradients.s"] += end - start
                sums["model.gradients.grad_bytes"] += extra
            elif name == "model.forward":
                if spans[parent][0] == "model.gradients":
                    sums["model.forward.calls"] += 1
                    sums["model.forward.s"] += end - start
            elif name == "trainer.adam_step":
                sums["trainer.adam_step.calls"] += 1
                sums["trainer.adam_step.s"] += end - start
            elif name.startswith("geometry."):
                sums[f"{name}.calls"] += 1
                sums[f"{name}.rows"] += extra
                sums[f"{name}.s"] += end - start
        for i in range(train + 1, len(spans)):
            if spans[i][0] == "model.gradients" and epoch_of[i] >= warmup:
                sums["model.gradients.children_s"] += child_time[i]
        for k in range(warmup, len(bounds)):
            lo, hi = bounds[k]
            sums["trainer.epoch_s"] += hi - lo
            sums["trainer.self_s"] += (hi - lo) - covered[k]
        self.epochs += max(0, len(bounds) - warmup)
        for key, value in sums.items():
            self.epoch_sums[key] += value
        spans.clear()
        return [(hi - lo, c) for (lo, hi), c in zip(bounds, covered)]
