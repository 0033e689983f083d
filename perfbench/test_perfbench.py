"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from event2vec import evaluation, model  # noqa: E402

TINY = {"life-clip": 30, "life-ball": 8, "vocab-10k": 24, "words": 0}


def tiny(name: str) -> workloads.Spec:
    spec = workloads.WORKLOADS[name]
    phases = tuple((phase, 0.0, min(reps, 4)) for phase, _, reps in spec.phases)
    return dataclasses.replace(spec, n_seqs=TINY[name], epochs=2, phases=phases,
                               vocab_size=min(spec.vocab_size, 300))


def run(name: str, trace: bool, workdir, seed: int = 3) -> workloads.Run:
    r = workloads.Run(tiny(name), seed, 0.0, trace, str(workdir))
    r.execute()
    return r


COUNTS = [k for k, (unit, _) in workloads.PER_LAYER.items() if unit in ("calls/epoch", "rows/call", "B/call", "calls/seq")]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_checks_pass(name, tmp_path):
    a, b = run(name, True, tmp_path), run(name, True, tmp_path)
    for r in (a, b):
        assert r.tally.failed == 0, r.tally.failures
    la, lb = a.per_layer(), b.per_layer()
    assert set(la) == set(workloads.PER_LAYER)
    assert {k: la[k] for k in COUNTS} == {k: lb[k] for k in COUNTS}
    assert a.tokens == b.tokens and a.ckpt_mb == b.ckpt_mb
    assert la["model.gradients.calls"] == len(a.dataset)
    assert la["model.forward.calls_per_seq"] == (3 if a.spec.dropout > 0 else 1)
    # The epoch's direct children plus the trainer's own time make up the epoch.
    assert 0.0 <= la["trainer.self_s"] <= la["trainer.epoch_s"]
    for layer in ("model.save_checkpoint.s", "fileio.atomic_write_text.s", "model.load_checkpoint.s",
                  "dataset.load_jsonl.s", "evaluation.analogy.s", "evaluation.nearest_neighbors.s"):
        assert la[layer] > 0.0, layer


def test_child_starting_before_the_epoch_timer_stays_in_its_epoch():
    t = tracer.Tracer()
    clock = tracer.EpochClock()
    clock.times = [1.0, 2.0, 3.0]
    log = [SimpleNamespace(wall_seconds=0.9)] * 3  # epochs [0.1, 1], [1.1, 2], [2.1, 3]
    t.spans[:] = [
        ["trainer.train", 0.0, 3.1, -1, 0],
        ["model.gradients", 1.05, 1.5, 0, 8],  # starts before epoch 1's timer
        ["model.gradients", 2.2, 2.9, 0, 8],
    ]
    t.reduce_train(clock, log)
    assert t.epochs == 2
    assert t.epoch_sums["model.gradients.calls"] == 2
    assert t.epoch_sums["trainer.self_s"] == pytest.approx(1.8 - 0.4 - 0.7)


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = run("words", True, tmp_path)
    e2e = r.end_to_end()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert all(v > 0 for v, _ in e2e.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == workloads.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_corrupted_checkpoint_counts_as_failed(tmp_path, monkeypatch):
    r = workloads.Run(tiny("life-clip"), 3, 0.0, False, str(tmp_path))
    assert r.tally.op(r.setup_op, 0) and r.tally.op(r.train_op, 0)
    save = model.save_checkpoint

    def save_then_corrupt(params, path):
        save(params, path)
        doc = json.loads(Path(path).read_text())
        doc["embeddings"][0][0] += 1e-12
        Path(path).write_text(json.dumps(doc))

    monkeypatch.setattr(model, "save_checkpoint", save_then_corrupt)
    assert not r.tally.op(r.ckpt_op, 0)
    assert (r.tally.attempted, r.tally.failed) == (3, 1)


@pytest.mark.parametrize("name", ["life-clip", "life-ball"])
def test_wrong_ranking_counts_as_failed(name, tmp_path, monkeypatch):
    r = workloads.Run(tiny(name), 3, 0.0, False, str(tmp_path))
    assert r.tally.op(r.setup_op, 0) and r.tally.op(r.train_op, 0)
    r.queries = r._query_specs()
    assert r.tally.op(r.query_op, 0) and r.tally.op(r.query_op, 1)
    neighbors = evaluation.nearest_neighbors
    monkeypatch.setattr(evaluation, "nearest_neighbors", lambda *a: neighbors(*a)[::-1])
    assert not r.tally.op(r.query_op, 1)
    assert r.tally.failed == 1


def test_ranking_check_rejects_swaps_and_wrong_scores(tmp_path):
    r = workloads.Run(tiny("life-clip"), 3, 0.0, False, str(tmp_path))
    r.setup_op(0)
    r.train_op(0)
    event = r.params.vocab.names[5]
    got = evaluation.nearest_neighbors(r.params, event, 5)
    assert checks.neighbors_ok(r.params, event, 5, got)
    assert not checks.neighbors_ok(r.params, event, 5, [got[1], got[0], *got[2:]])
    assert not checks.neighbors_ok(r.params, event, 5, [(got[0][0], got[0][1] + 1e-6), *got[1:]])
    assert not checks.neighbors_ok(r.params, event, 5, got[:4])


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
