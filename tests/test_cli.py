"""Command-line contract tests: exit codes, report JSON on stdout with
logs on stderr, byte-identical reruns, config merging, and each
subcommand's artifacts.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from event2vec import fileio
from event2vec.cli import run
from event2vec.geometry import Geometry
from event2vec.lifepath import default_graph
from event2vec.model import load_checkpoint
from event2vec.trainer import TrainConfig
from helpers import poke_first, to_v1


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: a small generated dataset and two trained models."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data.jsonl")
    model = str(root / "model.json")
    sgns = str(root / "sgns.json")
    log = str(root / "train_log.jsonl")
    assert run(["gen-life", "--n", "30", "--seed", "0", "--out", data]) == 0
    assert (
        run(
            ["train", "--data", data, "--out", model, "--epochs", "2", "--dim", "4",
             "--seed", "0", "--log", log]
        )
        == 0
    )
    assert run(["train-sgns", "--data", data, "--out", sgns, "--epochs", "1", "--dim", "4"]) == 0
    return {"root": root, "data": data, "model": model, "sgns": sgns, "log": log}


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# Exit codes and stream separation
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage" in captured.err.lower()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_bad_flag_value(self, capsys):
        assert run(["gen-life", "--n", "many"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "gen-life" in capsys.readouterr().out
        assert run(["train", "--help"]) == 0

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert run(["train", "--data", str(tmp_path / "nope.jsonl"), "--out", out]) == 2
        assert run(["eval-additivity", "--model", str(tmp_path / "nope.json")]) == 2

    def test_geometry_flag_conflicts(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        base = ["train", "--data", workdir["data"], "--out", out, "--epochs", "0"]
        assert run(base + ["--geometry", "hyperbolic", "--max-norm", "5"]) == 1
        assert run(base + ["--c", "2.0"]) == 1  # euclidean is the default

    def test_bad_seed_env(self, workdir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EVENT2VEC_SEED", "not-a-number")
        assert run(["gen-life", "--n", "2", "--out", str(tmp_path / "d.jsonl")]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numerical_error(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        code = run(
            ["train", "--data", workdir["data"], "--out", out, "--epochs", "2",
             "--dim", "4", "--batch-size", "1", "--lr", "1e160"]
        )
        assert code == 3

    BAD_HYPERBOLIC_VALUES = [
        ("embeddings", 1.5),  # puts row 0 outside the unit ball
        ("decoder_weights", float("inf")),
        ("decoder_bias", float("nan")),
    ]

    @pytest.mark.parametrize("field,value", BAD_HYPERBOLIC_VALUES)
    def test_invalid_hyperbolic_checkpoint_is_data_error(self, workdir, tmp_path, capsys, field, value, version=2):
        hyp = tmp_path / "hyp.json"
        assert run(["train", "--data", workdir["data"], "--out", str(hyp), "--epochs", "1",
                    "--dim", "3", "--geometry", "hyperbolic"]) == 0
        doc = json.loads(hyp.read_text())
        if version == 1:
            doc = to_v1(doc)
        poke_first(doc[field], value)
        hyp.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["neighbors", "--model", str(hyp), "--event", "marriage"]) == 2
        assert run(["eval-analogy", "--model", str(hyp), "--a", "marriage",
                    "--b", "engagement", "--c", "parenthood"]) == 2
        err = capsys.readouterr().err
        assert str(hyp) in err and field in err

    @pytest.mark.parametrize("field,value", BAD_HYPERBOLIC_VALUES)
    def test_invalid_hyperbolic_v1_checkpoint_is_data_error(self, workdir, tmp_path, capsys, field, value):
        self.test_invalid_hyperbolic_checkpoint_is_data_error(workdir, tmp_path, capsys, field, value, version=1)

    def test_invalid_resume_state_is_data_error(self, workdir, tmp_path, capsys, version=2):
        state = tmp_path / "state.json"
        base = ["train", "--data", workdir["data"], "--dim", "4", "--seed", "0"]
        assert run([*base, "--out", str(tmp_path / "a.json"), "--epochs", "1", "--state", str(state)]) == 0
        doc = json.loads(state.read_text())
        if version == 1:
            doc = to_v1(doc)
        poke_first(doc["model"]["embeddings"], float("nan"))
        poke_first(doc["model"]["decoder_bias"], float("inf"))
        state.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([*base, "--out", str(tmp_path / "b.json"), "--epochs", "2", "--resume", str(state)]) == 2
        err = capsys.readouterr().err
        assert str(state) in err and "embeddings" in err

    def test_invalid_v1_resume_state_is_data_error(self, workdir, tmp_path, capsys):
        self.test_invalid_resume_state_is_data_error(workdir, tmp_path, capsys, version=1)

    @pytest.mark.parametrize("version", [True, 1.0, 2.0, "2"], ids=["true", "1.0", "2.0", "string-2"])
    def test_non_integer_schema_version_is_data_error(self, workdir, tmp_path, capsys, version):
        # true and 1.0 equal 1 in Python, so those two go into version 1 documents.
        state = tmp_path / "state.json"
        base = ["train", "--data", workdir["data"], "--dim", "4", "--seed", "0"]
        assert run([*base, "--out", str(tmp_path / "a.json"), "--epochs", "1", "--state", str(state)]) == 0
        ckpt = tmp_path / "model.json"
        for path, doc in ((ckpt, json.loads(open(workdir["model"]).read())), (state, json.loads(state.read_text()))):
            if version == 1:
                doc = to_v1(doc)
            doc["schema_version"] = version
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "schema_version" in err
        assert run([*base, "--out", str(tmp_path / "b.json"), "--epochs", "2", "--resume", str(state)]) == 2
        err = capsys.readouterr().err
        assert str(state) in err and "schema_version" in err

    @pytest.mark.parametrize("token", ["Infinity", "NaN", "1e400"])
    def test_non_finite_checkpoint_dim_is_data_error(self, workdir, tmp_path, capsys, token):
        ckpt = tmp_path / "model.json"
        doc = json.loads(open(workdir["model"]).read())
        doc["dim"] = "@"
        ckpt.write_text(json.dumps(doc).replace('"@"', token))
        capsys.readouterr()
        assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "dim" in err

    def test_non_utf8_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.json"
        ckpt.write_bytes(b"\xff\xfe{}")
        assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["Infinity", "1e400"])
    @pytest.mark.parametrize("field", ["next_epoch", "adam.step"])
    def test_non_finite_train_state_counter_is_data_error(self, workdir, tmp_path, capsys, field, token):
        state = tmp_path / "state.json"
        base = ["train", "--data", workdir["data"], "--dim", "4", "--seed", "0"]
        assert run([*base, "--out", str(tmp_path / "a.json"), "--epochs", "1", "--state", str(state)]) == 0
        doc = json.loads(state.read_text())
        owner = doc["adam"] if field == "adam.step" else doc
        owner[field.split(".")[-1]] = "@"
        state.write_text(json.dumps(doc).replace('"@"', token))
        capsys.readouterr()
        assert run([*base, "--out", str(tmp_path / "b.json"), "--epochs", "2", "--resume", str(state)]) == 2
        err = capsys.readouterr().err
        assert str(state) in err and field in err

    @pytest.mark.parametrize("text,field", [
        ('{"learning_rate": Infinity}', "learning_rate"),
        ('{"learning_rate": 1e400}', "learning_rate"),
        ('{"epochs": 1e400}', "epochs"),
        ('{"dim": 2.5}', "dim"),
        ('{"batch_size": true}', "batch_size"),
        ('{"geometry": {"kind": "hyperbolic", "c": 1e400}}', "c"),
    ])
    def test_bad_config_value_is_data_error(self, workdir, tmp_path, capsys, text, field):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "m.json"
        assert run(["train", "--data", workdir["data"], "--out", str(out), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and field in err
        assert not out.exists()

    def test_non_utf8_config_and_data_are_data_errors(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"epochs": 1, "\xff": 2}')
        out = str(tmp_path / "m.json")
        assert run(["train", "--data", workdir["data"], "--out", out, "--config", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err
        data = tmp_path / "bad.jsonl"
        data.write_bytes(b'["a", "b\xff"]\n')
        assert run(["train", "--data", str(data), "--out", out]) == 2
        assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--lr", "inf"],
        ["--max-norm", "inf"],
        ["--geometry", "hyperbolic", "--c", "inf"],
    ])
    def test_non_finite_flag_is_usage_error(self, workdir, tmp_path, capsys, flags):
        out = tmp_path / "m.json"
        assert run(["train", "--data", workdir["data"], "--out", str(out), "--epochs", "1", *flags]) == 1
        assert "inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--lr", "inf"], ["--unigram-power", "inf"]])
    def test_bad_sgns_flag_is_usage_error(self, workdir, tmp_path, capsys, flags):
        out = tmp_path / "sgns.json"
        assert run(["train-sgns", "--data", workdir["data"], "--out", str(out), "--epochs", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert flags[1] in err and "training SGNS" not in err
        assert not out.exists()

    def test_non_utf8_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"the/AT cat\xff/NN\n")
        out = tmp_path / "words.jsonl"
        assert run(["corpus-prepare", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert str(corpus) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where,token,named", [
        ("max_len", "Infinity", "max_len"),
        ("max_len", "1e400", "integer"),
        ("weight", "Infinity", "transitions.birth[0][1]"),
        ("weight", "1e400", "transition weight 'birth'->"),
    ])
    def test_non_finite_graph_value_is_data_error(self, tmp_path, capsys, where, token, named):
        doc = default_graph().to_dict()
        if where == "max_len":
            doc["max_len"] = "@"
        else:
            doc["transitions"]["birth"][0][1] = "@"
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc).replace('"@"', token))
        out = tmp_path / "walks.jsonl"
        assert run(["gen-life", "--graph", str(graph), "--n", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(graph) in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("where,value,named", [
        ("max_len", 3.7, "max_len"),
        ("max_len", 16.0, "max_len"),
        ("max_len", True, "max_len"),
        ("max_len", "12", "max_len"),
        ("explore_prob", "0.5", "explore_prob"),
        ("explore_prob", True, "explore_prob"),
        ("weight", "2", "transition weight 'birth'->"),
        ("weight", True, "transition weight 'birth'->"),
    ])
    def test_mistyped_graph_value_is_data_error(self, tmp_path, capsys, where, value, named):
        # JSON integers for max_len, JSON numbers for explore_prob and the
        # weights: no coercion from floats, booleans or strings.
        doc = default_graph().to_dict()
        if where == "weight":
            doc["transitions"]["birth"][0][1] = value
        else:
            doc[where] = value
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(doc))
        out = tmp_path / "walks.jsonl"
        assert run(["gen-life", "--graph", str(graph), "--n", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(graph) in err and named in err
        assert not out.exists()

    def test_huge_integer_in_an_array_names_the_field(self, workdir, tmp_path, capsys):
        state = tmp_path / "state.json"
        base = ["train", "--data", workdir["data"], "--dim", "4", "--seed", "0"]
        assert run([*base, "--out", str(tmp_path / "a.json"), "--epochs", "1", "--state", str(state)]) == 0
        huge = "1" + "0" * 400  # only the nested-list form holds numbers as text
        doc = to_v1(json.loads(open(workdir["model"]).read()))
        poke_first(doc["decoder_bias"], "@")
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(doc).replace('"@"', huge))
        doc = to_v1(json.loads(state.read_text()))
        poke_first(doc["adam"]["v"]["decoder_bias"], "@")
        state.write_text(json.dumps(doc).replace('"@"', huge))
        capsys.readouterr()
        assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "decoder_bias" in err
        assert run([*base, "--out", str(tmp_path / "b.json"), "--epochs", "2", "--resume", str(state)]) == 2
        err = capsys.readouterr().err
        assert str(state) in err and "adam.v.decoder_bias" in err

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda a: a.update(b64=a["b64"][:-1]), id="truncated-base64"),
        pytest.param(lambda a: a.update(b64="!" + a["b64"][1:]), id="non-base64-character"),
        pytest.param(lambda a: a.update(dtype="<f4"), id="dtype-f4"),
        pytest.param(lambda a: a.update(dtype=">f8"), id="dtype-big-endian"),
        pytest.param(lambda a: a["shape"].__setitem__(0, a["shape"][0] + 1), id="shape-disagrees-with-bytes"),
        pytest.param(lambda a: a["shape"].__setitem__(0, -a["shape"][0]), id="negative-shape"),
        pytest.param(lambda a: a.pop("b64"), id="missing-b64"),
    ])
    @pytest.mark.parametrize("field", ["embeddings", "decoder_bias", "adam.v.decoder_bias"])
    def test_malformed_encoded_array_is_data_error(self, workdir, tmp_path, capsys, field, corrupt):
        if field.startswith("adam."):
            path = tmp_path / "state.json"
            base = ["train", "--data", workdir["data"], "--dim", "4", "--seed", "0"]
            assert run([*base, "--out", str(tmp_path / "a.json"), "--epochs", "1", "--state", str(path)]) == 0
            doc = json.loads(path.read_text())
            corrupt(doc["adam"]["v"]["decoder_bias"])
            command = [*base, "--out", str(tmp_path / "b.json"), "--epochs", "2", "--resume", str(path)]
        else:
            path = tmp_path / "model.json"
            doc = json.loads(open(workdir["model"]).read())
            corrupt(doc[field])
            command = ["neighbors", "--model", str(path), "--event", "marriage"]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(command) == 2
        err = capsys.readouterr().err
        assert str(path) in err and field in err and "Traceback" not in err

    def test_non_object_geometry_in_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        doc = json.loads(open(workdir["model"]).read())
        doc["geometry"] = 5
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(doc))
        assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "geometry" in err

    @pytest.mark.parametrize("geometry", [
        {"kind": "euclidean", "max_norm": 10.0, "c": 3},
        {"kind": "euclidean", "max_nrom": 10.0},
        {"kind": "euclidean", "max_norm": "10"},
        {"kind": "euclidean", "max_norm": True},
    ], ids=["other-kind-field", "misspelt-key", "string-number", "true"])
    def test_strict_geometry_in_checkpoint_and_config(self, workdir, tmp_path, capsys, geometry):
        doc = json.loads(open(workdir["model"]).read())
        doc["geometry"] = geometry
        ckpt = tmp_path / "model.json"
        ckpt.write_text(json.dumps(doc))
        assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "geometry" in err
        # A bad value in a --config file is a data error too.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"geometry": geometry, "epochs": 1, "dim": 3}))
        out = tmp_path / "m.json"
        assert run(["train", "--data", workdir["data"], "--out", str(out), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "geometry" in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("dim", 4.0), ("adam.step", 1.0), ("next_epoch", 1.0),
                                             ("next_epoch", True)])
    def test_float_or_bool_integer_field_is_data_error(self, workdir, tmp_path, capsys, field, value):
        # int() would take 4.0 and true as 4 and 1; the document must hold an integer.
        state = tmp_path / "state.json"
        base = ["train", "--data", workdir["data"], "--dim", "4", "--seed", "0"]
        assert run([*base, "--out", str(tmp_path / "a.json"), "--epochs", "1", "--state", str(state)]) == 0
        doc = json.loads(state.read_text())
        if field == "dim":
            doc["model"]["dim"] = value
            ckpt = tmp_path / "model.json"
            ckpt.write_text(json.dumps(doc["model"]))
            capsys.readouterr()
            assert run(["neighbors", "--model", str(ckpt), "--event", "marriage"]) == 2
            err = capsys.readouterr().err
            assert str(ckpt) in err and "dim must be an integer" in err
        else:
            owner = doc["adam"] if field == "adam.step" else doc
            owner[field.split(".")[-1]] = value
        state.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([*base, "--out", str(tmp_path / "b.json"), "--epochs", "2", "--resume", str(state)]) == 2
        err = capsys.readouterr().err
        assert str(state) in err and f"{field} must be an integer" in err

    def test_reports_go_to_stdout_logs_to_stderr(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert (
            run(["train", "--data", workdir["data"], "--out", out, "--epochs", "1", "--dim", "3"])
            == 0
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # stdout is exactly one JSON document
        assert report["epochs_run"] == 1
        assert "training on" in captured.err


# ---------------------------------------------------------------------------
# gen-life
# ---------------------------------------------------------------------------


class TestGenLife:
    def test_report_and_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "seqs.jsonl")
        assert run(["gen-life", "--n", "25", "--seed", "3", "--out", out]) == 0
        report = last_json(capsys)
        assert report["n_sequences"] == 25
        assert report["vocab_size"] == 45
        assert report["max_length"] <= 17
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 25
        first = json.loads(lines[0])
        assert first[0] == "birth" and first[-1] == "death"

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert run(["gen-life", "--n", "40", "--seed", "7", "--out", a]) == 0
        assert run(["gen-life", "--n", "40", "--seed", "7", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        c = str(tmp_path / "c.jsonl")
        assert run(["gen-life", "--n", "40", "--seed", "8", "--out", c]) == 0
        assert open(a, "rb").read() != open(c, "rb").read()

    def test_seed_env_fallback_matches_flag(self, tmp_path, monkeypatch, capsys):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert run(["gen-life", "--n", "10", "--seed", "5", "--out", a]) == 0
        monkeypatch.setenv("EVENT2VEC_SEED", "5")
        assert run(["gen-life", "--n", "10", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_dump_graph_round_trips(self, capsys):
        assert run(["gen-life", "--dump-graph"]) == 0
        doc = last_json(capsys)
        assert doc == default_graph().to_dict()

    def test_custom_graph_file(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(
            json.dumps(
                {
                    "events": ["a", "b"],
                    "start": "a",
                    "terminal": "b",
                    "transitions": {"a": [["b", 1.0]]},
                    "explore_prob": 0.0,
                    "max_len": 4,
                }
            )
        )
        out = str(tmp_path / "seqs.jsonl")
        assert run(["gen-life", "--graph", str(graph_path), "--n", "3", "--out", out]) == 0
        assert last_json(capsys)["vocab_size"] == 2
        assert all(json.loads(s) == ["a", "b"] for s in open(out).read().strip().split("\n"))

    def test_out_required_without_dump(self, capsys):
        assert run(["gen-life", "--n", "2"]) == 1


# ---------------------------------------------------------------------------
# train and train-sgns
# ---------------------------------------------------------------------------


class TestTrain:
    def test_checkpoint_loads_and_report_is_complete(self, workdir, capsys):
        params = load_checkpoint(workdir["model"])
        assert params.dim == 4
        assert params.has_decoder
        log_lines = [json.loads(s) for s in open(workdir["log"]).read().strip().split("\n")]
        assert [ln["epoch"] for ln in log_lines] == [0, 1]

    def test_rerun_is_byte_identical(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "again.json")
        assert (
            run(["train", "--data", workdir["data"], "--out", out, "--epochs", "2",
                 "--dim", "4", "--seed", "0"])
            == 0
        )
        assert open(out, "rb").read() == open(workdir["model"], "rb").read()

    def test_final_checkpoint_is_written_once(self, workdir, tmp_path, monkeypatch, capsys):
        writes = []
        write = fileio.atomic_write_text

        def counting(path, *parts):
            writes.append(path)
            write(path, *parts)

        monkeypatch.setattr(fileio, "atomic_write_text", counting)
        out = str(tmp_path / "m.json")
        assert run(["train", "--data", workdir["data"], "--out", out, "--epochs", "1", "--dim", "3"]) == 0
        assert writes == [out]
        assert load_checkpoint(out).dim == 3

    def test_config_file_with_flag_override(self, workdir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "dim": 5, "seed": 0}))
        out = str(tmp_path / "m.json")
        assert (
            run(["train", "--data", workdir["data"], "--out", out, "--config", str(config),
                 "--dim", "6"])
            == 0
        )
        report = last_json(capsys)
        assert report["dim"] == 6  # flag wins
        assert report["epochs_run"] == 1  # file value survives

    def test_config_file_geometry_reads_as_train_config(self, workdir, tmp_path, capsys):
        # An unclipped geometry written by TrainConfig.to_dict has no
        # max_norm key; it must not pick up the default clip.
        config = tmp_path / "config.json"
        written = TrainConfig(epochs=1, dim=3, geometry=Geometry("euclidean"))
        config.write_text(json.dumps(written.to_dict()))
        out = str(tmp_path / "m.json")
        base = ["train", "--data", workdir["data"], "--out", out, "--config", str(config)]
        assert run(base) == 0
        assert last_json(capsys)["geometry"] == {"kind": "euclidean"}
        assert load_checkpoint(out).geometry == TrainConfig.from_dict(written.to_dict()).geometry
        # Switching kind takes the new kind's default; keeping it keeps the file's value.
        assert run(base + ["--geometry", "hyperbolic"]) == 0
        assert last_json(capsys)["geometry"] == {"kind": "hyperbolic", "c": 1.0}
        assert run(base + ["--geometry", "euclidean"]) == 0
        assert last_json(capsys)["geometry"] == {"kind": "euclidean"}
        config.write_text(json.dumps({"geometry": {"kind": "hyperbolic", "c": 2.0}, "epochs": 1, "dim": 3}))
        assert run(base + ["--geometry", "euclidean"]) == 0
        assert last_json(capsys)["geometry"] == TrainConfig().geometry.to_dict()

    def test_report_final_is_last_log_line(self, workdir, tmp_path, capsys):
        log = str(tmp_path / "log.jsonl")
        assert run(["train", "--data", workdir["data"], "--out", str(tmp_path / "m.json"),
                    "--epochs", "2", "--dim", "3", "--log", log]) == 0
        last = json.loads(open(log).read().strip().split("\n")[-1])
        del last["wall_seconds"]
        assert last_json(capsys)["final"] == last

    def test_config_file_errors(self, workdir, tmp_path, capsys):
        bad_field = tmp_path / "bad.json"
        bad_field.write_text(json.dumps({"momentum": 0.9}))
        out = str(tmp_path / "m.json")
        base = ["train", "--data", workdir["data"], "--out", out]
        assert run(base + ["--config", str(bad_field)]) == 1
        not_json = tmp_path / "not.json"
        not_json.write_text("{nope")
        assert run(base + ["--config", str(not_json)]) == 2

    def test_hyperbolic_and_unclipped_geometries(self, workdir, tmp_path, capsys):
        hyp = str(tmp_path / "hyp.json")
        assert (
            run(["train", "--data", workdir["data"], "--out", hyp, "--epochs", "1",
                 "--dim", "3", "--geometry", "hyperbolic", "--c", "1.5"])
            == 0
        )
        params = load_checkpoint(hyp)
        assert params.geometry.is_hyperbolic and params.geometry.c == 1.5

        unclipped = str(tmp_path / "unclipped.json")
        assert (
            run(["train", "--data", workdir["data"], "--out", unclipped, "--epochs", "1",
                 "--dim", "3", "--max-norm", "none"])
            == 0
        )
        assert load_checkpoint(unclipped).geometry.max_norm is None

    def test_resume_matches_uninterrupted_run(self, workdir, tmp_path, capsys):
        full = str(tmp_path / "full.json")
        base = ["--data", workdir["data"], "--dim", "4", "--seed", "0"]
        assert run(["train", *base, "--out", full, "--epochs", "4"]) == 0

        half = str(tmp_path / "half.json")
        state = str(tmp_path / "state.json")
        assert run(["train", *base, "--out", half, "--epochs", "2", "--state", state]) == 0
        resumed = str(tmp_path / "resumed.json")
        assert run(["train", *base, "--out", resumed, "--epochs", "4", "--resume", state]) == 0
        assert open(resumed, "rb").read() == open(full, "rb").read()

    def test_sgns_checkpoint_has_no_decoder(self, workdir):
        params = load_checkpoint(workdir["sgns"])
        assert not params.has_decoder
        assert params.dim == 4
        assert np.all(np.isfinite(params.embeddings))


# ---------------------------------------------------------------------------
# Evaluation commands
# ---------------------------------------------------------------------------


class TestEvalCommands:
    def test_additivity_report(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "curve.json")
        assert (
            run(["eval-additivity", "--model", workdir["model"], "--lengths", "1,5",
                 "--trials", "10", "--seed", "0", "--out", out])
            == 0
        )
        report = last_json(capsys)
        assert report["lengths"] == [1, 5]
        assert len(report["mean_cosine"]) == 2
        assert json.load(open(out)) == report

    def test_additivity_rejects_bad_lengths_and_hyperbolic(self, workdir, tmp_path, capsys):
        assert run(["eval-additivity", "--model", workdir["model"], "--lengths", "a,b"]) == 1
        hyp = str(tmp_path / "hyp.json")
        run(["train", "--data", workdir["data"], "--out", hyp, "--epochs", "0",
             "--dim", "3", "--geometry", "hyperbolic"])
        assert run(["eval-additivity", "--model", hyp]) == 1

    def test_analogy_report(self, workdir, capsys):
        assert (
            run(["eval-analogy", "--model", workdir["model"], "--a", "marriage",
                 "--b", "engagement", "--c", "parenthood", "--k", "3"])
            == 0
        )
        report = last_json(capsys)
        assert report["query"] == ["marriage", "engagement", "parenthood"]
        assert len(report["ranked"]) == 3
        assert set(report["excluded"]) == {"marriage", "engagement", "parenthood"}
        names = [n for n, _ in report["ranked"]]
        assert not set(names) & set(report["excluded"])

    def test_analogy_keep_queries_and_unknown_event(self, workdir, capsys):
        assert (
            run(["eval-analogy", "--model", workdir["model"], "--a", "marriage",
                 "--b", "marriage", "--c", "marriage", "--k", "1", "--keep-queries"])
            == 0
        )
        report = last_json(capsys)
        assert report["excluded"] == []
        assert report["ranked"][0][0] == "marriage"
        assert run(["eval-analogy", "--model", workdir["model"], "--a", "bogus",
                    "--b", "marriage", "--c", "marriage"]) == 1

    def test_neighbors_report(self, workdir, capsys):
        assert run(["neighbors", "--model", workdir["model"], "--event", "marriage", "--k", "4"]) == 0
        report = last_json(capsys)
        assert report["event"] == "marriage"
        assert len(report["neighbors"]) == 4
        assert all(name != "marriage" for name, _ in report["neighbors"])

    def test_export_pca(self, workdir, tmp_path, capsys):
        vocab_names = load_checkpoint(workdir["model"]).vocab.names
        out = str(tmp_path / "proj.csv")
        assert run(["export-pca", "--model", workdir["model"], "--out", out, "--dim", "2"]) == 0
        report = last_json(capsys)
        assert report["n_points"] == len(vocab_names)
        assert len(report["explained_variance"]) == 2
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "x,y,label"
        assert len(lines) == len(vocab_names) + 1
        x, y, label = lines[1].split(",")
        float(x), float(y)
        assert label == vocab_names[0]

    def test_export_pca_event_subset(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "proj.csv")
        assert (
            run(["export-pca", "--model", workdir["model"], "--out", out,
                 "--events", "birth,death,marriage,divorce,travel"])
            == 0
        )
        assert last_json(capsys)["n_points"] == 5
        assert run(["export-pca", "--model", workdir["model"], "--out", out,
                    "--events", "bogus,death,x,y"]) == 1


# ---------------------------------------------------------------------------
# Corpus pipeline
# ---------------------------------------------------------------------------


class TestCorpusPipeline:
    def test_corpus_prepare_and_silhouette(self, tmp_path, capsys):
        prepared = str(tmp_path / "corpus.jsonl")
        assert run(["corpus-prepare", "--corpus", "sample", "--out", prepared]) == 0
        report = last_json(capsys)
        assert report["n_sequences"] == 500
        assert report["n_tokens"] == 3946
        assert report["vocab_size"] == 143

        model = str(tmp_path / "words.json")
        assert (
            run(["train", "--data", prepared, "--out", model, "--epochs", "1",
                 "--dim", "4", "--seed", "0"])
            == 0
        )
        capsys.readouterr()
        assert run(["eval-silhouette", "--model", model, "--corpus", "sample", "--seed", "0"]) == 0
        report = last_json(capsys)
        assert report["metric"] == "cosine"
        assert report["n_points"] == 800
        assert -1.0 <= report["overall"] <= 1.0
        assert set(report["per_cluster"]) == {"AT-JJ-NN", "IN-AT-NN", "PPS-VBD", "NN-NN"}

    def test_min_count_shrinks_vocab(self, tmp_path, capsys):
        corpus = tmp_path / "tiny.txt"
        corpus.write_text("a/X a/X b/X\nb/X a/X rare/X\n")
        prepared = str(tmp_path / "tiny.jsonl")
        assert run(["corpus-prepare", "--corpus", str(corpus), "--min-count", "2",
                    "--out", prepared]) == 0
        assert last_json(capsys)["vocab_size"] == 3  # <unk>, a, b
        lines = [json.loads(s) for s in open(prepared).read().strip().split("\n")]
        assert lines[1] == ["b", "a", "<unk>"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "event2vec.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "COMMAND" in proc.stdout

    def test_module_invocation_error_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "event2vec.cli", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
