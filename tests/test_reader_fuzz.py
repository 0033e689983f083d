"""Reader fuzz test for checkpoints and train states.

One field at a time of a valid file (schema versions 1 and 2) is
replaced by a bad value: ``NaN``, ``Infinity`` or ``1e400``, invalid
UTF-8, a float where an integer belongs, or a base64 payload of the
wrong length. The command that reads the file must exit 2 and name the
file, never raise.
"""

import json

import pytest

from event2vec.cli import run
from helpers import to_v1

PLACEHOLDER = "@@fuzz@@"
TOKENS = (b"NaN", b"Infinity", b"1e400", b'"\xff"')


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The temporary directory, and for a flat checkpoint and a ball train state: the document and the
    command that reads it, given the file's path as its last argument."""
    root = tmp_path_factory.mktemp("fuzz")
    data = str(root / "data.jsonl")
    assert run(["gen-life", "--n", "12", "--seed", "0", "--out", data]) == 0
    train = ["train", "--data", data, "--dim", "3", "--seed", "0"]
    model, state = root / "model.json", root / "state.json"
    assert run([*train, "--out", str(model), "--epochs", "1"]) == 0
    ball = [*train, "--geometry", "hyperbolic", "--c", "1.5"]
    assert run([*ball, "--out", str(root / "ball.json"), "--epochs", "1", "--state", str(state)]) == 0
    checkpoint = json.loads(model.read_text())
    return root, {
        "checkpoint": (checkpoint, ["neighbors", "--event", checkpoint["vocab"][0], "--model"]),
        "train state": (json.loads(state.read_text()),
                        [*ball, "--out", str(root / "resumed.json"), "--epochs", "2", "--resume"]),
    }


def nodes(doc, where=()):
    """(path, value) for every value in ``doc``; of a list only the first element is visited."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:1]) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*where, key), value
        yield from nodes(value, (*where, key))


def replaced(doc, where, value):
    """``doc`` with the value at path ``where`` replaced, as file bytes; ``bytes`` go in as raw JSON text."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in where[:-1]:
        owner = owner[key]
    owner[where[-1]] = PLACEHOLDER if isinstance(value, bytes) else value
    text = json.dumps(doc).encode()
    return text.replace(json.dumps(PLACEHOLDER).encode(), value) if isinstance(value, bytes) else text


def mutations(doc):
    """(label, file bytes) for each single-field mutation of ``doc``."""
    for where, value in nodes(doc):
        label = ".".join(map(str, where))
        for token in TOKENS:
            yield f"{label}={token!r}", replaced(doc, where, token)
        if type(value) is int:
            yield f"{label}={float(value)}", replaced(doc, where, float(value))
        if where[-1] == "b64":
            yield f"{label} 3 bytes short", replaced(doc, where, value[:-4])
            yield f"{label} 3 bytes long", replaced(doc, where, value + "AAAA")


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("kind", ["checkpoint", "train state"])
def test_every_single_field_mutation_is_a_data_error(files, capsys, kind, version):
    root, readers = files
    doc, command = readers[kind]
    if version == 1:
        doc = to_v1(doc)
    path = root / f"mutated-{kind.replace(' ', '-')}-v{version}.json"
    wrong = []
    count = 0
    for label, content in mutations(doc):
        count += 1
        path.write_bytes(content)
        capsys.readouterr()
        try:
            code = run([*command, str(path)])
        except Exception as e:  # the test reports every escape at once
            code = repr(e)
        err = capsys.readouterr().err
        if code != 2 or str(path) not in err or "Traceback" in err:
            wrong.append(f"{label}: exit {code}: {err.strip()[-200:]}")
    assert count > 40
    assert not wrong, "\n".join(wrong)
