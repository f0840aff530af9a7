"""Mutation fuzz of every CLI input reader, driven through ``cli.main``.

Each property mutates one small valid input (12 nodes) and runs one
subcommand on it in-process. The run must exit 0, or exit 1 with exactly
one stderr line that starts with ``error: `` and names the mutated file
once, and leave no output file. An exception escaping ``main``, a usage
exit (2) or a second stderr line fails the property.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinclust.cli import main
from spinclust.dataset import CORRELATION_KINDS

EXAMPLES = settings(max_examples=150)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs: a 12-row CSV, its labels, a similarity envelope with its
    sidecar, a 4-temperature sweep and an fspc result."""
    root = tmp_path_factory.mktemp("fuzz")
    steps = [("generate", "blobs", "--n", 12, "--dims", 3, "--sigmas", "0.2,0.2,0.2",
              "--seed", 3, "--output", root / "m.csv", "--labels", root / "labels.csv"),
             ("preprocess", "--input", root / "m.csv", "--corr", "similarity",
              "--output", root / "sim.json"),
             ("spc", "--input", root / "m.csv", "--k", 3, "--t", "0.05:0.2:0.05",
              "--steps", 30, "--burn-in", 5, "--seed", 4, "--output", root / "w.json"),
             ("fspc", "--corr", root / "sim.json", "--pop", 6, "--gens", 5, "--seed", 5,
              "--output", root / "r.json")]
    for argv in steps:
        assert run_quietly(argv) == (0, [])
    return root


def check(base, inputs, target, argv):
    """Write ``inputs`` (name -> bytes) to a fresh directory and run ``argv(dir)``.

    ``target`` is the name of the input that an error must name.
    """
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        tmp = Path(tmp)
        for name, content in inputs.items():
            (tmp / name).write_bytes(content)
        code, lines = run_quietly(argv(tmp))
        if code == 0:
            assert lines == []
            return
        assert code == 1, lines
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: "), lines
        assert lines[0].count(str(tmp / target)) == 1, lines
        assert sorted(p.name for p in tmp.iterdir()) == sorted(inputs)


def validate_with(base, flag, path):
    return ["validate", "--sweep", base / "w.json", flag, path, "--output", path.parent / "out"]


# ---- mutations ---------------------------------------------------------------

LEAVES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "0.5", [], {}, [0], [[1.0]],
                     10**30, -(10**30), 2**63, 1e308, -0.0]),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
)

BYTES = st.one_of(st.sampled_from(list(b',\n.-+e0123456789 "[]{}:\xff\x00')),
                  st.integers(0, 255))


@st.composite
def mutated_bytes(draw, data: bytes):
    """``data`` with one to three bytes set, inserted or deleted, or cut short."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(data) - 1, 0)))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "truncate":
            del data[i:]
        elif op == "delete":
            del data[i:i + 1]
        elif op == "insert":
            data.insert(i, draw(BYTES))
        elif data:
            data[i] = draw(BYTES)
    return bytes(data)


def json_paths(node, path=()):
    """Every path (keys and indices) into ``node``, the root first."""
    yield path
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_json(draw, doc):
    """``doc`` with one or two values replaced, dropped or repeated, as JSON bytes.

    Each value is either a uniform pick among all values below the root, most
    of them leaves, or the end of a walk down from the root that stops at each
    level with probability 1/3, which hits keys, rows and records as often.
    """
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            path = draw(st.sampled_from(list(json_paths(doc))[1:] or [()]))
        else:
            path, node = (), doc
            while isinstance(node, (dict, list)) and node and (
                    not path or draw(st.integers(0, 2))):
                key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                           else range(len(node))))
                path, node = path + (key,), node[key]
        if not path:
            doc = draw(LEAVES)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        op = draw(st.sampled_from(["set", "drop", "repeat"]))
        if op == "set":
            parent[last] = draw(LEAVES)
        elif op == "drop":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent[draw(st.sampled_from(["extra", "kind", "values"]))] = parent[last]
    return json.dumps(doc).encode()


SIDECAR_EDITS = [(key, op) for key in ("values", "kind", "row_ids", "digest")
                 for op in ("drop_row", "flat", "scalar", "3d", "str", "object", "remove")] + [
    ("values", op) for op in ("cell", "cell", "cell", "drop_col", "int", "bool", "complex")] + [
    ("kind", "cell"), ("kind", "cell"), ("row_ids", "int")]
CASTS = {"int": np.int64, "str": np.str_, "bool": bool, "complex": complex, "object": object}


@st.composite
def sidecar_arrays(draw, arrays: dict):
    """The sidecar's arrays with one reshaped, retyped, edited or removed."""
    arrays = dict(arrays)
    key, op = draw(st.sampled_from(SIDECAR_EDITS))
    a = arrays[key]
    if op == "cell" and a.ndim == 2:
        a = a.copy()
        a[draw(st.integers(0, a.shape[0] - 1)), draw(st.integers(0, a.shape[1] - 1))] = \
            draw(st.floats(allow_nan=True, allow_infinity=True))
    elif op == "cell" and key == "kind":
        a = np.array(draw(st.sampled_from(list(CORRELATION_KINDS) + ["data", "", "x"])))
    elif op == "drop_row" and a.ndim >= 1:
        a = a[:-1]
    elif op == "drop_col" and a.ndim == 2:
        a = a[:, :-1]
    elif op == "flat":
        a = a.ravel()
    elif op == "scalar":
        a = np.array(a.ravel()[0] if a.size else 0.0)
    elif op == "3d":
        a = a[None]
    elif op in CASTS:
        a = a.astype(CASTS[op])
    elif op == "remove":
        del arrays[key]
        return arrays
    arrays[key] = a
    return arrays


# ---- one property per reader -------------------------------------------------

@EXAMPLES
@given(data=st.data())
def test_data_csv(base, data):
    content = data.draw(mutated_bytes((base / "m.csv").read_bytes()))
    check(base, {"m.csv": content}, "m.csv",
          lambda tmp: ["preprocess", "--input", tmp / "m.csv", "--output", tmp / "out"])


@EXAMPLES
@given(data=st.data())
def test_correlation_envelope_json(base, data):
    doc = json.loads((base / "sim.json").read_text())
    content = data.draw(st.one_of(mutated_json(doc),
                                  mutated_bytes((base / "sim.json").read_bytes())))
    check(base, {"m.json": content}, "m.json",
          lambda tmp: validate_with(base, "--corr", tmp / "m.json"))


@EXAMPLES
@given(data=st.data())
def test_correlation_envelope_sidecar(base, data):
    sidecar = (base / "sim.json.npz").read_bytes()
    if data.draw(st.booleans()):
        content = data.draw(mutated_bytes(sidecar))
    else:
        with np.load(io.BytesIO(sidecar)) as z:
            arrays = data.draw(sidecar_arrays({key: z[key] for key in z.files}))
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        content = buf.getvalue()
    check(base, {"m.json": (base / "sim.json").read_bytes(), "m.json.npz": content},
          "m.json", lambda tmp: validate_with(base, "--corr", tmp / "m.json"))


@EXAMPLES
@given(data=st.data())
def test_sweep_json(base, data):
    doc = json.loads((base / "w.json").read_text())
    content = data.draw(st.one_of(mutated_json(doc),
                                  mutated_bytes((base / "w.json").read_bytes())))
    check(base, {"m.json": content}, "m.json",
          lambda tmp: ["validate", "--sweep", tmp / "m.json", "--output", tmp / "out"])


@EXAMPLES
@given(data=st.data())
def test_labels_csv(base, data):
    content = data.draw(mutated_bytes((base / "labels.csv").read_bytes()))
    check(base, {"m.csv": content}, "m.csv",
          lambda tmp: validate_with(base, "--reference", tmp / "m.csv"))


@EXAMPLES
@given(data=st.data())
def test_fspc_result_json(base, data):
    doc = json.loads((base / "r.json").read_text())
    content = data.draw(st.one_of(mutated_json(doc),
                                  mutated_bytes((base / "r.json").read_bytes())))
    check(base, {"m.json": content}, "m.json",
          lambda tmp: validate_with(base, "--reference", tmp / "m.json"))
