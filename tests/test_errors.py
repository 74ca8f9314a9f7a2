"""Tests for the shared file layer: the replace-on-success writer, the
strict JSON reader, and guards that no other code in the package opens a
file for writing or parses JSON."""

import ast
import re
from pathlib import Path

import pytest

import actmon
from actmon.errors import SchemaError, read_json, replace_on_success

SRC = Path(actmon.__file__).parent
# a literal open() mode that writes, appends or creates
WRITE_MODE = re.compile(r"[rbt+]*[wax][rwxabt+]*")


class TestReplaceOnSuccess:
    def test_body_error_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with replace_on_success(path) as fh:
                fh.write("new")
                raise RuntimeError("part-way")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(OSError):
            with replace_on_success(target) as fh:
                fh.write("new")
        assert list(tmp_path.iterdir()) == [target]

    def test_symlink_is_replaced_not_written_through(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        with replace_on_success(link) as fh:
            fh.write("new")
        assert real.read_text() == "old"
        assert not link.is_symlink() and link.read_text() == "new"


class TestReadJson:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_is_schema_error(self, tmp_path, token):
        path = tmp_path / "a.json"
        path.write_text(f'{{"x": [1.0, {token}]}}')
        with pytest.raises(SchemaError,
                           match="model file is not valid JSON: non-finite"):
            read_json(path, "model")

    def test_standard_json_read(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"x": [1.0, -2, 1e300, "NaN"], "y": null}\n')
        assert read_json(path, "model") == {"x": [1.0, -2, 1e300, "NaN"],
                                            "y": None}


def write_opens(tree):
    """The ``open`` calls in ``tree`` (``open(...)`` or ``x.open(...)``)
    that may write: one argument is a literal mode with ``w``, ``a`` or
    ``x``, or the mode of a plain ``open(path, mode)`` is not a literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            getattr(func, "attr", None)
        if name != "open":
            continue
        args = node.args + [k.value for k in node.keywords if k.arg == "mode"]
        literal = [a.value for a in args if isinstance(a, ast.Constant)
                   and isinstance(a.value, str)]
        if any(WRITE_MODE.fullmatch(m) for m in literal) or (
                isinstance(func, ast.Name) and len(args) > 1
                and not isinstance(args[1], ast.Constant)):
            yield node


def test_only_the_writer_opens_files_for_writing():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, call.lineno) for call in write_opens(tree)]
    errors_tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    (writer,) = [f for f in ast.walk(errors_tree)
                 if isinstance(f, ast.FunctionDef)
                 and f.name == "replace_on_success"]
    assert len(found) == 1, found
    (module, line), = found
    assert module == "errors.py"
    assert writer.lineno <= line <= writer.end_lineno


# the json names that parse text; the strict decoder replaces them all
JSON_PARSERS = {"load", "loads", "JSONDecoder"}


def json_parsers(tree):
    """The uses in ``tree`` of ``json.load``, ``json.loads`` or
    ``json.JSONDecoder``, as attributes of ``json`` or imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in JSON_PARSERS \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "json":
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "json" \
                and any(a.name in JSON_PARSERS for a in node.names):
            yield node


def test_json_parsers_guard_sees_each_form():
    tree = ast.parse("import json\nfrom json import loads\n"
                     "json.load(fh)\njson.loads(s)\njson.dumps(x)\n")
    assert [node.lineno for node in json_parsers(tree)] == [2, 3, 4]


def test_only_the_strict_decoder_parses_json():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, node.lineno) for node in json_parsers(tree)]
    errors_tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    (decoder,) = [node for node in ast.walk(errors_tree)
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["JSON_DECODER"]]
    assert found == [("errors.py", decoder.lineno)], found
