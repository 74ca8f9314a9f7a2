"""Tests for the shared file layer: the replace-on-success writer, and a
guard that no other code in the package opens a file for writing."""

import ast
import re
from pathlib import Path

import pytest

import actmon
from actmon.errors import replace_on_success

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
