"""Tests for the shared file layer: the replace-on-success writer, the
strict JSON reader, the one finiteness rule, and guards that no other code
in the package opens a file for writing, parses JSON or tests finiteness,
that only the BDD store's node makers grow its node table, and that only
the BDD module spells the table's keys."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import actmon
from actmon.errors import (SchemaError, all_finite, as_int, finite_floats,
                           read_json, replace_on_success)

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


class TestAsInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    @pytest.mark.parametrize("least", [None, 0, 3])
    def test_integer_at_least_the_bound_is_an_int(self, value, least):
        got = as_int(value, "count", least)
        assert type(got) is int and got == 3

    @pytest.mark.parametrize("value, least, message", [
        (-2, 0, "^count must be >= 0, got -2$"),
        (np.int64(0), 1, "^count must be >= 1, got 0$"),
        (True, 0, "^count True is not an integer$"),
        (2.0, 0, "^count 2.0 is not an integer$"),
        ("2", None, "^count '2' is not an integer$"),
    ], ids=["below", "numpy-below", "bool", "float", "string"])
    def test_refusals_name_the_argument(self, value, least, message):
        with pytest.raises(ValueError, match=message):
            as_int(value, "count", least)


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


class TestAllFinite:
    @pytest.mark.parametrize("values", [
        [], np.zeros((0, 3)), [0.0, -0.0], [1.0, -2.5],
        [1e200, -1e200], [[1e200], [-1e200]], [np.finfo(float).max] * 3,
        [5e-324], 1e200, np.arange(12.0).reshape(3, 4)[:, ::2] * 1e200,
    ], ids=["empty", "empty-2d", "zeros", "plain", "squares-overflow",
            "squares-overflow-2d", "max", "subnormal", "0-d", "strided"])
    def test_finite(self, values):
        assert all_finite(np.asarray(values, dtype=np.float64)) is True

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("fill", [1.0, 1e200], ids=["plain", "big"])
    def test_non_finite_anywhere(self, bad, at, fill):
        values = np.full(5, fill)
        values[at] = bad
        assert all_finite(values) is False
        assert all_finite(values.reshape(5, 1)) is False
        assert all_finite(np.array(bad)) is False

    def test_file_numbers_whose_squares_overflow_are_read(self):
        assert finite_floats([[1e200, -1e200]], "weights", 2).tolist() \
            == [[1e200, -1e200]]
        with pytest.raises(SchemaError, match="bias must hold finite"):
            finite_floats([1e200, 1e999], "bias", 1)


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


def finiteness_tests(tree):
    """The names of the functions in ``tree`` that call an ``isfinite``."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Attribute) and node.attr == "isfinite"
                for node in ast.walk(func)):
            yield func.name


def test_finiteness_is_tested_only_by_all_finite():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, name) for name in finiteness_tests(tree)]
    # train_toy tests its scalar loss, not an array
    assert found == [("errors.py", "all_finite"),
                     ("network.py", "train_toy")], found


# the BDD node table's columns, and the list methods that would grow them
TABLE_COLUMNS = {"_var", "_low", "_high"}
LIST_GROWERS = {"append", "extend", "insert"}


def table_writes(tree):
    """(function, column) for every write in ``tree`` to an attribute
    ``_var``, ``_low`` or ``_high``: an assignment to it or to an item of
    it, plain, annotated, augmented or unpacked, or an ``append``,
    ``extend`` or ``insert`` call on it; named by the innermost enclosing
    function (None at module level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        targets = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in LIST_GROWERS:
            targets = [node.func.value]
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, (ast.Subscript, ast.Starred)):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) \
                    and target.attr in TABLE_COLUMNS:
                found.append((func, target.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_table_write_guard_sees_each_form():
    tree = ast.parse("s._var.append(1)\n"
                     "def grow(s):\n"
                     "    s._low.extend([1])\n"
                     "    s._high += [1]\n"
                     "    s._var[2], n = 3, 4\n"
                     "    s._low: list = []\n"
                     "    f = lambda: s._high.insert(0, 1)\n"
                     "    var, low = s._var, s._low\n"
                     "    return s._var[0] + len(s._high)\n")
    assert table_writes(tree) == [
        (None, "_var"), ("grow", "_low"), ("grow", "_high"),
        ("grow", "_var"), ("grow", "_low"), ("<lambda>", "_high")]


def test_only_the_node_makers_grow_the_bdd_table():
    """Node creation has one rule (``_mk``) and one level-wise batch form
    (``_encode``); a second writer could append a node the table already
    holds."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, func) for func, _ in table_writes(tree)}
    assert found == {("bdd.py", "__init__"), ("bdd.py", "_mk"),
                     ("bdd.py", "_encode")}, found


def self_calls(tree):
    """The dotted name of every function in ``tree`` that calls itself:
    a method through ``self.``, any other function by its bare name.  A
    call through another object, such as ``warnings.warn`` in ``warn``,
    is not one, nor is a method's call of the builtin it is named after."""
    found = []

    def visit(node, scope, in_class):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                if isinstance(call, ast.Call) and (
                        isinstance(func, ast.Attribute) and in_class
                        and func.attr == node.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                        or isinstance(func, ast.Name) and not in_class
                        and func.id == node.name):
                    found.append(scope + node.name)
                    break
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}{node.name}."
        for child in ast.iter_child_nodes(node):
            visit(child, scope, isinstance(node, ast.ClassDef))

    visit(tree, "", False)
    return found


def test_self_call_guard_sees_each_form():
    tree = ast.parse("import warnings\n"
                     "def warn(m):\n"
                     "    warnings.warn(m)\n"
                     "def fact(n):\n"
                     "    return n * fact(n - 1)\n"
                     "class S:\n"
                     "    def walk(self, n):\n"
                     "        return self.walk(n) or other.walk(n)\n"
                     "    def count(self, n):\n"
                     "        def count(m):\n"
                     "            return count(m - 1)\n"
                     "        return count(n)\n"
                     "    def len(self):\n"
                     "        return len(self.items)\n")
    assert self_calls(tree) == ["fact", "S.walk", "S.count.count"]


def test_only_exists_recurses():
    """``exists`` and its or-recursion go one variable deeper per call, at
    most MAX_VARS + 3 frames; every other operation is a loop, so no width
    raises ``RecursionError``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, name) for name in self_calls(tree)]
    assert found == [("bdd.py", "BddStore._or"),
                     ("bdd.py", "BddStore._exists")], found


# keys of the BDD table that only its writer and its reader name
TABLE_KEYS = ("nodes", "false_id", "true_id")


def table_key_spellings(tree):
    """The line of every string constant in ``tree``, docstrings aside,
    that spells a key of the BDD table as JSON: one that is the key, as
    in ``data["nodes"]``, or holds it in double quotes, as ``'"nodes":'``
    does, in an f-string too."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs \
                and any(node.value == key or f'"{key}"' in node.value
                        for key in TABLE_KEYS):
            yield node.lineno


def test_table_key_guard_sees_each_form():
    tree = ast.parse('"""The "nodes" list and true_id."""\n'
                     'def save(data, text, n):\n'
                     '    """Splits on \'"nodes":[]\'."""\n'
                     '    head, tail = text.split(\'"nodes":[]\', 1)\n'
                     '    data["false_id"] = f\'{head}"true_id":{n}\'\n'
                     '    return f"store nodes: {n}", "node_ids"\n')
    assert sorted(table_key_spellings(tree)) == [4, 5, 5]


def test_only_the_bdd_module_spells_the_table_keys():
    """The table's format lives in ``bdd.py``: ``BddStore.to_json``
    writes it and ``from_dict`` reads it; a monitor embeds its text."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "bdd.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, line) for line in table_key_spellings(tree)]
    assert found == [], found
