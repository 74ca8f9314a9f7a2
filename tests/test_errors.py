"""Tests for the shared file layer: the replace-on-success writer, the
strict JSON reader, the one finiteness rule, the one integer rule, and
guards that no other code in the package opens a file for writing,
imports ``json``, parses JSON or tests finiteness, that only the BDD
store's node makers grow its node table, that only the BDD module spells
the table's keys, that no loop enters numpy's error state once per
iteration, that only the float64 conversion and the trace reader name
``OverflowError``, that only the errors module decides what a number is,
that the trace module states its integer bounds in its header rule, its
record rule and ``extract``, and that only the trace module reads a
record's labels."""

import ast
import math
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import actmon
from actmon import (Layer, ModelSpec, TraceRecord, binarize, build, decide,
                    evaluate, extract, forward, gamma_sweep,
                    identity_selection, make_blobs, query,
                    select_top_fraction, train_toy)
from actmon.errors import (INT64_MAX, SchemaError, all_finite, as_int,
                           as_real, finite_floats, float_array, read_json,
                           replace_on_success)
from actmon.network import evaluate_accuracy, gradient_from_activations

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

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    @pytest.mark.parametrize("least, most", [
        (None, 3), (3, 3), (0, INT64_MAX)])
    def test_integer_at_most_the_bound_is_an_int(self, value, least, most):
        got = as_int(value, "count", least, most)
        assert type(got) is int and got == 3

    @pytest.mark.parametrize("value, least, most, message", [
        (-2, 0, None, "^count must be >= 0, got -2$"),
        (np.int64(0), 1, None, "^count must be >= 1, got 0$"),
        (True, 0, None, "^count True is not an integer$"),
        (2.0, 0, None, "^count 2.0 is not an integer$"),
        ("2", None, None, "^count '2' is not an integer$"),
        (4, 0, 3, "^count must be <= 3, got 4$"),
        (-1, 0, 3, "^count must be >= 0, got -1$"),
        (np.uint64(2 ** 63), 0, INT64_MAX,
         f"^count must be <= {INT64_MAX}, got {2 ** 63}$"),
        (10 ** 20, None, INT64_MAX,
         f"^count must be <= {INT64_MAX}, got {10 ** 20}$"),
        (True, None, 3, "^count True is not an integer$"),
    ], ids=["below", "numpy-below", "bool", "float", "string", "above",
            "below-both", "numpy-beyond-int64", "beyond-int64", "bool-most"])
    def test_refusals_name_the_argument(self, value, least, most, message):
        with pytest.raises(ValueError, match=message):
            as_int(value, "count", least, most)


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


# an int that numpy cannot convert to float64: it raises OverflowError
HUGE = 10 ** 400


class TestFloatArray:
    def test_numbers_become_float64(self):
        values = np.array([0.5, -1.0])
        assert float_array(values, "x") is values
        got = float_array([[1, 2.5]], "x")
        assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.5]]

    def test_int_beyond_float64_is_named(self):
        with pytest.raises(ValueError,
                           match="^scores beyond the float64 range$"):
            float_array([1.0, HUGE], "scores")

    @pytest.fixture(scope="class")
    def toy(self):
        """A toy model (2 inputs, ReLU layers of 16 and 14, 3 classes),
        its records, a monitor of its layer 1 and a row of 14 activations
        that holds ``HUGE``."""
        x, y = make_blobs(per_class=10, seed=4)
        model = train_toy(x, y, seed=4, epochs=2)
        records = extract(model, x, y, 1)[1]
        return SimpleNamespace(
            model=model, records=records, row=[HUGE] + [0.0] * 13,
            mon=build(records, identity_selection(14, layer=1), gamma=1))

    ENTRY_POINTS = {
        "binarize": (lambda t: binarize(t.row, t.mon.selection),
                     "activation"),
        "query": (lambda t: query(t.mon, t.row, 0), "activation"),
        "build": (lambda t: build([TraceRecord("s0", 0, 0, t.row)],
                                  t.mon.selection, 0), "activation"),
        "evaluate": (lambda t: evaluate(
            t.mon, [TraceRecord("s0", 0, 0, t.row)]), "activation"),
        "gamma_sweep": (lambda t: gamma_sweep(
            t.records, [TraceRecord("s0", 0, 0, t.row)], t.mon.selection,
            [0, 1]), "activation"),
        "select_top_fraction": (lambda t: select_top_fraction(t.row, 0.5),
                                "scores"),
        "forward": (lambda t: forward(t.model, [HUGE, 0.0]),
                    "layer 0 input"),
        "gradient_from_activations": (
            lambda t: gradient_from_activations(t.model, t.row, 1, 0),
            "layer 2 input"),
        "evaluate_accuracy": (
            lambda t: evaluate_accuracy(t.model, [[0.0, HUGE]], [0]),
            "layer 0 input"),
        "decide": (lambda t: decide([1.0, HUGE]), "output"),
        "train_toy": (lambda t: train_toy([[HUGE, 0.0], [0.0, 1.0]], [0, 1],
                                          epochs=0), "inputs"),
        "model-weights": (lambda t: ModelSpec(
            [Layer([[1.0, HUGE]], [0.0, 0.0], "none")]), "layer 0: weights"),
        "model-bias": (lambda t: ModelSpec(
            [Layer([[1.0, 2.0]], [HUGE, 0.0], "none")]), "layer 0: bias"),
        "make_blobs": (lambda t: make_blobs(per_class=1, offset=HUGE),
                       "offset"),
        "extract": (lambda t: extract(t.model, [[HUGE, 0.0]], [0], 1),
                    "inputs"),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_names_its_argument(self, toy, entry):
        """An int beyond float64 in float data given to the library is a
        ``ValueError`` naming the argument, not numpy's ``OverflowError``."""
        call, what = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=(
                f"^{re.escape(what)} beyond the float64 range$")):
            call(toy)

    @pytest.mark.parametrize("value, first", [
        (["0.5", "-1"], "'0.5'"),
        ([0.5, None], "None"),
        (None, "None"),
        ([True, False], "True"),
        (np.array([[False], [True]]), "False"),
        ({"a": 1.0}, "{'a': 1.0}"),
        ([1.0, 2j], "2j"),
        ([[1.0, True], [HUGE, "a"]], "True"),
    ], ids=["strings", "none-among-numbers", "none", "bools", "bool-array",
            "dict", "complex", "bool-among-objects"])
    def test_what_numpy_reads_as_no_numbers_is_refused(self, value, first):
        with pytest.raises(ValueError, match=(
                f"^x must hold numbers, got {re.escape(first)}$")):
            float_array(value, "x")

    @pytest.mark.parametrize("value, expected", [
        ([True, 0.5], [1.0, 0.5]),
        ([1, np.float32(0.5)], [1.0, 0.5]),
        (np.array([2, 3], dtype=np.uint8), [2.0, 3.0]),
        ([2 ** 64, Fraction(1, 2)], [2.0 ** 64, 0.5]),
        ([], []),
    ], ids=["bool-among-floats", "numpy-scalar", "uint8", "objects", "empty"])
    def test_what_numpy_reads_as_numbers_is_read(self, value, expected):
        got = float_array(value, "x")
        assert got.dtype == np.float64 and got.tolist() == expected

    # a value that is no number, given at a width; the first one is named
    NO_NUMBERS = {
        "string": (lambda w: ["0.5"] + ["-1"] * (w - 1), "'0.5'"),
        "none": (lambda w: None, "None"),
        "none-in-row": (lambda w: [None] + [0.0] * (w - 1), "None"),
        "bools": (lambda w: [True] + [False] * (w - 1), "True"),
        "dict": (lambda w: {"a": 1.0}, "{'a': 1.0}"),
    }

    # each entry point given ``bad(width)`` where it reads floats, and the
    # argument its refusal names
    NO_NUMBER_ENTRY_POINTS = {
        "binarize": (lambda t, bad: binarize(bad(14), t.mon.selection),
                     "activation"),
        "query": (lambda t, bad: query(t.mon, bad(14), 0), "activation"),
        "build": (lambda t, bad: build([TraceRecord("s0", 0, 0, bad(14))],
                                       t.mon.selection, 0), "activation"),
        "forward": (lambda t, bad: forward(t.model, bad(2)), "layer 0 input"),
        "decide": (lambda t, bad: decide(bad(3)), "output"),
        "gradient_from_activations": (
            lambda t, bad: gradient_from_activations(t.model, bad(14), 1, 0),
            "layer 2 input"),
        "model-weights": (lambda t, bad: ModelSpec(
            [Layer([bad(2)], [0.0, 0.0], "none")]), "layer 0: weights"),
        "model-bias": (lambda t, bad: ModelSpec(
            [Layer([[1.0, 2.0]], bad(2), "none")]), "layer 0: bias"),
        "train_toy": (lambda t, bad: train_toy([bad(2), bad(2)], [0, 1],
                                               epochs=0), "inputs"),
        "extract": (lambda t, bad: extract(t.model, [bad(2)], [0], 1),
                    "inputs"),
        "select_top_fraction": (
            lambda t, bad: select_top_fraction(bad(14), 0.5), "scores"),
    }

    @pytest.mark.parametrize("kind", sorted(NO_NUMBERS))
    @pytest.mark.parametrize("entry", sorted(NO_NUMBER_ENTRY_POINTS))
    def test_every_entry_point_names_the_first_value_that_is_no_number(
            self, toy, entry, kind):
        """Float data given to the library is read by one number rule: a
        string, ``None``, bools alone or a dict is a ``ValueError`` naming
        the argument and the first value that is no number."""
        call, what = self.NO_NUMBER_ENTRY_POINTS[entry]
        bad, first = self.NO_NUMBERS[kind]
        with pytest.raises(ValueError, match=(
                f"^{re.escape(what)} must hold numbers, "
                f"got {re.escape(first)}$")):
            call(toy, bad)


class TestAsReal:
    @pytest.mark.parametrize("value", [
        0.5, 1, np.float32(0.5), np.int64(1), np.array(0.5), Fraction(1, 2)],
        ids=["float", "int", "float32", "int64", "0-d", "fraction"])
    def test_one_number_is_a_float(self, value):
        got = as_real(value, "rate")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value, message", [
        (True, "rate must hold numbers, got True"),
        ("0.5", "rate must hold numbers, got '0.5'"),
        (None, "rate must hold numbers, got None"),
        (math.nan, "rate must be one finite number, got nan"),
        (-math.inf, "rate must be one finite number, got -inf"),
        ([0.5, 0.5], "rate must be one finite number, got [0.5, 0.5]"),
        (np.array([0.5]), "rate must be one finite number, got array([0.5])"),
        (HUGE, "rate beyond the float64 range"),
    ], ids=["bool", "string", "none", "nan", "infinite", "list", "1-d",
            "huge"])
    def test_refusals_name_the_argument(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            as_real(value, "rate")


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


def json_imports(tree):
    """The statements in ``tree``, at any depth, that import ``json`` or
    a submodule of it (``json.decoder``), plainly or from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "json" or name.startswith("json.") for name in names):
            yield node


def test_json_import_guard_sees_each_form():
    tree = ast.parse("import json\n"
                     "import os, json.decoder as d\n"
                     "from json import dumps\n"
                     "from json.encoder import JSONEncoder\n"
                     "import jsonschema\n"
                     "from .json import x\n"
                     "def f():\n"
                     "    import json\n")
    assert [node.lineno for node in json_imports(tree)] == [1, 2, 3, 4, 8]


def test_only_the_errors_module_imports_json():
    """Every artifact is written by the one encoder ``JSON_LINE`` and read
    by the one decoder ``JSON_DECODER``, both made in ``errors.py``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, node.lineno) for node in json_imports(tree)]
    assert found == [], found


# numpy's dtype kinds of numbers: bool, signed, unsigned, float, complex
NUMBER_KINDS = set("biufc")


def number_tests(tree):
    """The nodes in ``tree`` that decide what a number is on their own: an
    import of ``numbers`` or from it, a ``.Real`` attribute, a dtype kind
    string that holds ``"f"`` and an integer kind (``"iuf"``), and a
    literal tuple, list or set of ``int`` and ``float``, JSON's number
    types."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "numbers" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numbers" and not node.level
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "Real"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            hit = "f" in node.value and bool({"i", "u"} & set(node.value)) \
                and set(node.value) <= NUMBER_KINDS
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            hit = sorted(getattr(e, "id", "") for e in node.elts) \
                == ["float", "int"]
        else:
            hit = False
        if hit:
            yield node


def test_number_guard_sees_each_form():
    tree = ast.parse("import numbers\n"
                     "import os, numbers as n\n"
                     "from numbers import Real\n"
                     "isinstance(x, n.Real)\n"
                     "a.dtype.kind in 'iuf'\n"
                     "T = frozenset((int, float))\n"
                     "type(v) in {float, int}\n"
                     "b.dtype.kind in 'iu'\n"
                     "c = (int, str)\n"
                     "from .numbers import x\n"
                     "def f():\n"
                     "    return [int, float]\n")
    assert sorted({node.lineno for node in number_tests(tree)}) \
        == [1, 2, 3, 4, 5, 6, 7, 12]


def test_only_the_errors_module_imports_numbers():
    """``float_array`` and ``as_real`` decide for every value a caller
    passes, and ``JSON_NUMBERS`` names the types a JSON number loads as,
    all in ``errors.py``; no other module keeps a number test of its own."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, node.lineno) for node in number_tests(tree)]
    assert found == [], found


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
    holds.  The loader ``from_dict`` writes a whole table, and
    refuses equal children and duplicate triples itself, which
    ``TestTableMutations`` checks."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, func) for func, _ in table_writes(tree)}
    assert found == {("bdd.py", "__init__"), ("bdd.py", "_mk"),
                     ("bdd.py", "_encode"), ("bdd.py", "from_dict")}, found


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
TABLE_KEYS = ("var", "low", "high", "roots")


def table_key_spellings(tree):
    """The line of every string constant in ``tree``, docstrings aside,
    that spells a key of the BDD table as JSON: one that is the key, as
    in ``data["roots"]``, or holds it in double quotes, as ``'"var":'``
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
    tree = ast.parse('"""The "var" column and roots."""\n'
                     'def save(data, text, n):\n'
                     '    """Splits on \'"low":[]\'."""\n'
                     '    head, tail = text.split(\'"low":[]\', 1)\n'
                     '    data["roots"] = f\'{head}"high":{n}\'\n'
                     '    return f"variable: {n}", "lowest", "var_ids"\n')
    assert sorted(table_key_spellings(tree)) == [4, 5, 5]


def test_only_the_bdd_module_spells_the_table_keys():
    """The table's format lives in ``bdd.py``: ``BddStore.to_dict``
    writes it and ``from_dict`` reads it; a monitor holds its object."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "bdd.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, line) for line in table_key_spellings(tree)]
    assert found == [], found


def errstates_in_loops(tree):
    """The sorted lines of every ``with`` in ``tree`` that enters an
    ``errstate`` (``np.errstate(...)`` or a bare ``errstate(...)``, as any
    of its items) inside a ``for`` or ``while`` loop, in its body or its
    ``else``, however deep, a function defined there included."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                    isinstance(item.context_expr, ast.Call)
                    and "errstate" in (
                        getattr(item.context_expr.func, "attr", None),
                        getattr(item.context_expr.func, "id", None))
                    for item in node.items):
                found.add(node.lineno)
    return sorted(found)


def test_errstate_loop_guard_sees_each_form():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import errstate\n"
                     "with np.errstate(over='ignore'):\n"
                     "    for row in rows:\n"
                     "        pass\n"
                     "for row in rows:\n"
                     "    with np.errstate(all='ignore'):\n"
                     "        pass\n"
                     "while rows:\n"
                     "    for row in rows:\n"
                     "        if row:\n"
                     "            with open(row) as fh, errstate():\n"
                     "                pass\n"
                     "for row in rows:\n"
                     "    with open(row) as fh:\n"
                     "        pass\n"
                     "else:\n"
                     "    def step():\n"
                     "        with np.errstate(divide='ignore'):\n"
                     "            pass\n")
    assert errstates_in_loops(tree) == [7, 12, 19]


def test_no_errstate_is_entered_per_iteration():
    """Entering and leaving ``np.errstate`` costs a few microseconds, as
    much as a small product: a loop enters it once, around the loop."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, line) for line in errstates_in_loops(tree)]
    assert found == [], found


def name_uses(tree, name):
    """(function, line) of every use in ``tree`` of ``name``, bare or as
    an attribute (``builtins.OverflowError``), called, caught, raised or
    otherwise; named by the innermost enclosing function (None at module
    level)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Name) and node.id == name \
                or isinstance(node, ast.Attribute) and node.attr == name:
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_overflow_guard_sees_each_form():
    tree = ast.parse("try:\n"
                     "    pass\n"
                     "except OverflowError:\n"
                     "    pass\n"
                     "def parse(s):\n"
                     "    try:\n"
                     "        return int(s)\n"
                     "    except (ValueError, OverflowError):\n"
                     "        raise builtins.OverflowError(s)\n"
                     "class C:\n"
                     "    def f(self):\n"
                     "        return OverflowError\n"
                     "    def g(self):\n"
                     "        return ArithmeticError, 'OverflowError'\n")
    assert name_uses(tree, "OverflowError") == [
        (None, 3), ("parse", 8), ("parse", 9), ("f", 12)]


def test_only_the_file_readers_name_overflow_error():
    """``as_int`` bounds every integer argument, so none overflows inside
    numpy or ``range``; only an int beyond float64, which is data, reaches
    an ``OverflowError``: in ``float_array``, the one float64 conversion
    of file and caller data, or in the trace reader's per-line test, which
    then reads the line again through the record rule."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, func)
                  for func, _ in name_uses(tree, "OverflowError")}
    assert found == {("errors.py", "float_array"),
                     ("traces.py", "_parse_block")}, found


def test_one_record_rule_bounds_the_labels():
    """The trace module calls ``as_int`` in its header rule, its record
    rule (the labels, for writer, ``extract`` and reader alike) and
    ``extract``'s layer argument; no other function there restates a
    bound."""
    tree = ast.parse((SRC / "traces.py").read_text(encoding="utf-8"))
    assert {func for func, _ in name_uses(tree, "as_int")} \
        == {"_check_header", "_row", "extract"}


# a trace record's label fields
LABEL_FIELDS = ("true_label", "pred_label")


def label_uses(tree):
    """The sorted lines in ``tree`` that read or set a label field of a
    record: an attribute (``r.true_label``), or the field's name handed to
    ``getattr`` or ``attrgetter``.  A key of a dict, as the trace reader's
    ``row["true_label"]``, and a parameter or variable of that name are
    no field of a record."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LABEL_FIELDS:
            found.add(node.lineno)
        elif isinstance(node, ast.Call) and {
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)} & {"getattr", "attrgetter"} \
                and any(isinstance(arg, ast.Constant)
                        and arg.value in LABEL_FIELDS for arg in node.args):
            found.add(node.lineno)
    return sorted(found)


def test_label_read_guard_sees_each_form():
    tree = ast.parse("import operator\n"
                     "from operator import attrgetter\n"
                     "def build(traces, true_label):\n"
                     "    kept = [r for r in traces if r.true_label]\n"
                     "    pred_label = row['pred_label'] + true_label\n"
                     "    x = getattr(traces[0], 'pred_label')\n"
                     "    f = operator.attrgetter('id', 'true_label')\n"
                     "    g = attrgetter('pred_label')\n"
                     "    traces[0].pred_label = pred_label\n"
                     "    return r.true_labels, getattr(r, 'id')\n")
    assert label_uses(tree) == [4, 6, 7, 8, 9]


def test_only_the_trace_module_reads_record_labels():
    """``traces.labels`` reads a record set's labels, by the label rule,
    for ``build``, the batch judge, the report rows, ``score_neurons``
    and the CLI; the trace writer's columns are the trace module's own.
    Scalar ``query`` takes its predicted label as an argument."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "traces.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, line) for line in label_uses(tree)]
    assert found == [], found
