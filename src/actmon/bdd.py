"""Reduced ordered binary decision diagrams over fixed-width bit patterns.

A :class:`BddStore` owns a hash-consed node table for one fixed variable
order (variable ``i`` is bit ``i`` of a pattern, ``0 <= i < n_vars``).
Every function over patterns is represented by a single canonical node id,
so semantically equal sets always share one root.  The store supports the
handful of operations a monitor needs: encoding sets of patterns level by
level, membership evaluation, the capped Hamming distance from a pattern to
a set (the monitor's query), exact model counting, small-width enumeration,
and a deterministic plain-data form (:meth:`BddStore.to_dict`,
:func:`from_dict`) that monitor files embed, in which a node's id is its
position in the table; reading and writing files is the caller's job.
Existential quantification over one variable (:meth:`BddStore.exists`) is
the paper's distance-1 step; no monitor uses it, the tests' Hamming balls do.

There are no complement edges and no dynamic reordering; canonicity is
plain Bryant-style reduction (no node with equal children, no duplicate
``(var, low, high)`` triples, variable indices strictly increasing from
root to terminal).

Lifecycle: a store is created mutable ("build phase", single writer).
After :meth:`BddStore.freeze` all node-creating operations raise
:class:`~actmon.errors.FrozenStoreError`; the read operations
(``contains``, ``distance``, ``sat_count``, ``enumerate_patterns``) never
mutate the store and may run concurrently on a frozen store.  The store
holds the node table and no cache: every memo lives for one call, and so
does the unique table (:meth:`BddStore._index`) a node-creating call makes.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FormatVersionError, FrozenStoreError, SchemaError, warn

FALSE = 0
TRUE = 1

SERIAL_VERSION = 1

# bdd packages get impractical somewhere in the low hundreds of variables;
# each recursive call goes one variable deeper, so at this cap an operation
# needs at most 259 frames beyond its caller's, well inside Python's default
# recursion limit of 1000
MAX_VARS = 256
VAR_WARN_THRESHOLD = 200

# enumerate_patterns is a test/diagnostics oracle, not a production path
ENUMERATE_WIDTH_GUARD = 20

# the values a pattern bit may equal
_BITS = frozenset((0, 1))


class BddRef:
    """Reference to one node of a specific :class:`BddStore`.

    Refs are value objects: equal iff they name the same node of the same
    store. Canonicity makes this semantic equality of the denoted sets.
    """

    __slots__ = ("store", "node")

    def __init__(self, store: "BddStore", node: int):
        self.store = store
        self.node = node

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BddRef):
            return NotImplemented
        return self.store is other.store and self.node == other.node

    def __hash__(self) -> int:
        return hash((id(self.store), self.node))

    def __repr__(self) -> str:
        return f"BddRef(node={self.node})"


class BddStore:
    """Hash-consed ROBDD node table over ``n_vars`` pattern bits."""

    def __init__(self, n_vars: int):
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        if n_vars > MAX_VARS:
            raise ValueError(
                f"n_vars {n_vars} exceeds the variable cap {MAX_VARS}")
        if n_vars > VAR_WARN_THRESHOLD:
            warn(f"{n_vars} BDD variables; operations may become "
                 f"impractical above {VAR_WARN_THRESHOLD}")
        self.n_vars = n_vars
        self.frozen = False
        # ids 0 and 1 are the terminals; real nodes start at 2
        self._var: list[int] = [n_vars, n_vars]
        self._low: list[int] = [FALSE, TRUE]
        self._high: list[int] = [FALSE, TRUE]

    # -- lifecycle ---------------------------------------------------------

    def freeze(self) -> None:
        """Forbid new nodes; the table itself is left as it is."""
        self.frozen = True

    def _require_mutable(self) -> None:
        if self.frozen:
            raise FrozenStoreError("store is frozen; no new nodes allowed")

    def __len__(self) -> int:
        """Number of nodes in the table, terminals included."""
        return len(self._var)

    # -- node construction -------------------------------------------------

    def _index(self) -> dict[tuple[int, int, int], int]:
        """``(var, low, high) -> id`` of every node: the unique table of
        one node-creating call, which drops it on return."""
        start = TRUE + 1
        return dict(zip(zip(self._var[start:], self._low[start:],
                            self._high[start:]), range(start, len(self._var))))

    def _mk(self, var: int, low: int, high: int, unique: dict) -> int:
        """``low`` if the children are equal, else the node that the calling
        operation's index ``unique`` names, else a new one it then names."""
        if low == high:
            return low
        key = (var, low, high)
        found = unique.get(key)
        if found is None:
            found = unique[key] = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
        return found

    def _check_ref(self, ref: BddRef) -> int:
        if not isinstance(ref, BddRef):
            raise TypeError(f"expected BddRef, got {type(ref).__name__}")
        if ref.store is not self:
            raise ValueError("BddRef belongs to a different store")
        if not 0 <= ref.node < len(self._var):
            raise ValueError(f"invalid node id {ref.node}")
        return ref.node

    def _check_pattern(self, bits: Sequence[int]) -> Sequence[int]:
        """``bits`` itself, once its width is ``n_vars`` and one set test
        finds every bit equal to 0 or 1: ``True`` and ``1.0`` pass; ``2``,
        ``0.5``, NaN and an unhashable element raise ``ValueError``."""
        if len(bits) != self.n_vars:
            raise ValueError(
                f"pattern width {len(bits)} != store width {self.n_vars}")
        try:
            valid = _BITS.issuperset(bits)
        except TypeError:  # an unhashable element is no bit either
            valid = False
        if not valid:
            raise ValueError("pattern bits must be 0 or 1")
        return bits

    # -- set construction --------------------------------------------------

    def encode_set(self, patterns: Iterable[Sequence[int]]) -> BddRef:
        """The set of the given patterns; none give the empty set.  Each
        pattern is checked, then :meth:`_encode` builds one group."""
        self._require_mutable()
        rows = [self._check_pattern(bits) for bits in patterns]
        bits = np.array(rows, dtype=np.int8).reshape(len(rows), self.n_vars)
        roots = self._encode(bits, np.zeros(len(rows), dtype=np.intp))
        return BddRef(self, roots.get(0, FALSE))

    def _encode(self, bits: np.ndarray, groups: np.ndarray) -> dict[int, int]:
        """The root of each group's set, by label, from an (N, ``n_vars``)
        0/1 array taken unchecked and one label >= 0 per row.  One pass, a
        few numpy calls per level from bit ``n_vars - 1`` up, appends the
        nodes in the order of encoding each group in turn recursively.  A
        store that holds nodes is indexed once, so keys name earlier nodes."""
        if not len(bits):
            return {}
        packed = np.concatenate((groups.astype(">u4")[:, None].view(np.uint8),
                                 np.packbits(bits, axis=1)), axis=1)
        _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                             return_index=True)
        rows, labels = bits[first], groups[first]
        # split[i]: the first bit where the rows i and i + 1 differ, or -1
        split = np.concatenate(((rows[1:] != rows[:-1]).argmax(axis=1), [-1]))
        split[:-1][labels[1:] != labels[:-1]] = -1
        # id << shift[var][row]: the id's half of the key low << 32 | high
        shift = np.ascontiguousarray(rows.T ^ 1) << 5
        base = count = len(self._var)
        unique = self._index() if base > TRUE + 1 else None
        # each segment of rows at this depth: its node (TRUE first), last row
        ids, ends, made = np.ones_like(split), np.arange(len(rows)), []
        joins, distinct = set(split.tolist()), len(rows) == 1
        for var in range(self.n_vars - 1, -1, -1):
            key = ids << shift[var][ends]
            if var in joins:  # a 0-segment and the 1-segment after it
                join = split[ends] == var
                key[1:] |= key[:-1] * join[:-1]
                key, ends = key[~join], ends[~join]
            at, slot = ends, None
            if not distinct:  # distinct nodes give distinct keys from here
                key, at, slot = np.unique(key, return_index=True,
                                          return_inverse=True)
                at, distinct = ends[at], len(key) == len(slot)
            ids = np.arange(count, count + len(key))
            if slot is not None and var in joins:  # equal children: no node
                ids = np.where(key >> 32 == key % 2**32, key >> 32, ids)
            if unique:  # a key may name an earlier call's node
                ids = np.array([unique.get((var, k >> 32, k % 2**32), i)
                                for k, i in zip(key.tolist(), ids.tolist())])
            made.append((np.intp(var).repeat(len(key)), ids, key, at))
            count += len(key)
            ids = ids if slot is None else ids[slot]
        # a key that kept its own id (from base up, in the order made) is a
        # new node; the table takes them by the row that first needs them
        var, tmp, key, end = map(np.concatenate, zip(*made))
        new = (tmp == np.arange(base, count)).nonzero()[0]
        new = new[end[new].argsort(kind="stable")]
        final = np.arange(count)
        final[base + new] = np.arange(base, base + len(new))
        self._var += var[new].tolist()
        self._low += final[key[new] >> 32].tolist()
        self._high += final[key[new] % 2**32].tolist()
        return dict(zip(labels[ends].tolist(), final[ids].tolist()))

    # exists passes one memo down its recursion, seeded with the index:
    # (var, low, high) triples key the nodes, (a, b) pairs the or results,
    # node ids the exists results
    def _or(self, a: int, b: int, memo: dict) -> int:
        if a == b or b == FALSE:
            return a
        if a == FALSE:
            return b
        if a == TRUE or b == TRUE:
            return TRUE
        if a > b:  # commutative, so normalize the memo key
            a, b = b, a
        key = (a, b)
        found = memo.get(key)
        if found is not None:
            return found
        va, vb = self._var[a], self._var[b]
        var = min(va, vb)
        a0, a1 = (self._low[a], self._high[a]) if va == var else (a, a)
        b0, b1 = (self._low[b], self._high[b]) if vb == var else (b, b)
        found = memo[key] = self._mk(
            var, self._or(a0, b0, memo), self._or(a1, b1, memo), memo)
        return found

    def exists(self, var: int, a: BddRef) -> BddRef:
        """Existentially quantify variable ``var`` (0-based) out of ``a``.

        The result denotes every pattern that is in ``a`` after forcing bit
        ``var`` to either value, i.e. the don't-care expansion on that bit;
        it is always a superset of ``a``.
        """
        self._require_mutable()
        if not 0 <= var < self.n_vars:
            raise ValueError(
                f"variable index {var} out of range 0..{self.n_vars - 1}")
        node = self._check_ref(a)
        return BddRef(self, self._exists(var, node, self._index()))

    def _exists(self, var: int, a: int, memo: dict) -> int:
        if a <= TRUE or self._var[a] > var:
            # ordering: var cannot occur below a node with a larger index
            return a
        found = memo.get(a)
        if found is None:
            low, high = self._low[a], self._high[a]
            if self._var[a] == var:
                found = self._or(low, high, memo)
            else:
                found = self._mk(self._var[a], self._exists(var, low, memo),
                                 self._exists(var, high, memo), memo)
            memo[a] = found
        return found

    # -- read operations (safe on frozen stores) ----------------------------

    def contains(self, a: BddRef, bits: Sequence[int]) -> bool:
        """Membership test; follows one root-to-terminal path."""
        node = self._check_ref(a)
        self._check_pattern(bits)
        var, low, high = self._var, self._low, self._high
        while node > TRUE:
            node = high[node] if bits[var[node]] else low[node]
        return node == TRUE

    def contains_with_cost(
            self, a: BddRef, bits: Sequence[int]) -> tuple[bool, int]:
        """Membership test plus the number of non-terminal nodes visited.

        The visit count is at most ``n_vars`` because variable indices
        strictly increase along every path.
        """
        node = self._check_ref(a)
        self._check_pattern(bits)
        var, low, high = self._var, self._low, self._high
        visits = 0
        while node > TRUE:
            visits += 1
            node = high[node] if bits[var[node]] else low[node]
        return node == TRUE, visits

    def distance(self, a: BddRef, bits: Sequence[int], cap: int) -> int:
        """Least Hamming distance from ``bits`` to a member of ``a``, or
        ``cap`` (at least 1) if no member is closer; the empty set gives
        ``cap``.  At ``cap`` 1 this is the :meth:`contains` walk; above it,
        the checked ref and pattern go to the search :meth:`_distance`."""
        if cap < 1:
            raise ValueError(f"distance cap must be >= 1, got {cap}")
        if cap == 1:
            return 0 if self.contains(a, bits) else 1
        node = self._check_ref(a)
        self._check_pattern(bits)
        return self._distance(node, bits, cap)

    def _distance(self, node: int, bits: Sequence[int], cap: int) -> int:
        """:meth:`distance` from node id ``node`` at any ``cap`` >= 1, with
        ``bits`` taken unchecked as a row of 0/1 ints of width ``n_vars``.
        A depth-first search: the matching branch first, a flipped branch
        only while it can still beat the best distance found and is not the
        empty set, so the cost grows with ``cap``; at ``cap`` 1 no branch
        is pushed and it is the membership walk."""
        var, low, high = self._var, self._low, self._high
        best = cap
        stack = [(node, 0)]
        while stack and best:
            node, used = stack.pop()
            if used >= best:
                continue
            while node > TRUE:
                if bits[var[node]]:
                    node, other = high[node], low[node]
                else:
                    node, other = low[node], high[node]
                if other != FALSE and used + 1 < best:
                    stack.append((other, used + 1))
            if node == TRUE:
                best = used
        return best

    def sat_count(self, a: BddRef) -> int:
        """Exact number of ``n_vars``-bit patterns in the denoted set."""
        root = self._check_ref(a)
        # memo is per call so frozen stores stay read-only under concurrency
        memo: dict[int, int] = {FALSE: 0, TRUE: 1}

        def count(node: int) -> int:
            found = memo.get(node)
            if found is not None:
                return found
            low, high = self._low[node], self._high[node]
            var = self._var[node]
            total = (count(low) << (self._var[low] - var - 1)) \
                + (count(high) << (self._var[high] - var - 1))
            memo[node] = total
            return total

        return count(root) << self._var[root] if root > TRUE \
            else (1 << self.n_vars if root == TRUE else 0)

    def enumerate_patterns(self, a: BddRef) -> list[tuple[int, ...]]:
        """All member patterns in ascending (lexicographic) order.

        Guarded to widths <= 20; wider sets can be astronomically large.
        """
        if self.n_vars > ENUMERATE_WIDTH_GUARD:
            raise ValueError(
                f"enumerate_patterns is limited to width "
                f"{ENUMERATE_WIDTH_GUARD}, store has {self.n_vars}")
        root = self._check_ref(a)
        out: list[tuple[int, ...]] = []
        prefix: list[int] = []

        def walk(node: int, var: int) -> None:
            if node == FALSE:
                return
            if var == self.n_vars:
                out.append(tuple(prefix))
                return
            if node > TRUE and self._var[node] == var:
                branches = ((0, self._low[node]), (1, self._high[node]))
            else:
                branches = ((0, node), (1, node))  # var absent: don't care
            for bit, child in branches:
                prefix.append(bit)
                walk(child, var + 1)
                prefix.pop()

        walk(root, 0)
        return out

    def node_count(self, a: BddRef) -> int:
        """Number of non-terminal nodes reachable from ``a``."""
        root = self._check_ref(a)
        seen: set[int] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)

    # -- serialization -------------------------------------------------------

    def _serial(self, roots: Mapping[str, BddRef]) -> tuple[dict, tuple]:
        """:meth:`to_dict`'s object with an empty node list, and the
        ``var``, ``low`` and ``high`` columns of its nodes (ids 2, 3, ...).

        One iterative walk lists the nodes under ``roots`` in canonical
        order: children before parents, low subtree first, roots in sorted
        key order.  When that order is the table's own, as in every store
        that ``_encode`` fills from empty and every loaded file, the
        columns are the table's; else the nodes are relabeled densely from
        2 in that order.
        """
        keys = sorted(roots, key=_root_sort_key)
        tops = [self._check_ref(roots[key]) for key in keys]
        var, low, high = self._var, self._low, self._high
        seen = bytearray(len(var))
        seen[FALSE] = seen[TRUE] = 1
        order: list[int] = []
        for top in tops:
            stack = [top]
            while stack:
                node = stack[-1]
                if seen[node]:
                    stack.pop()
                elif not seen[low[node]]:
                    stack.append(low[node])
                elif not seen[high[node]]:
                    stack.append(high[node])
                else:
                    seen[node] = 1
                    order.append(stack.pop())
        start = TRUE + 1
        if order == list(range(start, len(var))):
            columns = var[start:], low[start:], high[start:]
        else:
            new = list(range(len(var)))
            for i, node in enumerate(order, start):
                new[node] = i
            columns = ([var[node] for node in order],
                       [new[low[node]] for node in order],
                       [new[high[node]] for node in order])
            tops = [new[top] for top in tops]
        return {
            "version": SERIAL_VERSION,
            "n_vars": self.n_vars,
            "nodes": [],
            "false_id": FALSE,
            "true_id": TRUE,
            "roots": dict(zip(keys, tops)),
        }, columns

    def to_dict(self, roots: Mapping[str, BddRef]) -> dict:
        """Serializable form of the subgraphs under ``roots``.

        Node ids are relabeled densely from 2 in a canonical order (children
        before parents, low subtree first, roots in sorted key order), so
        semantically equal inputs produce identical output regardless of the
        order in which this store happened to create nodes.
        """
        data, columns = self._serial(roots)
        data["nodes"] = [{"id": node, "var": var, "low": low, "high": high}
                         for node, (var, low, high)
                         in enumerate(zip(*columns), TRUE + 1)]
        return data


# one entry of to_dict's node list, as compact JSON spells it
_NODE_JSON = '{"id":%d,"var":%d,"low":%d,"high":%d}'


def _nodes_json(columns: tuple) -> str:
    """The node list of :meth:`BddStore.to_dict` as compact JSON text,
    from the columns that :meth:`BddStore._serial` gives: one template
    fill per node, no dict."""
    return "[" + ",".join(map(_NODE_JSON.__mod__,
                              zip(count(TRUE + 1), *columns))) + "]"


def from_dict(data: dict) -> tuple[BddStore, dict[str, BddRef]]:
    """Rebuild a store and its roots from :meth:`BddStore.to_dict` output.

    A node's id is its position in the table, as ``to_dict`` writes it:
    dense from 2, each child before its parent, so a loaded node keeps its
    id and a root is a position.  Raises :class:`FormatVersionError` on an
    unknown version and :class:`SchemaError` on a malformed table: wrong
    field types, an id that is not its position, dangling children, equal
    children, duplicate triples, ordering violations, too many variables.
    """
    if not isinstance(data, dict):
        raise SchemaError("BDD serialization must be a JSON object")
    version = data.get("version")
    if version != SERIAL_VERSION:
        raise FormatVersionError(
            f"unsupported BDD serialization version {version!r}")
    for field, kind in (("n_vars", int), ("nodes", list), ("roots", dict)):
        if not isinstance(data.get(field), kind):
            raise SchemaError(f"BDD serialization {field!r} is missing or "
                              f"not a {kind.__name__}")
    n_vars = data["n_vars"]
    if type(n_vars) is not int or not 1 <= n_vars <= MAX_VARS:
        raise SchemaError(f"invalid n_vars {n_vars!r} (cap {MAX_VARS})")
    if data.get("false_id", FALSE) != FALSE or data.get("true_id", TRUE) != TRUE:
        raise SchemaError("terminal ids must be 0 (false) and 1 (true)")

    store = BddStore(n_vars)
    # _mk's id objects by position: children share them, and the query walk
    # reads no ints scattered by the JSON parse
    made, unique = [FALSE, TRUE], {}
    for entry in data["nodes"]:
        try:
            node, var = entry["id"], entry["var"]
            low, high = entry["low"], entry["high"]
        except (TypeError, KeyError) as exc:
            raise SchemaError(f"malformed node entry {entry!r}") from exc
        # exact ints: JSON true/false load as bools, which equal 1 and 0
        if not type(node) is type(var) is type(low) is type(high) is int:
            raise SchemaError(f"malformed node entry {entry!r}")
        if node != len(store):
            raise SchemaError(f"node id {node} is not its position "
                              f"{len(store)} in the table")
        if not 0 <= var < n_vars:
            raise SchemaError(f"node {node}: variable {var!r} out of range")
        if not (0 <= low < node and 0 <= high < node):
            raise SchemaError(f"node {node}: dangling child reference")
        # terminals carry the sentinel variable index n_vars
        if var >= store._var[low] or var >= store._var[high]:
            raise SchemaError(f"node {node}: variable ordering violation")
        # a reduced table has no node that _mk would not create anew
        made.append(store._mk(var, made[low], made[high], unique))
        if made[-1] != node:
            raise SchemaError(f"node {node}: children are equal or "
                              f"(var, low, high) is a duplicate")
    roots: dict[str, BddRef] = {}
    for key, node in data["roots"].items():
        if type(node) is not int or not 0 <= node < len(store):
            raise SchemaError(f"root {key!r}: dangling node id {node!r}")
        roots[key] = BddRef(store, node)
    return store, roots


def _root_sort_key(key: str):
    # numeric keys (class indices) sort numerically, anything else lexically
    try:
        return (0, int(key), key)
    except ValueError:
        return (1, 0, key)
