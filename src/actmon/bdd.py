"""Reduced ordered binary decision diagrams over fixed-width bit patterns.

A :class:`BddStore` owns a hash-consed node table for one fixed variable
order (variable ``i`` is bit ``i`` of a pattern, ``0 <= i < n_vars``).
Every function over patterns is represented by a single canonical node id,
so semantically equal sets always share one root.  The store supports the
handful of operations a monitor needs: encoding sets of patterns level by
level, membership evaluation, the capped Hamming distance from a pattern to
a set (the monitor's query) and from a batch of patterns to their sets at
once (:meth:`BddStore._distances`, the batch judge), exact model counting,
and the table's one file format, a pair: :meth:`BddStore.to_dict` copies
the whole table in table order, one column per node field, into the object
that monitor files hold, and :func:`from_dict` reads that object back,
checking each node against the ones before it and taking the columns
whole; encoding and opening files are the caller's job.  A node's id is its
position in the table, and a set (a monitor's zone) is the plain ``int``
id of its root, which only the store that holds it can read.  A table
encoded in one call into an empty store, as each monitor's is, lists its
nodes in canonical order, so equal sets give equal files.  No other module
reads the node table.
Existential quantification over one variable (:meth:`BddStore.exists`) is
the paper's distance-1 step; no monitor uses it, the tests' Hamming balls do.

There are no complement edges and no dynamic reordering; canonicity is
plain Bryant-style reduction (no node with equal children, no duplicate
``(var, low, high)`` triples, variable indices strictly increasing from
root to terminal).

Lifecycle: a store is created mutable ("build phase", single writer).
After :meth:`BddStore.freeze` all node-creating operations raise
:class:`~actmon.errors.FrozenStoreError`; the read operations
(``contains``, ``distance``, ``sat_count``, ``node_count``) never mutate
the store and may run concurrently on a frozen store.  The store
holds the node table and no cache: every memo lives for one call, and so
does the unique table (:meth:`BddStore._index`) a node-creating call makes.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import FrozenStoreError, SchemaError, as_int

FALSE = 0
TRUE = 1

# the file format's cap on the width, and so on every gamma, since no
# Hamming distance exceeds it; the store's one recursion, exists
# (_exists with _or), goes one variable deeper per call, so at this cap it
# needs at most 259 frames beyond its caller's, well inside Python's default
# recursion limit of 1000
MAX_VARS = 256

# the values a pattern bit may equal
_BITS = frozenset((0, 1))

# the table's keys: the node columns, then the roots
_TABLE_KEYS = ("var", "low", "high", "roots")


class BddStore:
    """Hash-consed ROBDD node table over ``n_vars`` pattern bits."""

    def __init__(self, n_vars: int):
        self.n_vars = n_vars = as_int(n_vars, "n_vars", 1, MAX_VARS)
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
        operation's index ``unique`` names, else a new one it then names.
        Only :meth:`exists` calls it, through ``_or`` and ``_exists``;
        ``_encode`` applies the same rule level-wise, and :func:`from_dict`
        refuses a table that breaks it."""
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

    def _check_node(self, node: int) -> int:
        """``node`` itself if it is an exact int naming a node of the table;
        a bool, float or numpy int raises ``ValueError`` as an id out of
        range does.  An id of another store's node is not detected."""
        if type(node) is not int or not 0 <= node < len(self._var):
            raise ValueError(f"invalid node id {node!r}")
        return node

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

    def encode_set(self, patterns: Iterable[Sequence[int]]) -> int:
        """The set of the given patterns; none give the empty set.  Each
        pattern is checked, then :meth:`_encode` builds one group."""
        self._require_mutable()
        rows = [self._check_pattern(bits) for bits in patterns]
        bits = np.array(rows, dtype=np.int8).reshape(len(rows), self.n_vars)
        roots = self._encode(bits, np.zeros(len(rows), dtype=np.intp))
        return roots.get(0, FALSE)

    def _encode(self, bits: np.ndarray, groups: np.ndarray) -> dict[int, int]:
        """The root of each group's set, by label, from an (N, ``n_vars``)
        0/1 array taken unchecked and one label >= 0 per row.  One pass, a
        few numpy calls per level from bit ``n_vars - 1`` up, appends the
        nodes in the order of encoding each group in turn recursively.  The
        store is indexed once, so keys name earlier calls' nodes."""
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
        unique = self._index()
        # each segment of rows at this depth: its node (TRUE first), last row
        ids, ends, made = np.ones_like(split), np.arange(len(rows)), []
        distinct = len(rows) == 1
        for var in range(self.n_vars - 1, -1, -1):
            key = ids << shift[var][ends]
            join = split[ends] == var  # a 0-segment and the 1-segment after it
            key[1:] |= key[:-1] * join[:-1]
            key, ends = key[~join], ends[~join]
            at, slot = ends, None
            if not distinct:  # distinct nodes give distinct keys from here
                key, at, slot = np.unique(key, return_index=True,
                                          return_inverse=True)
                at, distinct = ends[at], len(key) == len(slot)
            ids = np.arange(count, count + len(key))
            if slot is not None:  # equal children: no node
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

    def exists(self, var: int, a: int) -> int:
        """Existentially quantify variable ``var`` (0-based) out of ``a``.

        The result denotes every pattern that is in ``a`` after forcing bit
        ``var`` to either value, i.e. the don't-care expansion on that bit;
        it is always a superset of ``a``.  ``var`` is a Python or numpy
        integer; a bool or float raises ``ValueError``.
        """
        self._require_mutable()
        var = as_int(var, "variable index", 0, self.n_vars - 1)
        return self._exists(var, self._check_node(a), self._index())

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

    def contains(self, a: int, bits: Sequence[int]) -> bool:
        """Membership test; follows one root-to-terminal path."""
        node = self._check_node(a)
        self._check_pattern(bits)
        var, low, high = self._var, self._low, self._high
        while node > TRUE:
            node = high[node] if bits[var[node]] else low[node]
        return node == TRUE

    def contains_with_cost(
            self, a: int, bits: Sequence[int]) -> tuple[bool, int]:
        """Membership test plus the number of non-terminal nodes visited.

        The visit count is at most ``n_vars`` because variable indices
        strictly increase along every path.
        """
        node = self._check_node(a)
        self._check_pattern(bits)
        var, low, high = self._var, self._low, self._high
        visits = 0
        while node > TRUE:
            visits += 1
            node = high[node] if bits[var[node]] else low[node]
        return node == TRUE, visits

    def distance(self, a: int, bits: Sequence[int], cap: int) -> int:
        """Least Hamming distance from ``bits`` to a member of ``a``, or
        ``cap`` (at least 1) if no member is closer; the empty set gives
        ``cap``.  At ``cap`` 1 this is the :meth:`contains` walk; above it,
        the checked node and pattern go to the search :meth:`_distance`.
        ``cap`` is a Python or numpy integer; a bool or float raises
        ``ValueError``."""
        cap = as_int(cap, "distance cap", 1)
        if cap == 1:
            return 0 if self.contains(a, bits) else 1
        node = self._check_node(a)
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

    def _distances(self, bits: np.ndarray, roots: np.ndarray,
                   cap: int) -> list[int | None]:
        """:meth:`distance` from each row of the unchecked (N, ``n_vars``) 0/1
        array ``bits`` to its id in ``roots``, or ``None`` for an id of -1.
        Each distinct (pattern, root) walks its root, all in lockstep, and
        only the misses go to :meth:`_distance`."""
        keys = np.hstack([np.packbits(bits, axis=1),
                          roots[:, None].view(np.uint8)])
        _, first, inverse = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
                                      return_index=True, return_inverse=True)
        bits, roots = bits[first], roots[first]
        var = np.array(self._var, dtype=np.intp)
        kids = np.array([self._low, self._high], dtype=np.intp).T.ravel()
        ends, flat, width = roots.copy(), bits.ravel(), bits.shape[1]
        walking = np.flatnonzero(ends > TRUE)  # a root of -1: no set
        while walking.size:  # kids[2n + bit] is node n's child at that bit
            nodes = ends[walking]
            ends[walking] = nodes = kids[
                2 * nodes + flat[walking * width + var[nodes]]]
            walking = walking[nodes > TRUE]
        search = self._distance
        found = [None if root < 0 else 0 if end == TRUE else cap if cap == 1
                 else search(root, bits[g].tolist(), cap) for g, (root, end)
                 in enumerate(zip(roots.tolist(), ends.tolist()))]
        return np.array(found, dtype=object)[inverse].tolist()

    def _cone(self, root: int) -> list[bool]:
        """Whether ``root`` reaches each id up to it.  Every child's id is
        below its parent's, so one pass down the ids, from the root to 2,
        marks them all."""
        low, high = self._low, self._high
        marked = [False] * root + [True]
        for node in range(root, TRUE, -1):
            if marked[node]:
                marked[low[node]] = marked[high[node]] = True
        return marked

    def sat_count(self, a: int) -> int:
        """Exact number of ``n_vars``-bit patterns in the denoted set, by one
        pass up the ids :meth:`_cone` marks, each node counting the bits
        from its own variable on (a terminal's variable is ``n_vars``)."""
        root = self._check_node(a)
        var, low, high = self._var, self._low, self._high
        counts = [0, 1] + [0] * (root - TRUE)
        for node in compress(range(TRUE + 1, root + 1),
                             self._cone(root)[TRUE + 1:]):
            lo, hi, v = low[node], high[node], var[node] + 1
            counts[node] = (counts[lo] << (var[lo] - v)) \
                + (counts[hi] << (var[hi] - v))
        return counts[root] << var[root]

    def node_count(self, a: int) -> int:
        """Number of non-terminal nodes reachable from ``a``: the ids that
        one :meth:`_cone` pass down the table marks."""
        return self._cone(self._check_node(a))[TRUE + 1:].count(True)

    # -- serialization -------------------------------------------------------

    def to_dict(self, roots: Sequence[int]) -> dict[str, list[int]]:
        """The whole table in table order and the checked ids ``roots``,
        in the order given, as the object :func:`from_dict` reads: one
        column per node field, position ``i`` holding node ``i + 2``,
        each a copy::

            {"var":[..],"low":[..],"high":[..],"roots":[..]}

        A table that ``_encode`` filled from empty, as ``build`` fills each
        monitor's, is in canonical order (children before parents, low
        subtree first, zones by class), so its object is canonical too; any
        other table, unreachable nodes included, is given as it is.
        """
        roots = [self._check_node(root) for root in roots]
        start = TRUE + 1
        return dict(zip(_TABLE_KEYS, (self._var[start:], self._low[start:],
                                      self._high[start:], roots)))


def from_dict(data: dict, n_vars: int) -> tuple[BddStore, list[int]]:
    """Load a store of width ``n_vars`` and its roots, in file order,
    from the object :meth:`BddStore.to_dict` gives.

    Position ``i`` of the columns is node ``i + 2``, each child before its
    parent.  One pass checks each node against the triples listed before
    it, then the store takes the columns whole, so a loaded node keeps its
    id and the loaded table saves back the columns it was read from,
    canonical or not.  An ``n_vars`` the store refuses raises
    ``ValueError``; a malformed table raises :class:`SchemaError`: a
    missing column, columns of unequal length, cells that are no exact
    ints, variables out of range, dangling children, ordering violations,
    equal children, duplicate triples and roots that name no node.
    """
    if not isinstance(data, dict):
        raise SchemaError("BDD table must be a JSON object")
    columns = [data.get(key) for key in _TABLE_KEYS]
    for key, column in zip(_TABLE_KEYS, columns):
        if not isinstance(column, list):
            raise SchemaError(f"BDD table {key!r} is missing or not a list")
    var_column, low_column, high_column, roots = columns
    if not len(var_column) == len(low_column) == len(high_column):
        raise SchemaError("BDD table columns 'var', 'low' and 'high' differ "
                          "in length")

    store = BddStore(n_vars)
    # terminals carry the sentinel variable index n_vars
    var_of, seen = store._var + var_column, set()
    for node, triple in enumerate(
            zip(var_column, low_column, high_column), TRUE + 1):
        var, low, high = triple
        # exact ints: JSON true/false load as bools, which equal 1 and 0
        if not type(var) is type(low) is type(high) is int:
            raise SchemaError(
                f"node {node}: malformed entry {[var, low, high]!r}")
        if not 0 <= var < n_vars:
            raise SchemaError(f"node {node}: variable {var!r} out of range")
        if not (0 <= low < node and 0 <= high < node):
            raise SchemaError(f"node {node}: dangling child reference")
        if var >= var_of[low] or var >= var_of[high]:
            raise SchemaError(f"node {node}: variable ordering violation")
        if low == high or triple in seen:
            raise SchemaError(f"node {node}: children are equal or "
                              f"(var, low, high) is a duplicate")
        seen.add(triple)
    ids = list(range(len(var_of)))
    for i, root in enumerate(roots):
        if type(root) is not int or not 0 <= root < len(ids):
            raise SchemaError(f"root {i}: dangling node id {root!r}")
    # one int object per id, shared by the children and the roots: the
    # query walk reads no ints scattered by the JSON parse
    store._var = var_of
    store._low += [ids[low] for low in low_column]
    store._high += [ids[high] for high in high_column]
    return store, [ids[root] for root in roots]
