"""Reduced ordered binary decision diagrams over fixed-width bit patterns.

A :class:`BddStore` owns a hash-consed node table for one fixed variable
order (variable ``i`` is bit ``i`` of a pattern, ``0 <= i < n_vars``).
Every function over patterns is represented by a single canonical node id,
so semantically equal sets always share one root.  The store supports the
handful of operations the monitor construction needs: encoding a set of
patterns in one pass, union, growth by Hamming distance 1, existential
quantification over one variable, membership evaluation, the Hamming
distance from a pattern to a set, exact model counting, small-width
enumeration, and a deterministic plain-data form
(:meth:`BddStore.to_dict`, :func:`from_dict`) that monitor files embed;
reading and writing files is the caller's job.

There are no complement edges and no dynamic reordering; canonicity is
plain Bryant-style reduction (no node with equal children, no duplicate
``(var, low, high)`` triples, variable indices strictly increasing from
root to terminal).

Lifecycle: a store is created mutable ("build phase", single writer).
After :meth:`BddStore.freeze` all node-creating operations raise
:class:`~actmon.errors.FrozenStoreError`; the read operations
(``contains``, ``distance``, ``sat_count``, ``enumerate_patterns``) never
mutate shared state and may run concurrently on a frozen store.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import FormatVersionError, FrozenStoreError, SchemaError

FALSE = 0
TRUE = 1

SERIAL_VERSION = 1

# bdd packages get impractical somewhere in the low hundreds of variables;
# the recursive operations also stay well inside Python's recursion limit here
MAX_VARS = 256
VAR_WARN_THRESHOLD = 200

# enumerate_patterns is a test/diagnostics oracle, not a production path
ENUMERATE_WIDTH_GUARD = 20


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
            warnings.warn(
                f"{n_vars} BDD variables; operations may become impractical "
                f"above {VAR_WARN_THRESHOLD}",
                stacklevel=2)
        self.n_vars = n_vars
        self.frozen = False
        # ids 0 and 1 are the terminals; real nodes start at 2
        self._var: list[int] = [n_vars, n_vars]
        self._low: list[int] = [FALSE, TRUE]
        self._high: list[int] = [FALSE, TRUE]
        # (var, low, high) -> id
        self._unique: dict[tuple[int, int, int], int] = {}
        # memo for or/exists/grow, keyed by (op tag, operand ids)
        self._cache: dict[tuple, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def freeze(self) -> None:
        """Make the store immutable and drop the operation cache."""
        self.frozen = True
        self._cache.clear()

    def _require_mutable(self) -> None:
        if self.frozen:
            raise FrozenStoreError("store is frozen; no new nodes allowed")

    def __len__(self) -> int:
        """Number of nodes in the table, terminals included."""
        return len(self._var)

    # -- node construction -------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def _check_ref(self, ref: BddRef) -> int:
        if not isinstance(ref, BddRef):
            raise TypeError(f"expected BddRef, got {type(ref).__name__}")
        if ref.store is not self:
            raise ValueError("BddRef belongs to a different store")
        if not 0 <= ref.node < len(self._var):
            raise ValueError(f"invalid node id {ref.node}")
        return ref.node

    def _check_pattern(self, bits: Sequence[int]) -> Sequence[int]:
        if len(bits) != self.n_vars:
            raise ValueError(
                f"pattern width {len(bits)} != store width {self.n_vars}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("pattern bits must be 0 or 1")
        return bits

    # -- set construction --------------------------------------------------

    def encode_set(self, patterns: Iterable[Sequence[int]]) -> BddRef:
        """The set of the given patterns; none give the empty set.  Built
        bottom-up from the sorted distinct patterns, one bit per level, so
        every node created is part of the result."""
        self._require_mutable()
        rows = sorted({tuple(self._check_pattern(bits)) for bits in patterns})

        def build(lo: int, hi: int, var: int) -> int:
            # rows[lo:hi] share bits < var, so bit var runs 0s then 1s
            if lo == hi:
                return FALSE
            if var == self.n_vars:
                return TRUE
            mid = bisect_left(rows, 1, lo, hi, key=itemgetter(var))
            return self._mk(var, build(lo, mid, var + 1),
                            build(mid, hi, var + 1))

        return BddRef(self, build(0, len(rows), 0))

    def union(self, a: BddRef, b: BddRef) -> BddRef:
        """Set union; canonical, commutative and idempotent."""
        self._require_mutable()
        return BddRef(self, self._or(self._check_ref(a), self._check_ref(b)))

    def _or(self, a: int, b: int) -> int:
        if a == b or b == FALSE:
            return a
        if a == FALSE:
            return b
        if a == TRUE or b == TRUE:
            return TRUE
        if a > b:  # commutative, so normalize the cache key
            a, b = b, a
        key = ("or", a, b)
        found = self._cache.get(key)
        if found is not None:
            return found
        va, vb = self._var[a], self._var[b]
        var = min(va, vb)
        a0, a1 = (self._low[a], self._high[a]) if va == var else (a, a)
        b0, b1 = (self._low[b], self._high[b]) if vb == var else (b, b)
        result = self._mk(var, self._or(a0, b0), self._or(a1, b1))
        self._cache[key] = result
        return result

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
        return BddRef(self, self._exists(var, self._check_ref(a)))

    def _exists(self, var: int, a: int) -> int:
        if a <= TRUE or self._var[a] > var:
            # ordering: var cannot occur below a node with a larger index
            return a
        key = ("exists", var, a)
        found = self._cache.get(key)
        if found is not None:
            return found
        if self._var[a] == var:
            result = self._or(self._low[a], self._high[a])
        else:
            result = self._mk(
                self._var[a],
                self._exists(var, self._low[a]),
                self._exists(var, self._high[a]))
        self._cache[key] = result
        return result

    def grow(self, a: BddRef) -> BddRef:
        """The set plus every pattern at Hamming distance 1 from a member,
        in one pass; ``gamma`` applications give the radius-``gamma`` ball."""
        self._require_mutable()
        return BddRef(self, self._grow(self._check_ref(a)))

    def _grow(self, a: int) -> int:
        # flipping bit var crosses branches; skipped variables are don't-cares
        if a <= TRUE:
            return a
        found = self._cache.get(("grow", a))
        if found is None:
            low, high = self._low[a], self._high[a]
            found = self._cache[("grow", a)] = self._mk(
                self._var[a], self._or(self._grow(low), high),
                self._or(self._grow(high), low))
        return found

    # -- read operations (safe on frozen stores) ----------------------------

    def contains(self, a: BddRef, bits: Sequence[int]) -> bool:
        """Membership test; follows one root-to-terminal path."""
        return self.contains_with_cost(a, bits)[0]

    def contains_with_cost(
            self, a: BddRef, bits: Sequence[int]) -> tuple[bool, int]:
        """Membership test plus the number of non-terminal nodes visited.

        The visit count is at most ``n_vars`` because variable indices
        strictly increase along every path.
        """
        node = self._check_ref(a)
        self._check_pattern(bits)
        visits = 0
        while node > TRUE:
            visits += 1
            node = self._high[node] if bits[self._var[node]] else self._low[node]
        return node == TRUE, visits

    def distance(self, a: BddRef, bits: Sequence[int], cap: int) -> int:
        """Least Hamming distance from ``bits`` to a member of ``a``, or
        ``cap`` if no member is closer (the empty set gives ``cap``).  A
        depth-first search: the matching branch first, a flipped branch only
        while it can still beat the best distance found, so at ``cap`` 1 it
        is the :meth:`contains` walk."""
        node = self._check_ref(a)
        self._check_pattern(bits)
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
                if used + 1 < best:
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

    def to_dict(self, roots: Mapping[str, BddRef]) -> dict:
        """Serializable form of the subgraphs under ``roots``.

        Node ids are relabeled densely from 2 in a canonical order (children
        before parents, low subtree first, roots in sorted key order), so
        semantically equal inputs produce identical output regardless of the
        order in which this store happened to create nodes.
        """
        order = sorted(roots, key=_root_sort_key)
        relabel: dict[int, int] = {FALSE: 0, TRUE: 1}
        nodes: list[dict] = []

        def visit(node: int) -> None:
            if node in relabel:
                return
            visit(self._low[node])
            visit(self._high[node])
            relabel[node] = len(relabel)
            nodes.append({
                "id": relabel[node],
                "var": self._var[node],
                "low": relabel[self._low[node]],
                "high": relabel[self._high[node]],
            })

        for key in order:
            visit(self._check_ref(roots[key]))
        return {
            "version": SERIAL_VERSION,
            "n_vars": self.n_vars,
            "nodes": nodes,
            "false_id": FALSE,
            "true_id": TRUE,
            "roots": {key: relabel[roots[key].node] for key in order},
        }


def from_dict(data: dict) -> tuple[BddStore, dict[str, BddRef]]:
    """Rebuild a store and its roots from :meth:`BddStore.to_dict` output.

    Raises :class:`FormatVersionError` on an unknown version and
    :class:`SchemaError` on a malformed table: wrong field types, dangling
    or duplicate ids, equal children, ordering violations, too many variables.
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
    id_map: dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    for entry in data["nodes"]:
        try:
            ext_id, var = entry["id"], entry["var"]
            low, high = entry["low"], entry["high"]
        except (TypeError, KeyError) as exc:
            raise SchemaError(f"malformed node entry {entry!r}") from exc
        # exact ints: JSON true/false load as bools, which equal 1 and 0
        if not type(ext_id) is type(var) is type(low) is type(high) is int:
            raise SchemaError(f"malformed node entry {entry!r}")
        if ext_id in id_map:
            raise SchemaError(f"duplicate node id {ext_id}")
        if not 0 <= var < n_vars:
            raise SchemaError(f"node {ext_id}: variable {var!r} out of range")
        if low not in id_map or high not in id_map:
            raise SchemaError(f"node {ext_id}: dangling child reference")
        low, high = id_map[low], id_map[high]
        # terminals carry the sentinel variable index n_vars
        if var >= store._var[low] or var >= store._var[high]:
            raise SchemaError(f"node {ext_id}: variable ordering violation")
        # a reduced table has no node that _mk would not create anew
        before = len(store._var)
        id_map[ext_id] = store._mk(var, low, high)
        if len(store._var) == before:
            raise SchemaError(f"node {ext_id}: children are equal or "
                              f"(var, low, high) is a duplicate")
    roots: dict[str, BddRef] = {}
    for key, ext_id in data["roots"].items():
        if type(ext_id) is not int or ext_id not in id_map:
            raise SchemaError(f"root {key!r}: dangling node id {ext_id!r}")
        roots[key] = BddRef(store, id_map[ext_id])
    return store, roots


def _root_sort_key(key: str):
    # numeric keys (class indices) sort numerically, anything else lexically
    try:
        return (0, int(key), key)
    except ValueError:
        return (1, 0, key)
