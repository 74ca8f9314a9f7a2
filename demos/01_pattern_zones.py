#!/usr/bin/env python3
"""Pattern sets as BDDs: encode, merge, grow by Hamming distance.

Walks the smallest interesting example: a zone holding the single 3-bit
pattern 001, grown once so that every pattern differing in at most one bit
becomes a member.
"""

from actmon import BddStore
from actmon.monitor import enlarge_once


def show(store, label, ref):
    members = ["".join(map(str, p)) for p in store.enumerate_patterns(ref)]
    print(f"{label:<28} {{{', '.join(members)}}}  "
          f"(count {store.sat_count(ref)}, {store.node_count(ref)} nodes)")


store = BddStore(n_vars=3)

zone = store.encode_set([(0, 0, 1)])
show(store, "zone = {001}", zone)

# Forgetting one bit makes it a don't-care: each variable in turn.
for var in range(3):
    show(store, f"exists(var {var}, zone)", store.exists(var, zone))

# The union of the three don't-care expansions is exactly the set of
# patterns within Hamming distance 1 of 001.
ball = enlarge_once(store, zone, 3)
show(store, "one enlargement step", ball)

print()
print("membership is one root-to-terminal walk:")
for bits in ((0, 0, 1), (0, 1, 1), (1, 1, 0)):
    verdict, visits = store.contains_with_cost(ball, bits)
    text = "".join(map(str, bits))
    print(f"  {text} -> {'in' if verdict else 'OUT'}  ({visits} node visits)")

# Canonicity: the same set gives the same node however it was built, here
# in one pass and as a union of singletons taken in the other order.
a = store.encode_set([(0, 1, 1), (1, 0, 1)])
b = store.union(store.encode_set([(1, 0, 1)]), store.encode_set([(0, 1, 1)]))
print()
print(f"same set built in two orders -> same node id: {a == b}")
