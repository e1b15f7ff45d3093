"""Naive reference implementations the property tests compare against.

Deliberately slow and obvious: flat lists, linear scans, no code or data
structures shared with the package under test.
"""


class LruOracle:
    """Page-granular strict LRU. Pages are born at the MRU end (allocation
    spills the coldest page when full); a hit moves the page to MRU; a miss
    evicts exactly one coldest page before the refill."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []     # index 0 = coldest; entries are (cid, page)
        self.evicted = []

    def allocate(self, cid, lo, hi):
        for page in range(lo, hi):
            if len(self.order) >= self.capacity:
                self.evicted.append(self.order.pop(0))
            self.order.append((cid, page))

    def access(self, cid, page):
        """Returns True when the access faulted."""
        key = (cid, page)
        if key in self.order:
            self.order.remove(key)
            self.order.append(key)
            return False
        if len(self.order) >= self.capacity:
            self.evicted.append(self.order.pop(0))
        self.order.append(key)
        return True


def percentile_oracle(samples, p):
    """Smallest sample such that at least p percent of the samples are at
    or below it, found by linear scan over the sorted values."""
    ordered = sorted(samples)
    n = len(ordered)
    for i, v in enumerate(ordered, start=1):
        if i * 100 >= p * n:
            return v
    return ordered[-1]


def victim_order_reference(levels, t):
    """dmx victim order at time t by a full sort: level by level, the listed
    runs with no IO pending, by freq, then expired (expire <= t) before
    live, then first page."""
    order = []
    for plist in levels:
        order.extend(sorted(
            (c for c in plist if c.io is None),
            key=lambda c: (c.freq, 0 if c.expire <= t else 1, c.lo)))
    return order
