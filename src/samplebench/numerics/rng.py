"""Counter-based random streams.

Each stream is keyed by (seed, stream_id) through the Philox bit generator, so
a given key always replays the same draw sequence no matter how work is
scheduled, and distinct stream ids are statistically independent.
"""

from __future__ import annotations

import numpy.random  # numpy loads it lazily; import it with this module, not at the first draw


class RngStream:
    """One independent random stream."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = numpy.random.Generator(numpy.random.Philox(key=[self.seed, self.stream_id]))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def standard_t(self, df, size=None):
        return self._gen.standard_t(df, size)

    def integers(self, high, size=None):
        return self._gen.integers(0, high, size=size)

    def choice(self, n, size, p):
        return self._gen.choice(n, size=size, p=p, replace=True)
