"""Named, reproducible random-number streams.

Every stochastic component of the simulation (each traffic stream, the
best-effort source at each node, arbitration tie-breaks, ...) draws from
its own named substream, so adding or removing one component never
perturbs the random sequence seen by the others.  This is the classic
"common random numbers" discipline used for variance reduction when
comparing configurations (e.g. Virtual Clock vs FIFO on the *same*
arrival sequence).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List


def _substream_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from the master seed and a name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fast_shuffle(rng: random.Random, items: List) -> None:
    """``rng.shuffle(items)``, draw for draw, at about half the cost.

    CPython's ``Random.shuffle`` walks ``i`` from the last index down
    to 1 and swaps ``items[i]`` with ``items[_randbelow(i + 1)]``, where
    ``_randbelow(n)`` is ``getrandbits(n.bit_length())`` redrawn until
    the value is below ``n``.  This is the same walk with the two
    Python-level calls per element inlined and the bit width hoisted
    out of the inner loop (it only changes when ``i + 1`` crosses a
    power of two), so it leaves the same permutation *and* the same
    generator state.  Placement seeds depend on that: the tests pin it
    against ``Random.shuffle`` on every supported interpreter.

    ``rng`` must be a plain :class:`random.Random` (as
    :meth:`RngStreams.stream` returns); a subclass overriding
    ``random()`` draws differently.
    """
    getrandbits = rng.getrandbits
    i = len(items) - 1
    while i > 0:
        bits = (i + 1).bit_length()
        #: indices above ``stop`` share this width: i + 1 >= 2**(bits-1)
        stop = (1 << (bits - 1)) - 2
        for i in range(i, stop, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        i = stop


class RngStreams:
    """Factory of independent :class:`random.Random` substreams.

    >>> rngs = RngStreams(seed=42)
    >>> a = rngs.stream("vbr/node0/stream3")
    >>> b = rngs.stream("vbr/node0/stream3")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the substream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_substream_seed(self.seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngStreams":
        """Return a new :class:`RngStreams` rooted at a derived seed.

        Useful when a subsystem (e.g. one node's traffic) wants its own
        namespace of substreams.
        """
        return RngStreams(_substream_seed(self.seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, streams={len(self._streams)})"
