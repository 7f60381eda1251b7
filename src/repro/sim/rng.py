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
from typing import Dict, List, Tuple


def _substream_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit substream seed from the master seed and a name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fast_shuffle(rng: random.Random, items: List) -> int:
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

    Returns the number of ``getrandbits`` calls the walk made:
    ``len(items) - 1`` plus the rejected draws.  Each call is one
    32-bit Mersenne Twister output (no width exceeds 32 bits below
    2**32 items), which is what lets
    :meth:`RngStreams.shuffled_prefix` replay a walk in one call.

    ``rng`` must be a plain :class:`random.Random` (as
    :meth:`RngStreams.stream` returns); a subclass overriding
    ``random()`` draws differently.
    """
    getrandbits = rng.getrandbits
    i = len(items) - 1
    draws = max(i, 0)
    while i > 0:
        bits = (i + 1).bit_length()
        #: indices above ``stop`` share this width: i + 1 >= 2**(bits-1)
        stop = (1 << (bits - 1)) - 2
        for i in range(i, stop, -1):
            j = getrandbits(bits)
            while j > i:
                draws += 1
                j = getrandbits(bits)
            items[i], items[j] = items[j], items[i]
        i = stop
    return draws


#: placement walks by (substream seed, length): the prefix of the
#: permutation of ``range(length)`` that builds have read, and the
#: 32-bit words the walk drew.  Bounded like the runner's topology
#: cache, by a fixed cap evicting in insertion order; one entry per
#: host of a build, so four 1024-host fabrics fit.
_WALKS: Dict[Tuple[int, int], Tuple[Tuple[int, ...], int]] = {}
_WALKS_CAP = 4096
#: shuffle walks actually performed in this process (memo misses and
#: bypasses); the walk-once tests and ``mediaworm scale`` read the delta
PLACEMENT_WALKS = 0
#: ``list(range(n))`` for the longest walk yet: a walk copies a slice
#: of it instead of allocating ``n`` int objects (a 1024-host build
#: would allocate and free ≈ 0.8 M of them, a fifth of its walk time)
_POSITIONS: List[int] = []


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

    def shuffled_prefix(
        self, name: str, length: int, count: int
    ) -> Tuple[random.Random, List[int]]:
        """Stream ``name`` after :func:`fast_shuffle` of
        ``list(range(length))``, and that permutation's first ``count``
        entries (all ``length`` of them when ``count`` is larger).

        The walk depends only on the stream's seed and ``length``, so
        when this call creates the stream — the first request for
        ``name``, a freshly seeded plain :class:`random.Random` — a
        memoised walk is replayed instead of redrawn: its prefix is
        returned and one ``getrandbits(32 * words)`` call advances the
        generator by exactly the ``words`` 32-bit outputs the walk
        drew, so every later draw is the one the walk would have left.
        Any other case walks: a miss, a longer prefix than the memo
        holds, a stream already drawn from, a ``Random`` subclass.  A
        walk on a fresh plain stream is memoised.
        """
        global PLACEMENT_WALKS
        count = min(count, length)
        fresh = name not in self._streams
        rng = self.stream(name)
        key = None
        if fresh and type(rng) is random.Random:
            key = (_substream_seed(self.seed, name), length)
            memo = _WALKS.get(key)
            if memo is not None and len(memo[0]) >= count:
                prefix, words = memo
                rng.getrandbits(32 * words)
                return rng, list(prefix[:count])
        if len(_POSITIONS) < length:
            _POSITIONS[:] = range(length)
        order = _POSITIONS[:length]
        words = fast_shuffle(rng, order)
        PLACEMENT_WALKS += 1
        del order[count:]
        if key is not None:
            _WALKS.pop(key, None)
            if len(_WALKS) >= _WALKS_CAP:
                _WALKS.pop(next(iter(_WALKS)))
            _WALKS[key] = (tuple(order), words)
        return rng, order

    def fork(self, name: str) -> "RngStreams":
        """Return a new :class:`RngStreams` rooted at a derived seed.

        Useful when a subsystem (e.g. one node's traffic) wants its own
        namespace of substreams.
        """
        return RngStreams(_substream_seed(self.seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, streams={len(self._streams)})"
