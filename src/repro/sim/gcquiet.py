"""Keep the cyclic collector out of the way while a run is built.

Building a run allocates a few hundred thousand objects — routers,
VCs, links, NIs, streams, the cycle loop's bindings — that all live
until the run ends.  The generational collector cannot know that: it
re-scans the growing graph again and again (three full passes over
~300 k objects for a 1024-host fat tree) and frees nothing.

The rule is *collect, then pause*.  A finished run's ``Network`` is
cyclic garbage that only the collector frees; pausing without
collecting first would leave it alive while the next graph is
allocated on top of it, and back-to-back runs would grow the process
by a whole network each (see ``docs/simulator-internals.md``,
"Construction cost").

The block that collected on entry *ages* what it built on exit:
``gc.freeze()`` + ``gc.unfreeze()`` splice every tracked object into the
oldest generation unvisited, instead of a 45 ms pass promoting ~300 k.
Only that block may: with no entry collection, nothing frees what ageing
made old, and dead small networks would pile up.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_quiet(collect: bool = False) -> Iterator[None]:
    """Disable the cyclic collector for the duration of the block.

    ``collect`` runs one full collection first and ages the block's
    allocations last (not under a caller's own ``gc.freeze()``, which
    unfreezing would undo) — for the caller about to allocate a whole
    new object graph (the runner), not for one adding to a live graph (the
    lazy cycle-loop build), where a full pass costs more than the pause saves.

    The caller's collector state is restored on every exit.  Entered
    with the collector already off — nested inside another
    ``gc_quiet``, or by a caller who runs without one — the block does
    nothing at all: there is nothing to pause, and whoever turned the
    collector off owns turning it back on.
    """
    if not gc.isenabled():
        yield
        return
    if collect:
        gc.collect()
    gc.disable()
    try:
        yield
        if collect and not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
    finally:
        gc.enable()
