"""The committed chaos-repro corpus must replay cleanly on both loops.

Every file in ``tests/repros/`` is a shrunk chaos scenario with its
recorded verdict and metrics digest (see ``repro.chaos``).  Replaying
one re-runs the scenario under the invariant checker and compares the
outcome — status, oracle, and digest — against what was recorded, so
this suite pins three things at once:

* scenarios that passed keep passing (no behavioural regression);
* their metrics digests are bit-stable (determinism regression);
* both the fused active-set loop and the full-scan reference stepper
  reproduce the identical digest (the ``reference_loop`` fixture); no
  corpus scenario is sabotaged, so each replay also runs the chaos
  ``parity`` twin on the reference stepper and passes only if the two
  agree.

``corrupt-credit-audit.json`` deserves a note: it is the minimal
scenario (chaos campaign seed 7, scenario s024) that exposed the
mid-delivery ``flit_corrupt`` emission bug — the periodic credit audit
could observe a flit that was neither on the wire nor buffered.  It is
recorded as *passing* post-fix; the bug returning flips it back to an
invariant failure and the replay mismatches.
"""

import glob
import os

import pytest

from repro.chaos.campaign import load_repro, replay

CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "repros", "*.json"))
)
IDS = [os.path.basename(path) for path in CORPUS]


def test_corpus_is_nonempty():
    assert CORPUS, "tests/repros/ must hold at least one committed repro"


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_corpus_entries_ride_the_invariant_checker(path):
    scenario, recorded = load_repro(path)
    trace = scenario.experiment.trace
    assert trace is not None and trace.check, (
        f"{path}: corpus scenarios must set trace.check=True"
    )
    assert recorded.get("status") in ("pass", "fail")


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_replays_on_fused_loop(path):
    scenario, _ = load_repro(path)
    # no sabotage: the replay's parity twin compares the loops
    assert scenario.sabotage is None
    ok, message, _ = replay(path)
    assert ok, f"{path}: {message}"


@pytest.mark.parametrize("path", CORPUS, ids=IDS)
def test_replays_on_legacy_loop(path, reference_loop):
    # the recorded digest came from the fused loop; matching it here is
    # the fused-vs-reference bit-identity guarantee on a faulted workload
    ok, message, _ = replay(path)
    assert ok, f"{path}: {message}"
