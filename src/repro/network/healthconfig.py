"""The link-health vocabulary: the four states and :class:`HealthConfig`.

An experiment names a :class:`HealthConfig` (the monitor's hysteresis
thresholds and probe policy); the links, the network and the fused
delivery kernel test a link's state against :data:`UP`.  The monitor
that drives the state machine (``LinkHealthMonitor``,
``install_health``) lives in :mod:`repro.network.health`, which a run
imports only when its experiment sets ``health``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: link health states (strings so stall reports read naturally)
UP = "up"
SUSPECT = "suspect"
DOWN = "down"
PROBATION = "probation"


@dataclass(frozen=True)
class HealthConfig:
    """Hysteresis thresholds and probe policy for link-health monitoring.

    All windows and intervals are in cycles.  ``suspect_misses`` and
    ``down_misses`` count missed/corrupted flits inside a sliding
    ``miss_window``; a link in PROBATION relapses to DOWN on a *single*
    miss (probation is exactly the state where the link must prove
    itself).  Probe intervals escalate by doubling from
    ``probe_interval`` up to ``probe_cap``, with up to ``probe_jitter``
    cycles of deterministic per-link jitter so simultaneous failures
    don't probe in lockstep.
    """

    suspect_misses: int = 3
    down_misses: int = 8
    miss_window: int = 4096
    #: consecutive clean deliveries that clear a SUSPECT back to UP
    recover_oks: int = 8
    #: clean deliveries a PROBATION link needs to be declared UP
    probation_oks: int = 16
    probe_interval: int = 1024
    probe_cap: int = 16384
    probe_jitter: int = 32

    def __post_init__(self) -> None:
        if self.suspect_misses < 1 or self.down_misses < 1:
            raise ConfigurationError(
                f"miss thresholds must be >= 1, got "
                f"{self.suspect_misses}/{self.down_misses}"
            )
        if self.down_misses < self.suspect_misses:
            raise ConfigurationError(
                f"down_misses ({self.down_misses}) must be >= "
                f"suspect_misses ({self.suspect_misses})"
            )
        if self.miss_window < 1:
            raise ConfigurationError(
                f"miss_window must be >= 1 cycle, got {self.miss_window}"
            )
        if self.recover_oks < 1 or self.probation_oks < 1:
            raise ConfigurationError(
                f"recovery thresholds must be >= 1, got "
                f"{self.recover_oks}/{self.probation_oks}"
            )
        if self.probe_interval < 1 or self.probe_cap < self.probe_interval:
            raise ConfigurationError(
                f"need 1 <= probe_interval <= probe_cap, got "
                f"{self.probe_interval}/{self.probe_cap}"
            )
        if self.probe_jitter < 0:
            raise ConfigurationError(
                f"probe_jitter must be >= 0, got {self.probe_jitter}"
            )
