"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class FaultConfigError(ConfigurationError):
    """A fault-injection plan is inconsistent or names unknown hardware."""


class PortCountError(ConfigurationError):
    """RouterConfig.num_ports disagrees with the topology's port count.

    Every router port is wired at network construction, so a mismatched
    ``num_ports`` silently over- or under-provisions VC buffers and
    skews per-port metrics.  The network refuses the pair instead of
    adapting; build the config with
    ``num_ports=topology.ports_per_router``.
    """


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state."""


class DeadlockError(SimulationError):
    """The watchdog saw no progress while flits were still in flight.

    Carries a diagnostic dump of every occupied virtual channel so the
    wedged routers/VCs can be identified from the exception alone.
    """


class RoutingError(SimulationError):
    """A message could not be routed (unknown destination, bad port)."""


class FlowControlError(SimulationError):
    """A credit or buffer invariant was violated."""


class InvariantViolation(SimulationError):
    """An observability-layer invariant check failed.

    Raised by :class:`repro.obs.InvariantChecker` (flit conservation,
    credit consistency, monotone worm progress) and by trace-event
    schema validation; carries enough context to name the offending
    message/link/router.
    """


class AdmissionError(ReproError):
    """A stream was offered to a full admission controller."""


class PointTimeoutError(SimulationError):
    """A sweep point exceeded its wall-clock budget.

    Raised from inside the point's own worker (SIGALRM-based, see
    :func:`repro.experiments.resilience.wall_clock_limit`), so a hung
    simulation interrupts itself instead of stalling the campaign.
    """


class ChaosFailure(SimulationError):
    """A chaos-campaign scenario failed one of its oracles.

    Carries the oracle name and the scenario key so a campaign report
    (or a replayed repro file) can state *which* property broke, not
    just that something did.
    """

    def __init__(self, oracle: str, key: str, detail: str) -> None:
        super().__init__(f"[{oracle}] scenario {key}: {detail}")
        self.oracle = oracle
        self.key = key
        self.detail = detail
