"""Unit conversions between wall-clock workload quantities and cycles.

The simulation's native units are:

* **flit** — the unit of data (32 bits in the paper's Table 1);
* **cycle** — the time a physical channel (PC) needs to move one flit,
  i.e. ``flit_size_bits / link_bandwidth``.

Everything in the workload (MPEG-2 frame sizes, 33 ms frame intervals,
stream bit-rates) is specified in physical units and converted through a
:class:`LinkSpec`.  A :class:`WorkloadScale` optionally divides both the
data *and* time constants of the workload by a common factor, which
preserves every bandwidth fraction (and therefore the queueing behaviour
that produces jitter) while cutting simulation cost linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: MPEG-2 workload constants from section 4.2.1 of the paper.
MPEG2_FRAME_BYTES_MEAN = 16666
MPEG2_FRAME_BYTES_STD = 3333
MPEG2_FRAME_INTERVAL_MS = 33.0


@dataclass(frozen=True)
class LinkSpec:
    """Physical-channel specification.

    Parameters mirror Table 1 of the paper: 400 Mbps links with 32-bit
    flits for the wormhole studies, 100 Mbps for the PCS comparison.
    """

    bandwidth_mbps: float = 400.0
    flit_size_bits: int = 32

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"link bandwidth must be positive, got {self.bandwidth_mbps}"
            )
        if self.flit_size_bits <= 0:
            raise ConfigurationError(
                f"flit size must be positive, got {self.flit_size_bits}"
            )

    @property
    def cycle_ns(self) -> float:
        """Duration of one router cycle (one flit time) in nanoseconds."""
        return self.flit_size_bits * 1000.0 / self.bandwidth_mbps

    def bytes_to_flits(self, nbytes: float) -> float:
        """Convert a byte count to (fractional) flits."""
        return nbytes * 8.0 / self.flit_size_bits

    def ms_to_cycles(self, ms: float) -> float:
        """Convert milliseconds to (fractional) cycles."""
        return ms * 1e6 / self.cycle_ns

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert cycles to milliseconds."""
        return cycles * self.cycle_ns / 1e6

    def cycles_to_us(self, cycles: float) -> float:
        """Convert cycles to microseconds."""
        return cycles * self.cycle_ns / 1e3

    def rate_fraction(self, rate_mbps: float) -> float:
        """Fraction of this PC's bandwidth used by a stream of ``rate_mbps``."""
        return rate_mbps / self.bandwidth_mbps


@dataclass(frozen=True)
class WorkloadScale:
    """Uniform shrink factor applied to workload data and time constants.

    With ``factor = s``, an MPEG-2 frame of ``F`` flits every ``T``
    cycles becomes ``F/s`` flits every ``T/s`` cycles.  The per-stream
    bandwidth fraction ``F/T`` — which, together with the scheduling
    policy, determines contention at the mux points — is unchanged.
    ``factor = 1`` is the paper-faithful workload.

    Reported times are converted back to *paper-equivalent* units by
    multiplying measured cycles by ``factor`` before applying the
    :class:`LinkSpec` cycle time, so a jitter-free scaled run still
    reports a 33 ms mean delivery interval.
    """

    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ConfigurationError(
                f"workload scale factor must be positive, got {self.factor}"
            )

    def scale_flits(self, flits: float) -> float:
        """Shrink a flit count by the scale factor."""
        return flits / self.factor

    def scale_cycles(self, cycles: float) -> float:
        """Shrink a cycle count by the scale factor."""
        return cycles / self.factor

    def unscale_cycles(self, cycles: float) -> float:
        """Expand a measured cycle count back to paper-equivalent cycles."""
        return cycles * self.factor


@dataclass(frozen=True)
class TimeBase:
    """Bundles a :class:`LinkSpec` and a :class:`WorkloadScale`.

    This is what metric trackers use to report results in the paper's
    units regardless of the scale the simulation actually ran at.
    """

    link: LinkSpec
    scale: WorkloadScale

    def report_ms(self, measured_cycles: float) -> float:
        """Convert measured cycles to paper-equivalent milliseconds."""
        return self.link.cycles_to_ms(self.scale.unscale_cycles(measured_cycles))

    def report_us(self, measured_cycles: float) -> float:
        """Convert measured cycles to paper-equivalent microseconds."""
        return self.link.cycles_to_us(self.scale.unscale_cycles(measured_cycles))
