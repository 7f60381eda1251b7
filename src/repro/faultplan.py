"""The fault vocabulary: what an experiment names about faults.

A :class:`FaultPlan` (flit loss and corruption, link down windows,
failure domains) and a :class:`RecoveryConfig` (the end-to-end
transport's clocks) are validated, picklable values that experiments,
campaigns and repro files carry; the ``FATE_*`` codes are what the
links and the fused delivery kernel test a flit's fate against.  The
code that installs and runs them — :func:`repro.faults.install_faults`,
:class:`repro.faults.LinkFaultState`, the transport — lives in
:mod:`repro.faults`, which a run imports only when its experiment sets
a plan or a recovery config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import FaultConfigError

#: flit fates returned by :meth:`repro.faults.LinkFaultState.fate`
FATE_OK = 0
FATE_LOST = 1
FATE_CORRUPT = 2


@dataclass(frozen=True)
class LinkDownWindow:
    """A ``[start, end)`` cycle window during which matching links are dead.

    ``link`` is an ``fnmatch``-style pattern over link labels (see
    :attr:`repro.network.link.Link.label`): host links are labelled
    ``host<node>:inject`` / ``host<node>:eject`` and inter-router
    channels ``ch:<src_router>.<src_port>-><dst_router>.<dst_port>``,
    so ``"ch:0.*"`` severs every channel out of router 0.  ``end=None``
    means the link never comes back (a permanent failure).
    """

    link: str
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.link:
            raise FaultConfigError("a down window needs a link pattern")
        if self.start < 0:
            raise FaultConfigError(
                f"down window start must be >= 0, got {self.start}"
            )
        if self.end is not None and self.end <= self.start:
            raise FaultConfigError(
                f"down window end must be > start, got "
                f"[{self.start}, {self.end})"
            )

    def active(self, clock: int) -> bool:
        """True while the window covers ``clock``."""
        return clock >= self.start and (self.end is None or clock < self.end)


@dataclass(frozen=True)
class DomainDownWindow:
    """A correlated failure domain dead for a ``[start, end)`` window.

    ``domain`` names a set of hardware that fails (and recovers)
    together, in datacenter-incident vocabulary rather than link
    labels:

    * ``switch:<rid>`` — one router and every link touching it (a ToR
      or spine crash);
    * ``pod:<p>`` — every leaf and spine switch of pod ``p`` on a
      three-level fat tree (a pod loses power);
    * ``core-group`` — every top-level switch; ``core-group:<j>``
      narrows to the ``j``-th core group of a three-level fat tree
      (the cores hanging off spine slot ``j``).

    Domains name hardware only; a set of wires is a set of
    :class:`LinkDownWindow` entries in ``FaultPlan.down_windows``.
    Domains are sugar: :func:`repro.faults.expand_domain` lowers each one
    deterministically into plain :class:`LinkDownWindow` entries
    against the concrete topology, so the per-link machinery — and its
    RNG-substream discipline that keeps zero-fault runs bit-identical —
    remains the only fault path the simulator executes.  ``end=None``
    is a permanent failure.
    """

    domain: str
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.domain:
            raise FaultConfigError("a domain window needs a domain name")
        if self.start < 0:
            raise FaultConfigError(
                f"domain window start must be >= 0, got {self.start}"
            )
        if self.end is not None and self.end <= self.start:
            raise FaultConfigError(
                f"domain window end must be > start, got "
                f"[{self.start}, {self.end})"
            )

    def active(self, clock: int) -> bool:
        """True while the window covers ``clock``."""
        return clock >= self.start and (self.end is None or clock < self.end)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into a network.

    * ``flit_loss_prob`` / ``flit_corrupt_prob`` — per-flit probabilities
      applied at delivery time on every link matching ``links``.
    * ``down_windows`` — scheduled link outages (severed wires); a
      window with ``end=None`` is a permanent failure, e.g. the dead
      port ``LinkDownWindow("ch:0.4->1.4")``, which the oracle fat-link
      selector skips.
    * ``domains`` — correlated failure domains (switch crashes, pod
      power loss, core-plane outages) expanded into per-link windows at
      install time; see :class:`DomainDownWindow`.

    A default-constructed plan injects nothing and is guaranteed to
    leave the simulation bit-identical to a run with no plan at all
    (the determinism regression in ``tests/test_faults.py`` guards
    this).
    """

    flit_loss_prob: float = 0.0
    flit_corrupt_prob: float = 0.0
    links: str = "*"
    down_windows: Tuple[LinkDownWindow, ...] = ()
    domains: Tuple[DomainDownWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in ("flit_loss_prob", "flit_corrupt_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultConfigError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if not self.links:
            raise FaultConfigError("links pattern must be non-empty")

    @property
    def is_zero(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.flit_loss_prob == 0.0
            and self.flit_corrupt_prob == 0.0
            and not self.down_windows
            and not self.domains
        )


@dataclass(frozen=True)
class RecoveryConfig:
    """End-to-end transport knobs for :func:`repro.faults.install_recovery`.

    ``timeout`` is the cycles a message may remain undelivered before
    its remains are purged and it is retransmitted; retransmission
    ``k`` (1-based) is delayed by ``min(backoff_base * 2**(k-1),
    backoff_cap)`` cycles.  Sinks reject messages whose flits were
    corrupted in transit (the end-to-end checksum), triggering the same
    retransmission path.

    The timeout clock starts when the message's *header flit leaves the
    NI*, not at injection, so legitimate NI queueing (frame bursts
    paced at the stream's reserved rate) never counts against it.  The
    timeout still has to cover the message's own pacing tail — roughly
    ``message_size * vtick`` cycles under Virtual Clock — plus network
    transit and contention; shorter settings kill healthy messages and
    retransmit them in a storm.
    """

    timeout: int = 2000
    max_retries: int = 6
    backoff_base: int = 64
    backoff_cap: int = 2048
    #: end-to-end delivery deadline in cycles for QoS (CBR/VBR)
    #: messages, measured from the *first* attempt's injection across
    #: the whole retry chain; None disables deadline accounting
    qos_deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise FaultConfigError(
                f"timeout must be >= 1 cycle, got {self.timeout}"
            )
        if self.qos_deadline is not None and self.qos_deadline < 1:
            raise FaultConfigError(
                f"qos_deadline must be >= 1 cycle, got {self.qos_deadline}"
            )
        if self.max_retries < 0:
            raise FaultConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 1 or self.backoff_cap < self.backoff_base:
            raise FaultConfigError(
                f"need 1 <= backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )

    @classmethod
    def scaled(
        cls, interval: int, max_retries: int, qos_deadline: Optional[int] = None
    ) -> "RecoveryConfig":
        """Transport clocks scaled to the workload's frame interval.

        What every campaign and chaos scenario uses, so a study is the
        same scenario at every workload scale.  The timeout must cover
        the message's own rate pacing (~message_size * vtick, a fifth
        of a frame interval at the campaigns' operating points) plus
        transit and contention; half an interval leaves ample slack
        without delaying loss detection much.
        """
        return cls(
            timeout=max(512, interval // 2),
            max_retries=max_retries,
            backoff_base=max(16, interval // 256),
            backoff_cap=max(64, interval // 16),
            qos_deadline=qos_deadline,
        )
