"""The paper's evaluation as specs: Figures 3-9 and Tables 2-3.

Every figure is *series x one swept axis -> (d, sigma_d, best-effort
latency)*, so each is a :class:`~repro.experiments.campaign.Campaign`
spec beside its constants — series, axis defaults, experiment factory,
how the result prints — and :meth:`Campaign.run` is the sweep.  Every
point is one ``simulate`` through the default body,
:func:`~repro.experiments.campaign.measure`; the spec places it on its
axis.  The figures share operating points (Fig. 3's Virtual Clock
curve is Fig. 5's 80:20 column, Table 2 is read off Fig. 5's runs), so
``mediaworm all`` runs each distinct experiment once.  :data:`PAPER`
collects the specs by name for ``mediaworm run`` / ``all`` / ``list``,
the shape benches and the tests.  A custom sweep replaces the series
and passes the axis values:
``replace(FIG9, series=(0.5,)).run("quick", values=("60:40",))``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, Tuple

from repro.core.schedulers import SchedulingPolicy
from repro.experiments.campaign import Axis, Campaign, _base_kwargs
from repro.experiments.config import (
    FatMeshExperiment,
    PCSExperiment,
    SingleSwitchExperiment,
)
from repro.experiments.report import (
    figure_to_text,
    table2_to_text,
    table3_to_text,
)
from repro.experiments.tables import mix_of, table2, table3
from repro.router.config import CrossbarKind
from repro.router.flit import TrafficClass

#: load points used by the single-switch sweeps (Figs. 3-6)
DEFAULT_LOADS: Tuple[float, ...] = (0.6, 0.7, 0.8, 0.9, 0.96)
#: load points of the Fig. 6 sweep (starts at 0.5 like the paper's plot)
FIG6_LOADS: Tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.96)
#: the two representative loads of the Fig. 7 message-size study
FIG7_LOADS: Tuple[float, ...] = (0.64, 0.80)
#: load points of the PCS comparison (Fig. 8)
FIG8_LOADS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
#: load points of the fat-mesh study (Fig. 9)
FIG9_LOADS: Tuple[float, ...] = (0.7, 0.8, 0.9)

_load_label = "load={:g}".format


def _switch(profile, load, mix=(100, 0), vcs_per_pc=16, **knobs):
    """One run of the 8-port switch: 16 VCs and all-real-time traffic
    unless the figure varies them."""
    return SingleSwitchExperiment(
        load=load,
        mix=tuple(mix),
        vcs_per_pc=vcs_per_pc,
        **knobs,
        **_base_kwargs(profile),
    )


# ----------------------------------------------------------------------
# Figure 3 — Virtual Clock vs FIFO (16 VCs, 80:20 mix)

#: MediaWorm's headline result: rate-based scheduling removes jitter.
#: The same 80:20 VBR/best-effort workload is offered to a 16-VC
#: multiplexed-crossbar router whose multiplexers run FIFO (a
#: conventional wormhole router) and Virtual Clock (MediaWorm).
FIG3 = Campaign(
    name="fig3",
    help="Virtual Clock vs FIFO (16 VCs, 80:20 mix)",
    series=(SchedulingPolicy.VIRTUAL_CLOCK, SchedulingPolicy.FIFO),
    axis=Axis(DEFAULT_LOADS, "g"),
    experiment=lambda profile, policy, load: _switch(
        profile, load, mix=(80, 20), scheduler=policy
    ),
    title="Virtual Clock vs FIFO (16 VCs, 80:20 mix)",
    xlabel="input link load",
    text=figure_to_text,
)

# ----------------------------------------------------------------------
# Figure 4 — CBR vs VBR (no best-effort traffic)

#: CBR and VBR compared head-to-head with no best-effort component
FIG4 = Campaign(
    name="fig4",
    help="CBR vs VBR traffic (no best-effort)",
    series=(TrafficClass.VBR, TrafficClass.CBR),
    axis=Axis(DEFAULT_LOADS, "g"),
    experiment=lambda profile, rt_class, load: _switch(
        profile, load, rt_class=rt_class
    ),
    title="CBR vs VBR traffic (16 VCs, 400 Mbps links)",
    xlabel="input link load",
    text=figure_to_text,
)

# ----------------------------------------------------------------------
# Figure 5 / Table 2 — traffic mixes

#: real-time : best-effort mixes, spelled as the figures label them
DEFAULT_MIXES: Tuple[str, ...] = ("20:80", "50:50", "80:20", "90:10", "100:0")

#: mixes whose best-effort latency Table 2 reports (100:0 has none)
TABLE2_MIXES: Tuple[str, ...] = tuple(
    mix for mix in DEFAULT_MIXES if mix_of(mix)[1]
)

#: VBR jitter across traffic mixes: one series per input load
FIG5 = Campaign(
    name="fig5",
    help="Mixed traffic ratios vs load",
    series=DEFAULT_LOADS,
    label=_load_label,
    axis=Axis(DEFAULT_MIXES),
    experiment=lambda profile, load, mix: _switch(
        profile, load, mix=mix_of(mix)
    ),
    title="Mixed traffic (16 VCs): jitter vs real-time proportion",
    xlabel="real-time : best-effort mix",
    text=figure_to_text,
)

#: average best-effort latency for the (mix x load) grid: Fig. 5's
#: experiments over the mixes that have any, reduced to the latencies
TABLE2 = replace(
    FIG5,
    name="table2",
    help="Best-effort latency per mix and load",
    axis=Axis(TABLE2_MIXES),
    table=table2,
    text=table2_to_text,
)

# ----------------------------------------------------------------------
# Figure 6 — VC count and crossbar capability

#: (VCs per physical channel, crossbar) of each series, and its name
FIG6_CONFIGS: Dict[Tuple[int, str], str] = {
    (16, CrossbarKind.MULTIPLEXED): "16 VCs, multiplexed",
    (8, CrossbarKind.MULTIPLEXED): "8 VCs, multiplexed",
    (4, CrossbarKind.MULTIPLEXED): "4 VCs, multiplexed",
    (4, CrossbarKind.FULL): "4 VCs, full crossbar",
}

#: more VCs vs a full crossbar with few VCs (100:0 traffic)
FIG6 = Campaign(
    name="fig6",
    help="VC count and crossbar capability",
    series=tuple(FIG6_CONFIGS),
    label=FIG6_CONFIGS.get,
    axis=Axis(FIG6_LOADS, "g"),
    experiment=lambda profile, config, load: _switch(
        profile, load, vcs_per_pc=config[0], crossbar=config[1]
    ),
    title="Impact of VCs and crossbar capability (100:0)",
    xlabel="input link load",
    text=figure_to_text,
)

# ----------------------------------------------------------------------
# Figure 7 — message size


def _fig7_sizes(profile) -> Tuple[int, ...]:
    # Paper sweep: 20, 40, 80, 160, 2560 flits at scale 1.  The
    # largest size is meaningful only relative to the frame size
    # (4167 flits), so it scales with the workload.
    top = max(40, int(2560 / profile.scale))
    return tuple(sorted({10, 20, 40, 80, 160, top}))


#: Effect of message size on VBR jitter, with header overhead.  Each
#: message carries one header flit, so small messages spend a larger
#: wire-bandwidth fraction on headers (1/20 = 5% at the paper's default
#: size) — the overhead visible at the left edge of Fig. 7.  The top of
#: the paper's range (2560 flits, i.e. more than a whole frame in one
#: wormhole message) is scaled along with the workload.
FIG7 = Campaign(
    name="fig7",
    help="Effect of message size on jitter",
    series=FIG7_LOADS,
    label=_load_label,
    axis=Axis(_fig7_sizes),
    experiment=lambda profile, load, size: _switch(
        profile, load, message_size=size, header_flits=1
    ),
    title="Effect of message size on jitter (16 VCs)",
    xlabel="message size (flits)",
    notes="one header flit per message; sizes above the scaled frame "
    "size collapse a frame into a single wormhole message",
    text=figure_to_text,
)

# ----------------------------------------------------------------------
# Figure 8 / Table 3 — MediaWorm vs PCS (100 Mbps, 24 VCs)

#: the loads the paper's Table 3 samples
TABLE3_LOADS: Tuple[float, ...] = (
    0.37,
    0.42,
    0.64,
    0.67,
    0.74,
    0.80,
    0.87,
    0.91,
)


def _fig8_experiment(profile, router: str, load: float):
    """Wormhole (MediaWorm) against the connection-oriented PCS router."""
    if router == "pcs":
        return PCSExperiment(load=load, **_base_kwargs(profile))
    return _switch(profile, load, bandwidth_mbps=100.0, vcs_per_pc=24)


#: a PCS point carries its run's connection accounting as extras (a
#: wormhole run has none)
FIG8 = Campaign(
    name="fig8",
    help="MediaWorm vs PCS router",
    series=("wormhole", "pcs"),
    axis=Axis(FIG8_LOADS, "g"),
    experiment=_fig8_experiment,
    title="MediaWorm vs PCS (8x8 switch, 100 Mbps, 24 VCs)",
    xlabel="input link load",
    notes="PCS points accept only the connections that survived "
    "setup; wormhole accepts every stream",
    text=figure_to_text,
)

#: attempted / established / dropped PCS connections per load: Fig. 8's
#: PCS series at the loads the paper tabulates
TABLE3 = replace(
    FIG8,
    name="table3",
    help="PCS connection drop accounting",
    series=("pcs",),
    axis=Axis(TABLE3_LOADS, "g"),
    table=table3,
    text=table3_to_text,
)

# ----------------------------------------------------------------------
# Figure 9 — 2x2 fat mesh

DEFAULT_FAT_MESH_MIXES: Tuple[str, ...] = ("40:60", "60:40", "80:20")

#: the 2x2 fat mesh: jitter and best-effort latency across mixes
FIG9 = Campaign(
    name="fig9",
    help="2x2 fat-mesh performance",
    series=FIG9_LOADS,
    label=_load_label,
    axis=Axis(DEFAULT_FAT_MESH_MIXES),
    experiment=lambda profile, load, mix: FatMeshExperiment(
        load=load, mix=mix_of(mix), vcs_per_pc=16, **_base_kwargs(profile)
    ),
    title="(2x2) fat mesh: jitter and best-effort latency",
    xlabel="real-time : best-effort mix",
    text=partial(figure_to_text, show_be_latency=True),
)

#: what ``mediaworm run`` accepts, in ``mediaworm list`` order
PAPER: Dict[str, Campaign] = {
    spec.name: spec
    for spec in (FIG3, FIG4, FIG5, FIG6, FIG7, FIG8, FIG9, TABLE2, TABLE3)
}
