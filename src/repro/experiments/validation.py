"""Machine-checkable versions of the paper's qualitative claims.

Every figure's headline statements ("jitter-free up to 0.8 regardless
of mix", "PCS drops a large number of connections", ...) are encoded
here as named checks over the reproduced sweep data.  The benchmark
suite asserts them; ``mediaworm run <fig> --check`` prints a verdict
per claim; and EXPERIMENTS.md records where they hold.

A check returns a :class:`ClaimResult` rather than raising, so a report
can show *all* verdicts at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.analysis import (
    dominates,
    is_jitter_free_point,
    max_jitter_free_load,
    monotonic_tail,
)
from repro.errors import ConfigurationError
from repro.experiments.campaign import FigureData


@dataclass(frozen=True)
class ClaimResult:
    """Verdict for one paper claim."""

    claim: str
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _result(claim: str, passed: bool, detail: str = "") -> ClaimResult:
    return ClaimResult(claim=claim, passed=bool(passed), detail=detail)


# ----------------------------------------------------------------------
# per-figure claim checkers


def check_fig3(fig: FigureData) -> List[ClaimResult]:
    """Virtual Clock vs FIFO."""
    vclock = fig.series["virtual_clock"]
    fifo = fig.series["fifo"]
    vc_limit = max_jitter_free_load(vclock, sigma_tolerance_ms=1.0) or 0.0
    results = [
        _result(
            "Virtual Clock is jitter-free deep into the sweep (>= 0.9)",
            vc_limit >= 0.9,
            f"jitter-free limit = {vc_limit:g}",
        ),
        _result(
            "Virtual Clock never jitters more than FIFO",
            dominates(vclock, fifo, key=lambda p: p.sigma_d, slack=0.3),
        ),
        _result(
            "FIFO is behind at the top of the sweep",
            fifo[-1].sigma_d + fifo[-1].d
            >= vclock[-1].sigma_d + vclock[-1].d,
            f"FIFO d+sigma = {fifo[-1].d + fifo[-1].sigma_d:.2f}, "
            f"VC = {vclock[-1].d + vclock[-1].sigma_d:.2f}",
        ),
    ]
    return results


def check_fig4(fig: FigureData) -> List[ClaimResult]:
    """CBR vs VBR."""
    vbr, cbr = fig.series["vbr"], fig.series["cbr"]
    limit_v = max_jitter_free_load(vbr, sigma_tolerance_ms=1.0) or 0.0
    limit_c = max_jitter_free_load(cbr, sigma_tolerance_ms=1.0) or 0.0
    close = all(
        abs(a.d - b.d) < 1.5 for a, b in list(zip(cbr, vbr))[:-1]
    )
    return [
        _result(
            "both classes jitter-free through load 0.8",
            limit_v >= 0.8 and limit_c >= 0.8,
            f"VBR limit {limit_v:g}, CBR limit {limit_c:g}",
        ),
        _result(
            "CBR never jitters more than VBR",
            dominates(cbr, vbr, key=lambda p: p.sigma_d, slack=0.2),
        ),
        _result("nearly identical performance", close),
    ]


def check_fig5(fig: FigureData) -> List[ClaimResult]:
    """Traffic mixes."""
    results = []
    for load in (0.6, 0.7, 0.8):
        key = f"load={load:g}"
        if key not in fig.series:
            continue
        ok = all(
            is_jitter_free_point(p.d, p.sigma_d, sigma_tolerance_ms=1.0)
            for p in fig.series[key]
        )
        results.append(
            _result(f"no jitter at load {load:g} for any mix", ok)
        )
    top_key = max(fig.series, key=lambda k: float(k.split("=")[1]))
    top = fig.series[top_key]
    worst = max(top, key=lambda p: p.sigma_d)
    rt_share = float(str(worst.x).split(":")[0])
    results.append(
        _result(
            "worst jitter at the top load belongs to a real-time-"
            "dominant mix",
            rt_share >= 80,
            f"worst mix at {top_key}: {worst.x} "
            f"(sigma_d = {worst.sigma_d:.2f})",
        )
    )
    return results


def check_fig6(fig: FigureData) -> List[ClaimResult]:
    """VC count and crossbar capability."""
    limit = lambda pts: max_jitter_free_load(pts, sigma_tolerance_ms=1.0) or 0.0
    vcs16 = fig.series["16 VCs, multiplexed"]
    vcs8 = fig.series["8 VCs, multiplexed"]
    vcs4 = fig.series["4 VCs, multiplexed"]
    full4 = fig.series["4 VCs, full crossbar"]
    return [
        _result(
            "more VCs never shrink the jitter-free region",
            limit(vcs16) >= limit(vcs8) >= limit(vcs4),
            f"limits: 16={limit(vcs16):g} 8={limit(vcs8):g} "
            f"4={limit(vcs4):g}",
        ),
        _result(
            "full crossbar beats the multiplexed crossbar at 4 VCs",
            limit(full4) >= limit(vcs4)
            and dominates(full4, vcs4, key=lambda p: p.sigma_d, slack=0.3),
        ),
        _result(
            "full crossbar at 4 VCs competitive with 16 multiplexed VCs",
            limit(full4) >= limit(vcs16) - 0.15,
            f"full4 limit {limit(full4):g} vs 16VC limit {limit(vcs16):g}",
        ),
    ]


def check_fig7(fig: FigureData) -> List[ClaimResult]:
    """Message size."""
    low_key = min(fig.series, key=lambda k: float(k.split("=")[1]))
    high_key = max(fig.series, key=lambda k: float(k.split("=")[1]))
    low, high = fig.series[low_key], fig.series[high_key]
    d_values = [p.d for p in high]
    return [
        _result(
            f"every size jitter-free at {low_key}",
            all(
                is_jitter_free_point(p.d, p.sigma_d, sigma_tolerance_ms=1.0)
                for p in low
            ),
        ),
        _result(
            "mean delivery interval insensitive to message size",
            max(d_values) - min(d_values) < 1.0,
            f"d spread = {max(d_values) - min(d_values):.3f} ms",
        ),
        _result(
            "the paper's 20-flit default is jitter-free at the high load",
            next(p for p in high if p.x == 20).sigma_d < 1.0,
        ),
    ]


def check_fig8(fig: FigureData) -> List[ClaimResult]:
    """MediaWorm vs PCS."""
    wormhole, pcs = fig.series["wormhole"], fig.series["pcs"]
    wh_limit = max_jitter_free_load(wormhole, sigma_tolerance_ms=1.0) or 0.0
    pcs_limit = max_jitter_free_load(pcs, sigma_tolerance_ms=1.0) or 0.0
    drops = [p.extra.get("dropped", 0) for p in pcs]
    top = pcs[-1].extra
    mid = min(pcs, key=lambda p: abs(p.x - 0.7)).extra
    return [
        _result(
            "wormhole jitter-free at realistic loads (>= 0.6)",
            wh_limit >= 0.6,
            f"limit = {wh_limit:g}",
        ),
        _result(
            "PCS holds jitter-free at least as far as wormhole",
            pcs_limit >= wh_limit,
            f"PCS {pcs_limit:g} vs wormhole {wh_limit:g}",
        ),
        _result("PCS drop counts rise with load", drops[-1] > drops[0]),
        _result(
            "a large share of attempts dropped near saturation",
            top.get("dropped", 0) >= 0.3 * max(1, top.get("attempts", 0)),
            f"{top.get('dropped')}/{top.get('attempts')} at the top load",
        ),
        _result(
            "~half or more of attempts turned down around load 0.7",
            mid.get("dropped", 0) >= 0.4 * max(1, mid.get("attempts", 0)),
            f"{mid.get('dropped')}/{mid.get('attempts')}",
        ),
    ]


def check_fig9(fig: FigureData) -> List[ClaimResult]:
    """Fat mesh."""
    results = []
    for key, points in fig.series.items():
        moderate = [
            p for p in points if float(str(p.x).split(":")[0]) <= 60
        ]
        results.append(
            _result(
                f"moderate mixes jitter-free at {key}",
                all(
                    is_jitter_free_point(
                        p.d, p.sigma_d, sigma_tolerance_ms=1.5
                    )
                    for p in moderate
                ),
            )
        )
        latencies = [p.be_latency_us for p in points]
        results.append(
            _result(
                f"best-effort latency rises with the VBR share at {key}",
                monotonic_tail(
                    latencies, tolerance=0.25 * max(latencies)
                ),
            )
        )
    worst = max(
        (p for pts in fig.series.values() for p in pts),
        key=lambda p: p.sigma_d,
    )
    results.append(
        _result(
            "any real degradation concentrates in VBR-dominant mixes",
            worst.sigma_d <= 1.5
            or float(str(worst.x).split(":")[0]) >= 60,
            f"worst point: {worst.x} (sigma_d = {worst.sigma_d:.2f})",
        )
    )
    return results


CHECKERS: Dict[str, Callable[[FigureData], List[ClaimResult]]] = {
    "fig3": check_fig3,
    "fig4": check_fig4,
    "fig5": check_fig5,
    "fig6": check_fig6,
    "fig7": check_fig7,
    "fig8": check_fig8,
    "fig9": check_fig9,
}


def check_claims(fig: FigureData) -> List[ClaimResult]:
    """Run the registered claims for ``fig`` (by its figure_id)."""
    checker = CHECKERS.get(fig.figure_id)
    if checker is None:
        raise ConfigurationError(
            f"no claims registered for figure {fig.figure_id!r}"
        )
    return checker(fig)


def claims_to_text(results: List[ClaimResult]) -> str:
    """Render verdicts as a checklist."""
    lines = []
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        line = f"[{mark}] {result.claim}"
        if result.detail:
            line += f"  ({result.detail})"
        lines.append(line)
    return "\n".join(lines)
