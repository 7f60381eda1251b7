#!/usr/bin/env python3
"""The repo benchmark: four workloads, end-to-end metrics, a layer trace.

    python benchmarks/perf/run.py [--seed S] [--reps N] [--trace] [--out F] [--record]
    python benchmarks/perf/run.py --workload NAME --seed S --seconds T --trace 0|1
    python benchmarks/perf/run.py --compare A.json B.json

Without ``--workload`` every workload runs in its own fresh child
process, one after another.  With it, this process *is* the child: a
closed loop of one warm-up repetition plus ``--reps`` timed ones (or as
many as fit in ``--seconds``), ``gc.collect()`` between them, outputs
checked after each.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

See README.md beside this file for every definition.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
HISTORY = HERE / "history.jsonl"
# The sibling modules and the simulator are found by path, not installed.
sys.path[:0] = [str(HERE), str(SRC)]

import micro  # noqa: E402
import trace  # noqa: E402  (this directory's trace.py, not the stdlib module)

#: the eight end-to-end metrics: name -> (unit, better, bound).  The
#: bound is the share of the baseline value a metric may worsen by;
#: None means no worsening at all is tolerated.  The host-time bounds
#: are as wide as the recorded host is noisy (README, "Noise"), not as
#: narrow as one would like.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "flits_per_s": ("flits/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "failed_share": ("ratio", "lower", None),
    "sigma_d_ms": ("ms", "lower", 0.02),
    "be_latency_us": ("us", "lower", 0.02),
    "qos_delivered_fraction": ("ratio", "higher", 0.02),
}
#: the subset BENCHMARK.json lists: defined and non-zero on every
#: workload (failures travel as attempted/failed/correct instead)
CONTRACT_END_TO_END = ("wall_s", "setup_s", "flits_per_s", "peak_rss_mb")

#: per-layer metrics that are not spans or micro numbers: name -> unit
LAYER_EXTRAS = {
    "sim.activation.due.mean_len": "count",
    "sim.cycles_executed": "count",
    "sim.cycles_jumped": "count",
    "network.flits_injected": "count",
    "network.flits_ejected": "count",
    "faults.retransmissions": "count",
    "faults.flits_lost": "count",
    "metrics.d_ms": "ms",
    "metrics.sigma_d_ms": "ms",
    "metrics.be_latency_us": "us",
    "faults.qos_delivered_fraction": "ratio",
    "experiments.cold_setup_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

ABSENT = "not defined on this workload"

DEFAULT_REPS = 5
#: a time-boxed run never stops before this many timed repetitions
MIN_TIMED_REPS = 3
#: untraced repetitions a traced run times first, for the overhead ratio
BASELINE_REPS = 2
#: fresh-interpreter import probes per run (the best one counts)
IMPORT_PROBES = 8


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units: Dict[str, str] = {}
    for span in trace.SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.share"] = "ratio"
    units.update(LAYER_EXTRAS)
    units.update(micro.UNITS)
    return units


# ----------------------------------------------------------------------
# statistics


def summarise(samples: List[float], better: str = "lower") -> Dict[str, object]:
    """Best of N as the value, with median/min/q1/q3/max and the count.

    Host noise only ever adds time, so the best repetition is the least
    perturbed one; measured on the recorded host it is two to four times
    steadier from run to run than the median (README, "Noise").  The
    median and quartiles are the noise estimate.  A run yields five to
    forty samples, which support no percentile with ten samples beyond
    it, so no tail percentile is reported.
    """
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "value": ordered[0] if better == "lower" else ordered[-1],
        "n": len(ordered),
        "median": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "max": ordered[-1],
        "samples": samples,
    }


def _mean(values: List[float]) -> Optional[float]:
    finite = [value for value in values if value is not None and math.isfinite(value)]
    return sum(finite) / len(finite) if finite else None


def host_info() -> Dict[str, object]:
    load1, load5, _ = os.getloadavg()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load1": load1,
        "load5": load5,
    }


# ----------------------------------------------------------------------
# one workload, in this process


class Tally:
    """Operations attempted and failed, with one note per failure."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: per-operation digests of the first clean repetition
        self.reference: Optional[List[str]] = None

    def add(self, rep, label: str) -> None:
        self.attempted += rep.attempted
        self.failed += len(rep.errors)
        self.notes += [f"{label}: raised {error}" for error in rep.errors]
        digests = rep.digests
        comparable = not rep.errors and self.reference is not None
        for index, result in enumerate(rep.results):
            why = self.workload.violations(result)
            if comparable and digests[index] != self.reference[index]:
                why.append("digest differs from the first repetition of this seed")
            if why:
                self.failed += 1
                self.notes.append(f"{label} op {index}: " + "; ".join(why))
        if self.reference is None and not rep.errors:
            self.reference = digests


def _timed_reps(reps: int, seconds: Optional[float], started: float):
    """Yield repetition indices: a fixed count, or as many as fit."""
    index = 0
    while True:
        if seconds is None:
            if index >= reps:
                return
        elif index >= MIN_TIMED_REPS and time.perf_counter() - started >= seconds:
            return
        yield index
        index += 1


def _simulated(workload, results) -> Dict[str, Optional[float]]:
    """The simulated-time outputs of one repetition (mean over sweep points).

    ``None`` where the workload carries no such traffic.
    """
    qos = [
        (result.fault_stats or {}).get("qos_delivered_fraction") for result in results
    ]
    streams = results if workload.streams else ()
    besteffort = results if workload.besteffort else ()
    return {
        "d_ms": _mean([result.metrics.d for result in streams]),
        "sigma_d_ms": _mean([result.metrics.sigma_d for result in streams]),
        "be_latency_us": _mean([result.metrics.be_latency_us for result in besteffort]),
        "qos_delivered_fraction": _mean(qos),
    }


def _fault_count(results, key: str) -> int:
    return sum((result.fault_stats or {}).get(key, 0) for result in results)


def _layer_numbers(tracer, results) -> Dict[str, object]:
    """Span metrics of one traced repetition plus the counts read off its results."""
    numbers = trace.layer_metrics(tracer.snapshot())
    executed = numbers["sim.cycles_executed"]
    cycles = sum(result.cycles_run for result in results)
    numbers["sim.cycles_jumped"] = None if executed is None else cycles - executed
    numbers["network.flits_injected"] = sum(r.flits_injected for r in results)
    numbers["network.flits_ejected"] = sum(r.flits_ejected for r in results)
    numbers["faults.retransmissions"] = _fault_count(results, "retransmissions")
    numbers["faults.flits_lost"] = _fault_count(results, "flits_lost")
    return numbers


def measure(
    workload,
    seed: int,
    reps: int = DEFAULT_REPS,
    seconds: Optional[float] = None,
    traced: bool = False,
    smoke: bool = False,
) -> Dict[str, object]:
    """Run one workload in this process and return its full report."""
    host = host_info()
    # One probe now, the rest between the first timed repetitions, so
    # they do not all sample the same moment of a noisy host.
    imports = [micro.import_seconds()]
    payload = workload.build(seed, smoke)
    tally = Tally(workload)

    gc.collect()
    warm = workload.execute(payload, inline=traced)
    tally.add(warm, "warm-up")
    started = time.perf_counter()

    tracer = None
    baseline: List[float] = []
    if traced:
        for index in range(BASELINE_REPS):
            gc.collect()
            rep = workload.execute(payload, inline=True)
            tally.add(rep, f"untraced rep {index}")
            baseline.append(rep.wall_s)
        tracer = trace.Tracer()
        tracer.install()
        # rebuilt so the sweep's tasks pick up the wrapped runner
        payload = workload.build(seed, smoke)

    timed = []
    layers: List[Dict[str, object]] = []
    try:
        for index in _timed_reps(reps, seconds, started):
            if not smoke and len(imports) < IMPORT_PROBES:
                imports.append(micro.import_seconds())
            gc.collect()
            if tracer is not None:
                tracer.reset()
            rep = workload.execute(payload, inline=traced)
            tally.add(rep, f"rep {index}")
            timed.append(rep)
            if tracer is not None:
                layers.append(_layer_numbers(tracer, rep.results))
    finally:
        if tracer is not None:
            edges = tracer.edge_table()
            tracer.uninstall()

    import_s = min(imports)
    clean = [rep for rep in timed if rep.results and not rep.errors]
    simulated = _simulated(workload, clean[0].results if clean else ())
    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "reps": len(timed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "digest": clean[0].digest if clean else None,
        "d_ms": simulated["d_ms"],
        "host": {**host, "load1_end": os.getloadavg()[0]},
    }

    if not traced:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if workload.runner is None:
            usage = max(usage, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        flits_per_s = [
            sum(r.flits_ejected for r in rep.results)
            / (rep.wall_s if workload.runner is None else sum(r.wall_seconds for r in rep.results))
            for rep in clean
        ]
        report["end_to_end"] = _end_to_end(
            wall=[rep.wall_s for rep in clean],
            setup=[import_s + rep.setup_s for rep in clean],
            flits_per_s=flits_per_s,
            peak_rss_mb=usage / 1024.0,
            failed_share=tally.failed / tally.attempted,
            simulated=simulated,
        )
        report["import_s"] = import_s
        return report

    per_layer = _median_layers(layers)
    per_layer["metrics.d_ms"] = simulated["d_ms"]
    per_layer["metrics.sigma_d_ms"] = simulated["sigma_d_ms"]
    per_layer["metrics.be_latency_us"] = simulated["be_latency_us"]
    per_layer["faults.qos_delivered_fraction"] = simulated["qos_delivered_fraction"]
    per_layer["experiments.cold_setup_s"] = import_s + warm.setup_s
    per_layer["trace.overhead_ratio"] = (
        min(rep.wall_s for rep in clean) / min(baseline) if clean else None
    )
    numbers, reasons = micro.run_all()
    per_layer.update(numbers)
    for span, why in tracer.missing.items():
        reasons.update({f"{span}.{part}": why for part in ("calls", "self_s", "share")})
    report["per_layer"] = {
        name: _metric(per_layer.get(name), unit, reasons.get(name, ABSENT))
        for name, unit in per_layer_units().items()
    }
    report["edges"] = edges
    report["untraced_wall_s"] = min(baseline)
    return report


def _median_layers(layers: List[Dict[str, object]]) -> Dict[str, object]:
    """Per metric, the median over the traced repetitions (None stays None)."""
    merged: Dict[str, object] = {}
    for name in layers[0] if layers else ():
        values = [numbers[name] for numbers in layers]
        # median_low keeps a count a whole number (counts repeat exactly)
        merged[name] = None if None in values else statistics.median_low(values)
    return merged


def _metric(value, unit: str, reason: str) -> Dict[str, object]:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return {"value": None, "unit": unit, "reason": reason}
    return {"value": value, "unit": unit}


def _end_to_end(wall, setup, flits_per_s, peak_rss_mb, failed_share, simulated):
    def timed(samples, name):
        unit, better, _bound = END_TO_END[name]
        if not samples:
            return {"value": None, "unit": unit, "reason": "no repetition completed"}
        return {**summarise(samples, better), "unit": unit}

    return {
        "wall_s": timed(wall, "wall_s"),
        "setup_s": timed(setup, "setup_s"),
        "flits_per_s": timed(flits_per_s, "flits_per_s"),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "failed_share": {"value": failed_share, "unit": "ratio"},
        "sigma_d_ms": _metric(simulated["sigma_d_ms"], "ms", ABSENT),
        "be_latency_us": _metric(simulated["be_latency_us"], "us", ABSENT),
        "qos_delivered_fraction": _metric(simulated["qos_delivered_fraction"], "ratio", ABSENT),
    }


# ----------------------------------------------------------------------
# output


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(report: Dict[str, object]) -> None:
    mode = "traced pass" if report["traced"] else "end-to-end pass"
    print(
        f"== {report['workload']}: {mode}, seed {report['seed']}, 1 warm-up + "
        f"{report['reps']} timed repetitions, closed loop, one operation at a time =="
    )
    for name, entry in report.get("end_to_end", {}).items():
        line = f"  {name:28s} {_format(entry['value']):>12} {entry['unit']}"
        if "n" in entry:
            line += (
                f"   best of n={entry['n']} [median {_format(entry['median'])} min "
                f"{_format(entry['min'])} q1 {_format(entry['q1'])} q3 {_format(entry['q3'])} "
                f"max {_format(entry['max'])}]"
            )
        elif "reason" in entry:
            line += f"   ({entry['reason']})"
        print(line)
    for name, entry in report.get("per_layer", {}).items():
        why = f"   ({entry['reason']})" if "reason" in entry else ""
        print(f"  {name:44s} {_format(entry['value']):>12} {entry['unit']}{why}")
    print(f"  d = {_format(report['d_ms'])} ms   run digest {report['digest']}")
    print(
        f"  operations: {report['attempted']} attempted, {report['failed']} failed"
        f"   host: nproc {report['host']['nproc']}, load1 {report['host']['load1']:.2f}"
    )
    for note in report["failures"]:
        print(f"  FAILED {note}")
    if report["host"]["load1"] > report["host"]["nproc"]:
        print("  WARNING: load1 exceeds nproc; host-time metrics are unreliable")


NOTES = (
    "note: a timing is the best repetition, with the median and quartiles as its noise estimate; "
    "the sample counts support no tail percentile, so none is given.",
    "note: sigma_d_ms, be_latency_us and qos_delivered_fraction are simulated time and repeat "
    "exactly for a seed; the others are host time.",
    "note: the model is validated only qualitatively (repro.experiments.validation), so no "
    "error-versus-paper figure is given.",
)


def contract_line(report: Dict[str, object]) -> str:
    """The last line of a ``--workload`` run, in the builder-contract shape.

    It carries numbers only: a metric that does not exist on this
    workload reads 0 here (the full report says null, with the reason).
    """
    if report["traced"]:
        source = report["per_layer"]
    else:
        source = {name: report["end_to_end"][name] for name in CONTRACT_END_TO_END}
    metrics = {
        name: {"value": 0 if entry["value"] is None else entry["value"], "unit": entry["unit"]}
        for name, entry in source.items()
    }
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# all workloads, each in a fresh child process


def run_children(args) -> Dict[str, object]:
    from workloads import WORKLOADS

    reports = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--reps", str(args.reps),
            "--trace", str(args.trace),
            "--detail",
        ]  # fmt: skip
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        *shown, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(shown), flush=True)
        try:
            reports[workload.name] = json.loads(last)
        except json.JSONDecodeError:
            print(last)
            reports[workload.name] = {"workload": workload.name, "failed": 1, "crashed": True}
    for note in NOTES:
        print(note)
    return {
        "format": "mediaworm-perf-v1",
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git": _git_head(),
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "host": host_info(),
        "workloads": reports,
    }


def _git_head() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(HERE), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def record(run: Dict[str, object]) -> None:
    """Append this run's end-to-end medians to the committed trajectory."""
    line = {key: run[key] for key in ("utc", "git", "seed")}
    line["reps"] = {name: report["reps"] for name, report in run["workloads"].items()}
    line["host"] = {key: run["host"][key] for key in ("nproc", "python", "load1")}
    line["end_to_end"] = {
        name: {metric: entry["value"] for metric, entry in report["end_to_end"].items()}
        for name, report in run["workloads"].items()
    }
    line["digests"] = {name: report["digest"] for name, report in run["workloads"].items()}
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# --compare


def _worse_by(name: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    signed = new - base if END_TO_END[name][1] == "lower" else base - new
    return signed / abs(base) if base else (math.inf if signed > 0 else 0.0)


def verdict(name: str, base: Dict[str, object], new: Dict[str, object]) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one (workload, metric)."""
    bound = END_TO_END[name][2] or 0.0
    a, b = base["value"], new["value"]
    if a is None or b is None:
        return "n/a" if a is None and b is None else "regressed"
    side_a = base.get("samples", [a])
    side_b = new.get("samples", [b])
    # run-to-run noise: either side's interquartile range over its median
    spread = max(
        (entry["q3"] - entry["q1"]) / abs(entry["median"]) if entry.get("median") else 0.0
        for entry in (base, new)
    )
    lower = END_TO_END[name][1] == "lower"
    all_better = max(side_b) < min(side_a) if lower else min(side_b) > max(side_a)
    all_worse = min(side_b) > max(side_a) if lower else max(side_b) < min(side_a)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    return "regressed" if _worse_by(name, a, b) > bound else "ok"


def _quartiles(entry: Dict[str, object]) -> str:
    if "q1" not in entry:
        return "-"
    return f"{_format(entry['q1'])}..{_format(entry['q3'])}"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        run_a = json.load(handle)
    with open(path_b) as handle:
        run_b = json.load(handle)
    print(f"A = {path_a} ({run_a.get('git')}, seed {run_a.get('seed')})")
    print(f"B = {path_b} ({run_b.get('git')}, seed {run_b.get('seed')})")
    print(
        f"{'workload':16s} {'metric':24s} {'A':>12} {'B':>12} "
        f"{'B/A':>8}  {'A q1-q3':>23} {'B q1-q3':>23}  verdict (bound)"
    )
    worst = 0
    for name, report_a in run_a["workloads"].items():
        report_b = run_b["workloads"].get(name, {})
        for metric, (unit, _better, bound) in END_TO_END.items():
            a = report_a.get("end_to_end", {}).get(metric, {"value": None})
            b = report_b.get("end_to_end", {}).get(metric, {"value": None})
            status = verdict(metric, a, b)
            worst = max(worst, status == "regressed")
            ratio = (
                f"{b['value'] / a['value']:.4f}"
                if a["value"] and b["value"] is not None
                else "-"
            )
            print(
                f"{name:16s} {metric:24s} {_format(a['value']):>12} {_format(b['value']):>12} "
                f"{ratio:>8}  {_quartiles(a):>23} {_quartiles(b):>23}  "
                f"{status} ({'0 abs' if bound is None else bound}) {unit}"
            )
        same = report_a.get("digest") == report_b.get("digest")
        print(f"{name:16s} run digest {'equal' if same else 'DIFFERS'} (information only)")
    print("B/A is B's value divided by A's value; a bound is a share of A's value.")
    return int(worst)


# ----------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1, help="written into every experiment")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS, help="timed repetitions")
    parser.add_argument("--seconds", type=float, help="time-box the repetitions instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer pass instead of the end-to-end pass")  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--record", action="store_true", help="append to history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--detail", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"no simulator source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload is None:
        if args.record and (args.trace or args.smoke):
            parser.error("--record takes a full end-to-end pass")
        run = run_children(args)
        if args.out:
            Path(args.out).write_text(json.dumps(run, indent=1) + "\n")
        if args.record:
            record(run)
        return int(any(report["failed"] for report in run["workloads"].values()))

    from workloads import BY_NAME

    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
    report = measure(
        BY_NAME[args.workload],
        seed=args.seed,
        reps=args.reps,
        seconds=args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
    )
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.detail:
        print(json.dumps(report))
    else:
        for note in NOTES:
            print(note)
        print(contract_line(report))
    return int(report["failed"] > 0)


if __name__ == "__main__":
    sys.exit(main())
