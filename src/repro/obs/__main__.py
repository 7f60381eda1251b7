"""Validate a JSONL trace file against the event schema.

Usage::

    python -m repro.obs TRACE.jsonl [--digest] [--quiet]

Streams the file, checks every record against
:data:`repro.obs.events.EVENT_SCHEMA` (known kind, exact field set, correct
types), and prints per-kind counts.  Exits non-zero on the first
malformed record, naming the line.  ``--digest`` also prints the
canonical :func:`repro.obs.sinks.stream_digest` fingerprint.  ``make
trace-smoke`` runs this over a fresh ``mediaworm trace`` run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from repro.errors import InvariantViolation
from repro.obs.events import validate_event
from repro.obs.sinks import stream_digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    parser.add_argument("trace", help="JSONL trace file to validate")
    parser.add_argument(
        "--digest",
        action="store_true",
        help="also print the canonical stream digest",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-kind table"
    )
    args = parser.parse_args(argv)

    counts: "Counter[str]" = Counter()
    with open(args.trace, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                record = json.loads(line)
                validate_event(record)
            except (ValueError, InvariantViolation) as exc:
                print(
                    f"{args.trace}:{lineno}: invalid trace record: {exc}",
                    file=sys.stderr,
                )
                return 1
            counts[record["kind"]] += 1

    total = sum(counts.values())
    if not args.quiet:
        for kind in sorted(counts):
            print(f"  {kind:<14} {counts[kind]:>10}")
    print(f"{args.trace}: {total} events, all valid")
    if args.digest:
        print(f"digest: {stream_digest(args.trace)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
