"""``python -m repro.obs`` — inspect trace files.

Subcommands:

``summarize TRACE``
    Per-phase breakdown, shard timeline with retry/worker-death events,
    merged metric totals and top-N kernels.  ``--json`` for machine output.
``chrome TRACE [-o OUT]``
    Export to Chrome Trace Event JSON (load in ``chrome://tracing`` or
    https://ui.perfetto.dev).
``validate TRACE``
    Check every record against the schema in :mod:`repro.obs.sink`;
    exits non-zero on the first malformed trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.obs import report, sink


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = sink.read_trace(args.trace)
    summary = report.summarize(records, top_kernels=args.top)
    if args.json:
        summary = dict(summary)
        summary.pop("event_detail", None)
        print(json.dumps(summary, indent=2, default=str))
    else:
        print(report.format_summary(summary))
    return 0


def _cmd_chrome(args: argparse.Namespace) -> int:
    exported = report.chrome_trace(sink.read_trace(args.trace))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(exported, handle)
        print(f"wrote {len(exported['traceEvents'])} trace event(s) "
              f"to {args.output}")
    else:
        json.dump(exported, sys.stdout)
        print()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    count, errors = sink.validate_trace(args.trace)
    if errors:
        for error in errors[:20]:
            print(f"INVALID {args.trace}: {error}", file=sys.stderr)
        if len(errors) > 20:
            print(f"... and {len(errors) - 20} more", file=sys.stderr)
        return 1
    print(f"{args.trace}: {count} record(s), schema ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarize, export and validate repro.obs trace files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="human-readable trace summary")
    p_sum.add_argument("trace", help="path to a .jsonl trace file")
    p_sum.add_argument("--top", type=int, default=10,
                       help="how many kernels to list (default 10)")
    p_sum.add_argument("--json", action="store_true",
                       help="emit the summary as JSON")
    p_sum.set_defaults(func=_cmd_summarize)

    p_chrome = sub.add_parser("chrome", help="export Chrome-trace JSON")
    p_chrome.add_argument("trace", help="path to a .jsonl trace file")
    p_chrome.add_argument("-o", "--output", default=None,
                          help="output path (default: stdout)")
    p_chrome.set_defaults(func=_cmd_chrome)

    p_val = sub.add_parser("validate", help="schema-check a trace file")
    p_val.add_argument("trace", help="path to a .jsonl trace file")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
