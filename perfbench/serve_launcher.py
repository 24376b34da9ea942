"""Traced ``repro-kgc serve``: the server with the serving layer's wrappers installed.

Runs ``repro.cli.main(["serve", ...])`` with the ``serve`` group of
:data:`layers.TARGETS` wrapped, and writes the spans and counters as JSON to
``--spans`` when the server stops (SIGTERM or SIGINT)::

    python3 perfbench/serve_launcher.py --spans spans.json -- serve --artifact A --port 0
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from layers import LayerTrace


def _interrupt(signum, frame) -> None:
    # ``serve_forever`` treats KeyboardInterrupt as its shutdown request.
    raise KeyboardInterrupt


def main() -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    from repro.cli import main as cli_main

    trace = LayerTrace(("serve",)).install()
    try:
        code = cli_main(cli_args)
    finally:
        trace.uninstall()
        payload = {"records": trace.records(), "counts": dict(trace.counts)}
        args.spans.write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
