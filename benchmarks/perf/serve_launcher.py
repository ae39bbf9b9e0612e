"""``repro serve`` with the benchmark's timing wrappers installed.

The traced run starts this instead of ``python -m repro serve``: same
server, same announcement and drain lines on stderr, but every layer
entry point records a span, and the spans are written to
``--spans-out`` once the server has drained.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import perf_env  # noqa: F401  (puts src/ on sys.path)
from perf_trace import Recorder

from repro.obs import configure_logging
from repro.serve import ServeConfig, run_server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args()

    configure_logging(level="WARNING")  # as ``repro.cli.main`` does
    recorder = Recorder()
    recorder.install_serve_path()

    def announce(line: str, flush: bool = True) -> None:
        print(line, file=sys.stderr, flush=flush)

    server = asyncio.run(run_server(
        ServeConfig(port=args.port, cache_dir=args.cache_dir),
        announce=announce))
    with open(args.spans_out, "w", encoding="utf-8") as handle:
        json.dump({"spans": recorder.spans(), "sim": recorder.sim_rows},
                  handle)
    print(f"repro serve: drained; {server.manifest.summary()}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
