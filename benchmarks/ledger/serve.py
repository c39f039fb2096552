"""``acr-repro serve`` for the ledger's service workload.

Runs the real CLI entry point (``repro.cli.main(["serve", ...])``).  With
``--trace`` it first installs the ledger's span wrappers in this process
and tags every ``submit`` the daemon decodes with ``(connection,
sequence)``: connections are numbered in the order they first speak,
which is client order because the load generator pings one client at a
time during set-up.  That op id joins each daemon span to the client op
that caused it.  On exit it writes its peak RSS (and the traced totals
and spans) to ``--report``.

    python benchmarks/ledger/serve.py --report R.json [--trace] -- \\
        serve --socket S --cache-dir C
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import spans  # noqa: E402


def tag_connections(rec: spans.Recorder) -> None:
    """Set the op id of each daemon connection thread per ``submit``."""
    import repro.service.daemon as daemon

    decode = daemon.decode_stream
    numbers = itertools.count()
    local = threading.local()

    def tagged(data):
        messages, tail, malformed = decode(data)
        if not hasattr(local, "conn"):
            local.conn, local.seq = next(numbers), 0
        for msg in messages:
            if msg.get("op") == "submit":
                rec.set_op((local.conn, local.seq))
                local.seq += 1
        return messages, tail, malformed

    daemon.decode_stream = tagged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    rec = None
    if args.trace:
        rec = spans.install(spans.Recorder())
        tag_connections(rec)
        rec.armed = True
    from repro.cli import main as cli_main

    code = cli_main(argv)
    doc = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": rec.totals() if rec is not None else None,
        "spans": rec.spans() if rec is not None else [],
    }
    args.report.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
