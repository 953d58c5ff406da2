"""The benchmark-owned server: the async gateway over an unsharded facade.

Usage: ``server.py --out STATS.json [--trace]``.  Prints ``READY <port>`` once
the gateway listens on an ephemeral localhost port, then serves until a
``stop`` line (or end of file) arrives on standard input.  At shutdown it
writes the gateway counters and, with ``--trace``, every recorded span to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    from repro.service.agateway import AsyncServiceGateway
    from repro.service.facade import CommunityService

    gateway = AsyncServiceGateway(CommunityService(), port=0)
    gateway.start()
    try:
        print(f"READY {gateway.port}", flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        gateway.shutdown()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "gateway": gateway.statistics(),
                "spans": recorder.dump() if recorder is not None else [],
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
