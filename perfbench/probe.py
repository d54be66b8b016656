"""Set-up probe: one fresh interpreter doing a workload's set-up.

    python3 perfbench/probe.py <workload> <store-dir>

Imports what the workload uses, opens its result store and, for
``serve-mixed``, starts the in-process server with its 2-worker pool
and answers one health check.  Prints ``ready`` once set up, then tears
down and exits 0.  ``run.py`` times spawn-to-``ready``.  The campaign's
pool belongs to its ``SweepRunner`` and starts inside ``Session.map``,
so it is part of ``wall_s``, not of set-up.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload: str, store: str) -> int:
    if workload == "serve-mixed":
        from repro.serve.testing import ServerThread

        server = ServerThread(store, workers=2).start()
        try:
            server.client().healthz()
            print("ready", flush=True)
        finally:
            server.stop()
        return 0
    from repro.api import Session
    from repro.eval.figures import claims_from_results  # noqa: F401

    Session(cache=store)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
