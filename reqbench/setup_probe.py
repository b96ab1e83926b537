"""Time one workload's set-up in a fresh process.

Measured: importing ``repro``, loading the native kernel from its cache,
creating a ``Session``, compiling the workload's circuits and building
their fault universes, and for ``serve_small`` starting (and stopping)
``JobService`` behind ``HttpFrontend``.  The time is host-normalized
like every other window (see ``hostref.py``).

Usage (the benchmark runs it; environment and ``sys.path`` come from
``run.py``)::

    python3 reqbench/setup_probe.py --workload select_sweep
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from hostref import HostReference
from workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = parser.parse_args()
    circuits = WORKLOADS[args.workload].circuits

    host = HostReference()
    with host.window() as window:
        import repro
        from repro.sim.native_build import (
            load_native_library,
            native_unavailable_reason,
        )

        if native_unavailable_reason() is None:
            load_native_library()
        session = repro.Session()
        for name in circuits:
            compiled = session.compile(name)
            repro.FaultUniverse(compiled.circuit)
        if args.workload == "serve_small":
            served = WORKLOADS["serve_small"](session, seed=0)
            served.start()
            served.close()
    session.close()
    print(json.dumps({"raw_s": window.raw_s, "norm_s": window.norm_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
