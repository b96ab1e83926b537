"""The run record: what a run measured and on what, and comparing two runs.

Every run writes ``reqbench/.runs/<workload>-seed<n>-trace<t>.json``
with the raw seconds beside each normalized metric, the host
reference's median, interquartile range and sample count, ``/proc/stat``
steal ticks, the toolchain and native-kernel state, and the backend,
tier and scan mode each circuit's requests resolved to.

Two records are comparable only when their ``environment`` blocks are
equal; ``python3 reqbench/record.py A.json B.json`` refuses otherwise
(exit 2) and else prints each metric of both runs side by side.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def steal_ticks() -> int:
    """Cumulative ``steal`` ticks of all CPUs (0 where not reported)."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def environment(execution: dict) -> dict:
    """Everything that must match for two runs to be compared."""
    import numpy

    from repro.sim.native_build import (
        load_native_library,
        native_unavailable_reason,
        toolchain_info,
    )

    reason = native_unavailable_reason()
    abi = None
    if reason is None:
        abi = int(load_native_library().repro_abi_version())
    toolchain = toolchain_info()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": toolchain.get("compiler_version") or toolchain.get("compiler"),
        "native_available": reason is None,
        "native_unavailable_reason": reason,
        "native_abi": abi,
        "execution": execution,
    }


def compare(a: dict, b: dict) -> tuple[bool, list[str]]:
    """``(comparable, lines)`` for two run records."""
    lines = []
    if a["workload"] != b["workload"]:
        return False, [f"workloads differ: {a['workload']} vs {b['workload']}"]
    ea, eb = a["environment"], b["environment"]
    differs = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
    if differs:
        lines = [f"{k}: {ea.get(k)!r} vs {eb.get(k)!r}" for k in differs]
        return False, ["environments differ, refusing to compare:"] + lines
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        change = (vb - va) / va if va else 0.0
        lines.append(f"{name:48s} {va:14.6g} {vb:14.6g} {change:+8.2%}")
    return True, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 reqbench/record.py RUN_A.json RUN_B.json")
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    ok, lines = compare(*records)
    print("\n".join(lines))
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
