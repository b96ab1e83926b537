"""Self-tests of the benchmark's own machinery.

Run from the repository root (about half a minute)::

    python3 reqbench/selftest.py

Checks the tail-percentile refusal, the ledger key, the span self-time
arithmetic, the host normalization, the refusal to compare runs of
different environments, and that a 2x slowdown injected into one layer
through the tracer's wrapper moves only the workload that uses that
layer, by about that layer's traced share.  Exits 1 if any check fails.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import run
from hostref import REF_NOMINAL_S, HostReference, reference_work
from stats import TooFewSamples, percentile
from tracer import Tracer, self_times


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_tail_percentile_refusal() -> None:
    try:
        percentile(list(range(500)), 99)
    except TooFewSamples:
        pass
    else:
        raise AssertionError("p99 of 500 samples has 5 beyond it and must be refused")
    value = percentile(list(range(2000)), 99)
    beyond = sum(1 for v in range(2000) if v > value)
    check(beyond >= 10, f"p99 of 2000 samples leaves {beyond} beyond it")
    try:
        percentile([1.0, 2.0, 3.0], 50)
    except TooFewSamples:
        pass
    else:
        raise AssertionError("p50 of 3 samples has 1 beyond it and must be refused")


def test_ledger_key_follows_the_code() -> None:
    run.STATE.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.STATE) as tmp:
        package = Path(tmp) / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        source = package / "mod.py"
        source.write_text("x = 1\n", encoding="utf-8")
        before = run.code_digest([package])
        (package / "__pycache__" / "mod.pyc").write_bytes(b"stale")
        check(run.code_digest([package]) == before, "bytecode moved the digest")
        source.write_text("x = 2\n", encoding="utf-8")
        check(run.code_digest([package]) != before, "a code change kept the digest")
    env = {"cpu_count": 2, "native_available": True}
    key = run.ledger_key("w", 1, before, env)
    check(key == run.ledger_key("w", 1, before, dict(env)), "key not deterministic")
    check(key != run.ledger_key("w", 2, before, env), "seed not in the key")
    other = {"cpu_count": 2, "native_available": False}
    check(key != run.ledger_key("w", 1, before, other), "environment not in the key")


def test_self_time_arithmetic() -> None:
    # (id, parent, root, name, start, end, hot_s); children 2 and 3
    # overlap (two threads), so 1..5 is covered once.
    spans = [
        (1, 0, 1, "root", 0.0, 10.0, 0.5),
        (2, 1, 1, "a", 1.0, 3.0, 0.0),
        (3, 1, 1, "b", 2.0, 5.0, 1.0),
        (4, 1, 1, "c", 7.0, 8.0, 0.0),
        (5, 3, 1, "d", 2.5, 3.0, 0.0),
    ]
    got = self_times(spans)
    want = {1: 10 - 5 - 0.5, 2: 2.0, 3: 3 - 0.5 - 1.0, 4: 1.0, 5: 0.5}
    for span_id, seconds in want.items():
        check(abs(got[span_id] - seconds) < 1e-12, f"span {span_id}: {got[span_id]}")


def test_tracer_inline_matches_tree() -> None:
    tracer = Tracer()

    def leaf():
        reference_work(200)

    def inner():
        for _ in range(3):
            hot()
        reference_work(300)

    def outer():
        inner()
        inner()
        reference_work(300)

    hot = tracer.wrap("leaf", leaf, hot=True)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    tree = self_times(tracer.spans)
    for name in ("outer", "inner"):
        total = sum(tree[s[0]] for s in tracer.spans if s[3] == name)
        inline = tracer.layers[name].self_s
        check(abs(total - inline) < 1e-9, f"{name}: tree {total} inline {inline}")
    check(tracer.layers["leaf"].calls == 6, "hot leaf calls aggregated")
    check(len(tracer.spans) == 3, "hot leaves record no spans")


def test_reference_window_normalizes_to_constant() -> None:
    # Mean speed over a window that switches between host states reads a
    # little above 1 (the mean of 1/t exceeds 1/mean t), hence the bounds.
    host = HostReference()
    calls = 1000
    ratios = []
    for _ in range(4):
        with host.window() as window:
            for _ in range(calls):
                reference_work()
        ratios.append(window.norm_s / (calls * REF_NOMINAL_S))
    shown = ", ".join(f"{r:.3f}" for r in ratios)
    check(all(0.8 < r < 1.3 for r in ratios), f"reference windows read {shown}")
    check(max(ratios) / min(ratios) < 1.2, f"not constant: {shown}")


def test_records_with_different_environments_are_not_compared() -> None:
    from record import compare

    env = {"cpu_count": 2, "native_available": True, "native_abi": 3}
    metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
    a = {"workload": "w", "environment": env, "metrics": metrics}
    b = {"workload": "w", "environment": dict(env), "metrics": metrics}
    check(compare(a, b)[0], "equal environments compare")
    b["environment"]["native_available"] = False
    ok, lines = compare(a, b)
    check(not ok and any("native_available" in x for x in lines), "native missing")


def _wall(workload, host, slowdown) -> tuple[float, dict]:
    traced = run.TracedPass(host, slowdown=slowdown)
    try:
        result = workload.run_pass(host)
    finally:
        traced.close()
    return result.norm_s, traced.norm


def test_injected_slowdown_moves_only_its_workload() -> None:
    from repro import Session
    from repro.atpg.config import AtpgConfig

    from workloads import EXECUTION, AtpgT0, outcome

    class SmallAtpg(AtpgT0):
        circuits = ("syn298",)

        def requests(self):
            from repro import RunRequest

            request = RunRequest(
                kind="atpg",
                circuit="syn298",
                atpg=AtpgConfig(seed=self.seed, genetic_targets=4, **EXECUTION),
            )

            def go():
                self.session.run(request)
                return outcome(0, 0, 0, 0)

            return [("syn298", go)]

    class Scheme(AtpgT0):
        def requests(self):
            from repro import RunRequest

            request = RunRequest(kind="scheme", circuit="s27")

            def go():
                for _ in range(40):
                    self.session.run(request)
                return outcome(0, 0, 0, 0)

            return [("s27", go)]

    host = HostReference()
    layer = "atpg.observe"
    with Session() as session:
        atpg, scheme = SmallAtpg(session, 7), Scheme(session, 7)
        atpg.run_pass(host)  # warm up
        results = {}
        for name, workload in (("atpg", atpg), ("scheme", scheme)):
            base, slow = [], []
            for _ in range(4):  # alternate, so host drift hits both sides
                base.append(_wall(workload, host, None))
                slow.append(_wall(workload, host, {layer: 2.0}))
            wall = statistics.median([b[0] for b in base])
            share = statistics.median(
                [b[1].get(layer, [0, 0.0])[1] / b[0] for b in base]
            )
            moved = statistics.median([s[0] for s in slow]) / wall - 1.0
            results[name] = (share, moved)
    share, moved = results["atpg"]
    check(share > 0.05, f"{layer} takes too small a share of ATPG: {share:.2f}")
    check(
        abs(moved - share) < 0.35 * share + 0.03,
        f"ATPG wall moved {moved:+.2f}, expected about its {layer} share {share:.2f}",
    )
    _, moved = results["scheme"]
    check(abs(moved) < 0.1, f"scheme wall moved {moved:+.2f} with no {layer} in it")


TESTS = [
    test_tail_percentile_refusal,
    test_ledger_key_follows_the_code,
    test_self_time_arithmetic,
    test_tracer_inline_matches_tree,
    test_reference_window_normalizes_to_constant,
    test_records_with_different_environments_are_not_compared,
    test_injected_slowdown_moves_only_its_workload,
]


def main() -> int:
    run.pin_environment()
    failed = 0
    for test in TESTS:
        start = time.perf_counter()
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(TESTS) - failed}/{len(TESTS)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
