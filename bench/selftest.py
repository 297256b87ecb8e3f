"""Seconds-long test of the benchmark harness itself, on the `smoke` workload (S4).

Run from the repository root:  python3 bench/selftest.py

Checks that both modes print every metric BENCHMARK.json declares, with its
unit; that a wrong expected report, a broken address-space limit, a missed
deadline and non-repeating counters are each counted as failures; and that the
benchmark refuses to run, without printing a result, where the sources are
missing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import run
from workloads import WORKLOADS

SMOKE = WORKLOADS["smoke"]


def bench(*args: str, cwd=run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_output(trace: int) -> None:
    code, lines = bench("--seconds", "1", "--trace", str(trace))
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = run.declared("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(l.startswith(f"{name}: ") and l.endswith(f" {unit}") for l in lines), name
    assert any(l.startswith("fail_ratio: 0 ratio") for l in lines), lines


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def check_failures_counted() -> None:
    expected = run.load_expected(SMOKE)
    wrong = {k: {**v, "report": v["report"] + "tampered\n"} for k, v in expected.items()}
    result = quiet(run.run, SMOKE, 5, 1, False, wrong)
    assert result["attempted"] >= len(SMOKE.commands), result
    assert result["failed"] == result["attempted"] and not result["correct"], result

    for limit_mib, seconds in ((8, 60.0), (run.AS_LIMIT_MIB, 0.0)):  # memory, then time
        tally = run.Tally()
        saved, run.AS_LIMIT_MIB = run.AS_LIMIT_MIB, limit_mib
        try:
            run.run_pass(SMOKE, 5, expected, tally, time.perf_counter() + seconds)
        finally:
            run.AS_LIMIT_MIB = saved
        assert tally.failed == tally.attempted == len(SMOKE.commands), vars(tally)

    state = run.STATE / f"smoke-{run.source_digest(SMOKE)[:16]}.json"
    saved_state = state.read_text()
    state.write_text(json.dumps({"linalg.rank": -1}))
    try:
        result = quiet(run.run, SMOKE, 5, 1, True, expected)
    finally:
        state.write_text(saved_state)
    assert result["failed"] == 1 and not result["correct"], result


def check_refuses_without_sources() -> None:
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = bench("--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not any(l.startswith("{\"correct\"") for l in lines), (code, lines)


def main() -> int:
    check_output(0)
    check_output(1)
    check_output(1)  # the second traced run compares its counters with the first
    check_failures_counted()
    check_refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
