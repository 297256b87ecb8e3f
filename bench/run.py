"""The matsuo benchmark: `matsuo` CLI workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload derive-q --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload geometry --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload smoke --record   # rewrite expected reports

Each command runs as a user runs it: a fresh `python3` child per command, one
at a time, so the run never uses more than one core for the program.  Every
child gets an address-space limit and a deadline; a command that exceeds
either, crashes, or prints another exit code or text report than the one
recorded in bench/expected.json counts as failed.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.  Passes
over the workload repeat until --seconds have passed (at least one pass).  A
fixed stdlib calibration loop runs in this process on the same core before and
after every child, and each child's times are scaled to reference seconds: the
time the child would take on a core where the loop takes REF_CAL_S.  Times are
each command's median pass, summed, and `setup_s` is the median over set-up
probes and commands.  --trace 1 runs the workload once untraced and
once in a traced child (bench/traced.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, Workload, argv_for  # noqa: E402

EXPECTED = BENCH / "expected.json"
STATE = ROOT / ".bench_state"  # counters of earlier traced runs in this checkout
AS_LIMIT_MIB = 2048  # per child; the largest workload child peaks near 30 MB
RUN_DEADLINE_S = 170.0  # the whole run, children included, ends before this
SETUP_PROBES = 9
REF_CAL_S = 0.060  # calibration-loop time that defines one reference second
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the sources are missing)."""


@dataclass
class Child:
    code: int | None  # exit code; None when killed at the deadline
    out: str
    err: str
    payload: bytes  # what the child wrote to its result pipe
    wall: float
    cpu: float
    rss_mb: float


def spawn(script: str, args: list[str], deadline: float) -> Child:
    """Run one child to completion, reading its output, and reap it with wait4."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), str(w), str(AS_LIMIT_MIB), *args],
            cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(w,),
        )
    finally:
        os.close(w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: [], r: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    os.close(r)
    text = {fd: b"".join(c) for fd, c in chunks.items()}
    return Child(
        code=None if killed else proc.returncode,
        out=text[out_fd].decode(errors="replace"),
        err=text[err_fd].decode(errors="replace"),
        payload=text[r],
        wall=wall,
        cpu=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024,
    )


class Run(NamedTuple):
    child: Child
    setup: float | None  # spawn to entering main; None if the child never got there
    main: float | None  # time inside main


def run_cli(argv: list[str], deadline: float) -> Run:
    t_spawn = time.perf_counter()
    child = spawn("child.py", argv, deadline)
    fields = child.payload.split()
    if child.code is None or len(fields) != 2:
        return Run(child, None, None)
    t_enter, t_exit = map(float, fields)
    return Run(child, t_enter - t_spawn, t_exit - t_enter)


def matches(expected: dict, code: int | None, out: str, err: str) -> bool:
    return code == expected["exit"] and out == expected["report"] and "Traceback" not in err


def command_key(command: tuple[str, ...]) -> str:
    return " ".join(command)


def load_expected(w: Workload) -> dict:
    with open(EXPECTED) as fh:
        recorded = json.load(fh)
    missing = [command_key(c) for c in w.commands if command_key(c) not in recorded]
    if missing:
        raise BenchError(f"no expected report recorded for {missing}")
    return recorded


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def source_digest(w: Workload) -> str:
    """Hash of the package sources and the workload's commands."""
    h = hashlib.sha256(json.dumps(w.commands).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def calibration_s() -> float:
    """Time of a fixed stdlib loop on the current core: dict updates, Fraction
    arithmetic and short-lived containers, a third of the time each.

    It runs in this process, which never imports the package, so a change to
    the program cannot move it; it follows only the speed of the core.  Alone,
    the container kernel tracked the children best on verify-ext and the dict
    and Fraction kernels on geometry; the three together did well on both.
    """
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(100_000):
        k = i % 1009
        d[k] = (d.get(k, 0) + i * 7) % 1_000_003
    acc = Fraction(0)
    for i in range(1, 3750):
        acc = (acc + Fraction(i % 97 - 48, i % 13 + 1)) * Fraction(3, 4) if i % 50 else Fraction(1, i)
    live: list[dict] = []
    for i in range(15_000):
        key = tuple(range(i % 7, i % 7 + 8))
        live.append({key: [x * 2 for x in key]})
        if len(live) > 2000:
            live.clear()
    return time.perf_counter() - t0


def machine_facts(seed: int, w: Workload) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
        "cpu_model": cpu_model,
        "commit": commit or "unknown (not a git checkout)",
        "source_digest": source_digest(w)[:16],
        "seed": seed,
        "calibration_s": calibration_s(),
    }


class Tally:
    """Commands attempted and failed, with the first failure kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""

    def check(self, key: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.first_failure = self.first_failure or f"{key}: {detail}"[:2000]


class Scaled(NamedTuple):
    run: Run
    scale: float  # REF_CAL_S over the calibration time around the child


def run_calibrated(argvs: list[list[str]], deadline: float) -> list[Scaled]:
    """Run children one after another, calibrating before and after each one."""
    out = []
    before = calibration_s()
    for argv in argvs:
        r = run_cli(argv, deadline)
        after = calibration_s()
        out.append(Scaled(r, 2 * REF_CAL_S / (before + after)))
        before = after
    return out


def run_pass(w: Workload, seed: int, expected: dict, tally: Tally, deadline: float) -> list[Scaled]:
    """One untraced pass over the workload's commands, checking each report."""
    runs = run_calibrated([argv_for(command, seed) for command in w.commands], deadline)
    for command, (r, _) in zip(w.commands, runs):
        c = r.child
        ok = r.setup is not None and matches(expected[command_key(command)], c.code, c.out, c.err)
        tally.check(command_key(command), ok, f"exit {c.code}\n{c.out}{c.err}")
    return runs


def setup_probes(n: int, deadline: float) -> list[float]:
    """Set-up time, in reference seconds, of children that import the package and return at once."""
    out = []
    for r, scale in run_calibrated([[]] * n, deadline):
        if r.setup is None or r.child.code != 0:
            raise BenchError(f"set-up probe failed (exit {r.child.code}):\n{r.child.err}")
        out.append(r.setup * scale)
    return out


def end_to_end(w: Workload, seed: int, seconds: int, expected: dict, tally: Tally, deadline: float) -> dict:
    """Median-of-passes time per command in reference seconds, summed; set-up time as a median.

    The shared 2-core host this was tuned on runs everything up to 2x slower
    for minutes at a time, on one core more than the other, so raw times of
    runs minutes apart differ by more than any useful bound.  The calibration
    loop around each child slows with the core, and the ratio of the two
    repeats better.  Over 25 s windows of 5-minute traces the spread
    (interquartile range over median) of the median pass was 0.065 raw and
    0.034 scaled on verify-ext, 0.043 raw and 0.018 scaled on geometry; the
    fastest pass spread 0.10 on verify-ext, raw or scaled.
    """
    cores = sorted(os.sched_getaffinity(0))
    setups = setup_probes(SETUP_PROBES, deadline)
    passes: list[list[Scaled]] = []
    t_start = time.perf_counter()
    try:
        while True:
            # children inherit this process's affinity; one child runs at a time
            os.sched_setaffinity(0, {cores[len(passes) % len(cores)]})
            passes.append(run_pass(w, seed, expected, tally, deadline))
            last = sum(r.child.wall for r, _ in passes[-1])
            now = time.perf_counter()
            if now - t_start >= seconds or now + 1.5 * last > deadline:
                break
    finally:
        os.sched_setaffinity(0, cores)
    per_command = list(zip(*passes))
    setups += [r.setup * k for p in passes for r, k in p if r.setup is not None]
    raw_wall = sum(statistics.median(r.child.wall for r, _ in runs) for runs in per_command)
    raw_cpu = sum(statistics.median(r.child.cpu for r, _ in runs) for runs in per_command)
    print(f"passes: {len(passes)}, wall each: {[round(sum(r.child.wall for r, _ in p), 3) for p in passes]}, "
          f"set-up samples: {len(setups)}")
    print(f"unscaled median pass: wall {raw_wall:.6g} s, cpu {raw_cpu:.6g} s")
    return {
        "wall_s": sum(statistics.median(r.child.wall * k for r, k in runs) for runs in per_command),
        "cpu_s": sum(statistics.median(r.child.cpu * k for r, k in runs) for runs in per_command),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.child.rss_mb for p in passes for r, _ in p),
    }


def check_counters(w: Workload, counters: dict, tally: Tally) -> None:
    """Counters must repeat exactly across traced runs of the same code and commands."""
    path = STATE / f"{w.name}-{source_digest(w)[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        tally.check("counters repeat", earlier == counters, f"earlier {earlier}, now {counters}")
    else:
        STATE.mkdir(exist_ok=True)
        path.write_text(json.dumps(counters, sort_keys=True))


def per_layer(w: Workload, seed: int, expected: dict, tally: Tally, deadline: float) -> dict:
    untraced_main = sum(r.main for r, _ in run_pass(w, seed, expected, tally, deadline) if r.main)
    argvs = [argv_for(c, seed) for c in w.commands]
    child = spawn("traced.py", [w.field, json.dumps(argvs)], deadline)
    try:
        doc = json.loads(child.payload)
    except ValueError:
        tally.check("traced run", False, f"exit {child.code}\n{child.err}")
        return {}
    for command, res in zip(w.commands, doc["commands"]):
        ok = matches(expected[command_key(command)], res["code"], res["out"], res["err"])
        tally.check(f"traced {command_key(command)}", ok, f"exit {res['code']}\n{res['out']}{res['err']}")
    spans, counters = doc["spans"], doc["counters"]
    check_counters(w, {**counters, **{f"{n}.calls": s["calls"] for n, s in spans.items()}}, tally)

    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["total"]):
        print(f"span {name:28s} calls {s['calls']:7d}  total {s['total']:9.4f} s  self {s['self']:9.4f} s")
    metrics = {f"{n}_s": s["self"] for n, s in spans.items() if n != "cli.main"}
    metrics["cli.main_s"] = spans["cli.main"]["total"]
    metrics["cli.self_s"] = spans["cli.main"]["self"]
    metrics["fischer.is_near_solid_calls"] = spans["fischer.is_near_solid"]["calls"]
    for name in ("deriv.leibniz_rows", "deriv.leibniz_nnz", "deriv.r_rows", "deriv.r_nnz",
                 "linalg.nullspace_calls", "linalg.rows_in", "linalg.rank", "linalg.nullity"):
        metrics[name] = counters.get(name, 0)
    rows_in = metrics["linalg.rows_in"]
    metrics["linalg.redundant_ratio"] = 1 - metrics["linalg.rank"] / rows_in if rows_in else 0.0
    metrics.update(doc["fields"])
    metrics["trace.overhead_ratio"] = (
        spans["cli.main"]["total"] / untraced_main if untraced_main else 0.0
    )
    return metrics


def record(w: Workload, seed: int) -> None:
    """Store each command's exit code and default text report as the expected output."""
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    deadline = time.perf_counter() + 3600
    for command in w.commands:
        child = run_cli(argv_for(command, seed), deadline).child
        if child.code is None or "Traceback" in child.err:
            raise BenchError(f"{command_key(command)} crashed:\n{child.err}")
        recorded[command_key(command)] = {"exit": child.code, "report": child.out}
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def run(w: Workload, seed: int, seconds: int, trace: bool, expected: dict) -> dict:
    """Measure one workload; returns the result object printed as the last line."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (ROOT / "src" / "matsuo" / "cli.py").is_file():
        raise BenchError(f"no package sources under {ROOT / 'src'}")
    print(json.dumps({"workload": w.name, "trace": int(trace), "machine": machine_facts(seed, w)}))
    setup_probes(1, deadline)  # writes bytecode caches; users do not pay that on every run
    tally = Tally()
    kind = "per_layer" if trace else "end_to_end"
    if trace:
        values = per_layer(w, seed, expected, tally, deadline)
    else:
        values = end_to_end(w, seed, seconds, expected, tally, deadline)
    units = declared(kind)
    if values and values.keys() != units.keys():  # empty when the traced child failed
        raise BenchError(f"computed {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio: {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted} commands failed)")
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record the workload's exit codes and text reports, then exit")
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        if args.record:
            record(w, args.seed)
            return 0
        result = run(w, args.seed, args.seconds, bool(args.trace), load_expected(w))
    except (BenchError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
