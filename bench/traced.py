"""Traced child: runs a workload's commands in-process with every layer wrapped.

Usage: python3 bench/traced.py <result-fd> <address-space-MiB> <field> <argv-json>

The wrappers live here, not in the package: each public function of a layer
is replaced, under every name the package binds it to (for example
`linalg.nullspace` is also `algebra.nullspace` and `deriv._nullspace`), by a
wrapper that records a span and the layer's counters.  A span's self time is
its duration minus the time of the traced spans it encloses.  The result,
one JSON document, is written to <result-fd>.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> the functions it covers, as (module, attribute path)
SPANS = {
    "transpo.parse_group": [("matsuo.transpo", "parse_group")],
    "fischer.space_of": [("matsuo.fischer", "space_of")],
    "fischer.is_near_solid": [("matsuo.fischer", "FischerSpace.is_near_solid")],
    "algebra.construct": [("matsuo.algebra", "MatsuoAlgebra.__init__")],
    "algebra.eigendecompose": [("matsuo.algebra", "MatsuoAlgebra.eigendecompose")],
    "algebra.check_fusion": [("matsuo.algebra", "MatsuoAlgebra.check_fusion")],
    "deriv.build_leibniz_system": [("matsuo.deriv", "build_leibniz_system")],
    "deriv.build_r_system": [("matsuo.deriv", "build_r_system")],
    "deriv.satisfies_r_system": [("matsuo.deriv", "satisfies_r_system")],
    "deriv.is_derivation": [("matsuo.deriv", "is_derivation")],
    "deriv.spans_agree": [("matsuo.deriv", "spans_agree")],
    "deriv.vanishing_report": [("matsuo.deriv", "vanishing_report")],
    "linalg.nullspace": [("matsuo.linalg", "nullspace")],
    "autos.model_b": [("matsuo.autos", "ModelB.__init__"), ("matsuo.autos", "model_b_iso")],
    "autos.torus_automorphism": [("matsuo.autos", "torus_automorphism")],
    "autos.root_automorphism": [("matsuo.autos", "root_automorphism")],
    "autos.character_report": [("matsuo.autos", "character_report")],
    "cli.main": [("matsuo.cli", "main")],
}


def _count_system(prefix):
    def after(counters, args, rows):
        counters[f"deriv.{prefix}_rows"] += len(rows)
        counters[f"deriv.{prefix}_nnz"] += sum(len(r) for r in rows)

    return after


def _count_nullspace(counters, args, basis):
    ncols = args[1]
    counters["linalg.nullspace_calls"] += 1
    counters["linalg.nullity"] += len(basis)
    counters["linalg.rank"] += ncols - len(basis)


def _counted_rows(counters, rows):
    """Pass rows through to the eliminator, counting them as they are read."""
    if hasattr(rows, "__len__"):
        counters["linalg.rows_in"] += len(rows)
        return rows

    def gen():
        for row in rows:
            counters["linalg.rows_in"] += 1
            yield row

    return gen()


AFTER = {
    "deriv.build_leibniz_system": _count_system("leibniz"),
    "deriv.build_r_system": _count_system("r"),
    "linalg.nullspace": _count_nullspace,
}


class Tracer:
    """Per-span call counts, total and self time, plus named counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list[float]] = []  # per open span: time of its child spans

    def wrap(self, name, fn):
        after = AFTER.get(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "linalg.nullspace":
                args = (_counted_rows(self.counters, args[0]), *args[1:])
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                tc = clock()
                after(self.counters, args, result)
                if stack:  # bookkeeping is not the enclosing span's own work
                    stack[-1][0] += clock() - tc
            return result

        return traced


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Replace each traced function under every name the package binds it to."""
    packages = [m for n, m in sorted(sys.modules.items()) if n == "matsuo" or n.startswith("matsuo.")]
    for name, targets in SPANS.items():
        for module, path in targets:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in packages:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)


def run_command(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is a failed command, reported with its traceback
        code = None
        err.write(traceback.format_exc())
    gc.collect()
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def field_costs(desc: str, repeats: int = 7, rounds: int = 500) -> dict:
    """ns per call of public Field methods on the structure constants (eta = 1/2)."""
    from matsuo.fields import parse_field, sqrt_in_field

    F = parse_field(desc)
    quarter = F.coerce(Fraction(1, 4))  # eta/2
    operands = [quarter, F.neg(quarter), F.coerce(Fraction(9, 4))]
    root3 = sqrt_in_field(F, 3)
    if root3 is not None:
        operands.append(root3.raw)
    pairs = [(a, b) for a in operands for b in operands] * rounds
    singles = operands * (rounds * len(operands))
    zeros = [F.zero_raw(), *operands] * rounds

    def per_call(loop, n):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            loop()
            times.append((time.perf_counter_ns() - t0) / n)
        return statistics.median(times)

    add, mul, inv, is_zero = F.add, F.mul, F.inv, F.is_zero
    return {
        "fields.add_ns": per_call(lambda: [add(a, b) for a, b in pairs], len(pairs)),
        "fields.mul_ns": per_call(lambda: [mul(a, b) for a, b in pairs], len(pairs)),
        "fields.inv_ns": per_call(lambda: [inv(a) for a in singles], len(singles)),
        "fields.is_zero_ns": per_call(lambda: [is_zero(a) for a in zeros], len(zeros)),
    }


def _run() -> None:
    fd, limit_mib = int(sys.argv[1]), int(sys.argv[2])
    field, commands = sys.argv[3], json.loads(sys.argv[4])
    limit = limit_mib << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    import matsuo.cli  # loads every layer, so install() sees all their names

    tracer = Tracer()
    install(tracer)
    results = [run_command(matsuo.cli.main, argv) for argv in commands]
    doc = {
        "commands": results,
        "spans": {
            n: {"calls": tracer.calls[n], "total": tracer.total[n], "self": tracer.self_time[n]}
            for n in SPANS
        },
        "counters": dict(tracer.counters),
        "fields": field_costs(field),
    }
    data = json.dumps(doc).encode()
    while data:
        data = data[os.write(fd, data):]


if __name__ == "__main__":
    _run()
