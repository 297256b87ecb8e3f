"""The benchmark's workloads: `matsuo` CLI commands on a fixed ladder of groups.

Each workload names the commands a user would type, in order, and the field in
which the traced run times single `fields` operations.  The reasons each
workload exists are in BENCHMARK.json; the per-layer metrics each one should
move are listed in bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    field: str  # descriptor of the field the commands compute in


def _cmds(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("derive-q", _cmds("derive 3W:D4 --system both"), "Q"),
        Workload("derive-fp", _cmds("derive 3W:D4 --system both --field F13"), "F13"),
        Workload(
            "verify-ext",
            _cmds(
                "verify all --trials 2 --group 3W:A2 --field Q(sqrt:3)",
                "verify model --type D4 --field Q(sqrt:3)",
            ),
            "Q(sqrt:3)",
        ),
        Workload(
            "geometry",
            _cmds(
                "build 3W:E6",
                "classify-lines 3W:D4",
                "classify-lines M3:4",
                "classify-lines W:E7",
            ),
            "Q",
        ),
        # Seconds-long configuration for bench/selftest.py; not in BENCHMARK.json.
        Workload(
            "smoke",
            _cmds(
                "build S4",
                "derive S4 --system both",
                "classify-lines S4",
                "verify fusion --group S4 --field F13",
            ),
            "Q",
        ),
    )
}


def argv_for(command: tuple[str, ...], seed: int) -> list[str]:
    """The argv a command runs with; the seed feeds the randomized verify checks."""
    return [*command, "--seed", str(seed)]
