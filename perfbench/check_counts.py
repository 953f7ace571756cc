"""Self-test of the benchmark's tracer.

Usage: python3 perfbench/check_counts.py [WORKLOAD ...]   (default: all)

For each workload, runs the traced iteration twice with one seed and once
with another, and checks that

* the deterministic counts repeat exactly across the three runs, since the
  seed only reorders cases and a count that moved would not be comparable
  between commits,
* the wrapped layers cover the traced wall: the time no wrapper catches
  (``orchestration.self_s``, the root span's own time) plus the tracer's own
  time (``trace.self_s``) stays below ``UNASSIGNED_MAX`` of it, and
* the layer that should dominate a workload does: ``invariance.self_s`` on
  sweep-default, ``linalg.solve_s`` plus ``assemble.self_s`` on kernel-large.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
import time

from run import OUT, WORKLOADS, BenchError, worker

COUNTS = (
    "assemble.entries",
    "assemble.nnz",
    "exactfield.max_bits",
    "linalg.calls",
    "linalg.rows_in",
    "lemmas.entries",
    "invariance.calls",
)
SEEDS = (1, 1, 2)
# The layers' self times, orchestration included; linalg.solve_s is a part
# of linalg.self_s.
SELF_TIMES = (
    "invariance.self_s", "linalg.self_s", "assemble.self_s", "harmonic.convert_s",
    "classify.self_s", "lemmas.self_s", "riemann.self_s", "orchestration.self_s",
)
# Largest share of the traced wall that may fall outside the wrapped layers.
UNASSIGNED_MAX = 0.10
# Workload -> the self times that together must exceed every other layer's.
LARGEST = {
    "sweep-default": ("invariance.self_s",),
    "kernel-large": ("linalg.solve_s", "assemble.self_s"),
}


def largest_problem(workload: str, layers: dict) -> str | None:
    names = LARGEST.get(workload)
    if names is None:
        return None
    parts = {n: layers[n] for n in SELF_TIMES}
    # the solve is inside linalg.self_s: make it a part of its own
    parts["linalg.self_s"] -= layers["linalg.solve_s"]
    parts["linalg.solve_s"] = layers["linalg.solve_s"]
    group = sum(parts.pop(n) for n in names)
    top = max(parts, key=parts.get)
    if parts[top] >= group:
        return f"{' + '.join(names)} = {group:.4f} s is not above {top} = {parts[top]:.4f} s"
    return None


def check(workload: str) -> list[str]:
    problems = []
    runs = []
    for i, seed in enumerate(SEEDS):
        deadline = time.monotonic() + 600
        r = worker(workload, seed, deadline, OUT / f"check-{workload}-{i}.json")
        runs.append(r)
        if r["failed"]:
            problems.append(f"seed {seed}: {r['failed']} failed checks")
        layers = r["layers"]
        unassigned = layers["orchestration.self_s"] + layers["trace.self_s"]
        if unassigned > UNASSIGNED_MAX * r["wall_s"]:
            problems.append(
                f"seed {seed}: {unassigned:.4f} s of the traced wall {r['wall_s']:.4f} s"
                f" is outside the wrapped layers (more than {UNASSIGNED_MAX:.0%})"
            )
        largest = largest_problem(workload, layers)
        if largest:
            problems.append(f"seed {seed}: {largest}")
    for name in COUNTS:
        values = [r["layers"][name] for r in runs]
        if len(set(values)) != 1:
            problems.append(f"{name} differs across runs (seeds {SEEDS}): {values}")
    counts = {n: runs[0]["layers"][n] for n in COUNTS}
    print(f"{workload}: " + (f"ok {counts}" if not problems else "FAIL"))
    return problems


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    problems = []
    try:
        for w in names:
            problems += [f"{w}: {p}" for p in check(w)]
    except BenchError as exc:
        problems.append(str(exc))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
