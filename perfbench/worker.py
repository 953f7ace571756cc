"""Run one iteration of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--trace FILE]

Prints one JSON object: the timings of the workload's public call, the
host's speed while it ran (``speed_scale``, see ``speed.py``), the outcome
of the correctness gate (run after the timed region) and, with ``--trace``,
the per-layer metrics of the traced call; the spans themselves are written
to FILE.  Every iteration gets its own process so that the
program's in-process caches start cold, as they do for a CLI user.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
import time

import sunharm
from sunharm import checks, harmonic, verify
from sunharm.linalg import same_span
from sunharm.symrep import RepContext

from spans import Tracer
from speed import SpeedSampler

SWEEP_CASES = 32
KERNEL_LARGE = [(4, 4, False), (4, 4, True), (5, 3, False), (5, 3, True), (6, 3, False)]
LEMMAS_WIDE = [(4, 5), (5, 5), (6, 4), (3, 8), (2, 12)]
RIEMANN_WIDE = [8, 16]


def _cpu_s() -> float:
    """CPU time of this process and of its reaped children, such as the
    workers of a process pool."""
    t = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        t += ru.ru_utime + ru.ru_stime
    return t


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# -- workloads: inputs from the seed, the public call, the gate ---------------
#
# Each ``inputs`` function returns the case list the program sees; each
# ``call`` runs it through public functions; each ``gate`` returns
# (checks attempted, failures) and runs outside the timed region.


def sweep_inputs(rng: random.Random) -> dict:
    # run_sweep fixes its own case list and order, so the seed changes nothing
    return {}


def sweep_call(inp: dict):
    return verify.run_sweep(None, None, jobs=1)


def sweep_gate(inp: dict, doc: dict) -> tuple[int, int]:
    s = doc["summary"]
    attempted = s["checks_passed"] + s["checks_failed"] + s["checks_vacuous"]
    failed = s["checks_failed"] + s["cases_incomplete"]
    gates = [s["cases"] == SWEEP_CASES, doc.get("status") != "incomplete"]
    for case in doc["cases"]:
        if case.get("mode") == "kernel-verification":
            k = case["kernel"]
            gates.append(
                k["dimension"] == k["expected_dimension"]
                and all(case["flags"].values())
            )
    return attempted + len(gates), failed + gates.count(False)


def kernel_inputs(rng: random.Random) -> dict:
    cases = list(KERNEL_LARGE)
    rng.shuffle(cases)
    return {"cases": cases}


def kernel_call(inp: dict):
    return [harmonic.harmonic_kernel(RepContext(n, m, d)) for n, m, d in inp["cases"]]


def kernel_gate(inp: dict, out) -> tuple[int, int]:
    failed = 0
    for (n, m, d), kernel in zip(inp["cases"], out):
        ctx = RepContext(n, m, d)
        failed += len(kernel) != math.comb(n + m, m + 1)
        ncols = 2 * n * ctx.dim_w
        ker = [harmonic.cocycle_to_vector(a) for a in kernel]
        pol = [harmonic.cocycle_to_vector(a) for a in harmonic.polarization_cocycles(ctx)]
        failed += not same_span(ker, pol, ncols)
    return 2 * len(inp["cases"]), failed


def lemmas_inputs(rng: random.Random) -> dict:
    battery = list(LEMMAS_WIDE)
    riemann = list(RIEMANN_WIDE)
    rng.shuffle(battery)
    rng.shuffle(riemann)
    return {"battery": battery, "riemann": riemann}


def lemmas_call(inp: dict):
    entries = [checks.lemma_battery(n, m) for n, m in inp["battery"]]
    splits = [checks.riemann_split_report(RepContext(1, m)) for m in inp["riemann"]]
    return entries, splits


def lemmas_gate(inp: dict, out) -> tuple[int, int]:
    entries, splits = out
    statuses = [e["status"] for batch in entries for e in batch]
    failed = sum(s not in ("pass", "vacuous") for s in statuses)
    failed += sum(not r["split"] for r in splits)
    return len(statuses) + len(splits), failed


WORKLOADS = {
    "sweep-default": (sweep_inputs, sweep_call, sweep_gate),
    "kernel-large": (kernel_inputs, kernel_call, kernel_gate),
    "lemmas-wide": (lemmas_inputs, lemmas_call, lemmas_gate),
}


def run(workload: str, seed: int, trace_file: str | None) -> dict:
    make_inputs, call, gate = WORKLOADS[workload]
    inp = make_inputs(random.Random(seed))
    tracer = Tracer() if trace_file else None
    with SpeedSampler() as speed:
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                out = tracer.span("workload", workload, call, inp)
                wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            c0 = _cpu_s()
            t0 = time.perf_counter()
            out = call(inp)
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - c0
    result = {"wall_s": wall, "speed_scale": speed.scale()}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    else:
        result.update(cpu_s=cpu, peak_rss_mb=_peak_rss_mb())
    attempted, failed = gate(inp, out)
    result.update(attempted=attempted, failed=failed, backend=sunharm.BACKEND_NAME)
    if tracer is not None:
        with open(trace_file, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "spans": tracer.spans}, fh)
    return result


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 4) or argv[0] not in WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    trace_file = argv[3] if len(argv) == 4 and argv[2] == "--trace" else None
    print(json.dumps(run(argv[0], int(argv[1]), trace_file)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
