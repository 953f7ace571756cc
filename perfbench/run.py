"""The sunharm benchmark: end-to-end and per-layer timings of the certifier.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, round-robin over repetitions, then one traced run each:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run works from the root of a source checkout and imports ``sunharm`` from
``src/``; it refuses to run (exit 2) where that is missing.  Each iteration
of a workload runs in a fresh interpreter (``perfbench/worker.py``), so the
program's caches start cold; a run repeats whole iterations while they fit
in ``--seconds`` (at least one) and reports medians.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it pairs each untraced
iteration with a serial traced one and reports the per-layer metrics.  The
last line of stdout is the JSON result; the lines before it give every
metric with its quartiles, ``fail_ratio`` and the run's environment.  Full
records and span files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_IMPORT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# Round-robin order of ``--all``.  Why each workload is there is recorded
# in BENCHMARK.json.
WORKLOADS = ("sweep-default", "kernel-large", "lemmas-wide")
# Times at the reference speed of speed.py; the raw times are printed too.
END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "invariance.self_s": "s",
    "invariance.calls": "count",
    "linalg.solve_s": "s",
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.rows_in": "count",
    "assemble.self_s": "s",
    "assemble.entries": "count",
    "assemble.nnz": "count",
    "harmonic.convert_s": "s",
    "classify.self_s": "s",
    "lemmas.self_s": "s",
    "lemmas.entries": "count",
    "riemann.self_s": "s",
    "exactfield.max_bits": "bits",
    "orchestration.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
SETUP_PROBES = 15
# Repetitions of every workload in ``--all``: enough for quartiles.
REPS = 10
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], deadline: float) -> tuple[int, str]:
    """Run ``python3 ARGS`` from the checkout root; return its exit code and
    last line of stdout.  The child's whole process group is killed when it
    ends, fails or passes the deadline."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} passed the run deadline") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def worker(workload: str, seed: int, deadline: float, spans: Path | None = None) -> dict:
    args = [str(HERE / "worker.py"), workload, str(seed)]
    if spans is not None:
        args += ["--trace", str(spans)]
    code, line = run_child(args, deadline)
    if code != 0:
        raise BenchError(f"worker for {workload} exited with code {code}")
    return json.loads(line)


def probe(deadline: float) -> tuple[float, float]:
    """Seconds of the reference import and of ``import sunharm``, each in a
    fresh interpreter, one right after the other."""
    times = []
    for what in ("reference", "sunharm"):
        code, line = run_child([str(HERE / "setup_probe.py"), what], deadline)
        if code != 0:
            raise BenchError(f"setup probe {what} exited with code {code}")
        times.append(float(line))
    return times[0], times[1]


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def bench(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; returns its full record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
    }
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    backends = set()

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    if not trace:
        probe(deadline)  # writes the bytecode cache; discarded
        for _ in range(SETUP_PROBES):
            ref_s, import_s = probe(deadline)
            add("import_s", import_s)
            add("ref_import_s", ref_s)
            add("setup_s", import_s * REF_IMPORT_S / ref_s)
    start = time.monotonic()
    took: list[float] = []
    while True:
        t0 = time.monotonic()
        r = worker(workload, seed, deadline)
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "speed_scale"):
            add(name, r[name])
        add("wall_ref_s", r["wall_s"] * r["speed_scale"])
        add("cpu_ref_s", r["cpu_s"] * r["speed_scale"])
        attempted += r["attempted"]
        failed += r["failed"]
        backends.add(r["backend"])
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-{len(took)}.json"
            t = worker(workload, seed, deadline, spans)
            scale = t["speed_scale"]
            add("traced_wall_s", t["wall_s"])
            add("traced_wall_ref_s", t["wall_s"] * scale)
            # layer times at the reference speed, like wall_ref_s; counts as they are
            for name, value in t["layers"].items():
                add(name, value * scale if name.endswith("_s") else value)
            attempted += t["attempted"]
            failed += t["failed"]
        took.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        step = statistics.median(took)
        if elapsed + step > seconds or time.monotonic() + step > deadline:
            break

    stats = {name: summary(v) for name, v in samples.items()}
    if trace:
        layers = {name: stats[name]["median"] for name in PER_LAYER if name in stats}
        layers["trace.overhead_ratio"] = (
            stats["traced_wall_ref_s"]["median"] / stats["wall_ref_s"]["median"]
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": stats[name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    env["loadavg_end"] = loadavg()
    env["backend"] = ",".join(sorted(backends))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "iterations": len(took),
        "environment": env,
        "samples": samples,
        "stats": stats,
        "result": result,
    }


def print_run(record: dict) -> None:
    units = {
        **END_TO_END, **PER_LAYER, "wall_s": "s", "cpu_s": "s", "import_s": "s",
        "ref_import_s": "s", "speed_scale": "ratio", "traced_wall_s": "s",
        "traced_wall_ref_s": "s", "trace.self_s": "s",
    }
    for name, s in record["stats"].items():
        print(
            f"{record['workload']:18} {name:22} {s['median']:12.6g} {units.get(name, ''):6}"
            f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        )
    res = record["result"]
    print(
        f"{record['workload']:18} {'fail_ratio':22} {res['failed'] / res['attempted']:12.6g}"
        f" {'ratio':6} ({res['failed']} of {res['attempted']} checks)"
    )
    print("environment " + json.dumps(record["environment"]))


def single_run(args) -> int:
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print_run(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def suite(args) -> int:
    """Every workload round-robin, so a slow stretch of the host falls on
    all of them alike; then one traced run per workload."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    traced: dict[str, dict] = {}
    for rep in range(REPS):
        for w in WORKLOADS:
            runs[w].append(one_run(w, args.seed + rep, args.seconds, 0))
    for w in WORKLOADS:
        traced[w] = one_run(w, args.seed, args.seconds, 1)
    envs = [r["environment"] for w in WORKLOADS for r in runs[w] + [traced[w]]]
    doc = {"environment": condensed(envs), "workloads": {}}
    for w in WORKLOADS:
        recs = runs[w]
        # the traced run's checks count too
        attempted = sum(r["result"]["attempted"] for r in recs + [traced[w]])
        failed = sum(r["result"]["failed"] for r in recs + [traced[w]])
        e2e = {}
        # the gated metrics, then the raw times they are scaled from
        for name, unit in {**END_TO_END, "wall_s": "s", "cpu_s": "s"}.items():
            s = summary([r["stats"][name]["median"] for r in recs])
            s["unit"] = unit
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            e2e[name] = s
        layers = {n: m["value"] for n, m in traced[w]["result"]["metrics"].items()}
        stats = traced[w]["stats"]
        doc["workloads"][w] = {
            "end_to_end": e2e,
            "fail_ratio": failed / attempted,
            "per_layer": layers,
            "unassigned_s": layers["orchestration.self_s"] + stats["trace.self_s"]["median"],
            "traced_wall_ref_s": stats["traced_wall_ref_s"]["median"],
        }
    print(
        "\nworkload           metric                       median unit"
        "   q1 .. q3 (n runs), IQR/median"
    )
    for w, entry in doc["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(
                f"{w:18} {name:22} {s['median']:12.6g} {s['unit']:6}"
                f" {s['q1']:.6g} .. {s['q3']:.6g} (n={s['n']}), {s['spread']:.3f}"
            )
        print(f"{w:18} {'fail_ratio':22} {entry['fail_ratio']:12.6g} ratio")
        for name, value in entry["per_layer"].items():
            print(f"{w:18} {name:22} {value:12.6g} {PER_LAYER[name]}")
        print(
            f"{w:18} {entry['unassigned_s']:.4g} s of the traced wall"
            f" {entry['traced_wall_ref_s']:.4g} s is outside the wrapped layers"
            " (orchestration and the tracer's own spans; reference speed)"
        )
    print("environment " + json.dumps(doc["environment"]))
    OUT.joinpath("suite.json").write_text(json.dumps(doc, indent=1) + "\n")
    failed = any(e["fail_ratio"] for e in doc["workloads"].values())
    return 1 if failed else 0


def condensed(envs: list[dict]) -> dict:
    """One environment record for many runs: the distinct values of each
    fixed field and the range of the 1-minute load average."""
    out = {
        key: sorted({str(e[key]) for e in envs})
        for key in ("python", "backend", "cpu_count", "affinity")
    }
    loads = [
        float(e[k].split()[0])
        for e in envs
        for k in ("loadavg_start", "loadavg_end")
        if e[k] != "unavailable"
    ]
    out["loadavg_1min"] = [min(loads), max(loads)] if loads else []
    return out


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = [str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    code, line = run_child(args, time.monotonic() + RUN_DEADLINE_S + 30)
    if not line.startswith("{"):
        raise BenchError(f"run of {workload} gave no result (exit code {code})")
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    print(f"{workload} seed {seed} trace {trace}: {line}", flush=True)
    return record


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload round-robin")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sunharm" / "__init__.py").is_file():
        print(f"no sunharm sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        return suite(args) if args.all else single_run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
