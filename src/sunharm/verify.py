"""Case orchestration: run verifications, aggregate structured reports.

A report document is a plain dict (JSON-ready), and every command's
document comes from ``run_specs``.  Its content, apart from the timing
fields ``seconds``, ``phases`` and ``total_seconds``, is a pure function of
the requested configuration and the tool version; entries are emitted in
spec order regardless of how many workers computed them.  Every case entry,
whatever its mode, is built by ``symrep.case_entry`` and every check entry
by ``symrep.check_entry``.  Only a sweep with more than one worker imports
the process pool, so a serial run loads no ``concurrent.futures`` or
``multiprocessing``.
"""

from __future__ import annotations

import os
import time

from .checks import lemma_battery, riemann_split_report
from .exactfield import BACKEND_NAME
from .harmonic import classify, harmonic_kernel, kernel_is_invariant
from .harmonic import polarization_rows, system_shape
from .symrep import RepContext, case_entry, check_entry

#: The tool version, written into every report; ``sunharm.__version__``
#: and ``sunharm --version`` read it from here.
VERSION = "0.1.0"

_RIEMANN_NOTE = (
    "n = 1 kernels split into both linearity types, so the one-sided"
    " classifier does not apply; reporting the split instead"
)


def _timed(phases: dict, name: str, fn, *args):
    """``fn(*args)``, with its wall time recorded as ``phases[name]``."""
    t0 = time.perf_counter()
    out = fn(*args)
    phases[name] = time.perf_counter() - t0
    return out


def verify_case(n: int, m: int, dual: bool = False) -> dict:
    """Kernel computation + classification for one case (n = 1 gets the
    split report instead of the one-sided classifier); the battery is an
    entry of its own (``lemmas_case``).

    The entry's ``phases`` block times each phase that ran: ``kernel``
    (assembly and solve), ``classify`` and ``invariance``; for n = 1,
    ``riemann``.  For n >= 2, P's rows are built once for ``classify`` and
    ``kernel_is_invariant``.
    """
    t0 = time.perf_counter()
    phases: dict[str, float] = {}
    ctx = RepContext(n, m, dual)
    rows, cols = system_shape(ctx)
    system = {"rows": rows, "columns": cols}
    if n == 1:
        rep = _timed(phases, "riemann", riemann_split_report, ctx)
        mode, checks = "riemann-surface", rep["checks"]
        blocks = {
            "note": _RIEMANN_NOTE,
            "system": system,
            "kernel": {"dimension": rep["kernel_dim"], "expected_dimension": None},
            "riemann": {
                "complex_linear_dim": rep["complex_linear_dim"],
                "conjugate_linear_dim": rep["conjugate_linear_dim"],
                "split": rep["split"],
            },
        }
    else:
        kernel = _timed(phases, "kernel", harmonic_kernel, ctx)
        pol = polarization_rows(ctx)
        flags, checks = _timed(phases, "classify", classify, ctx, kernel, pol)
        passed = {c["name"] for c in checks if c["status"] == "pass"}
        intertwined = _timed(phases, "invariance", kernel_is_invariant, ctx, pol)
        invariant = "polarization-span" in passed and intertwined
        checks.append(
            check_entry(
                "compact-invariance",
                invariant,
                "the polarization map P spans the kernel and intertwines each"
                " of the 2n - 1 generators of k_C = gl(n), so k maps the kernel"
                " into itself: K-invariance, since U(n) is connected",
            )
        )
        sym = f"S^{m + 1}(C^{n})"
        module = f"{sym}' (x) det^-1" if dual else f"{sym} (x) det"
        checks.append(
            check_entry(
                "k-module-type",
                invariant and "dimension-match" in passed,
                f"P is injective and intertwines K: the kernel is isomorphic to"
                f" {module} as a K-module",
            )
        )
        mode = "kernel-verification"
        blocks = {
            "system": system,
            "kernel": {
                "dimension": len(kernel),
                "expected_dimension": ctx.expected_kernel_dim,
            },
            "flags": flags,
        }
    return case_entry(
        ctx,
        mode,
        checks=checks,
        seconds=time.perf_counter() - t0,
        phases=phases,
        **blocks,
    )


def lemmas_case(n: int, m: int) -> dict:
    """The structure-check battery alone, as a report entry's checks."""
    t0 = time.perf_counter()
    checks = lemma_battery(n, m)
    return case_entry(
        RepContext(n, m),
        "lemma-battery",
        checks=checks,
        seconds=time.perf_counter() - t0,
    )


def _run_spec(spec: tuple) -> dict:
    kind, n, m = spec
    if kind == "verify-primal":
        return verify_case(n, m, dual=False)
    if kind == "verify-dual":
        return verify_case(n, m, dual=True)
    if kind == "lemmas":
        return lemmas_case(n, m)
    raise ValueError(f"unknown case kind {kind}")


def sweep_specs(n_max: int | None, m_max: int | None) -> list[tuple]:
    """Deterministic case list for a sweep.

    With explicit bounds: the rectangle 2 <= n <= n_max, 1 <= m <= m_max.
    With defaults: the budgeted grid n <= 3, m <= 4 plus (4,1) and (4,2).
    Riemann-surface entries (primal n = 1, m in {2, 4}, which
    ``verify_case`` reports as the split) ride along when m_max allows.
    Every (n, m) contributes a primal case, a dual case and the structure
    battery.  The list is in (n, m) order, and per (n, m) primal, dual,
    battery.
    """
    defaulted = n_max is None and m_max is None
    if defaulted:
        grid = [(n, m) for n in (2, 3) for m in (1, 2, 3, 4)]
        grid += [(4, 1), (4, 2)]
        mm = 4
    else:
        n_max = 3 if n_max is None else n_max
        m_max = 4 if m_max is None else m_max
        if n_max < 2 or m_max < 1:
            raise ValueError("sweep bounds must cover at least the case (2, 1)")
        grid = [(n, m) for n in range(2, n_max + 1) for m in range(1, m_max + 1)]
        mm = m_max
    specs = [("verify-primal", 1, m) for m in (2, 4) if m <= mm]
    for n, m in grid:
        specs += [("verify-primal", n, m), ("verify-dual", n, m), ("lemmas", n, m)]
    return specs


def worker_count(jobs: int, n_cases: int) -> int:
    """Worker processes for a sweep: never more than cases or the CPUs this
    process may run on (its affinity mask, where the platform has one)."""
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(jobs, n_cases, cpus))


def run_specs(command: str, config: dict, specs: list[tuple], jobs: int = 1) -> dict:
    """The document of ``command``: one entry per ``(kind, n, m)`` spec, in
    spec order, on ``jobs`` workers.  An interrupt keeps the finished
    entries, and the rest become ``incomplete`` entries (mode: the kind) of
    a document whose ``status`` is ``incomplete``."""
    t0 = time.perf_counter()
    cases: list[dict] = []
    interrupted = False
    workers = worker_count(jobs, len(specs))
    try:
        if workers > 1:
            # imported here, so a serial run loads no multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                try:
                    # results arrive in spec order; keep each as it comes
                    for case in pool.map(_run_spec, specs):
                        cases.append(case)
                except KeyboardInterrupt:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        else:
            for spec in specs:
                cases.append(_run_spec(spec))
    except KeyboardInterrupt:
        interrupted = True
        for kind, n, m in specs[len(cases) :]:
            ctx = RepContext(n, m, kind == "verify-dual")
            cases.append(case_entry(ctx, kind, status="incomplete"))
    doc = make_document(command, config, cases)
    if interrupted:
        doc["status"] = "incomplete"
    doc["total_seconds"] = round(time.perf_counter() - t0, 6)
    return doc


def run_sweep(n_max: int | None, m_max: int | None, jobs: int = 1) -> dict:
    """The sweep's document; ``jobs``, an execution detail, is not config."""
    config = {"n_max": n_max, "m_max": m_max}
    return run_specs("sweep", config, sweep_specs(n_max, m_max), jobs)


def make_document(command: str, config: dict, cases: list[dict]) -> dict:
    counts = {"pass": 0, "fail": 0, "vacuous": 0}
    for case in cases:
        for c in case["checks"]:
            counts[c["status"]] += 1
    incomplete = sum(case.get("status") == "incomplete" for case in cases)
    return {
        "tool": "sunharm",
        "version": VERSION,
        "backend": BACKEND_NAME,
        "command": command,
        "config": config,
        "cases": cases,
        "summary": {
            "cases": len(cases),
            "checks_passed": counts["pass"],
            "checks_failed": counts["fail"],
            "checks_vacuous": counts["vacuous"],
            "cases_incomplete": incomplete,
        },
    }


def exit_code_for(doc: dict) -> int:
    """0 iff every executed check passed and nothing was left incomplete."""
    s = doc["summary"]
    if s["checks_failed"] or s["cases_incomplete"]:
        return 1
    return 0
