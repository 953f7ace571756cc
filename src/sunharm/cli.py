"""Command-line front end.

Subcommands:
  verify   exact kernel computation + classification for one (n, m) case;
           with --all-lemmas, the structure-check battery as a second entry
  lemmas   the structure-check battery for one (n, m)
  sweep    verify + lemmas over a grid, primal and dual, optionally parallel

Exit codes: 0 all executed checks passed, 1 some check failed or the run
was interrupted, 2 invalid configuration, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .verify import VERSION, exit_code_for, run_specs, run_sweep

EXIT_INVALID_CONFIG = 2
EXIT_INTERNAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunharm",
        description=(
            "Exact verification of the joint kernel of the harmonicity"
            " constraints on su(n,1) symmetric-power cocycles."
        ),
    )
    parser.add_argument("--version", action="version", version=f"sunharm {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one (n, m) case")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--dual", action="store_true", help="use the dual representation")
    p_verify.add_argument("--json", metavar="PATH", help="write the report document here")
    p_verify.add_argument(
        "--all-lemmas",
        action="store_true",
        help="also run the structure-check battery, reported as its own entry",
    )

    p_lemmas = sub.add_parser("lemmas", help="run the structure-check battery")
    p_lemmas.add_argument("--n", type=int, required=True)
    p_lemmas.add_argument("--m", type=int, required=True)
    p_lemmas.add_argument("--json", metavar="PATH")

    p_sweep = sub.add_parser("sweep", help="verify + lemmas over a grid")
    p_sweep.add_argument("--n-max", type=int, default=None)
    p_sweep.add_argument("--m-max", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel case workers")
    p_sweep.add_argument("--json", metavar="PATH")
    return parser


def _render_case(case: dict, out) -> None:
    c = case["case"]
    side = "dual" if c["dual"] else "primal"
    mode = case.get("mode", "")
    header = f"case n={c['n']} m={c['m']} {side} [{mode}]"
    if case.get("status") == "incomplete":
        print(f"{header}: INCOMPLETE", file=out)
        return
    print(header, file=out)
    if "kernel" in case:
        k = case["kernel"]
        exp = k["expected_dimension"]
        exp_text = "n/a" if exp is None else str(exp)
        print(
            f"  kernel dimension {k['dimension']} (expected {exp_text});"
            f" system {case['system']['rows']}x{case['system']['columns']}",
            file=out,
        )
    if "riemann" in case:
        r = case["riemann"]
        print(
            f"  split: complex-linear {r['complex_linear_dim']},"
            f" conjugate-linear {r['conjugate_linear_dim']}",
            file=out,
        )
    for chk in case["checks"]:
        j = chk.get("j")
        jtext = "" if j is None else f" (j={j})"
        print(
            f"  [{chk['status'].upper():7s}] {chk['name']}{jtext}: {chk['details']}",
            file=out,
        )


def _finish(doc: dict, json_path: str | None, out) -> int:
    for case in doc["cases"]:
        _render_case(case, out)
    s = doc["summary"]
    incomplete = f", {s['cases_incomplete']} incomplete" if s["cases_incomplete"] else ""
    print(
        f"summary: {s['cases']} case(s), {s['checks_passed']} passed,"
        f" {s['checks_failed']} failed, {s['checks_vacuous']} vacuous{incomplete}",
        file=out,
    )
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=False)
            fh.write("\n")
        print(f"report written to {json_path}", file=out)
    return exit_code_for(doc)


def _check_json_path(path: str | None) -> None:
    """Refuse a ``--json`` path that cannot be written, before any case is
    computed.  The probe opens the file for appending, so an existing file
    keeps its content, and removes a file it created."""
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValueError(f"cannot write --json {path}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        _check_json_path(args.json)
        if args.command == "sweep":
            doc = run_sweep(args.n_max, args.m_max, jobs=args.jobs)
        else:
            n, m = args.n, args.m
            config, specs = {"n": n, "m": m}, [("lemmas", n, m)]
            if args.command == "verify":
                config.update(dual=args.dual, all_lemmas=args.all_lemmas)
                kind = "verify-dual" if args.dual else "verify-primal"
                specs = [(kind, n, m)] + (specs if args.all_lemmas else [])
            doc = run_specs(args.command, config, specs)
        return _finish(doc, args.json, out)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
