import json
import os
from pathlib import Path

import pytest

import sunharm.cli as cli
from sunharm.checks import lemma_battery
from sunharm.cli import main
from sunharm.verify import (
    exit_code_for,
    make_document,
    run_sweep,
    sweep_specs,
    verify_case,
    worker_count,
)

from conftest import TIMING_KEYS, scrub

GOLDEN = Path(__file__).with_name("golden_sweep_2_2.json")
GOLDEN_VERIFY = Path(__file__).with_name("golden_verify.json")


def test_verify_passes(capsys, tmp_path):
    path = tmp_path / "out.json"
    code = main(["verify", "--n", "2", "--m", "1", "--json", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    case = doc["cases"][0]
    assert case["kernel"] == {"dimension": 3, "expected_dimension": 3}
    assert case["system"] == {"rows": 21, "columns": 12}
    assert case["mode"] == "kernel-verification"
    assert doc["summary"]["checks_failed"] == 0
    out = capsys.readouterr().out
    assert "kernel dimension 3" in out


def test_verify_dual(tmp_path):
    path = tmp_path / "out.json"
    assert main(["verify", "--n", "2", "--m", "1", "--dual", "--json", str(path)]) == 0
    case = json.loads(path.read_text())["cases"][0]
    assert case["case"]["dual"] is True
    assert case["flags"]["complex_linear"] is True


def test_verify_entry_phases():
    # timings of the phases that ran, in the order they ran
    case = verify_case(2, 1)
    assert list(case["phases"]) == ["kernel", "classify", "invariance"]
    assert list(verify_case(1, 2)["phases"]) == ["riemann"]
    assert all(type(s) is float and s >= 0 for s in case["phases"].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "2", "--m", "1"],
        ["lemmas", "--n", "2", "--m", "1"],
        ["sweep", "--n-max", "2", "--m-max", "1"],
    ],
)
def test_unwritable_json_path_rejected_before_any_case(argv, tmp_path, capsys, monkeypatch):
    def no_case(*args, **kwargs):
        raise AssertionError("a case ran before the --json path was checked")

    for name in ("run_specs", "run_sweep"):
        monkeypatch.setattr(cli, name, no_case)
    for bad in (tmp_path / "no" / "such" / "out.json", tmp_path):
        assert main(argv + ["--json", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid configuration: cannot write --json")
        assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_json_probe_leaves_no_file(tmp_path):
    # the path is writable, so the probe passes; the configuration error
    # that follows must not leave the probe's file behind
    path = tmp_path / "out.json"
    assert main(["verify", "--n", "2", "--m", "0", "--json", str(path)]) == 2
    assert not path.exists()
    # an existing file keeps its content until a report replaces it
    path.write_text("keep")
    assert main(["verify", "--n", "2", "--m", "0", "--json", str(path)]) == 2
    assert path.read_text() == "keep"


def test_verify_rejects_m_zero(capsys):
    assert main(["verify", "--n", "2", "--m", "0"]) == 2
    assert "m must be >= 1" in capsys.readouterr().err


def test_lemmas_rejects_n_zero(capsys):
    assert main(["lemmas", "--n", "0", "--m", "2"]) == 2
    assert "invalid configuration: n must be >= 1" in capsys.readouterr().err


def test_lemma_battery_rejects_n_zero():
    with pytest.raises(ValueError, match="n must be >= 1"):
        lemma_battery(0, 2)


def test_sweep_report_matches_golden():
    # every mode appears: riemann-surface (1, 2), kernel-verification and
    # lemma-battery; the indented text pins key order as well as content
    doc = scrub(run_sweep(2, 2), TIMING_KEYS + ("backend",))
    assert json.dumps(doc, indent=2) + "\n" == GOLDEN.read_text()


def test_verify_reports_match_golden():
    # verify entries the golden sweep leaves out: (3, 3) on both sides, and
    # the n = 1 split on the dual side and at an odd power
    cases = [(3, 3, False), (3, 3, True), (1, 3, True), (1, 5, False)]
    doc = [scrub(verify_case(n, m, dual)) for n, m, dual in cases]
    assert json.dumps(doc, indent=2) + "\n" == GOLDEN_VERIFY.read_text()


def test_verify_riemann_route(tmp_path):
    path = tmp_path / "out.json"
    assert main(["verify", "--n", "1", "--m", "2", "--json", str(path)]) == 0
    case = json.loads(path.read_text())["cases"][0]
    assert case["mode"] == "riemann-surface"
    assert case["riemann"]["split"] is True


def test_verify_all_lemmas(tmp_path):
    path = tmp_path / "out.json"
    assert main(["verify", "--n", "2", "--m", "2", "--all-lemmas", "--json", str(path)]) == 0
    verified, battery = json.loads(path.read_text())["cases"]
    assert verified["mode"] == "kernel-verification" and "lemmas" not in verified
    assert battery["mode"] == "lemma-battery"
    assert battery["checks"], "battery entries expected"


def test_interrupted_verify_keeps_the_verify_entry(monkeypatch, capsys, tmp_path):
    import sunharm.verify as v

    real = v._run_spec

    def interrupted_battery(spec):
        if spec[0] == "lemmas":
            raise KeyboardInterrupt
        return real(spec)

    monkeypatch.setattr(v, "_run_spec", interrupted_battery)
    path = tmp_path / "out.json"
    assert main(["verify", "--n", "2", "--m", "2", "--all-lemmas", "--json", str(path)]) == 1
    doc = json.loads(path.read_text())
    verified, battery = doc["cases"]
    assert verified["mode"] == "kernel-verification" and "status" not in verified
    assert (battery["mode"], battery["status"]) == ("lemmas", "incomplete")
    assert doc["status"] == "incomplete"
    assert doc["summary"]["cases_incomplete"] == 1
    assert doc["summary"]["checks_passed"] == len(verified["checks"])
    summary = capsys.readouterr().out.splitlines()[-2]
    assert summary.startswith("summary: 2 case(s), ") and summary.endswith(", 1 incomplete")


def test_every_command_writes_one_document_shape(tmp_path):
    keys = []
    for argv in (
        ["verify", "--n", "2", "--m", "1"],
        ["lemmas", "--n", "2", "--m", "1"],
        ["sweep", "--n-max", "2", "--m-max", "1"],
    ):
        path = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--json", str(path)]) == 0
        keys.append(list(json.loads(path.read_text())))
    assert keys[0] == keys[1] == keys[2]
    assert "total_seconds" in keys[0]


def test_every_entry_holds_one_list_the_summary_counts(tmp_path):
    # each document's summary counts are the statuses of its entries' checks,
    # and no entry carries a second list
    for argv in (
        ["verify", "--n", "2", "--m", "2", "--all-lemmas"],
        ["verify", "--n", "1", "--m", "2", "--dual", "--all-lemmas"],
        ["lemmas", "--n", "2", "--m", "1"],
        ["sweep", "--n-max", "2", "--m-max", "2"],
    ):
        path = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert all("lemmas" not in case for case in doc["cases"])
        statuses = [c["status"] for case in doc["cases"] for c in case["checks"]]
        s = doc["summary"]
        assert s["checks_passed"] == statuses.count("pass") > 0
        assert s["checks_failed"] == statuses.count("fail")
        assert s["checks_vacuous"] == statuses.count("vacuous")
        assert s["checks_passed"] + s["checks_failed"] + s["checks_vacuous"] == len(statuses)


def test_lemmas_command_vacuous_range(tmp_path):
    path = tmp_path / "out.json"
    assert main(["lemmas", "--n", "2", "--m", "1", "--json", str(path)]) == 0
    case = json.loads(path.read_text())["cases"][0]
    entries = [e for e in case["checks"] if e["name"] == "contraction-isometry"]
    assert entries and entries[0]["status"] == "vacuous"


def test_sweep_entry_counts():
    specs = sweep_specs(3, 3)
    verifies = [s for s in specs if s[0].startswith("verify") and s[1] >= 2]
    assert len(verifies) == 2 * (2 * 3)  # primal+dual over n in {2,3}, m in {1,2,3}
    assert ("lemmas", 2, 1) in specs
    assert ("verify-primal", 1, 2) in specs


def test_sweep_default_budget():
    specs = sweep_specs(None, None)
    cases = {(n, m) for kind, n, m in specs if kind == "verify-primal" and n >= 2}
    assert cases == {(n, m) for n in (2, 3) for m in (1, 2, 3, 4)} | {(4, 1), (4, 2)}


@pytest.mark.parametrize(
    "bounds", [(None, None), (2, 1), (2, 2), (3, 4), (4, 3), (None, 1), (5, None)]
)
def test_sweep_specs_come_in_case_order(bounds):
    # (n, m), then primal before dual before the battery: the order of a
    # sweep's report, whatever the bounds
    kinds = ("verify-primal", "verify-dual", "lemmas")
    specs = sweep_specs(*bounds)
    assert len(set(specs)) == len(specs)
    assert specs == sorted(specs, key=lambda s: (s[1], s[2], kinds.index(s[0])))


def test_sweep_bounds_validated(capsys):
    assert main(["sweep", "--n-max", "1"]) == 2
    assert "at least the case (2, 1)" in capsys.readouterr().err


def test_sweep_rejects_zero_jobs(capsys):
    assert main(["sweep", "--jobs", "0"]) == 2
    assert "invalid configuration: --jobs must be >= 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="--jobs must be >= 1"):
        run_sweep(2, 1, jobs=0)


def test_sweep_determinism(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["sweep", "--n-max", "2", "--m-max", "1", "--json", str(p1)]) == 0
    assert main(["sweep", "--n-max", "2", "--m-max", "1", "--json", str(p2)]) == 0
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert json.dumps(scrub(a), sort_keys=True) == json.dumps(scrub(b), sort_keys=True)


def test_sweep_parallel_matches_serial():
    serial = run_sweep(2, 1, jobs=1)
    parallel = run_sweep(2, 1, jobs=2)
    assert json.dumps(scrub(serial), sort_keys=True) == json.dumps(
        scrub(parallel), sort_keys=True
    )


def test_interrupted_sweep_reports_partial(monkeypatch):
    import sunharm.verify as v

    real = v._run_spec
    calls = {"n": 0}

    def flaky(spec):
        calls["n"] += 1
        if calls["n"] > 2:
            raise KeyboardInterrupt
        return real(spec)

    monkeypatch.setattr(v, "_run_spec", flaky)
    doc = v.run_sweep(2, 1, jobs=1)
    assert doc["status"] == "incomplete"
    assert doc["summary"]["cases_incomplete"] > 0
    assert exit_code_for(doc) == 1
    statuses = [c.get("status") for c in doc["cases"]]
    assert "incomplete" in statuses


def test_interrupted_parallel_sweep_keeps_finished_cases(monkeypatch):
    import concurrent.futures

    import sunharm.verify as v

    made = {}

    class FakePool:
        # map hands back two finished cases, then the interrupt arrives
        def __init__(self, max_workers):
            made["workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs):
            made["done"] = [fn(spec) for spec in specs[:2]]
            yield from made["done"]
            raise KeyboardInterrupt

        def shutdown(self, wait=True, cancel_futures=False):
            made["cancelled"] = cancel_futures

    # run_sweep imports the pool class when it needs one, so patch its home
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(v.os, "cpu_count", lambda: 4)
    doc = v.run_sweep(2, 2, jobs=2)
    assert made["workers"] == 2
    assert made["cancelled"] is True
    assert doc["status"] == "incomplete"
    cases = doc["cases"]
    assert len(cases) == len(sweep_specs(2, 2))
    assert cases[:2] == made["done"]
    assert all(c["status"] == "incomplete" for c in cases[2:])
    assert doc["summary"]["cases_incomplete"] == len(cases) - 2


def test_worker_count_clamp(monkeypatch):
    # a platform without an affinity mask clamps to os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert worker_count(1, 32) == 1
    assert worker_count(3, 32) == 3
    assert worker_count(10**6, 32) == 4
    assert worker_count(8, 3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(8, 32) == 1
    # an affinity mask of one CPU wins over a machine of four
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(8, 32) == 1
    assert worker_count(8, 3) == 1


def test_exit_code_logic():
    good = make_document("verify", {}, [{"checks": [{"name": "x", "status": "pass", "details": ""}], "lemmas": []}])
    assert exit_code_for(good) == 0
    bad = make_document("verify", {}, [{"checks": [{"name": "x", "status": "fail", "details": ""}], "lemmas": []}])
    assert exit_code_for(bad) == 1
    partial = make_document("sweep", {}, [{"status": "incomplete", "checks": [], "lemmas": []}])
    assert exit_code_for(partial) == 1


@pytest.mark.parametrize("m", [1, 3])
def test_battery_fails_when_images_leave_their_grade(monkeypatch, capsys, m):
    """With every tangent image pushed one grade further from its source,
    the battery is one failing operator-grading entry per grade 1 <= k < m
    (one with no grade at m = 1) and nothing else, and ``sunharm lemmas``
    reports the failure with exit 1 instead of stopping with exit 2."""
    import sunharm.checks as checks

    real = checks._tangent_action

    def pushed(n, p, dual):
        image, s = real(n, p, dual), 1 if p < n else -1
        return lambda alpha: {
            (b[0] + s,) + b[1:-1] + (b[-1] - s,): c for b, c in image(alpha).items()
        }

    monkeypatch.setattr(checks, "_tangent_action", pushed)
    entries = lemma_battery(2, m)
    grades = list(range(1, m)) or [None]
    assert [(e["name"], e["j"], e["status"]) for e in entries] == [
        ("operator-grading", k, "fail") for k in grades
    ]
    assert {e["details"] for e in entries} == {"image escaped the adjacent grades"}
    assert main(["lemmas", "--n", "2", "--m", str(m)]) == 1
    assert "[FAIL   ] operator-grading" in capsys.readouterr().out
