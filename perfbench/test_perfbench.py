"""The benchmark's own tests: a reduced smoke run of every workload, and
checks that a wrong output is reported as a failed operation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

REFS = json.loads((HERE / "references.json").read_text())
SEED = 5


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_every_workload(workload, tmp_path):
    samples = run.measure(workload, SEED, 0.0, False, tmp_path, small=True)
    counts, metrics = run.summarize(samples, trace=False)
    line = run.result_line(counts, metrics, run.declared_metrics(trace=False))
    assert not [s.error for s in samples if s.error]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    samples = run.measure("deep", SEED, 0.0, True, tmp_path, small=True)
    counts, metrics = run.summarize(samples, trace=True)
    line = run.result_line(counts, metrics, run.declared_metrics(trace=True))
    assert line["correct"], [s.error for s in samples]
    layers = {name: m["value"] for name, m in line["metrics"].items()}
    assert layers["recursion.builds"] == 3 * 2          # 3 configs x 2 points, order 6
    assert layers["recursion.build_ms.o6"] > 0 and layers["series.jet_muls"] > 0
    assert layers["simulate.returns"] == 0 and layers["certify.wronskians"] == 0


def test_tracer_self_time_and_restore():
    from melnlab import cli, recursion

    from spans import Tracer

    original = recursion.melnikov
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.melnikov is recursion.melnikov is not original
        cfg = wl.deep_configs(SEED)[0]
        recursion.melnikov(cfg, 2, 0.9)
    finally:
        tracer.uninstall()
    assert cli.melnikov is recursion.melnikov is original
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["recursion.melnikov", "recursion.ZTable.__init__"]
    own = tracer.self_times()
    outer, inner = tracer.spans[0], tracer.spans[1]
    assert own[0] <= (outer[2] - outer[1]) - (inner[2] - inner[1]) + 1e-9


def _table_job(tmp_path):
    job = wl.prepare_table(SEED, tmp_path, small=True)
    job.run()
    return job


def test_table_reference_perturbation_fails_one_row(tmp_path):
    job = _table_job(tmp_path)
    assert job.check(REFS).failed == 0
    refs = copy.deepcopy(REFS)
    refs["table"][str(wl.bank_index(SEED))]["M1"][3] += 1e-12
    outcome = job.check(refs)
    assert (outcome.attempted, outcome.failed) == (24, 1)


def test_deep_reference_perturbation_fails_one_point():
    job = wl.prepare_deep(SEED, None, small=True)
    job.run()
    assert job.check(REFS).failed == 0
    refs = copy.deepcopy(REFS)
    refs["deep"][str(wl.bank_index(SEED))][1][0][4] *= 1.0 + 1e-12
    outcome = job.check(refs)
    assert (outcome.attempted, outcome.failed) == (6, 1)


def test_cheb_expected_verdict_perturbation_fails(tmp_path):
    job = wl.ChebJob(SEED, tmp_path, wl.cheb_interval(SEED), rc=0)
    (tmp_path / "out").mkdir()
    verdict = {"classification": "ECT", "zero_bound": 7, "nu": [0] * 8}
    (tmp_path / "out" / "verdict.json").write_text(json.dumps(verdict))
    assert job.check(REFS).failed == 0
    job.expected = dict(job.expected, nu=[0] * 7 + [1])
    assert job.check(REFS).failed == 1
    job.expected = dict(wl.CHEB_EXPECTED, zero_bound=8)
    assert job.check(REFS).failed == 8


def test_reproduce_fail_status_fails_its_case(tmp_path):
    job = wl.ReproduceJob(SEED, tmp_path, ("prop4", "prop5_k2"), {"prop4": 0, "prop5_k2": 0})
    for case, status in (("prop4", "PASS"), ("prop5_k2", "FAIL")):
        (tmp_path / case).mkdir()
        (tmp_path / case / f"{case}.json").write_text(json.dumps({"status": status}))
    outcome = job.check(REFS)
    assert (outcome.attempted, outcome.failed) == (2, 1)
