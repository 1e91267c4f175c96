"""Tests of the benchmark itself (not collected by the repository's tier-1
run, whose ``testpaths`` is ``tests``).

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import inputs, oracle, run, worker  # noqa: E402
from perfbench.ledger import LAYERS  # noqa: E402
from perfbench.workloads import EditWarm, PaperCold  # noqa: E402


def _script_digests() -> dict:
    path = ROOT / "scripts" / "check_digest_identity.py"
    spec = importlib.util.spec_from_file_location("check_digest_identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compute_digests("fifo", 0)


@pytest.fixture(scope="module")
def seed0_cold_pass(tmp_path_factory):
    """One real ``paper_cold`` pass at seed 0 (12 cold jobs)."""
    workload = PaperCold(0, tmp_path_factory.mktemp("cold"))
    return workload, worker.run_pass(workload)[0]


@pytest.fixture(scope="module")
def script_digests():
    return _script_digests()


def test_inputs_are_deterministic_per_seed():
    first, second = inputs.subjects(7), inputs.subjects(7)
    assert [pl.source for pl in first.values()] == [pl.source for pl in second.values()]
    assert [inputs.edit_target(pl, 7) for pl in first.values()] == [
        inputs.edit_target(pl, 7) for pl in second.values()
    ]


def test_other_seed_gives_different_inputs_of_the_same_shape():
    paper, other = inputs.subjects(0), inputs.subjects(5)
    assert list(paper) == list(other)
    for name in paper:
        a, b = paper[name], other[name]
        assert a.source != b.source
        assert len(a.source.splitlines()) == len(b.source.splitlines())
        assert a.feature_model is b.feature_model or (
            a.feature_model.feature_names == b.feature_model.feature_names
        )
        assert len(a.icfg.reachable_methods) == len(b.icfg.reachable_methods)
        assert sorted(len(m.instructions) for m in a.icfg.reachable_methods) == sorted(
            len(m.instructions) for m in b.icfg.reachable_methods
        )
        assert a.features_reachable == b.features_reachable
        assert inputs.edit_target(a, 0)[1] == inputs.edit_target(b, 5)[1]


def test_seed_zero_is_the_paper_lineup():
    from repro.spl.benchmarks import paper_subjects

    subjects = inputs.subjects(0)
    for name, builder in paper_subjects():
        assert subjects[name].source == builder().source


def test_seed_zero_reproduces_the_digest_script(seed0_cold_pass, script_digests):
    workload, record = seed0_cold_pass
    assert sorted(job.key for job in workload.jobs) == sorted(script_digests)
    for job, output in zip(workload.jobs, record["outputs"]):
        digest = script_digests[job.key]
        assert output == worker.fingerprint(workload, ("computed", digest, digest)), job.key


def test_wrong_reference_is_a_failed_operation(seed0_cold_pass, script_digests, monkeypatch):
    workload, record = seed0_cold_pass
    keys = [job.key for job in workload.jobs]
    wrong = keys[4]

    def reference(product_line, analysis, seed, key):
        return "0" * 64 if key == wrong else script_digests[key]

    monkeypatch.setattr(oracle, "reference_digest", reference)
    references = worker.references(workload, 0, 1)
    passes = [record, record]
    assert run.check(keys, passes, references) == (24, 2, 0)

    monkeypatch.setattr(oracle, "reference_digest", lambda pl, a, s, key: script_digests[key])
    assert run.check(keys, passes, worker.references(workload, 0, 1)) == (24, 0, 0)


def test_reordered_findings_are_counted_not_failed():
    workload = EditWarm.__new__(EditWarm)
    cold = (1, "rd: 2 finding(s)\n  A.m:3: x\n      iff F\n  A.m:3: y\n      iff !F\n")
    warm = (1, "rd: 2 finding(s)\n  A.m:3: y\n      iff !F\n  A.m:3: x\n      iff F\n")
    swapped = (1, "rd: 2 finding(s)\n  A.m:3: x\n      iff !F\n  A.m:3: y\n      iff F\n")
    references = {"0": worker.fingerprint(workload, cold)}

    def passes(output):
        return [{"outputs": [worker.fingerprint(workload, output)], "ratios": [0.5]}]

    assert run.check(["k"], passes(cold), references) == (1, 0, 0)
    assert run.check(["k"], passes(warm), references) == (1, 0, 1)
    assert run.check(["k"], passes(swapped), references) == (1, 1, 0)


def test_changed_reuse_ratio_is_a_failed_operation():
    workload = PaperCold.__new__(PaperCold)
    output = worker.fingerprint(workload, ("computed", "d", "d"))
    passes = [
        {"outputs": [output], "ratios": [0.9]},
        {"outputs": [output], "ratios": [1.0]},
    ]
    assert run.check(["k"], passes, {"0": output}) == (2, 1, 0)


def test_a2_oracle_reports_a_disagreement():
    product_line = inputs.subjects(0)["GPL-like"]
    results = oracle.datalog_results(product_line, "reaching_definitions")
    features = oracle.reachable_features(product_line.icfg)
    configurations = oracle.sample_configurations(
        results, features, product_line.feature_model, random.Random(0)
    )
    assert len(configurations) == oracle.A2_CONFIGURATIONS
    assert not oracle.a2_disagreements(
        results, product_line.icfg, "reaching_definitions", configurations, features
    )
    assert oracle.a2_disagreements(
        results, product_line.icfg, "possible_types", configurations, features
    )


def test_differing_counts_compares_traced_passes_position_by_position():
    def traced_run(*counts):
        passes = [{"traced": False, "counts": {}}]
        return {"passes": passes + [{"traced": True, "counts": c} for c in counts]}

    same = traced_run(
        {"ide.jump_functions": 3, "store.put_bytes": 10}, {"ide.jump_functions": 5}
    )
    other = traced_run(
        {"ide.jump_functions": 3, "store.put_bytes": 11}, {"ide.jump_functions": 6}
    )
    assert run.differing_counts([same, same]) == []
    assert run.differing_counts([same, other]) == ["ide.jump_functions"]


def test_benchmark_json_matches_the_ledger_and_runner():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document["command"][:2] == ["python3", "perfbench/run.py"]
    assert "--hash-seed" in document["command"]
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in LAYERS
    ]
    assert [m["name"] for m in document["end_to_end"]] == [
        "setup_s", "pass_s", "op_p50_s", "peak_rss_mb"
    ]


def test_readme_lists_every_layer_metric():
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in (ROOT / "perfbench" / "README.md").read_text().splitlines()
        if line.startswith("| `")
    ]
    assert rows == [list(layer) for layer in LAYERS]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    document = json.loads((tmp_path / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        document["command"]
        + ["--workload", "store_replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
