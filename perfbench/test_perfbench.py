"""Tests of the benchmark itself, on tiny corpora so they run in seconds."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import modkit.cli  # noqa: E402
from modkit import build_q, parse_edge_list  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str) -> corpus.Workload:
    workload = corpus.WORKLOADS[name]
    groups = tuple(dataclasses.replace(g, per_variant=1, n_range=(8, 9)) for g in workload.groups)
    return dataclasses.replace(workload, groups=groups)


def tiny_run(name, tmp_path, trace=False):
    return bench.run(tiny(name), seed=3, seconds=0, trace=trace,
                     corpus_seed=corpus.DEFAULT_CORPUS_SEED, workdir=tmp_path / "work")


@pytest.mark.parametrize("name", sorted(corpus.WORKLOADS))
def test_tiny_run_prints_every_named_metric(name, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(bench.result_line(tiny_run(name, tmp_path, trace), trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 1
        named = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == named
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch):
    real = modkit.cli.dumps_report

    def corrupted(payload):
        payload["report"]["best_score"] += 1e-6
        return real(payload)

    monkeypatch.setattr(modkit.cli, "dumps_report", corrupted)
    res = tiny_run("planted", tmp_path)
    assert not res["correct"]
    assert res["failed"] == res["attempted"]
    # Every op, the warm-up included, fails its re-score check.
    assert sum("partition scores" in f for f in res["failures"]) == res["attempted"]


@pytest.mark.parametrize("variant", corpus.VARIANTS)
def test_own_coefficients_match_the_package(variant):
    inst = corpus.planted_graph(np.random.default_rng(5), "g", variant, 14, 3)
    drawn = corpus.draw(inst, np.random.default_rng(6))
    ours = checks.q_matrix(inst.n, drawn.edges, variant, drawn.left)
    theirs = build_q(parse_edge_list(drawn.text, variant)).entries
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-15)


def test_sandwich_flags_an_upper_bound_below_the_optimum():
    rounding = {"report": {"best_score": 0.30, "upper_bound": 0.35}}
    assert checks.check_sandwich(rounding, {"opt": 0.36}, "solve")
    assert not checks.check_sandwich(rounding, {"opt": 0.34}, "solve")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
