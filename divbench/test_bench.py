"""Self-test of the benchmark.

    python3 -m pytest -q divbench/test_bench.py

Runs every workload at the ``--tiny`` size, untraced and traced, and checks
the result line against BENCHMARK.json: every named metric present with its
unit, and error_rate 0. Also checks that the row checks and the placement
counter have teeth, and that the benchmark refuses to run without the
divaloha sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, os.path.join("divbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    out = bench(ROOT, workload, trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0, out.stdout
    assert result["correct"] is True


def test_row_checks_catch_wrong_rows():
    run.load_divaloha()
    for name in ("analytic-r400", "simulate-r20"):
        w = run.WORKLOADS[name]
        spec = run.harness.parse_spec(run.command(w, 1, run.TINY))
        checker = run.OutputChecker(w, spec, run.Checks())
        ref = checker.refs[0]
        row = dict.fromkeys(run.harness.CSV_COLUMNS)
        row.update(G=ref["G"], n_tx=ref["n_tx"])
        if w.mode == "analytic":
            row.update(plr_analytic=ref["plr"], thr_analytic=ref["thr"])
            assert checker._row_ok(row, ref)
            assert not checker._row_ok(dict(row, plr_analytic=ref["plr"] + 1e-9), ref)
        else:
            row.update(plr_sim=ref["plr"], plr_stderr=1e-3, thr_sim=ref["thr"])
            assert checker._row_ok(row, ref)
            worse = ref["plr"] + 0.1
            assert not checker._row_ok(dict(row, plr_sim=worse, thr_sim=ref["G"] * (1 - worse)), ref)


def test_counting_generator_counts_every_draw_method():
    counter = run.CountingGenerator(np.random.default_rng(0))
    counter.integers(0, 10, size=3)
    counter.random(5)
    counter.choice(10)
    counter.permutation(4)
    assert counter.values == 3 + 5 + 1 + 4
    assert counter.bit_generator is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "divbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "compare-r100", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
