"""Tests of the benchmark itself: python -m pytest bench -q

Each run uses --seconds 0 and no minimum op count, which still runs one
whole cycle of the workload, so the exact counts below cover every op of
the mix.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads


@pytest.fixture(autouse=True)
def one_cycle(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 0)


EXACT = (
    "matrices.snf.per_op",
    "matrices.snf.transforms_used_ratio",
    "matrices.snf.transform_bits_max",
    "matrices.snf.det_bits_max",
    "surgery.resolve_fillings.per_certify",
    "slopes.fixed_slopes.candidates_per_hit",
)


def traced(name, seed):
    return run.run_workload(name, seed, 0, trace=True)


def value(result, metric):
    return result["metrics"][metric]["value"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_for_a_seed(name):
    first, second = traced(name, 3), traced(name, 3)
    for metric in EXACT:
        assert value(first, metric) == value(second, metric), metric
    assert first["correct"] and second["correct"]


def test_new_seed_changes_inputs_not_snf_per_n():
    a = workloads.FamilySweep(1)
    b = workloads.FamilySweep(2)
    assert a.ops != b.ops
    per_n = 3 * (workloads.FamilySweep.WIDTH + 1)
    for seed in (1, 2):
        result = traced("family_sweep", seed)
        assert value(result, "matrices.snf.per_op") == per_n
        assert value(result, "surgery.resolve_fillings.per_certify") == 10


def test_library_workloads_do_not_fail():
    for name in ("family_sweep", "snf_dense"):
        result = run.run_workload(name, 5, 0, trace=False)
        assert result["correct"] and result["failed"] == 0, name


def test_cli_failures_are_the_two_boundary_inputs():
    result = traced("cli", 5)
    cycles = result["attempted"] // 20
    assert result["attempted"] == 20 * cycles
    assert result["correct"]
    assert result["failed"] == 2 * cycles
    assert value(result, "cli.snf.fail_count") == 2 * cycles
    assert value(result, "matrices.snf.transforms_used_ratio") > 0


def test_program_runs_under_the_default_digit_limit(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
    cli = workloads.Cli(1, run.ROOT, tmp_path)
    assert "PYTHONINTMAXSTRDIGITS" not in cli.env
    before = sys.get_int_max_str_digits()
    with workloads.unlimited_digits():
        assert sys.get_int_max_str_digits() == 0
    assert sys.get_int_max_str_digits() == before
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = cli.run_in_process(
            run.import_program(), ("cfrac", ["cfrac", "3", "2", "--json"]))
        assert sys.get_int_max_str_digits() == workloads.DEFAULT_DIGITS
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0 and json.loads(out)["slope"] == "2/7"


def test_cli_mix_carries_the_boundary_inputs(tmp_path):
    cli = workloads.Cli(1, run.ROOT, tmp_path)
    longest = max(len(x) for row in cli.docs["longentry"]["entries"]
                  for x in row)
    assert longest > 4300
    assert cli.docs["dense60"]["rows"] == 60


def test_snf_check_rejects_a_wrong_transform():
    workload = workloads.SnfDense(1)
    dk = run.import_program()
    index = next(i for i, (kind, rows) in enumerate(workload.ops)
                 if kind == "smith" and len(rows) == 20)
    op = workload.ops[index]
    form = dk.smith_normal_form(dk.IntegerMatrix(op[1]))
    workload.check(dk, index, op, form)
    u = [list(r) for r in form.u.entries()]
    u[0][0] += 1
    bad = type(form)(dk.IntegerMatrix(u), form.d, form.v)
    with pytest.raises(workloads.WrongAnswer):
        workload.check(dk, index, op, bad)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "family_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [Path(run.BENCH).name]
