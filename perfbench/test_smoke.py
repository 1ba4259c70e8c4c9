"""Smoke tests of the benchmark itself (not of the library).

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs a few instances through the same code as a real run;
a wrong oracle answer, injected into the benchmark's check, must show up
as a failed instance.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, capsys):
    lines, res = run_main(capsys, "--workload", name, "--seed", "3", "--instances", "3")
    assert res["correct"] and res["attempted"] == 3 and res["failed"] == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert [m for m, _ in run.END_TO_END] == list(res["metrics"])
    for metric, unit in run.END_TO_END:
        assert res["metrics"][metric]["unit"] == unit
        # a three-instance run may hold one field only
        assert res["metrics"][metric]["value"] > 0 or metric in ("f2_inst_per_s", "f3_inst_per_s")
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("fail_frac 0.0000 ") for line in lines)


@pytest.mark.parametrize("name", NAMES)
def test_wrong_oracle_answer_counts_as_failure(name, capsys, monkeypatch):
    cls = workloads.WORKLOADS[name]
    real = cls.check

    def wrong(self, inst, res):
        ok, values = real(self, inst, res)
        return not ok, values      # the benchmark now expects another answer

    monkeypatch.setattr(cls, "check", wrong)
    lines, res = run_main(capsys, "--workload", name, "--seed", "3", "--instances", "3")
    assert not res["correct"] and res["failed"] == res["attempted"] == 3
    assert any(line.startswith("fail_frac 1.0000 ") for line in lines)


def test_traced_run_reports_every_per_layer_metric(capsys):
    from tracing import PER_LAYER, UNITS
    _, res = run_main(capsys, "--workload", "graph-bridge", "--seed", "3", "--trace", "1",
                      "--instances", "4")
    assert list(res["metrics"]) == [m for m, _ in PER_LAYER]
    for metric, stat in PER_LAYER:
        assert res["metrics"][metric]["unit"] == UNITS[stat]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # alpha_exact and chi_brute each build the lattice once per instance
    assert m["isotropic.enumerate_isotropic_lattice.calls"] == 8
    assert m["isotropic._maximal_of_restriction.calls"] == 0
    assert m["isotropic.self_s"] > 0 and m["ffield.calls"] > 0
    assert m["errors.guard_ticks"] > 0


def test_same_seed_same_inputs():
    w = workloads.WORKLOADS["bipartite-ncrk"]()
    w.bind(workloads.fresh_import())
    import random

    def keys(seed):
        return [(i.stratum, repr(i.data[1].basis)) for i in w.block(random.Random(seed), 0)]
    assert keys(5) == keys(5) != keys(6)


def test_exits_without_result_when_the_library_is_missing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graph-bridge",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "correct" not in proc.stdout
