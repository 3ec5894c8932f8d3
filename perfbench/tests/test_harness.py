"""Tests of the benchmark harness itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer, summarize  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    t = Tracer()
    a = t.add_span("a", 0.0, 10.0)
    b = t.add_span("b", 1.0, 4.0, a)
    t.add_span("c", 3.0, 6.0, a)  # overlaps b: children cover [1, 6]
    t.add_span("d", 8.0, 9.0, a)
    t.add_span("e", 2.0, 3.0, b)
    s = summarize(t, under=(("e", "a"), ("d", "b")))
    assert s.busy["a"] == 10.0
    assert s.self_time["a"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert s.self_time["b"] == pytest.approx(2.0)
    assert s.self_time["c"] == pytest.approx(3.0)
    assert s.self_time["e"] == pytest.approx(1.0)
    assert s.busy_under[("e", "a")] == pytest.approx(1.0)
    assert s.busy_under[("d", "b")] == 0.0
    assert dict(s.calls) == {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}


def test_self_time_with_children_listed_out_of_order():
    t = Tracer()
    a = t.add_span("a", 0.0, 10.0)
    t.add_span("x", 5.0, 9.0, a)
    t.add_span("x", 1.0, 6.0, a)
    s = summarize(t)
    assert s.self_time["a"] == pytest.approx(2.0)
    assert s.busy["x"] == pytest.approx(9.0)


class _Thing:
    def outer(self, n):
        return self.inner(n) + self.outer_again(n)

    def inner(self, n):
        return n

    def outer_again(self, n):
        return 0 if n == 0 else self.outer(n - 1)

    def boom(self):
        raise ValueError("boom")


def test_wrappers_record_parents_skip_reentry_and_restore():
    originals = dict(vars(_Thing))
    t = Tracer()
    points = [
        (_Thing, "outer", "L.outer", None),
        (_Thing, "outer_again", "L.outer", None),  # same layer: re-entry not recorded
        (_Thing, "inner", "L.inner", lambda a, k, r: [("items", a[1])]),
        (_Thing, "boom", "L.boom", None),
    ]
    with t.installed(points):
        assert _Thing().outer(2) == 3
        with pytest.raises(ValueError):
            _Thing().boom()
    for attr in ("outer", "outer_again", "inner", "boom"):
        assert vars(_Thing)[attr] is originals[attr]
    s = summarize(t)
    assert s.calls["L.outer"] == 1
    assert s.calls["L.inner"] == 3
    assert t.counts["L.inner.items"] == 3  # 2 + 1 + 0
    assert t.counts["L.boom.failed"] == 1
    outer = t.names.index("L.outer")
    root = next(i for i in range(len(t)) if t.name_of[i] == outer)
    assert all(t.parent[i] == root for i in range(len(t)) if t.name_of[i] != outer
               and t.names[t.name_of[i]] == "L.inner")


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--quick"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "paper_al", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
