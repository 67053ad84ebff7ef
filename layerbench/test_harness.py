"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest layerbench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import run
import workloads
from workloads import Case

BENCHMARK = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


SWEEPS = 2


def tiny(rcb, seed):
    """Three quick ops; the cycle fails the kappa gate."""
    return [Case(f"wheel-8-s{seed}", rcb.gen_family("wheel", 8)),
            Case("cycle-6", rcb.gen_family("cycle", 6)),
            Case("prism-4", rcb.gen_family("prism", 4), exact=True)]


@pytest.fixture
def run_tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Plan(tiny, 1.0, SWEEPS, range(9), 1))

    def go(seed: int, trace: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "tiny", "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace)])
        assert code == 0
        last = json.loads(out.getvalue().splitlines()[-1])
        stem = f"tiny-s{seed}-t{trace}"
        saved = json.loads((run.OUT / f"{stem}.report.json").read_text())
        rows = [json.loads(line) for line in open(run.OUT / f"{stem}.ops.jsonl")]
        return last, saved, rows

    return go


def test_metric_names_match_benchmark_json(run_tiny):
    untraced, _, _ = run_tiny(3, 0)
    traced, _, _ = run_tiny(3, 1)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    for report, key in ((untraced, "end_to_end"), (traced, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {name: m["unit"] for name, m in report["metrics"].items()}
        assert got == declared
    assert set(run.PER_LAYER) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_rejected_graph_is_a_failed_op_not_an_abort(run_tiny):
    report, _, rows = run_tiny(3, 0)
    assert report["correct"] is True
    # one round; every tiny graph is small, so each op runs SWEEPS times
    assert report["attempted"] == len(rows) == 3 * SWEEPS
    assert report["failed"] == SWEEPS
    outcomes = {row["id"]: row["outcome"] for row in rows}
    assert outcomes == {"wheel-8-s3": "ok", "cycle-6": "error", "prism-4": "ok"}
    ok_share = report["metrics"]["ok_share"]["value"]
    assert ok_share == pytest.approx(2 / 3)
    # every op, the rejected one too, timed the reference job beside it
    assert all(row["ref_ms"] > 0 for row in rows)


def test_same_seed_same_fingerprint(run_tiny):
    first = run_tiny(5, 0)[1]["fingerprint"]
    assert run_tiny(5, 0)[1]["fingerprint"] == first
    assert run_tiny(6, 0)[1]["fingerprint"] != first


def test_traced_run_counts_layers(run_tiny):
    metrics = run_tiny(3, 1)[0]["metrics"]
    # wheel-8 and prism-4 each pass the kappa gate once; the cycle is rejected there
    assert metrics["connectivity.kappa_calls"]["value"] == 3
    assert metrics["rainbow.exact_calls"]["value"] == 1
    assert metrics["construct.fallback_steps"]["value"] >= 1  # prism-4 takes the fallback
    assert metrics["graphs.gen_ms"]["value"] > 0


def test_independent_check_rejects_a_broken_coloring():
    from check import coloring_problem, kappa_at_least_3, op_problem, rainbow_gap
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    good = [[0, 1, 1], [1, 2, 2], [2, 3, 1], [0, 3, 2]]
    assert coloring_problem(4, square, good, 2) is None
    assert rainbow_gap(4, [[u, v, 1] for u, v in square]) == (0, 2)
    assert "cover" in coloring_problem(4, square, good[:3], 2)
    assert not kappa_at_least_3(4, square)
    assert kappa_at_least_3(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    # the check works kappa out itself instead of trusting the program's report
    claim = {"colors": good, "k": 2, "kappa": 3}
    assert "kappa" in op_problem(4, square, claim)
