"""Benchmark: regenerate EXPERIMENTS.md tables 1-8 at the documented scale.

Each table runs inside pytest-benchmark (one round — these are
experiment harnesses, not micro-benchmarks), is printed, and is persisted
as ``results/table<N>.{txt,csv}`` so the numbers in EXPERIMENTS.md can be
re-diffed. Spell is O(lines x templates x LCS) in pure Python, so table
5's Spell rows are measured on a 6k-line prefix (recorded in the table's
lines_per_s).
"""
import os

import pytest

from repro.evaluation import tables

RESULTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "results")
KWARGS = {5: {"n_sessions": 2500, "spell_max_lines": 6000}}


@pytest.mark.parametrize("n", range(1, 9))
def test_table(spark, benchmark, n):
    run = getattr(tables, f"run_table{n}")
    table = benchmark.pedantic(lambda: run(spark, **KWARGS.get(n, {})),
                               rounds=1, iterations=1)
    name = f"table{n}"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(table.to_string(index=False) + "\n")
    table.to_csv(os.path.join(RESULTS_DIR, f"{name}.csv"), index=False)
    print(f"\n=== {name} ===")
    print(table.to_string(index=False))
    assert len(table) > 0
