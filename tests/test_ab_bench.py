"""Spark-free tests of tools/ab_bench.py's acceptance verdicts and of its
rejection of a claim BENCHMARK.json does not declare."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab_bench.py")
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [{"name": "rate", "unit": "lines/s", "better": "higher", "bound": 0.25},
           {"name": "lat", "unit": "s", "better": "lower", "bound": 0.25}]


def _runs(values: dict[str, list[tuple[float, float]]]) -> dict:
    """Per side, one run result per seed from (parent, change) values."""
    n = len(next(iter(values.values())))
    return {side: [{"result": {"metrics": {m: {"value": v[i][k]} for m, v in values.items()}}}
                   for i in range(n)] for k, side in enumerate(("parent", "change"))}


def test_claim_met_needs_nine_of_ten_wins_and_a_gap_over_the_spread():
    base = [100.0, 104.0, 96.0, 110.0, 90.0, 102.0, 98.0, 106.0, 94.0, 100.0]
    lat = [(1.0, 1.0)] * 10
    # every pair +20%: the median gap (20) exceeds the parent's spread (~8)
    won = ab_bench.compare(_runs({"rate": [(p, 1.2 * p) for p in base], "lat": lat}),
                           METRICS, claimed="rate")
    assert won["rate"]["change_wins"] == 10 and won["rate"]["claim_met"]
    assert "within_bound" not in won["rate"] and won["lat"]["within_bound"]
    # 8 of 10 wins is not enough, however large the gap
    eight = [(p, 1.5 * p) for p in base[:8]] + [(p, 0.9 * p) for p in base[8:]]
    assert not ab_bench.compare(_runs({"rate": eight, "lat": lat}), METRICS,
                                claimed="rate")["rate"]["claim_met"]
    # 10 of 10 wins by a gap inside the parent's quartile spread is not enough
    small = [(p, p + 1.0) for p in base]
    assert not ab_bench.compare(_runs({"rate": small, "lat": lat}), METRICS,
                                claimed="rate")["rate"]["claim_met"]
    # fewer than 10 pairs is not enough, however clear the wins
    three = [(p, 1.2 * p) for p in base[:3]]
    assert not ab_bench.compare(_runs({"rate": three, "lat": lat[:3]}), METRICS,
                                claimed="rate")["rate"]["claim_met"]
    # a pair where one side gave no result counts as not won: 9 wins of 11
    # run pairs fall short, though all 9 pairs with both sides were won
    failed = _runs({"rate": [(p, 1.2 * p) for p in base[:9]] + [(100.0, 120.0)] * 2,
                    "lat": lat + lat[:1]})
    failed["change"][9] = failed["parent"][10] = None
    out = ab_bench.compare(failed, METRICS, claimed="rate")["rate"]
    assert out["pairs"] == 9 and out["change_wins"] == 9 and not out["claim_met"]


@pytest.mark.parametrize("better,parent,change,ok", [
    ("lower", 2.0, 2.5, True),     # exactly the 25% bound
    ("lower", 2.0, 2.51, False),
    ("lower", 2.0, 1.0, True),
    ("higher", 100.0, 75.0, True),
    ("higher", 100.0, 74.0, False),
    ("higher", 100.0, 300.0, True),
])
def test_within_bound(better, parent, change, ok):
    metrics = [{"name": "m", "unit": "u", "better": better, "bound": 0.25}]
    out = ab_bench.compare(_runs({"m": [(parent, change)] * 3}), metrics)
    assert out["m"]["within_bound"] is ok and "claim_met" not in out["m"]


@pytest.mark.parametrize("claim", ["batch-200k:detect_line_per_s", "batch-2k:detect_f1",
                                   "batch-200k", "stream-250:parse.s"])
def test_unknown_claim_rejected_before_any_run(claim, monkeypatch):
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(SystemExit):
        ab_bench.main(["--parent", "HEAD", "--seeds", "1", "--change", "x", "--claim", claim])
