"""Unit tests for the value-range detector (detect.quantitative)."""
import numpy as np
import pytest

from repro.detect.quantitative import ValueRangeDetector


def _train_rows(n=100, seed=0):
    g = np.random.default_rng(seed)
    for _ in range(n):
        yield "ev.send", [str(int(g.integers(100, 200))), "10.0.0.1"]


@pytest.fixture()
def trained():
    return ValueRangeDetector(k=6).fit(_train_rows())


def test_constructor_validation():
    with pytest.raises(ValueError):
        ValueRangeDetector(k=0)


def test_normal_value_in_range(trained):
    assert not trained.line_flag("ev.send", ["150", "10.0.0.1"])


def test_huge_value_flagged(trained):
    assert trained.line_flag("ev.send", ["99999999", "10.0.0.1"])


def test_tiny_value_flagged(trained):
    assert trained.line_flag("ev.send", ["-5000", "10.0.0.1"])


def test_categorical_slot_ignored(trained):
    # second slot is an IP -> never numeric-modelled, never flags
    assert not trained.line_flag("ev.send", ["150", "255.255.255.255"])


def test_unknown_event_passes(trained):
    assert not trained.line_flag("ev.unknown", ["99999999"])


def test_min_support_respected():
    d = ValueRangeDetector(min_support=50).fit(
        [("ev.rare", ["5"])] * 10)
    assert d.n_models() == 0
    assert not d.line_flag("ev.rare", ["999999"])


def test_session_flag_any(trained):
    lines = [("ev.send", ["150", "a"]), ("ev.send", ["99999999", "a"])]
    assert trained.session_flag(lines)
    assert not trained.session_flag([("ev.send", ["150", "a"])])


def test_constant_training_values_still_works():
    d = ValueRangeDetector(k=6).fit([("e", ["7"])] * 20)
    assert not d.line_flag("e", ["7"])
    assert d.line_flag("e", ["700000"])


def test_non_numeric_value_at_modelled_slot_passes(trained):
    assert not trained.line_flag("ev.send", ["not-a-number", "x"])


def test_k_controls_sensitivity():
    rows = list(_train_rows())
    tight = ValueRangeDetector(k=1.0).fit(rows)
    loose = ValueRangeDetector(k=50.0).fit(rows)
    borderline = ["260", "a"]
    assert tight.line_flag("ev.send", borderline)
    assert not loose.line_flag("ev.send", borderline)


def test_n_models_counts_slots(trained):
    assert trained.n_models() == 1  # only the numeric slot

