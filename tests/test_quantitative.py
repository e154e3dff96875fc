"""Unit tests for the value-range detector (detect.quantitative)."""
import pickle

import numpy as np
import pyarrow as pa
import pytest

from repro.detect.quantitative import ValueRangeDetector, _numeric, _numeric_column


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
    assert d._slots == {}
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
    # one slot model: only the numeric slot
    assert [(e, slot) for e, pairs in trained._slots.items() for slot, _ in pairs] == \
        [("ev.send", 0)]


def _reference_line_flag(d, event_id, values):
    """The per-slot lookup the fit-time slot index replaces."""
    models = {(e, slot): model for e, pairs in d._slots.items() for slot, model in pairs}
    for slot, v in enumerate(values):
        model = models.get((event_id, slot))
        x = None if model is None else _numeric(v)
        if x is not None and not model.in_range(x, d.k):
            return True
    return False


def test_slot_index_follows_second_fit():
    g = np.random.default_rng(3)
    d = ValueRangeDetector(k=6).fit(
        ("ev.a", ["x", str(int(g.integers(100, 200)))]) for _ in range(50))
    assert d.line_flag("ev.a", ["x", "5000"])
    assert not d.line_flag("ev.b", ["5000", "1"])
    # the second fit replaces the first: ev.a is modelled on its five new
    # values alone, and ev.b is new
    d.fit([("ev.a", ["x", str(int(g.integers(4900, 5100)))]) for _ in range(5)]
          + [("ev.b", [str(int(g.integers(10, 20))), "7"]) for _ in range(50)])
    assert not d.line_flag("ev.a", ["x", "5000"])
    assert d.line_flag("ev.a", ["x", "150"])
    assert d.line_flag("ev.b", ["5000", "7"])
    assert d.line_flag("ev.b", ["15", "9000"])
    probes = [(e, [str(a), str(b)]) for e in ("ev.a", "ev.b", "ev.c")
              for a in (-50, 15, 150, 5000, 10 ** 6) for b in (1, 7, 150, 5000)]
    probes += [("ev.a", []), ("ev.a", ["x"]), ("ev.b", ["15"]), ("ev.b", ["15", "7", "1e9"])]
    assert [d.line_flag(e, v) for e, v in probes] == \
        [_reference_line_flag(d, e, v) for e, v in probes]


def test_second_fit_predicts_like_fresh_fit():
    first = list(_train_rows(n=100, seed=1)) + [("ev.a", ["7"])] * 20
    # ev.send falls below min_support in the second input
    second = list(_train_rows(n=3, seed=2)) + [("ev.b", ["40", "x"])] * 20
    refit = ValueRangeDetector(k=6).fit(first).fit(second)
    fresh = ValueRangeDetector(k=6).fit(second)
    probes = [(e, [str(a), "x"]) for e in ("ev.send", "ev.a", "ev.b")
              for a in (-5000, 7, 40, 150, 99999999)]
    assert [refit.line_flag(e, v) for e, v in probes] == \
        [fresh.line_flag(e, v) for e, v in probes]
    assert list(refit._slots) == list(fresh._slots) == ["ev.b"]


def test_pickled_detector_flags_like_original(trained):
    copy = pickle.loads(pickle.dumps(trained))
    probes = [(e, [str(a), ip]) for e in ("ev.send", "ev.unknown")
              for a in (-5000, 0, 99, 150, 260, 99999999, "x") for ip in ("10.0.0.1", "7")]
    assert [copy.line_flag(e, v) for e, v in probes] == \
        [trained.line_flag(e, v) for e, v in probes]
    assert any(trained.line_flag(e, v) for e, v in probes)


def test_pickle_size_independent_of_training_values():
    small = ValueRangeDetector(k=6).fit(_train_rows(n=100))
    large = ValueRangeDetector(k=6).fit(_train_rows(n=20000))
    assert len(pickle.dumps(large)) == len(pickle.dumps(small))


def test_non_finite_training_value_does_not_poison_slot():
    rows = [("t", [str(v)]) for v in range(100, 120)]
    d = ValueRangeDetector().fit(rows + [("t", ["nan"]), ("t", ["inf"])])
    # a NaN median and scale would flag every later line of the template
    assert not d.line_flag("t", ["105"])
    assert d.line_flag("t", ["100000"])
    assert not d.line_flag("t", ["nan"]) and not d.line_flag("t", ["-inf"])
    assert d._slots == ValueRangeDetector().fit(rows)._slots


@pytest.mark.parametrize("token,value", [
    ("150", 150.0), ("-0.5", -0.5), (".5", 0.5), ("1e3", 1000.0), ("+7", 7.0),
    ("1_000", None), (" 12 ", None), ("٣", None), ("12\n", None),
    ("nan", None), ("inf", None), ("-Infinity", None), ("1e999", None), ("x1", None), (None, None),
])
def test_numeric_is_finite_float_or_none(token, value):
    assert _numeric(token) == value


def _odd_tokens(n, seed):
    """Seeded tokens of number-like characters: digits, signs, points,
    exponents, underscores, whitespace, a final newline, non-ASCII digits
    and the words of non-finite floats."""
    g = np.random.default_rng(seed)
    alphabet = list("0123456789") * 3 + list("+-.eE_ \t\n\v") + ["\u0663", "\u00b2", "\uff11",
                                                                 "nan", "inf", "Infinity"]
    return ["".join(g.choice(alphabet, int(g.integers(0, 6)))) for _ in range(n)]


def test_line_flags_equal_line_flag():
    g = np.random.default_rng(5)
    d = ValueRangeDetector(k=6).fit(
        [("ev.a", ["x", str(int(g.integers(100, 200))), str(int(g.integers(1, 9)))])
         for _ in range(60)] + [("ev.b", [f"{g.normal(0.5, 0.01):.4f}"]) for _ in range(60)])
    tokens = ["150", "5000", "-0.5", ".5", "0.52", "1e3", "1_000", "nan", "inf", "-inf", "1e999",
              "+160", "160.", "00150", "x", "", "٣", " 150", "1e-400", "9" * 400, "5000\n"]
    lines = [(e, [a, b, c][:n]) for e in ("ev.a", "ev.b", "ev.c")
             for a in tokens for b in tokens[:6] for c in ("3", "70", "q") for n in (0, 1, 2, 3)]
    # the modelled slots of ev.a get seeded odd tokens too
    odd = _odd_tokens(20000, seed=6)
    lines += [("ev.a", ["x", a, b]) for a, b in zip(odd[::2], odd[1::2])]
    events = pa.array([e for e, _ in lines], pa.string())
    variables = pa.array([v for _, v in lines], pa.list_(pa.string()))
    expect = [d.line_flag(e, v) for e, v in lines]
    assert d.line_flags(events, variables).tolist() == expect
    assert 0 < sum(expect) < len(expect)
    # a sliced column reads its own rows
    assert d.line_flags(events[7:], variables[7:]).tolist() == expect[7:]
    # the column parse is the per-value one, bit for bit
    values = tokens + odd
    np.testing.assert_array_equal(
        _numeric_column(pa.array(values, pa.string())),
        [np.nan if x is None else x for x in map(_numeric, values)])
