"""Unit tests for the DeepLog-style n-gram detector (detect.ngram)."""
import pickle
import random
from collections import Counter, defaultdict

import pytest

from repro.detect.ngram import BOS, EOS, NGramDetector

FLOW = ["open", "send", "send", "ack", "close"]


@pytest.fixture()
def trained():
    return NGramDetector(h=3, g=2).fit([FLOW] * 50)


def test_constructor_validation():
    with pytest.raises(ValueError):
        NGramDetector(h=0)
    with pytest.raises(ValueError):
        NGramDetector(g=0)


def test_normal_flow_not_flagged(trained):
    assert not trained.is_anomalous(FLOW)


def test_unseen_event_flagged(trained):
    assert trained.is_anomalous(["open", "CRASH", "send", "ack", "close"])


def test_out_of_order_flagged(trained):
    assert trained.is_anomalous(["close", "open", "send", "send", "ack"])


def test_silent_truncation_flagged_via_eos(trained):
    assert trained.is_anomalous(["open", "send"])


def test_vocab_contains_events_and_eos(trained):
    assert set(FLOW) <= trained.vocab
    assert EOS in trained.vocab


def test_top_g_limits_candidates():
    seqs = [["a", x] for x in ["b", "c", "d", "e"]] * 10
    d = NGramDetector(h=1, g=2).fit(seqs)
    cands = d._top_g(("a",))
    assert len(cands) == 2


def test_top_g_unknown_context_none(trained):
    assert trained._top_g(("never-seen",)) is None


def test_backoff_to_shorter_history():
    # exact 3-history unseen but 1-history known -> backoff predicts
    d = NGramDetector(h=3, g=3).fit([["a", "b", "c", "d"]] * 5)
    cands = d._top_g(("zz", "zz", "c"))
    assert cands == ["d"]


def test_multiple_flows_learned():
    f1 = ["a", "b", "c"]
    f2 = ["x", "y", "z"]
    d = NGramDetector(h=2, g=3).fit([f1] * 20 + [f2] * 20)
    assert not d.is_anomalous(f1)
    assert not d.is_anomalous(f2)
    assert d.is_anomalous(["a", "y", "c"])


def test_window_flags_length(trained):
    flags = list(trained._flags(FLOW))
    assert len(flags) == len(FLOW) + 1  # + EOS position


def test_empty_sequence():
    # an empty session is EOS right after BOS: normal only if training saw one
    d = NGramDetector(h=2, g=2).fit([["a"], []])
    assert not d.is_anomalous([])
    assert NGramDetector(h=2, g=2).fit([["a"]]).is_anomalous([])


def test_predict_batches(trained):
    preds = trained.predict([FLOW, ["open", "BAD"]])
    assert preds == [0, 1]


def test_g_one_is_strictest():
    seqs = [["a", "b"], ["a", "c"]] * 10
    strict = NGramDetector(h=1, g=1).fit(seqs)
    loose = NGramDetector(h=1, g=2).fit(seqs)
    # with g=1 only the single most common continuation is allowed
    assert strict.is_anomalous(["a", "c"]) or strict.is_anomalous(["a", "b"])
    assert not loose.is_anomalous(["a", "b"])
    assert not loose.is_anomalous(["a", "c"])


def test_bos_constant_exported():
    assert BOS != EOS


def _random_flows(seed, n=300, vocab="abcdef"):
    rng = random.Random(seed)
    return [[rng.choice(vocab) for _ in range(rng.randint(0, 8))] for _ in range(n)]


def _assert_top_g_is_most_common(d, flows):
    """``d``'s fit-time table against Counter.most_common over ``flows``."""
    tables = [defaultdict(Counter) for _ in range(d.h)]
    for seq in flows:
        padded = [BOS] * d.h + list(seq) + [EOS]
        for i in range(d.h, len(padded)):
            for k in range(1, d.h + 1):
                tables[k - 1][tuple(padded[i - k:i])][padded[i]] += 1
    assert d._top == [{hist: [e for e, _ in counter.most_common(d.g)]
                       for hist, counter in table.items()} for table in tables]


def test_top_g_table_equals_most_common_across_fits():
    # a small g over a small vocabulary cuts through ties, so the
    # fit-time table must keep Counter.most_common's tie order; a second
    # fit's table holds its own flows' counts only
    d = NGramDetector(h=2, g=2)
    for flows in (_random_flows(1), _random_flows(2, vocab="abcdefgh")):
        _assert_top_g_is_most_common(d.fit(flows), flows)
    assert d._top_g(("g",)) is not None


def test_second_fit_predicts_like_fresh_fit():
    first, second = _random_flows(5, vocab="abcd"), _random_flows(6, vocab="cdefg")
    refit = NGramDetector(h=2, g=2).fit(first).fit(second)
    fresh = NGramDetector(h=2, g=2).fit(second)
    probes = first + second + _random_flows(7, vocab="abcdefgh")
    assert refit.vocab == fresh.vocab
    assert refit.predict(probes) == fresh.predict(probes)
    assert any(refit.predict(first))  # "a" and "b" are unseen again


def test_pickle_size_independent_of_training_repeats():
    flows = _random_flows(8, n=20)
    once = NGramDetector(h=3, g=2).fit(flows)
    many = NGramDetector(h=3, g=2).fit(flows * 1000)
    assert len(pickle.dumps(many)) == len(pickle.dumps(once))


def test_is_anomalous_equals_any_window_flag():
    flows = _random_flows(3, n=20)
    d = NGramDetector(h=3, g=2).fit(flows * 5)
    seqs = flows + _random_flows(4, n=500, vocab="abcdefxy")  # x, y never trained
    assert any(d.is_anomalous(s) for s in seqs) and not all(d.is_anomalous(s) for s in seqs)
    # is_anomalous stops at the first flagged window; all windows give the same verdict
    assert [d.is_anomalous(s) for s in seqs] == [any(list(d._flags(s))) for s in seqs]
