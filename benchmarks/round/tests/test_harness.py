"""Harness arithmetic: percentile rule, span self time, shares, verdicts."""

import json

import pytest
from harness import (
    InsufficientSamples,
    SpanRecorder,
    agreement,
    failed_share,
    jsd,
    percentile,
    quartiles,
    self_ms_by_name,
    self_times,
    spread,
    worsening,
)


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(199)), 95)  # 9.95 samples beyond p95
    assert percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(150)), 5)  # the rule is symmetric
    with pytest.raises(ValueError):
        percentile([1.0] * 500, 100)


def _span(id_, name, start, end, parent=None, t=None):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "t": t}


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0, "request", 0.0, 10.0),
        _span(1, "submit", 1.0, 4.0, parent=0),
        _span(2, "snapshot", 3.0, 6.0, parent=0),  # overlaps submit by 1
        _span(3, "decode", 1.5, 2.0, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)
    by_name = self_ms_by_name(spans)
    assert by_name["submit"] == [pytest.approx(2500.0)]


def test_recorder_nests_spans_and_writes_jsonl(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("request", t=7):
        with recorder.span("submit", t=7):
            pass
        with recorder.span("snapshot", t=7):
            pass
    with recorder.span("request", t=8):
        pass
    parents = [s["parent"] for s in recorder.spans]
    assert parents == [None, 0, 0, None]
    assert all(s["end"] >= s["start"] for s in recorder.spans)
    path = tmp_path / "spans.jsonl"
    recorder.write_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [s["name"] for s in lines] == ["request", "submit", "snapshot", "request"]
    assert lines[1]["t"] == 7
    selfs = self_times(lines)
    assert selfs[0] <= lines[0]["end"] - lines[0]["start"]


def test_failed_share_counts_failures_against_attempts():
    assert failed_share(0, 5317) == 0.0
    assert failed_share(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(5, 4)


def test_quartiles_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(5.5 / 5.5)


def test_worsening_follows_the_metrics_direction():
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.10)
    with pytest.raises(ValueError):
        worsening(1.0, 1.0, "sideways")


def test_agreement_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    shifted = [v * 1.2 for v in steady]
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert agreement(steady, steady, 0.10, "lower")["verdict"] == "agrees"
    assert agreement(steady, shifted, 0.10, "lower")["verdict"] == "disagrees"
    assert agreement(steady, noisy, 0.10, "lower")["verdict"] == "unresolved"
    # A bound must be at least twice the between-set difference: 20 % apart
    # is inside a 25 % bound, yet too close to it to call the sets agreeing.
    verdict = agreement(steady, shifted, 0.25, "higher")
    assert verdict["verdict"] == "unresolved"
    assert verdict["difference"] == pytest.approx(-0.2)
    assert agreement(steady, shifted, 0.40, "higher")["verdict"] == "agrees"


def test_jsd_is_zero_for_equal_and_one_for_disjoint_histograms():
    assert jsd([5, 5, 0], [10, 10, 0]) == pytest.approx(0.0)
    assert jsd([1, 0], [0, 1]) == pytest.approx(1.0)
    assert 0.0 < jsd([3, 1], [1, 3]) < 1.0
    assert jsd([0, 0], [1, 1]) == 1.0  # an empty snapshot is maximally wrong
