"""Order statistics, verdict rules and reference-speed scaling of the benchmark."""

import pytest

from bench import run, speed, stats


def test_tail_reports_highest_percentile_with_ten_beyond():
    value, percentile, samples = stats.tail(list(range(1, 101)))
    assert (value, percentile, samples) == (90, 90.0, 100)
    values = [float(v) for v in range(60, 0, -1)]
    value, percentile, samples = stats.tail(values)
    assert value == 50.0 and samples == 60
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100 * 50 / 60)


def test_tail_with_too_few_samples_falls_back_to_the_minimum():
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)
    assert stats.tail([float(v) for v in range(11)]) == (0.0, 100 / 11, 11)
    with pytest.raises(ValueError):
        stats.tail([])


def test_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert stats.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "improved"
    assert stats.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert stats.verdict(parent, [v * 1.05 for v in parent], "lower", 0.1) == "within bound"
    # fewer than 10 pairs never claims a gain
    assert stats.verdict(parent[:5], [v * 0.8 for v in parent[:5]], "lower", 0.1) == "within bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert stats.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert stats.verdict(noisy, [1.0] * 10, "lower", 0.1) == "improved"
    assert stats.verdict([1.0] * 10, [0.99] * 10, "higher", 0.001) == "worse"


def test_reference_speed_is_the_median_of_the_nearest_timings():
    assert speed.WINDOW == 2
    refs = [0.1, 0.1, 0.1, 0.2, 0.2, 0.9]
    assert speed.local(refs, 3) == pytest.approx(0.15)  # the gap before refs[3] sees refs[1:5]
    assert speed.local(refs, 1) == pytest.approx(0.1)  # refs[0:3]
    assert speed.local(refs, 6) == pytest.approx(0.55)  # after the last: refs[4:6]
    for kind, seconds in speed.REFERENCE_S.items():
        assert speed.scale([2 * seconds] * 4, 2, kind) == pytest.approx(0.5)


def test_end_to_end_scales_every_timing_by_its_factor():
    # ops are [wall, CPU time, scale factor, answered]; set-up timings [wall, factor]
    passes = [{"wall": 4.5, "refs": [0.24] * 3, "ops": [[1.0, 0.8, 0.5, True], [3.0, 2.0, 0.5, True]],
               "rss_kb": 2048, "attempted": 2, "failures": []}]
    values, detail = run.end_to_end(passes, [[0.2, 0.5]])
    assert values["wall_s"] == pytest.approx(2.0) and detail["raw_s"]["wall_s"] == pytest.approx(4.0)
    assert values["cpu_s"] == pytest.approx(1.4)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["op_p50_s"] == pytest.approx(1.0)
    assert values["peak_rss_mb"] == 2.0 and values["ok_ratio"] == 1.0


def test_reference_jobs_run():
    for kind in speed.REFERENCE_S:
        assert 0 < speed.reference(kind) < speed.TIMEOUT_S
