"""Self-time arithmetic, span nesting and the patching of package functions."""

import pytest

import spans


def test_self_time_on_a_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["b.child", 6.0, 7.0, 2],
        ["late", 9.5, 12.0, 0],  # runs past its parent: only 0.5 s counts
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 3.0, 3.0, 1.0, 2.5])


def test_overlapping_children_are_counted_once():
    tree = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 6.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


def test_recorder_links_nested_calls_and_summarizes():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda x: x + 1, "inner")
    outer = recorder.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert inner(0) == 1
    # outer opens at 0, inner runs 1..2, outer closes at 3; inner again 4..5
    assert recorder.spans == [
        ["outer", 0.0, 3.0, -1],
        ["inner", 1.0, 2.0, 0],
        ["inner", 4.0, 5.0, -1],
    ]
    summary = spans.layer_summary(recorder.spans)
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(2.0)
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["total_s"] == pytest.approx(2.0)
    assert summary["inner"]["ms_p50"] == pytest.approx(1000.0)


def test_recorder_closes_the_span_when_the_call_raises():
    recorder = spans.Recorder()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.wrap(boom, "boom")()
    name, start, end, parent = recorder.spans[0]
    assert end >= start and parent == -1
    assert recorder.wrap(lambda: 1, "after")() == 1
    assert recorder.spans[1][3] == -1


def test_replace_reaches_every_module_holding_the_function():
    from dispersion_bandit import cli, evaluation, greedy

    original = greedy.greedy_select

    def marker(*args, **kwargs):
        return original(*args, **kwargs)

    try:
        assert spans.replace("greedy", "greedy_select", lambda fn: marker)
        assert greedy.greedy_select is marker
        assert evaluation.greedy_select is marker
        assert cli.greedy_select is marker
    finally:
        spans.replace("greedy", "greedy_select", lambda fn: original)
    assert cli.greedy_select is original
    assert not spans.replace("greedy", "no_such_function", lambda fn: fn)
