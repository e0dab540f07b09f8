"""Self-time arithmetic and layer wrapping of the benchmark tracer."""

import numpy as np
import pytest

import tracer as tr


def span(name, parent, start, end, work=0):
    return [name, parent, start, end, work]


# root [0,10] > a [1,4] > g [2,3];  root > b [5,9]
TREE = [
    span("root", -1, 0.0, 10.0),
    span("a", 0, 1.0, 4.0),
    span("g", 1, 2.0, 3.0, 7),
    span("b", 0, 5.0, 9.0, 2),
]


@pytest.mark.parametrize("intervals, lo, hi, want", [
    ([], 0.0, 1.0, 0.0),
    ([(1.0, 2.0), (3.0, 5.0)], 0.0, 10.0, 3.0),
    ([(1.0, 5.0), (3.0, 7.0)], 0.0, 10.0, 6.0),      # overlap counted once
    ([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0, 8.0),      # nested
    ([(-2.0, 1.0), (8.0, 12.0)], 0.0, 10.0, 3.0),    # clipped to the parent
    ([(11.0, 12.0)], 0.0, 10.0, 0.0),
])
def test_covered_length(intervals, lo, hi, want):
    assert tr.covered_length(intervals, lo, hi) == pytest.approx(want)


def test_self_time_is_length_minus_children():
    assert tr.self_times(TREE) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_add_up_to_the_root():
    assert sum(tr.self_times(TREE)) == pytest.approx(10.0)
    assert tr.root_gaps(TREE) == pytest.approx([0.0])
    two_roots = TREE + [span("root", -1, 20.0, 21.0), span("a", 4, 20.5, 20.75)]
    assert tr.root_gaps(two_roots) == pytest.approx([0.0, 0.0])


def test_overlapping_children_are_not_subtracted_twice():
    spans = [span("root", -1, 0.0, 10.0), span("a", 0, 1.0, 5.0), span("b", 0, 3.0, 7.0)]
    assert tr.self_times(spans)[0] == pytest.approx(4.0)


def test_aggregate_counts_recursion_once_in_inclusive_time():
    spans = [span("f", -1, 0.0, 4.0), span("f", 0, 1.0, 3.0, 5), span("g", 1, 1.5, 2.0)]
    agg = tr.aggregate(spans)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == pytest.approx(4.0)
    assert agg["f"]["self_s"] == pytest.approx(2.0 + 1.5)
    assert agg["f"]["work"] == 5
    assert agg["g"] == {"calls": 1, "s": pytest.approx(0.5), "self_s": pytest.approx(0.5),
                        "work": 0}


def test_wrap_links_parents_counts_work_and_closes_on_error():
    tracer = tr.Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", lambda x: x, work=lambda a, k, r: len(a[0]))
    outer = tracer.wrap("outer", lambda: inner([1, 2, 3]))
    failing = tracer.wrap("failing", boom)
    outer()
    with pytest.raises(ValueError):
        failing()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "failing"]
    assert tracer.spans[1][1] == 0 and tracer.spans[0][1] == -1 and tracer.spans[2][1] == -1
    assert tracer.spans[1][4] == 3
    assert all(s[3] >= s[2] > 0 for s in tracer.spans)
    assert tracer._stack == []


def test_unreadable_work_counts_zero():
    tracer = tr.Tracer()
    wrapped = tracer.wrap("f", lambda: None, work=lambda a, k, r: a[5])
    wrapped()
    assert tracer.spans[0][4] == 0
    assert tracer.work_unreadable == {"f"}


def test_install_patches_every_from_import_binding():
    import mimo_recal
    from mimo_recal import analysis, calibration, cli, hardware, numerics

    originals = {name: getattr(numerics, name) for name in ("bussgang_mu", "bussgang_lambda")}
    slp = calibration.slp_solve
    tracer = tr.Tracer()
    undo, absent = tr.install(tracer)
    try:
        assert absent == []
        for mod in (numerics, analysis, calibration, hardware, mimo_recal):
            assert mod.bussgang_mu is not originals["bussgang_mu"]
        assert cli.slp_solve is calibration.slp_solve is mimo_recal.slp_solve
        assert cli.slp_solve is not slp
        # a call through hardware's own binding reaches the numerics spans
        hpa = hardware.HpaModel(a0=10.0, t=1.0 + 0j, a_sat=2.0)
        hardware.bussgang_decompose(hpa, 1.0)
        names = [s[0] for s in tracer.spans]
        assert names == ["hardware.bussgang_decompose", "numerics.bussgang_mu",
                         "numerics.bussgang_lambda"]
        assert [s[1] for s in tracer.spans] == [-1, 0, 0]
        assert tracer.spans[1][4] == 1
    finally:
        tr.unpatch(undo)
    assert numerics.bussgang_mu is originals["bussgang_mu"]
    assert calibration.bussgang_mu is originals["bussgang_mu"]
    assert cli.slp_solve is slp


def test_missing_targets_are_absent_not_fatal():
    targets = (("calibration", "no_such_function", None, None),
               ("no_such_module", "f", None, None),
               ("numerics", "bussgang_mu", "elems", tr.TARGETS[0][3]))
    tracer = tr.Tracer()
    undo, absent = tr.install(tracer, targets)
    try:
        from mimo_recal import numerics

        numerics.bussgang_mu(np.array([1.0, 2.0, 3.0]))
    finally:
        tr.unpatch(undo)
    assert absent == ["calibration.no_such_function", "no_such_module.f"]
    assert [s[0] for s in tracer.spans] == ["numerics.bussgang_mu"]
    assert tracer.spans[0][4] == 3


def test_metric_names_are_valid():
    for module, function, _, _ in tr.TARGETS:
        name = tr.metric_prefix(module, function)
        assert name[0].isalpha() and len(name) + len(".self_s") <= 64
