"""Unit tests of the benchmark's own arithmetic: python3 -m pytest bench -q"""

import statistics
import sys
import time
import types

import pytest

import reference
import tracer
from summary import classify, percentile, quartiles, relative_spread


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    leaf = t.wrap("x.leaf", clock.spend)

    def middle():
        clock.spend(2)
        leaf(3)

    middle = t.wrap("x.middle", middle)

    def outer():
        clock.spend(1)
        middle()
        leaf(4)
        clock.spend(0.5)

    t.wrap("x.outer", outer)()
    s = t.stats
    assert s["x.outer"].self_s == 1.5 and s["x.outer"].max_s == 10.5
    assert s["x.middle"].self_s == 2 and s["x.middle"].max_s == 5
    assert s["x.leaf"].calls == 2 and s["x.leaf"].self_s == 7 and s["x.leaf"].max_s == 4
    assert sum(f.self_s for f in s.values()) == clock.now


def test_excluded_time_leaves_self_and_max_times():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def inner():
        clock.spend(1)
        t.exclude(2)
        clock.spend(2)

    inner = t.wrap("x.inner", inner)
    t.wrap("x.outer", lambda: (clock.spend(1), inner()))()
    assert t.stats["x.inner"].self_s == 1 and t.stats["x.inner"].max_s == 1
    assert t.stats["x.outer"].self_s == 1 and t.stats["x.outer"].max_s == 2


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.spend(2)
        raise ValueError("no")

    outer_calls = []

    def outer():
        clock.spend(1)
        with pytest.raises(ValueError):
            t.wrap("x.boom", boom)()
        outer_calls.append(1)

    t.wrap("x.outer", outer)()
    assert outer_calls and t.stats["x.boom"].self_s == 2 and t.stats["x.outer"].self_s == 1


def test_layer_shares_sum_to_one():
    clock = FakeClock()
    t = tracer.Tracer(clock)
    brute = t.wrap("brute.hz_counts_brute", clock.spend)
    sweep = t.wrap("verify.sweep_hz", lambda: (clock.spend(1), brute(3)))
    sweep()
    m = tracer.layer_metrics(t, wall_s=5.0)
    assert m["verify.self_s"] == 1 and m["brute.hz_counts_s"] == 3
    assert m["other.share"] == pytest.approx(0.2)
    assert sum(v for k, v in m.items() if k.endswith("share")) == pytest.approx(1.0)


def test_install_wraps_every_binding_and_names_missing_functions(monkeypatch):
    def main(argv=None):
        return 0

    package = types.ModuleType("fakepkg")
    cli = types.ModuleType("fakepkg.cli")
    user = types.ModuleType("fakepkg.user")
    cli.main = user.main = package.main = main
    for module in (package, cli, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    t = tracer.Tracer(FakeClock())
    wrapped, missing = tracer.install(t, "fakepkg")
    assert wrapped == ["cli.main"]
    assert "brute.hz_counts_brute" in missing and "exact.BinomialPoly.to_monomial" in missing
    assert cli.main is user.main is package.main is not main
    user.main()
    assert t.stats["cli.main"].calls == 1


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert percentile([7], 90) == 7
    assert percentile([1, 2, 3], 0) == 1 and percentile([1, 2, 3], 100) == 3
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert relative_spread([10, 10, 10, 10]) == 0


def test_classify_regressed_beyond_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    verdict, change = classify(base, [12.0, 12.1, 11.9, 12.0, 12.05], bound=0.1, better="lower")
    assert verdict == "regressed" and change == pytest.approx(0.2)


def test_classify_unchanged_within_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert classify(base, [10.2, 10.0, 10.3, 10.1, 10.2], 0.1, "lower")[0] == "unchanged"


def test_classify_unresolved_when_spread_exceeds_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert classify(noisy, [10.5, 9.5, 13.0, 8.5, 10.4], 0.1, "lower")[0] == "unresolved"


def test_classify_improved_needs_every_run_better():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert classify(base, [8.0, 8.1, 7.9], 0.1, "lower")[0] == "improved"
    assert classify(base, [8.0, 8.1, 10.2], 0.1, "lower")[0] == "unresolved"


def test_classify_respects_direction():
    base = [100.0, 101.0, 99.0]
    assert classify(base, [80.0, 81.0, 79.0], 0.1, "higher")[0] == "regressed"
    assert classify(base, [80.0, 81.0, 79.0], 0.1, "lower")[0] == "improved"
    with pytest.raises(ValueError):
        classify(base, base, 0.1, "sideways")


def test_interleaved_reference_slices_run_during_the_block():
    with reference.Interleaved() as ref:
        end = time.perf_counter() + 10 * reference.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert ref.slices >= 3 and ref.mean_slice_s() > 0
    with pytest.raises(RuntimeError):
        reference.Interleaved().mean_slice_s()
