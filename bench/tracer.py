"""Span tracing of mapenum's public functions, installed from outside the package.

Each declared public function is replaced, in every ``mapenum`` module that
holds a reference to it, by a wrapper that records a span: its duration and
the part of that duration covered by child spans. Spans are aggregated per
function as they close, so a pass keeps only a small table in memory.

Only layer-boundary functions are declared. Per-pairing, per-permutation and
per-term helpers (``exact.cycle_count``, ``exact.binomial``,
``arrays._rooted_forest``) are deliberately left unwrapped: their time counts
as self time of the calling function, and wrapping them would swamp the
measurement with tracing overhead. Generator functions are never declared,
because a span around one would cover only the creation of the generator.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

# Public functions per layer. A name that the installed package lacks is
# skipped and reported, so the trace survives functions being merged or
# renamed. "Class.method" names a method.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "verify": (
        "sweep_hz",
        "sweep_gs",
        "sweep_gs_simplified",
        "sweep_surjections",
        "sweep_series_from_surjections",
        "sweep_canonical_from_vertical",
        "sweep_vertical",
        "sweep_omega",
        "sweep_gamma",
        "sweep_gamma_noarrows",
        "sweep_lemmas",
        "run_suite",
    ),
    "brute": (
        "hz_counts_brute",
        "gs_counts_brute",
        "paired_surjection_count_brute",
        "canonical_array_count_brute",
        "gamma_count_brute",
        "gamma_count_brute_with_pair",
        "omega_count_brute",
        "vertical_array_count_brute",
    ),
    "formulas": (
        "hz_series",
        "gs_series",
        "gs_series_simplified",
        "series_from_surjections",
        "vertical_count_formula",
        "gamma_count_formula",
        "gamma_count_formula_noarrows",
        "omega_count_formula",
        "canonical_from_vertical",
        "genus_counts",
    ),
    "exact": ("BinomialPoly.to_monomial", "binomial_to_monomial"),
    "arrays": (
        "check_nonempty",
        "check_balance",
        "check_balance_mixed",
        "check_balance_vertex",
        "check_full",
        "check_forest",
        "classify_columns",
        "is_irreducible",
    ),
    "transforms": (
        "arrow_simplify_to_mark",
        "arrow_simplify_retarget",
        "column_pointing",
        "column_merging",
        "irreducible_closure",
        "labelled_to_canonical",
    ),
}


def _tallied_pairings(args, result) -> int:
    return result.total()


def _binomial_terms(args, result) -> int:
    return len(args[0].coeffs)


# Work counters recorded at the same boundaries as the spans:
# function -> (counter name, count taken from the call and its result).
COUNTERS: dict[str, tuple[str, Callable]] = {
    "brute.hz_counts_brute": ("brute.tallied_pairings", _tallied_pairings),
    "brute.gs_counts_brute": ("brute.tallied_pairings", _tallied_pairings),
    "exact.BinomialPoly.to_monomial": ("exact.to_monomial_terms", _binomial_terms),
}


class FunctionStats:
    """Aggregate of the closed spans of one function."""

    __slots__ = ("calls", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0


class Tracer:
    """Nested-span recorder; self time is a span minus its child spans.

    Single-threaded by design: the benchmark runs each pass in one thread,
    so open spans form a stack.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, FunctionStats] = {}
        self.counters: dict[str, int] = {}
        # per open span: [start, time covered by children, time excluded within]
        self._stack: list[list[float]] = []

    def enter(self) -> None:
        self._stack.append([self.clock(), 0.0, 0.0])

    def exit(self, name: str) -> None:
        start, children, excluded = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][1] += duration
            self._stack[-1][2] += excluded
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = FunctionStats()
        entry.calls += 1
        entry.self_s += duration - children
        entry.max_s = max(entry.max_s, duration - excluded)

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` spent inside the open spans out of their times."""
        if self._stack:
            self._stack[-1][1] += seconds
            self._stack[-1][2] += seconds

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, func: Callable, counter=None) -> Callable:
        """Return ``func`` recording one span named ``name`` per call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit(name)
            if counter is not None:
                self.count(counter[0], counter[1](args, result))
            return result

        return traced


def _resolve(owner, dotted: str):
    """(object holding the attribute, attribute name, value) or None if absent."""
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None or not callable(value):
        return None
    return owner, parts[-1], value


def install(tracer: Tracer, package_name: str = "mapenum") -> tuple[list[str], list[str]]:
    """Wrap every declared function of an imported package; return (wrapped, missing).

    A module-level function is replaced wherever a loaded module of the
    package binds it, so ``from .x import f`` references are traced too.
    """
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == package_name or key.startswith(package_name + "."))
    ]
    wrapped, missing = [], []
    for layer, names in LAYERS.items():
        module = sys.modules.get(f"{package_name}.{layer}")
        for dotted in names:
            span = f"{layer}.{dotted}"
            found = _resolve(module, dotted) if module is not None else None
            if found is None:
                missing.append(span)
                continue
            owner, attr, original = found
            replacement = tracer.wrap(span, original, COUNTERS.get(span))
            if owner is module:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, replacement)
            else:
                setattr(owner, attr, replacement)
            wrapped.append(span)
    return wrapped, missing


def _self_s(stats: dict[str, FunctionStats], *names: str) -> float:
    return sum(stats[n].self_s for n in names if n in stats)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    stats, counters = tracer.stats, tracer.counters
    m: dict[str, float] = {}
    m["brute.hz_counts_s"] = _self_s(stats, "brute.hz_counts_brute")
    m["brute.gs_counts_s"] = _self_s(stats, "brute.gs_counts_brute")
    tally_s = m["brute.hz_counts_s"] + m["brute.gs_counts_s"]
    m["brute.tallied_pairings"] = counters.get("brute.tallied_pairings", 0)
    m["brute.tallied_pairings_per_s"] = m["brute.tallied_pairings"] / tally_s if tally_s else 0.0
    m["brute.canonical_s"] = _self_s(stats, "brute.canonical_array_count_brute")
    canonical = stats.get("brute.canonical_array_count_brute")
    m["brute.canonical_max_call_s"] = canonical.max_s if canonical else 0.0
    m["brute.surjection_s"] = _self_s(stats, "brute.paired_surjection_count_brute")
    m["brute.matchings_s"] = _self_s(stats, "brute.gamma_count_brute", "brute.gamma_count_brute_with_pair")
    m["brute.omega_s"] = _self_s(stats, "brute.omega_count_brute", "brute.vertical_array_count_brute")
    m["formulas.gs_series_s"] = _self_s(stats, "formulas.gs_series")
    m["formulas.gs_simplified_s"] = _self_s(stats, "formulas.gs_series_simplified")
    m["formulas.hz_series_s"] = _self_s(stats, "formulas.hz_series")
    m["formulas.substructure_s"] = _self_s(
        stats, "formulas.gamma_count_formula", "formulas.gamma_count_formula_noarrows",
        "formulas.omega_count_formula",
    )
    m["formulas.canonical_from_vertical_s"] = _self_s(
        stats, "formulas.canonical_from_vertical", "formulas.vertical_count_formula"
    )
    m["exact.to_monomial_s"] = _self_s(stats, "exact.BinomialPoly.to_monomial", "exact.binomial_to_monomial")
    m["exact.to_monomial_terms"] = counters.get("exact.to_monomial_terms", 0)
    traced_self = 0.0
    for layer in LAYERS:
        names = [n for n in stats if n.split(".", 1)[0] == layer]
        layer_self = _self_s(stats, *names)
        traced_self += layer_self
        m[f"{layer}.self_s"] = layer_self
        m[f"{layer}.calls"] = sum(stats[n].calls for n in names)
        m[f"{layer}.share"] = layer_self / wall_s
    # time outside every traced span: the benchmark's own driving and checking
    m["other.share"] = (wall_s - traced_self) / wall_s
    return m
