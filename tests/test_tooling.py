"""Checks on the shipped code itself."""

import ast
import hashlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_assert_statements(path):
    # python -O strips assert statements, so no invariant may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_true_division(path):
    # all arithmetic is exact: a `/` on ints would produce a float
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert lines == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT))
)
def test_as_count_takes_a_template_not_an_f_string(path):
    # _as_count formats its error context only when it raises; an f-string
    # argument would be built on every call, failing or not
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_as_count"
        and any(isinstance(arg, ast.JoinedStr) for arg in [*node.args, *(k.value for k in node.keywords)])
    ]
    assert lines == []


CLOSED_FORMS = {"formulas", "verify", "cli"}


def _package_imports(module):
    """The mapenum modules that mapenum.<module> imports, read from its AST."""
    package = ROOT / "src" / "mapenum"
    path = package / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import names a module of this package
            base = ".".join(filter(None, ["mapenum" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    modules = {p.stem for p in package.glob("*.py")}
    return {name.split(".")[1] for name in names if name.startswith("mapenum.")} & modules


def test_oracles_do_not_import_closed_forms():
    # an oracle that called a closed form would certify the formula against itself
    seen, todo, offenders = set(), ["brute"], []
    while todo:
        module = todo.pop()
        seen.add(module)
        imported = _package_imports(module)
        offenders += [f"{module} imports {name}" for name in sorted(imported & CLOSED_FORMS)]
        todo += sorted(imported - seen - set(todo))
    assert offenders == []
    assert {"brute", "arrays", "exact"} <= seen


def _load_script(relative):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Names in bench/tracer.py's LAYERS that no longer exist in mapenum; the
# tracer skips and reports them. Dropping one is a change to the benchmark.
DEAD_TRACER_NAMES = ["exact.binomial_to_monomial"]


def test_tracer_layers_name_existing_functions():
    # a renamed or merged function would silently drop out of the layer trace
    tracer = _load_script("bench/tracer.py")
    missing = [
        f"{layer}.{dotted}"
        for layer, names in tracer.LAYERS.items()
        for dotted in names
        if tracer._resolve(importlib.import_module(f"mapenum.{layer}"), dotted) is None
    ]
    assert missing == DEAD_TRACER_NAMES


# SHA-256 of the substructures drawn at seed 0 by sweep_gamma(40),
# sweep_gamma_noarrows(40) and sweep_lemmas(20): one JSON line per oracle call,
# with the forced slot pair appended for the restricted count.
INSTANCE_STREAM_SHA256 = "2907b456c837cf5da343ee1bea0d8ee7d2dcfe180a77c63451f5fc83ba012fdd"


def test_random_instance_stream_is_pinned(monkeypatch):
    # --seed reproducibility: a refactor must draw the very same instances
    from mapenum import brute, verify

    seen = []

    def record(g, *pair):
        seen.append(" ".join([g.to_json(), *map(str, pair)]))
        return 0

    monkeypatch.setattr(brute, "gamma_count_brute", record)
    monkeypatch.setattr(brute, "gamma_count_brute_with_pair", record)
    verify.sweep_gamma(40, 0)
    verify.sweep_gamma_noarrows(40, 0)
    verify.sweep_lemmas(20, 0)
    assert len(seen) == 240
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == INSTANCE_STREAM_SHA256


@pytest.mark.parametrize(
    "sweep, args, expected",
    [
        ("sweep_surjections", (4,),
         {"paired_surjection_count_brute": 130, "canonical_array_count_brute": 130}),
        ("sweep_canonical_from_vertical", (4,), {"canonical_array_count_brute": 130}),
        ("sweep_series_from_surjections", (4,), {"paired_surjection_count_brute": 130}),
        ("sweep_vertical", (4, 5), {"vertical_array_count_brute": 150}),
        ("sweep_omega", (4, 5), {"omega_count_brute": 2580}),
        ("sweep_hz", (7,), {"hz_counts_brute": 7}),
        ("sweep_gs", (6,), {"gs_counts_brute": 56}),
    ],
)
def test_exhaustive_sweeps_check_every_case(monkeypatch, sweep, args, expected):
    # a loop that silently dropped cases would still return no problems
    from mapenum import brute, verify

    calls = dict.fromkeys(expected, 0)
    for name in expected:
        def counted(*a, _name=name, _oracle=getattr(brute, name)):
            calls[_name] += 1
            return _oracle(*a)

        monkeypatch.setattr(brute, name, counted)
    assert getattr(verify, sweep)(*args) == []
    assert calls == expected
