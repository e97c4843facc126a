"""Checks on the shipped code itself."""

import ast
import hashlib
import importlib.util
import re
from pathlib import Path
from types import FunctionType, ModuleType

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


# Every use of an _unchecked constructor, as (module, enclosing function,
# class). Each builds from parts its own function generated; input from
# outside (the CLI, specs, from_json, the transforms' arguments) goes through
# the checking constructors.
UNCHECKED_BUILDERS = {
    ("brute", "enumerate_pairings", "Pairing"),
    ("brute", "_sorted_omega_count", "SubstructureGamma"),
    ("verify", "random_full_irreducible", "SubstructureGamma"),
    ("verify", "random_balanced_noarrows", "SubstructureGamma"),
    ("verify", "_random_gamma", "SubstructureGamma"),
    ("verify", "_draw_pointing", "SubstructureGamma"),
    ("verify", "_draw_merging", "SubstructureGamma"),
}


def test_unchecked_builds_stay_in_the_generators():
    uses = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_unchecked":
                uses.add((module, where, ast.unparse(child.value)))
            visit(child, module, where)

    for path in sorted((ROOT / "src" / "mapenum").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem, None)
    assert uses == UNCHECKED_BUILDERS


# Public names with no caller in src/mapenum or bench, kept as the
# definitions that tests check the oracles against.
REFERENCE_DEFINITIONS = {
    "cycle_count": "the face count of one pairing, which the tally tests check brute's walk against",
    "enumerate_pairings": "the pairing stream, which the tally tests check brute's walk against",
}


def _names_read(tree):
    """Names read in a module, as a name or an attribute, outside the
    top-level definition of that same name."""
    names = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if name is not None and name != own:
                names.add(name)
    return names


def _source_trees():
    """The parsed modules of src/mapenum other than __init__.py."""
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in (ROOT / "src" / "mapenum").glob("*.py") if path.name != "__init__.py"]


def _bench_text():
    return "\n".join(path.read_text(encoding="utf-8") for path in (ROOT / "bench").glob("*.py"))


def test_every_public_name_has_a_caller():
    # a public name that only the tests call is surface to delete, unless it
    # is a reference definition on purpose
    import mapenum

    read = set().union(*map(_names_read, _source_trees()))
    bench = _bench_text()
    uncalled = [
        name
        for name in mapenum.__all__
        if name not in read
        and name not in REFERENCE_DEFINITIONS
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert uncalled == []
    assert [name for name in mapenum.__all__ if isinstance(getattr(mapenum, name), ModuleType)] == []


# Public methods with no caller in src/mapenum or bench, kept as reference
# definitions, by name.
REFERENCE_METHODS = {
    "eval": "the independent evaluation that the series tests compare the genus tallies against",
    "to_json": "the spec format that from_json and the CLI read back, and that the stream pins hash",
}


def test_every_public_method_has_a_caller():
    # the same guard on the public methods and properties of each re-exported
    # class, inherited ones from this package included; dataclass and
    # NamedTuple fields are not functions or properties, so they drop out
    import mapenum

    # a method is read as an attribute; a local variable of the same name is no caller
    read = {node.attr for tree in _source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    bench = _bench_text()
    methods = {
        f"{value.__name__}.{attr}"
        for value in map(mapenum.__dict__.get, mapenum.__all__) if isinstance(value, type)
        for cls in value.__mro__ if cls.__module__.startswith("mapenum.")
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and isinstance(member, (FunctionType, classmethod, staticmethod, property))
    }
    assert len(methods) > 20
    uncalled = sorted(
        name for name in methods
        if (attr := name.split(".")[1]) not in read
        and attr not in REFERENCE_METHODS
        and not re.search(rf"\.{attr}\b", bench)
    )
    assert uncalled == []


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


# The same at the sizes and seeds of the substructure-sweep benchmark
# workload: sweep_gamma(600, 0), sweep_gamma_noarrows(600, 1) and
# sweep_lemmas(300, 2).
BENCH_STREAM_SHA256 = "9ea0a16b5504091b7e5a2170b43fa0a9e2c9c13025983e1761450db0b4361d85"


def test_benchmark_instance_stream_is_pinned(monkeypatch):
    # a faster draw must keep the benchmark's instances, or its timings
    # would compare different work
    from mapenum import brute, verify

    seen = []

    def record(g, *pair):
        seen.append(" ".join([g.to_json(), *map(str, pair)]))
        return 0

    monkeypatch.setattr(brute, "gamma_count_brute", record)
    monkeypatch.setattr(brute, "gamma_count_brute_with_pair", record)
    verify.sweep_gamma(600, 0)
    verify.sweep_gamma_noarrows(600, 1)
    verify.sweep_lemmas(300, 2)
    assert len(seen) == 3600
    assert hashlib.sha256("\n".join(seen).encode()).hexdigest() == BENCH_STREAM_SHA256


@pytest.mark.parametrize("K", range(1, 25))
def test_mark_set_draw_is_random_sample(K):
    # the draw makes random.sample's calls for K <= 21, and calls it for
    # larger K, so the state it leaves behind, and every later draw, is the same
    import random

    from mapenum.verify import _random_nonempty_subset

    for seed in range(300):
        ours, reference = random.Random(seed), random.Random(seed)
        expected = frozenset(reference.sample(range(K), reference.randint(1, K)))
        assert _random_nonempty_subset(ours, K) == expected
        assert ours.getstate() == reference.getstate()


def _shuffled(shuffle, population):
    x = list(population)
    shuffle(x)
    return x


@pytest.mark.parametrize("primitive", ["randbelow", "randint", "choice", "shuffle", "sample"])
def test_draw_primitives_make_the_random_module_calls(primitive):
    # the draws reach getrandbits without random.py's frames; each value, and
    # the generator state left behind, must be what the module's method gives
    import random

    from mapenum.verify import _randbelow, _sample, _shuffle

    ours, reference = {
        "randbelow": (lambda rng, n, seq, a, k: _randbelow(rng, n),
                      lambda rng, n, seq, a, k: rng.randrange(n)),
        "randint": (lambda rng, n, seq, a, k: a + _randbelow(rng, (a + n - 1) - a + 1),
                    lambda rng, n, seq, a, k: rng.randint(a, a + n - 1)),
        "choice": (lambda rng, n, seq, a, k: seq[_randbelow(rng, len(seq))],
                   lambda rng, n, seq, a, k: rng.choice(seq)),
        "shuffle": (lambda rng, n, seq, a, k: _shuffled(lambda x: _shuffle(rng, x), seq),
                    lambda rng, n, seq, a, k: _shuffled(rng.shuffle, seq)),
        "sample": (lambda rng, n, seq, a, k: (_sample(rng, seq, k), _sample(rng, range(n), k)),
                   lambda rng, n, seq, a, k: (rng.sample(seq, k), rng.sample(range(n), k))),
    }[primitive]
    for seed in range(200):
        # one stream per seed: each call starts from the state the last one left
        mine, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 71):
            args = (n, [3 * j + 1 for j in range(n)], seed % 5 - 2, seed % (n + 1))
            assert ours(mine, *args) == reference(theirs, *args)
            assert mine.getstate() == theirs.getstate()


def test_draw_primitives_reject_an_empty_range():
    # the random module raises on an empty range, where a getrandbits loop
    # would never end; so does a sweep given no columns
    import random

    from mapenum import verify

    for n in (0, -1, -5):
        with pytest.raises(ValueError, match="empty range"):
            verify._randbelow(random.Random(0), n)
    for k in (-1, 4):
        with pytest.raises(ValueError):
            verify._sample(random.Random(0), range(3), k)
    with pytest.raises(ValueError):
        verify.sweep_gamma(3, 0, max_K=0)


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
