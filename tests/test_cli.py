import contextlib
import io
import json
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from mapenum.cli import build_parser, main
from mapenum.verify import gs_parameter_tuples


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hz_by_genus(capsys):
    code, out, _ = run(capsys, "hz", "--q", "2", "--by-genus")
    assert code == 0
    assert json.loads(out) == {"genus_counts": {"0": "2", "1": "1"}}


def test_hz_series_json_schema(capsys):
    code, out, _ = run(capsys, "hz", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "monomial"
    assert payload["coeffs"] == {"1": "1", "3": "2"}
    assert all(isinstance(v, str) for v in payload["coeffs"].values())


# every output format: json and csv, series and genus table
OUTPUT_OPTIONS = [("--format", fmt, *genus) for fmt in ("json", "csv")
                  for genus in ((), ("--by-genus",))]


def test_hz_methods_agree(capsys):
    for options in OUTPUT_OPTIONS:
        for q in range(1, 7):
            code1, formula, _ = run(capsys, "hz", "--q", str(q), *options)
            code2, brute, _ = run(capsys, "hz", "--q", str(q), "--method", "brute", *options)
            assert code1 == code2 == 0
            assert formula == brute, (q, options)


def test_gs_methods_agree_bytewise(capsys):
    outputs = set()
    for method in ("formula", "simplified", "brute"):
        code, out, _ = run(capsys, "gs", "--q1", "0", "--q2", "0", "--s", "2",
                           "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {'{"basis": "monomial", "coeffs": {"2": "2"}}\n'}
    for options in OUTPUT_OPTIONS:
        for q1, q2, s in gs_parameter_tuples(5):
            outputs = set()
            for method in ("formula", "simplified", "brute"):
                code, out, _ = run(capsys, "gs", "--q1", str(q1), "--q2", str(q2),
                                   "--s", str(s), "--method", method, *options)
                assert code == 0
                outputs.add(out)
            assert len(outputs) == 1, (q1, q2, s, options)


def _cli_scale_gs_tuples(count=30, seed=15):
    """A seeded sample of (q1, q2, s) with 12 <= d <= 30, past brute force's reach."""
    rng = random.Random(seed)
    tuples = []
    for _ in range(count):
        d = rng.randint(12, 30)
        s = rng.randint(1, d)
        q1 = rng.randint(0, d - s)
        tuples.append((q1, d - s - q1, s))
    return tuples


def test_gs_formula_and_simplified_agree_at_cli_scale(capsys):
    for q1, q2, s in _cli_scale_gs_tuples():
        for options in OUTPUT_OPTIONS:
            base = ["gs", "--q1", str(q1), "--q2", str(q2), "--s", str(s), *options]
            formula = run(capsys, *base, "--method", "formula")
            simplified = run(capsys, *base, "--method", "simplified")
            assert formula[0] == 0 and formula[2] == ""
            assert formula == simplified, (q1, q2, s, options)


def test_gs_csv_format(capsys):
    code, out, _ = run(capsys, "gs", "--q1", "0", "--q2", "0", "--s", "2",
                       "--format", "csv")
    assert code == 0
    assert out == "degree,coefficient\n2,2\n"


def test_gs_by_genus_csv(capsys):
    code, out, _ = run(capsys, "gs", "--q1", "1", "--q2", "1", "--s", "2",
                       "--by-genus", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "genus,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 72  # C(4,2)^2 * 2! * 1 * 1


def test_vertical(capsys):
    code, out, _ = run(capsys, "vertical", "--K", "1", "--R1", "1", "--R2", "1", "--s", "2")
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, "vertical", "--K", "3", "--R1", "1", "--R2", "1",
                       "--s", "1", "--method", "brute")
    assert (code, out) == (0, "0\n")


def test_count_gamma_roundtrip(tmp_path, capsys):
    spec = tmp_path / "gamma.json"
    spec.write_text(
        json.dumps({"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": {}})
    )
    code, out, _ = run(capsys, "count-gamma", "--spec", str(spec))
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "count-gamma", "--spec", str(spec), "--method", "brute")
    assert (code, out) == (0, "1\n")


def test_count_gamma_with_arrows_reduces_first(tmp_path, capsys):
    spec = tmp_path / "gamma.json"
    spec.write_text(
        json.dumps({
            "K": 3,
            "w": [[1, 1, 1], [1, 1, 1]],
            "R1": [0],
            "R2": [0],
            "phi": {"1": 2, "2": 0},
        })
    )
    code, formula_out, _ = run(capsys, "count-gamma", "--spec", str(spec))
    code2, brute_out, _ = run(capsys, "count-gamma", "--spec", str(spec), "--method", "brute")
    assert code == code2 == 0
    assert formula_out == brute_out


def test_count_gamma_cyclic_phi_is_zero(tmp_path, capsys):
    spec = tmp_path / "gamma.json"
    spec.write_text(
        json.dumps({"K": 2, "w": [[1, 1], [1, 1]], "R1": [0], "R2": [0], "phi": {"1": 1}})
    )
    code, out, _ = run(capsys, "count-gamma", "--spec", str(spec))
    assert (code, out) == (0, "0\n")


def test_count_omega(tmp_path, capsys):
    spec = tmp_path / "omega.json"
    spec.write_text(json.dumps({"K": 1, "R1": 1, "R2": 1, "w": [3]}))
    code, out, _ = run(capsys, "count-omega", "--spec", str(spec))
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "count-omega", "--spec", str(spec), "--method", "brute")
    assert (code, out) == (0, "6\n")


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "vertical", "--K", "0", "--R1", "1", "--R2", "1", "--s", "1")
    assert code == 2
    assert "K, R1, R2, s >= 1" in err
    code, _, err = run(capsys, "hz", "--q", "0")
    assert code == 2
    code, _, err = run(capsys, "count-gamma", "--spec", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["hz", "--q", "600", "--method", "brute"],  # the tally walk recurses q deep
        ["gs", "--q1", "300", "--q2", "300", "--s", "1", "--method", "brute"],
        # the occupancies of s vertices in K columns are built K deep
        ["vertical", "--K", "1100", "--R1", "1", "--R2", "1", "--s", "1", "--method", "brute"],
    ],
    ids=["hz", "gs", "vertical"],
)
def test_recursion_overflow_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["hz"])  # missing --q
    assert exc.value.code == 2


def test_parser_is_reused_across_calls(capsys):
    first = run(capsys, "gs", "--q1", "1", "--q2", "0", "--s", "2", "--by-genus")
    with pytest.raises(SystemExit) as exc:
        main(["gs", "--q1", "1", "--s", "2", "--method", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "gs", "--q1", "1", "--q2", "0", "--s", "2", "--by-genus") == first
    assert first[0] == 0
    assert build_parser() is build_parser()


@pytest.mark.parametrize("max_d", ["0", "-2"])
def test_verify_rejects_max_d_below_1(capsys, max_d):
    code, out, err = run(capsys, "verify", "--max-d", max_d)
    assert (code, out) == (2, "")
    assert err == f"error: --max-d must be at least 1, got {max_d}\n"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "hz", "--max-d", "3")
    assert code == 0
    assert out == "PASS hz\n"


def test_verify_all_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [f"PASS {name}" for name in
                     ("hz", "gs", "surjections", "vertical", "gamma", "omega", "lemmas")]


def test_verify_failure_exits_1(capsys, monkeypatch):
    from mapenum import verify

    monkeypatch.setattr(verify, "sweep_hz", lambda max_q=7: ["hz q=1: planted mismatch"])
    code, out, _ = run(capsys, "verify", "--suite", "hz")
    assert code == 1
    assert out == "FAIL hz: hz q=1: planted mismatch\n"


def test_verify_compare_failure_names_case_and_counts(capsys, monkeypatch):
    from mapenum import brute

    canonical = brute.canonical_array_count_brute
    c = canonical(2, 0, 0, 2)
    monkeypatch.setattr(brute, "canonical_array_count_brute",
                        lambda *a: canonical(*a) + (a == (2, 0, 0, 2)))
    code, out, _ = run(capsys, "verify", "--max-d", "2")
    assert code == 1
    assert f"FAIL surjections: surjections K=2 q1=0 q2=0 s=2: {c} != {c + 1}\n" in out
    assert f"FAIL vertical: canonical_from_vertical K=2 q1=0 q2=0 s=2: {c} != {c + 1}\n" in out


def test_verify_series_failure_names_case_and_counts(capsys, monkeypatch):
    from mapenum import brute
    from mapenum.exact import CycleCountVector

    gs_counts = brute.gs_counts_brute
    real = gs_counts(1, 1, 1)
    assert real.counts == (0, 0, 9, 0)
    moved = CycleCountVector(3, (9, 0, 0, 0))  # same total, same parity
    monkeypatch.setattr(brute, "gs_counts_brute",
                        lambda *a: moved if a == (1, 1, 1) else gs_counts(*a))
    code, out, _ = run(capsys, "verify", "--suite", "gs", "--max-d", "3")
    assert code == 1
    assert out == (f"FAIL gs: gs q1=1 q2=1 s=1: formula {real.to_poly().integer_coeffs()} "
                   f"!= brute {moved.to_poly().integer_coeffs()}\n")


def test_formula_series_skip_the_fraction_round_trip(capsys, monkeypatch):
    # the CLI and verify leave the binomial basis as integers (to_counts)
    from mapenum.exact import BinomialPoly, CycleCountVector, MonomialPoly

    commands = [["verify", "--suite", suite, "--max-d", "4"] for suite in ("hz", "gs")]
    for options in OUTPUT_OPTIONS:
        commands.append(["hz", "--q", "30", *options])
        commands += [["gs", "--q1", "3", "--q2", "4", "--s", "5", "--method", method, *options]
                     for method in ("formula", "simplified")]
    before = [run(capsys, *argv) for argv in commands]

    def refuse(*args):
        raise RuntimeError("the Fraction round trip was taken")

    for name, owner in [("to_monomial", BinomialPoly), ("to_poly", CycleCountVector),
                        ("integer_coeffs", MonomialPoly)]:
        monkeypatch.setattr(owner, name, refuse)
    after = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _, _ in before)
    assert after == before


def test_verify_series_failure_when_formula_gives_no_counts(capsys, monkeypatch):
    from mapenum import formulas
    from mapenum.exact import BinomialPoly

    # a_1 = -1: the series is not a tally, which verify reports as a mismatch
    monkeypatch.setattr(formulas, "hz_series", lambda q: BinomialPoly({2: 2}))
    code, out, _ = run(capsys, "verify", "--suite", "hz", "--max-d", "1")
    assert code == 1
    assert out == "FAIL hz: hz q=1: formula counts must be non-negative; brute {2: 1}\n"


def test_series_from_surjections_failure_names_case_and_series(monkeypatch):
    from mapenum import brute, verify

    surjections = brute.paired_surjection_count_brute
    assert surjections(2, 0, 0, 1) == 0
    monkeypatch.setattr(brute, "paired_surjection_count_brute",
                        lambda *a: surjections(*a) + 5 * (a == (2, 0, 0, 1)))
    assert verify.sweep_series_from_surjections(max_d=2) == [
        "series_from_surjections q1=0 q2=0 s=1: "
        "BinomialPoly(coeffs={1: 1, 2: 5}) != BinomialPoly(coeffs={1: 1})"
    ]


def test_verify_lemma_failure_names_substructure_and_counts(capsys, monkeypatch):
    from mapenum import brute

    restricted = brute.gamma_count_brute_with_pair
    first = []

    def planted(g, v, u):
        n = restricted(g, v, u)
        first.append((g, (v, u), n))
        return n + 1

    monkeypatch.setattr(brute, "gamma_count_brute_with_pair", planted)
    code, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert code == 1
    g, pair, n = first[0]
    assert out.startswith(f"FAIL lemmas: pointing #0 {g} pair={pair} -> ")
    assert out.endswith(f": count {n + 1} != {n}\n")


def test_count_gamma_rejects_inconsistent_spec(tmp_path, capsys):
    spec = tmp_path / "gamma.json"
    spec.write_text(
        json.dumps({"K": 3, "w": [[1, 1], [1, 1]], "R1": [0], "R2": [0], "phi": {}})
    )
    code, _, err = run(capsys, "count-gamma", "--spec", str(spec))
    assert code == 2
    assert "K" in err


def test_output_is_deterministic(capsys):
    a = run(capsys, "gs", "--q1", "1", "--q2", "0", "--s", "2")
    b = run(capsys, "gs", "--q1", "1", "--q2", "0", "--s", "2")
    assert a == b


@pytest.mark.parametrize(
    "command, spec",
    [
        ("count-gamma", {"K": 2, "R1": [1], "R2": [1], "phi": {}}),
        ("count-gamma", {"K": 2, "w": 3, "R1": [1], "R2": [1], "phi": {}}),
        ("count-gamma", {"K": 2, "w": [1, 1], "R1": [1], "R2": [1], "phi": {}}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": []}),
        ("count-gamma", [[1, 1], [1, 1]]),
        ("count-omega", {"K": 1, "R1": 1, "R2": 1}),
        ("count-omega", {"K": 1, "R1": 1, "R2": 1, "w": 3}),
        ("count-omega", "w"),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [[1]], "R2": [1], "phi": {}}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": {"0": [0]}}),
        ("count-omega", {"K": 1, "R1": 1, "R2": 1, "w": [[3]]}),
        ("count-omega", {"K": 2, "R1": 1, "R2": 1, "w": [0, 0]}),
        ("count-omega", {"K": 1, "R1": 1, "R2": 1, "w": [1.5]}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1.7], "R2": [1], "phi": {}}),
        ("count-omega", {"K": True, "R1": 1, "R2": 1, "w": [3]}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": {"0": 1.0}}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": {" +0 ": 1}}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": {"0_0": 1}}),
        ("count-gamma", {"K": 2, "w": [[1, 1], [1, 1]], "R1": [1], "R2": [1], "phi": {"\u0660": 1}}),
    ],
)
def test_malformed_spec_exits_2(tmp_path, capsys, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for method in ("formula", "brute"):
        code, out, err = run(capsys, command, "--spec", str(path), "--method", method)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_count_gamma_on_zero_vertex_lemma_draws(tmp_path, capsys, zero_vertex_lemma_draws):
    # brute counts any substructure; the closed form needs a vertex per row,
    # unless the arrows form a cycle, and otherwise says so on one line
    path = tmp_path / "spec.json"
    for g in zero_vertex_lemma_draws:
        path.write_text(g.to_json())
        code, out, err = run(capsys, "count-gamma", "--spec", str(path), "--method", "brute")
        assert (code, err) == (0, "") and int(out) >= 0 and out.count("\n") == 1, g
        code, out, err = run(capsys, "count-gamma", "--spec", str(path), "--method", "formula")
        if code == 0:
            assert err == "" and int(out) >= 0 and out.count("\n") == 1, g
        else:
            assert (code, out) == (2, ""), g
            assert err.startswith("error: ") and err.count("\n") == 1, g


# ----------------------------------------------------------------------
# Fuzzed spec files: every run exits 0 or 2, never with a traceback
# ----------------------------------------------------------------------

# ASCII digits, a letter, a space, a sign, a non-ASCII digit and a superscript
# digit: every case the arrow-tail check tells apart. An explicit alphabet also
# spares hypothesis building its whole Unicode table in a fresh checkout.
_text = st.text("0123456789x -\u0663\u00b2", max_size=2)
_scalars = st.none() | st.booleans() | st.integers(-1, 3) | st.floats(-1, 3) | _text
# any JSON value, kept small: what a malformed spec may hold in a field
_json_values = _scalars | st.lists(_scalars, max_size=3) | st.dictionaries(_text, _scalars, max_size=3)


def _tweak(draw, value):
    """``value`` with one part, down some path of lists and objects, replaced
    by a scalar."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        value = value.copy()
        value[key] = _tweak(draw, value[key])
        return value
    return draw(_scalars)


def _spoil(draw, spec):
    """A well-formed ``spec`` kept as it is, one part of it tweaked (three
    times as often), one field replaced or dropped, or the whole spec replaced."""
    how = draw(st.sampled_from(["keep", "tweak", "tweak", "tweak", "replace", "drop", "whole"]))
    key = draw(st.sampled_from(sorted(spec)))
    if how == "tweak":
        return _tweak(draw, spec)
    if how == "replace":
        return {**spec, key: draw(_json_values)}
    if how == "drop":
        return {k: v for k, v in spec.items() if k != key}
    return draw(_json_values) if how == "whole" else spec


@st.composite
def _gamma_specs(draw):
    K = draw(st.integers(1, 3))
    w1 = draw(st.lists(st.integers(0, 2), min_size=K, max_size=K))
    marks = st.lists(st.integers(0, K - 1), min_size=1, max_size=K, unique=True)
    r1 = draw(marks)
    free = [j for j in range(K) if j not in r1]
    tails = draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    spec = {
        "K": K,
        "w": [w1, list(draw(st.permutations(w1)))],
        "R1": r1,
        "R2": draw(marks),
        "phi": {str(t): draw(st.integers(0, K - 1)) for t in tails},
    }
    return _spoil(draw, spec)


@st.composite
def _omega_specs(draw):
    K = draw(st.integers(1, 3))
    marks = st.integers(1, K)
    spec = {
        "K": K,
        "R1": draw(marks),
        "R2": draw(marks),
        # the brute count walks the matchings once per mark-set pair: keep s <= 3 before a tweak
        "w": draw(st.lists(st.integers(0, 1), min_size=K, max_size=K)),
    }
    return _spoil(draw, spec)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.just("count-gamma"), _gamma_specs()) | st.tuples(st.just("count-omega"), _omega_specs()),
    st.sampled_from(["formula", "brute"]),
)
def test_fuzzed_specs_exit_0_or_2_with_one_error_line(tmp_path_factory, case, method):
    command, spec = case
    path = tmp_path_factory.getbasetemp() / "fuzzed-spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--spec", str(path), "--method", method])
    event(f"exit {code}")
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1 and int(out.getvalue()) >= 0
    else:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
