import json

import pytest

from mapenum.cli import main


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


def test_hz_methods_agree(capsys):
    _, formula, _ = run(capsys, "hz", "--q", "3")
    _, brute, _ = run(capsys, "hz", "--q", "3", "--method", "brute")
    assert formula == brute


def test_gs_methods_agree_bytewise(capsys):
    outputs = set()
    for method in ("formula", "simplified", "brute"):
        code, out, _ = run(capsys, "gs", "--q1", "0", "--q2", "0", "--s", "2",
                           "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {'{"basis": "monomial", "coeffs": {"2": "2"}}\n'}


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


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["hz"])  # missing --q
    assert exc.value.code == 2


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
    ],
)
def test_malformed_spec_exits_2(tmp_path, capsys, command, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for method in ("formula", "brute"):
        code, out, err = run(capsys, command, "--spec", str(path), "--method", method)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
