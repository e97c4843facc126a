"""Checks on the shipped code and scripts themselves."""

import ast
import importlib.util
from pathlib import Path

import pytest

from mapenum.exact import CycleCountVector

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["genus_tables.py", "--max-q", "3", "--max-d", "2", "--certify"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
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


def _load_genus_tables():
    path = ROOT / "scripts" / "genus_tables.py"
    spec = importlib.util.spec_from_file_location("genus_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_genus_tables_certify_passes(monkeypatch, capsys):
    script = _load_genus_tables()
    monkeypatch.setattr("sys.argv", ARGV)
    assert script.main() == 0
    assert capsys.readouterr().out.endswith("all rows certified against enumeration\n")


def test_genus_tables_certify_fails_on_a_wrong_row(monkeypatch, capsys):
    script = _load_genus_tables()
    real = script.hz_counts_brute

    def wrong(q):
        counts = list(real(q).counts)
        counts[-1] += 1
        return CycleCountVector(q, tuple(counts))

    monkeypatch.setattr(script, "hz_counts_brute", wrong)
    monkeypatch.setattr("sys.argv", ARGV)
    assert script.main() == 1
    err = capsys.readouterr().err
    assert err.startswith("mismatch at q=1: ") and err.count("\n") == 1
