"""The README's mutant kill matrix states what `tools/mutants.py` expects,
each of the tool's mutants still applies to the source, and the tool's
ORACLES are oracle code only.

No test here runs a suite.  The first compares the README table with the
tool's SUITES and MUTANTS.  Row names are worded differently in the two
places (ν against nu), so rows are matched by order and by their kills.
"""
import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _readme_matrix() -> tuple[list[str], list[list[str]]]:
    """The column headers (without the first) and the rows of the README
    table that follows the `| mutant |` header."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    top = next(i for i, line in enumerate(lines) if line.startswith("| mutant |"))
    table = []
    for line in lines[top:]:
        if not line.startswith("|"):
            break
        table.append([cell.strip() for cell in line.strip("|").split("|")])
    header, rule, *rows = table
    assert set(rule) == {"---"}
    return [cell.strip("`") for cell in header[1:]], rows


def test_readme_mutant_matrix_matches_the_tool():
    mutants = _load_mutants()
    headers, rows = _readme_matrix()
    assert headers == [" ".join(args) for args in mutants.SUITES.values()]
    assert len(rows) == len(mutants.MUTANTS)
    for row, m in zip(rows, mutants.MUTANTS):
        cells = row[1:]
        assert len(cells) == len(mutants.SUITES) and set(cells) <= {"KILL", "live"}, row
        assert {s for s, cell in zip(mutants.SUITES, cells) if cell == "KILL"} == m.kills, (row[0], m.name)


def test_every_mutant_applies_exactly_once():
    # `tools/mutants.py` refuses a mutant whose text is not found exactly once
    for m in _load_mutants().MUTANTS:
        text = (ROOT / "src" / "qfmass" / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, (m.name, text.count(m.old))


def _names_outside(node: ast.AST, owner: str | None, oracles: set[str]):
    """(owner, line, name) for every oracle name read in `node` outside the
    body of an oracle, owner being the enclosing function (or None at
    module level)."""
    for child in ast.iter_child_nodes(node):
        name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
        if name in oracles and owner not in oracles:
            yield owner, child.lineno, name
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner not in oracles else owner
        yield from _names_outside(child, inner, oracles)


def test_no_engine_function_calls_an_oracle():
    oracles = set(_load_mutants().ORACLES)
    defined = set()
    uses = []
    for path in sorted((ROOT / "src" / "qfmass").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        uses += [(path.name, *use) for use in _names_outside(tree, None, oracles)]
    assert oracles <= defined, oracles - defined
    assert uses == []
