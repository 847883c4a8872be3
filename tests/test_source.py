import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kept with no caller on purpose (README "Layout")
KEPT = {"genff.g_closed_form", "sampler.substream", "ffalg.mat_transpose",
        "genz.hnf"}


def _names(node) -> set:
    """Every name, attribute, imported name and string constant in node;
    strings count because the benchmark's tracer wraps names by getattr."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_every_src_name_has_a_caller():
    # a top-level function or class of src/ that nothing in src/ or
    # perfbench/ names outside its own definition is code only the tests
    # call, which the benchmark would compile on every start
    stmts = []
    for path in sorted(ROOT.glob("src/algen/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        for stmt in ast.parse(path.read_text()).body:
            stmts.append((path, stmt, _names(stmt)))
    uncalled = {f"{path.stem}.{stmt.name}" for path, stmt, _ in stmts
                if path.parent.name == "algen"
                and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not any(stmt.name in names
                            for _, other, names in stmts if other is not stmt)}
    assert uncalled == KEPT
