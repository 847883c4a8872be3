import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _uses(node, methods: bool = False) -> Counter:
    """How often node names each name, attribute, imported name and string
    constant; with methods, attributes and string constants alone.
    Strings count because the benchmark's tracer wraps names by getattr."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
        elif methods:
            continue
        elif isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _uncalled(src, others=()) -> set:
    """The top-level functions and classes, and the methods other than
    dunders, of the modules src = [(name, text)] that nothing in src or
    others = [(name, text)] names outside its own definition: any name
    counts for a top-level one, only obj.name or a string for a method."""
    trees = [(name, ast.parse(text)) for name, text in src]
    every = [tree for _, tree in trees] + [ast.parse(text) for _, text in others]
    names = sum(map(_uses, every), Counter())
    attrs = sum((_uses(tree, True) for tree in every), Counter())
    out = set()
    for mod, tree in trees:
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if names[stmt.name] == _uses(stmt)[stmt.name]:
                out.add(f"{mod}.{stmt.name}")
            for f in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if (isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
                        and attrs[f.name] == _uses(f, True)[f.name]):
                    out.add(f"{mod}.{stmt.name}.{f.name}")
    return out


def test_every_src_name_has_a_caller():
    # a function, class or method of src/ that nothing in src/ or
    # perfbench/ names outside its own definition is code only the tests
    # call, which the benchmark would compile on every start
    src = [(path.stem, path.read_text()) for path in sorted(ROOT.glob("src/algen/*.py"))]
    bench = [(path.stem, path.read_text()) for path in sorted(ROOT.glob("perfbench/*.py"))]
    assert _uncalled(src, bench) == set()


def test_guard_flags_dead_functions_and_methods():
    src = [("m", '''
def used():
    return helper()

def helper():
    pass

def dead():
    return dead()

class C:
    def live(self):
        return self.other()

    def other(self):
        return 1

    def by_string(self):
        pass

    def helper(self):
        pass

    def loops(self):
        return self.loops()

    def __repr__(self):
        return "C"
''')]
    user = [("user", "import m\nm.used()\ngetattr(m.C(), 'by_string')\n")]
    # helper is called by its bare name, which reaches the function only;
    # a call inside a definition's own body does not count
    assert _uncalled(src, user) == {"m.dead", "m.C.live", "m.C.helper",
                                    "m.C.loops"}
    # one attribute access or string anywhere else keeps a method
    user.append(("more", "x.live()\nx.helper\nname = 'loops'\n"))
    assert _uncalled(src, user) == {"m.dead"}
