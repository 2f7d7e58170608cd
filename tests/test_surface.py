"""Every public function, class and method of klrblocks earns its place:
some program file (the package or scripts/) uses it, or it is one of the
few names kept on purpose for tests and planned checks."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klrblocks"

# Names that no program file uses yet, each kept for a stated reason.
KEPT = {
    # the bar involution of the planned graded decomposition numbers
    # (ROADMAP item 6)
    "LaurentPoly.bar",
}


def _program_files():
    """The package modules (not the __init__ re-exports) and the scripts."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return modules + sorted((ROOT / "scripts").glob("*.py"))


class _References(ast.NodeVisitor):
    """The names a file refers to.  A definition's references to its own
    name, as in a recursive call, do not count."""

    def __init__(self):
        self.used = set()
        self.owners = []

    def visit_definition(self, node):
        self.owners.append(node.name)
        self.generic_visit(node)
        self.owners.pop()

    visit_FunctionDef = visit_ClassDef = visit_definition

    def visit_Name(self, node):
        if node.id not in self.owners:
            self.used.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.owners:
            self.used.add(node.attr)
        self.generic_visit(node)


def _surface():
    """(public names defined in the package, names that program files refer
    to).  The defined names are the module-level functions and classes and,
    as Class.method, the methods of those classes; a method is matched by
    its name alone, like a function."""
    defined = {}
    refs = _References()
    for path in _program_files():
        tree = ast.parse(path.read_text())
        refs.visit(tree)
        if path.parent != PACKAGE:
            continue
        for top in tree.body:
            if (not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    or top.name.startswith("_")):
                continue
            defined[top.name] = path.name
            if isinstance(top, ast.ClassDef):
                for stmt in top.body:
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                        defined[f"{top.name}.{stmt.name}"] = path.name
    return defined, refs.used


def _bare(name):
    """The name a program file refers to: a method's without its class."""
    return name.rpartition(".")[2]


def test_public_names_are_used_or_kept():
    defined, used = _surface()
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if _bare(name) not in used and name not in KEPT)
    assert unused == []


def test_kept_names_are_defined_and_unused():
    # a kept name that a program file starts to use leaves the list
    defined, used = _surface()
    assert KEPT <= set(defined)
    assert not {_bare(name) for name in KEPT} & used
