"""Every public function and class of klrblocks earns its place: some
program file (the package or scripts/) uses it, or it is one of the few
names kept on purpose for tests and planned checks."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "klrblocks"

# Names that no program file uses yet, each kept for a stated reason.
KEPT = {
    # test oracle: one residue's good node; the crystal layer finds every
    # residue's at once (_good_nodes)
    "good_node",
    # paper fixture: the minimal-degree rectangle tableau (acceptance criterion 1)
    "rectangle_final_tableau",
    # the planned bijection check (ROADMAP item 3) maps tableaux with it
    "tableau_to_type_c",
    # pending deletion (ROADMAP item 3): the rest of the thick-segment
    # semistandard tableaux and their 18 tests, retired in a change of their own
    "adjacent_swap",
    "column_initial_sstd",
    "enumerate_sstd_plus",
    "row_initial_sstd",
}


def _program_files():
    """The package modules (not the __init__ re-exports) and the scripts."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return modules + sorted((ROOT / "scripts").glob("*.py"))


def _surface():
    """(public names defined at module level in the package, names that
    program files refer to).  A top-level definition's references to its
    own name, as in a recursive call, do not count."""
    defined = {}
    used = set()
    for path in _program_files():
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if path.parent == PACKAGE and own and not own.startswith("_"):
                defined[own] = path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined, used


def test_public_names_are_used_or_kept():
    defined, used = _surface()
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in KEPT)
    assert unused == []


def test_kept_names_are_defined_and_unused():
    # a kept name that a program file starts to use leaves the list
    defined, used = _surface()
    assert KEPT <= set(defined)
    assert not KEPT & used
