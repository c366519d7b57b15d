"""Every function, class and method ``src/lfme_lab`` defines is used by ``src/lfme_lab``.

A definition counts as used when its name occurs as a code identifier (not in a
string or comment) anywhere in the package besides its own ``def`` or ``class``
line. Dunder methods are called by Python itself and are not checked. A name
that only tests or tools use goes on ``ALLOWED`` with the reason it is kept.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import lfme_lab

PACKAGE = Path(lfme_lab.__file__).resolve().parent

ALLOWED = {
    "analysis.classification_ratio":
        "the one-row reference test_analysis checks classification_ratio_rows against",
    "domains.spurious_label_correlation":
        "the oracle test_domains uses to measure the suite's spurious strength",
}


def definitions(tree: ast.Module):
    """``(qualified name, bare name)`` of each top-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def unused_definitions(package: Path) -> list[str]:
    """Definitions in ``package`` whose name occurs nowhere in it but at its definitions."""
    uses, defined = Counter(), []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        uses.update(tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.NAME)
        defined += [(f"{path.stem}.{qual}", name) for qual, name in definitions(ast.parse(source))]
    times_defined = Counter(name for _, name in defined)
    # Each definition's own ``def name`` / ``class name`` is one occurrence of the name.
    return [qual for qual, name in defined if uses[name] <= times_defined[name]]


def test_src_defines_nothing_src_never_uses():
    unused = sorted(set(unused_definitions(PACKAGE)) - set(ALLOWED))
    assert not unused, f"defined in src/lfme_lab but never used there: {unused}"


def test_allowlist_names_only_unused_definitions():
    stale = sorted(set(ALLOWED) - set(unused_definitions(PACKAGE)))
    assert not stale, f"ALLOWED entries that src now uses or no longer defines: {stale}"


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\n"
                                   "def unused():\n    '''used()'''\n    return used()\n")
    (tmp_path / "b.py").write_text("class Box:\n    def __init__(self):\n        self.x = 0\n\n"
                                   "    def spare(self):\n        return 0  # unused, Box\n")
    assert sorted(unused_definitions(tmp_path)) == ["a.unused", "b.Box", "b.Box.spare"]
