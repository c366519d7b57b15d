"""Every function, class and method ``src/lfme_lab`` defines is used by ``src/lfme_lab``,
and every parameter it gives a default is set by some call in ``src/lfme_lab``.

A definition counts as used when its name occurs as a code identifier (not in a
string or comment) anywhere in the package besides its own ``def`` or ``class``
line. Dunder methods are called by Python itself and are not checked. src keeps
no name that only tests or tools use: a reference implementation a test checks
src against lives in ``tests/oracles.py``, and ``ALLOWED`` stays empty.

A defaulted parameter counts as set when a call of the function's bare name
passes it by keyword or by position, or passes a ``*`` or ``**`` splat. A call
of a class, or ``super().__init__`` in a subclass, is a call of its ``__init__``.
A parameter no src call sets is a constant in disguise; one that only callers
outside src set goes on ``ALLOWED_UNSET`` with its reason.

src reads no environment variable either, and checks a spec once: a ``validate()``
call sits only in a ``__post_init__``, so a spec that exists is valid and no caller
checks it again.
"""

import ast
import io
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

import lfme_lab

PACKAGE = Path(lfme_lab.__file__).resolve().parent

ALLOWED = {}

ALLOWED_UNSET = {
    "cli.main.argv":
        "the entry point: perfbench and tests pass an argument list, the command line none",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """``(qualified name, node, class)`` of each top-level function and class and each method;
    ``class`` is the method's class, or None."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{node.name}.{item.name}", item, node


def unused_definitions(package: Path) -> list[str]:
    """Definitions in ``package`` whose name occurs nowhere in it but at its definitions."""
    uses, defined = Counter(), []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        uses.update(tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.NAME)
        defined += [(f"{path.stem}.{qual}", node.name)
                    for qual, node, _ in definitions(ast.parse(source))
                    if not (node.name.startswith("__") and node.name.endswith("__"))]
    times_defined = Counter(name for _, name in defined)
    # Each definition's own ``def name`` / ``class name`` is one occurrence of the name.
    return [qual for qual, name in defined if uses[name] <= times_defined[name]]


def calls(tree: ast.Module):
    """``(call name, call node)`` of each call of a name or attribute."""
    inits = {}      # super().__init__ call -> its class's bases
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "id", None) == "super"):
                    inits[node] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
    for node in ast.walk(tree):
        if node in inits:
            yield from ((base, node) for base in inits[node])
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            yield getattr(node.func, "id", None) or node.func.attr, node


def unset_parameters(package: Path) -> list[str]:
    """``module.function.parameter`` of each defaulted parameter no call in ``package`` sets."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    keywords, reach = defaultdict(set), Counter()   # per call name: keywords, most positionals
    for tree in trees.values():
        for name, call in calls(tree):
            keywords[name].update(k.arg or "*" for k in call.keywords)
            if any(isinstance(a, ast.Starred) for a in call.args):
                keywords[name].add("*")
            reach[name] = max(reach[name], len(call.args))
    unset = []
    for stem, tree in trees.items():
        for qual, node, cls in definitions(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            # A class is called by its own name to run its ``__init__``.
            call_name = cls.name if cls and node.name == "__init__" else node.name
            args = [*node.args.posonlyargs, *node.args.args]
            defaulted = args[len(args) - len(node.args.defaults):] + [
                a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            passed = keywords[call_name]
            first_unpassed = reach[call_name] + (cls is not None)   # a bound call skips self
            for arg in defaulted:
                by_position = arg in args and args.index(arg) < first_unpassed
                if not (by_position or arg.arg in passed or "*" in passed):
                    unset.append(f"{stem}.{qual}.{arg.arg}")
    return unset


def test_src_defines_nothing_src_never_uses():
    unused = sorted(unused_definitions(PACKAGE))
    assert not unused, f"defined in src/lfme_lab but never used there: {unused}"


def test_allowlist_is_empty():
    assert not ALLOWED, f"src keeps no test-only code; move these to tests/oracles.py: {ALLOWED}"


def test_guard_flags_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\n"
                                   "def unused():\n    '''used()'''\n    return used()\n")
    (tmp_path / "b.py").write_text("class Box:\n    def __init__(self):\n        self.x = 0\n\n"
                                   "    def spare(self):\n        return 0  # unused, Box\n")
    assert sorted(unused_definitions(tmp_path)) == ["a.unused", "b.Box", "b.Box.spare"]


def test_src_sets_every_parameter_it_defaults():
    unset = sorted(set(unset_parameters(PACKAGE)) - set(ALLOWED_UNSET))
    assert not unset, f"defaulted in src/lfme_lab but never set there: {unset}"


def test_unset_allowlist_names_only_unset_parameters():
    stale = sorted(set(ALLOWED_UNSET) - set(unset_parameters(PACKAGE)))
    assert not stale, f"ALLOWED_UNSET entries that src now sets or no longer defines: {stale}"


def test_guard_flags_an_unset_parameter(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, by_pos=1, by_key=2, spare=3, *, only=4):\n    return x\n\n\n"
        "def g(x=0, y=0):\n    return f(x, 1, by_key=2) + h(*[x]) + k(**{})\n\n\n"
        "def h(z=0, w=0):\n    return z\n\n\n"
        "def k(*, v=0):\n    return v\n")
    (tmp_path / "b.py").write_text(
        "class Base:\n    def __init__(self, a=0, b=0):\n        self.a = a\n\n\n"
        "class Kid(Base):\n    def __init__(self, c=0):\n        super().__init__(c)\n\n"
        "    def m(self, d=0, e=0):\n        return self.m(1)\n\n\n"
        "box = Kid(c=1)\n")
    assert sorted(unset_parameters(tmp_path)) == [
        "a.f.only", "a.f.spare", "a.g.x", "a.g.y", "b.Base.__init__.b", "b.Kid.m.e"]


def validate_calls(package: Path) -> list[str]:
    """``file:line`` of each call of a ``validate`` method outside a ``__post_init__``."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, FUNCTIONS) and fn.name == "__post_init__"
                   for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "validate" and id(node) not in allowed]
    return found


def test_specs_are_validated_only_when_built():
    assert validate_calls(PACKAGE) == []


def test_guard_flags_a_validate_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Spec:\n    def __post_init__(self):\n        self.validate()\n\n"
        "    def validate(self):\n        return None\n\n\n"
        "def run(spec):\n    spec.validate()\n")
    assert validate_calls(tmp_path) == ["a.py:10"]


def test_src_reads_no_environment_variable():
    # A run is set by its config file and command line alone: an environment variable
    # would be a second, unrecorded way to set a config value.
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [f"{path.name}:{tok.start[0]}" for path in sorted(PACKAGE.glob("*.py"))
             for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
             if tok.type == tokenize.NAME and tok.string in names]
    assert found == []
