"""Every function, class and method that ``src/recloud`` defines is named
somewhere in ``src/recloud`` or ``perfbench`` besides its own definition, so
code only the tests call (a test-only wrapper) cannot stay in the package.

A name counts where the code reads it (a name, an attribute or an import) or
spells it as a whole string, as the benchmark's span lists do; a docstring
that mentions it does not count. The package's ``__init__.py`` is not a
reader: exporting a name (importing it there and listing it in ``__all__``)
does not keep it alive. Dunder methods are called by Python itself and are
not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recloud"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _named(trees) -> set[str]:
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                names.add(node.value)
    return names


def _dead(trees) -> list[str]:
    """The package's definitions named nowhere in ``trees`` but in their own
    definition and in ``__init__.py``."""
    named = _named((path, tree) for path, tree in trees if path.name != "__init__.py")
    return [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for path, tree in trees if path.parent == PACKAGE
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in named]


def test_every_definition_is_named_outside_itself():
    assert _dead(list(_trees(PACKAGE, ROOT / "perfbench"))) == []


def test_an_export_alone_does_not_keep_a_definition():
    module = "def kept(x):\n    return x\n\n\ndef exported(x):\n    return kept(x)\n"
    init = ('from .mod import exported, kept\n'
            '__all__ = ["exported", "kept"]\n')
    user = "from recloud.mod import kept\nkept(1)\n"
    trees = [(PACKAGE / "mod.py", ast.parse(module)),
             (PACKAGE / "__init__.py", ast.parse(init)),
             (ROOT / "perfbench" / "user.py", ast.parse(user))]
    assert _dead(trees) == ["src/recloud/mod.py:5 exported"]
