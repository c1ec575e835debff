"""Every public name of the package has a caller inside the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rclab"

# Public names that need no caller in src/rclab, each with its reason.
NO_CALLER_NEEDED = {
    "__init__.get_algebra": "re-exported as the package's entry point",
    "__init__.ALGEBRA_NAMES": "re-exported as the package's entry point",
    "__init__.__version__": "the package version",
}


def public_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def reads(tree, skip=None):
    """(bare names, (module alias, attribute) pairs) read in ``tree``,
    outside the top-level definition named ``skip``."""
    names, attrs = set(), set()
    stack = [node for node in tree.body
             if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attrs.add((node.value.id, node.attr))
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def bindings(tree, module, name):
    """Local names under which ``tree`` imports ``module`` itself and its
    ``name``: (module aliases, name aliases)."""
    package = module == "__init__"
    mods, objs = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module if node.level == 0 else (node.module or "")
        source = source.removeprefix("rclab").lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if source == ("" if package else module) and alias.name == name:
                objs.add(local)
            elif source == "" and alias.name == module:
                mods.add(local)
    return mods, objs


def unused_public_names(src):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name in public_names(tree):
            names, _ = reads(tree, skip=name)
            used = name in names
            for other_name, other in trees.items():
                if used or other is tree:
                    continue
                mods, objs = bindings(other, module, name)
                names, attrs = reads(other)
                used = bool(objs & names) or any((m, name) in attrs for m in mods)
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    # the allowlist is exact: an entry that is no longer a public name, or
    # that now has a caller, fails as much as an uncalled name missing from it
    assert sorted(unused_public_names(SRC)) == sorted(NO_CALLER_NEEDED)


def test_the_check_sees_a_name_without_a_caller(tmp_path):
    # a local variable of the same name is not a caller, nor is a recursive
    # call; a module attribute read is
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "attr_used", "unused", "recursive"]\n'
        "def used():\n    return 1\n"
        "def attr_used():\n    return 2\n"
        "def unused():\n    return used()\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def f():\n    unused = 1\n    return a.attr_used() + unused\n")
    assert unused_public_names(tmp_path) == ["a.unused", "a.recursive"]
