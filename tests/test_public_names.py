"""Every public name of the package has a caller inside the package."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rclab"

# Public names that need no caller in src/rclab, each with its reason.
NO_CALLER_NEEDED = {
    "__init__.get_algebra": "re-exported as the package's entry point",
    "__init__.ALGEBRA_NAMES": "re-exported as the package's entry point",
    "__init__.__version__": "the package version",
}

# Public methods that nothing in src/rclab reads, each with its reason.
NO_READER_NEEDED = dict.fromkeys(
    ("sympoly.BracketPolynomial.evaluate", "sympoly.BracketPolynomial.evaluate_specialized",
     "brackets.OrthoPoly.evaluate", "sympoly.SymExpr.num_terms"),
    "perfbench's tracer wraps it by name")


def public_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def reads(node):
    """(bare names, (module alias, attribute) pairs) read in ``node``."""
    names, attrs = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            attrs.add((sub.value.id, sub.attr))
    return names, attrs


def imports(tree):
    """(source module, imported name, local name) for each name a ``from``
    import in ``tree`` binds; the package itself is the source ''."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module if node.level == 0 else (node.module or "")
            source = source.removeprefix("rclab").lstrip(".")
            out.extend((source, alias.name, alias.asname or alias.name) for alias in node.names)
    return out


def bindings(imported, module, name):
    """Local names under which a module with the ``imports`` list
    ``imported`` binds ``module`` itself and its ``name``: (module aliases,
    name aliases)."""
    home = "" if module == "__init__" else module
    mods = {local for source, alias, local in imported if source == "" and alias == module}
    objs = {local for source, alias, local in imported if source == home and alias == name}
    return mods, objs


def unused_public_names(src):
    # one walk per top-level statement of each module: the reads of each,
    # with the name it defines, their union, and the module's imports
    modules = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        parts = [(node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None,
                  *reads(node)) for node in tree.body]
        names = set().union(*(p[1] for p in parts))
        attrs = set().union(*(p[2] for p in parts))
        modules[path.stem] = (public_names(tree), parts, names, attrs, imports(tree))
    unused = []
    for module, (public, parts, *_) in modules.items():
        for name in public:
            # a read outside the name's own definition
            used = any(name in names for defined, names, _ in parts if defined != name)
            for other, (_, _, names, attrs, imported) in modules.items():
                if used or other == module:
                    continue
                mods, objs = bindings(imported, module, name)
                used = bool(objs & names) or any((m, name) in attrs for m in mods)
            if not used:
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    # the allowlist is exact: an entry that is no longer a public name, or
    # that now has a caller, fails as much as an uncalled name missing from it
    assert sorted(unused_public_names(SRC)) == sorted(NO_CALLER_NEEDED)


def unused_public_methods(src):
    """module.Class.method for each public method of a top-level class whose
    name no code of the package reads as an attribute.  A read inside the
    method itself, or inside a method found unread, does not count, so a
    method read only by unread ones is found too, in a later round."""
    def attrs(node):
        return Counter(sub.attr for sub in ast.walk(node)
                       if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))

    total, inside = Counter(), {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += attrs(tree)
        inside.update({f"{path.stem}.{cls.name}.{fn.name}": attrs(fn) for cls in tree.body
                       if isinstance(cls, ast.ClassDef) for fn in cls.body
                       if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")})
    found = set()
    while new := {m for m in set(inside) - found if not (total - sum(
            (inside[dead] for dead in found | {m}), Counter()))[m.rsplit(".", 1)[1]]}:
        found |= new
    return sorted(found)


def test_every_public_method_is_read():
    # exact like the list of names: an allowed method that gains a reader fails
    assert unused_public_methods(SRC) == sorted(NO_READER_NEEDED)


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


def test_the_check_sees_a_method_without_a_reader(tmp_path):
    # a method read only by itself or by an unread method is unread; one read
    # by module code, or by a read method, is not
    (tmp_path / "a.py").write_text(
        "class A:\n    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def unused(self):\n        return self.only_from_unused()\n"
        "    def only_from_unused(self):\n        return self.only_from_unused()\n"
        "def f(a):\n    return a.used()\n")
    assert unused_public_methods(tmp_path) == ["a.A.only_from_unused", "a.A.unused"]
