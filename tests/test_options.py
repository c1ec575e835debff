"""Every option of the package is set by some caller."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rclab"
MODULES = tuple(sorted(path.stem for path in SRC.glob("*.py")))

# Defaulted parameters that no call in src/rclab passes, each with its reason.
NO_CALLER_NEEDED = {
    "cli.main.argv":
        "the entry point: the console script calls main() bare, so argparse "
        "reads sys.argv; tests and perfbench pass the argument list",
}


def is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def has_default(value):
    """Whether a dataclass field's value gives it a default: any value but
    a field(...) call without default or default_factory."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def signatures(tree):
    """{public function or class: (positional parameters, defaulted ones)};
    a class is read through its __init__, without self, and a dataclass
    through its fields."""
    out = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            out[node.name] = ([f.target.id for f in fields],
                              [f.target.id for f in fields if has_default(f.value)])
            continue
        fn = node if isinstance(node, ast.FunctionDef) else next(
            (item for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "__init__"), None)
        if fn is None:
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        if fn is not node:
            positional = positional[1:]
        out[node.name] = (positional, defaulted)
    return out


def unset_options(src):
    """``module.function.parameter`` for each defaulted parameter of a public
    function or class of MODULES that no call in ``src`` passes."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    sigs = {name: (module, sig) for module in MODULES if module in trees
            for name, sig in signatures(trees[module]).items()}
    passed = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in sigs:
                continue
            positional, _ = sigs[name][1]
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    kw.arg is None for kw in call.keywords):
                passed.update((name, p) for p in positional)
            passed.update((name, p) for p in positional[:len(call.args)])
            passed.update((name, kw.arg) for kw in call.keywords)
    return sorted(f"{module}.{name}.{p}" for name, (module, (_, defaulted)) in sigs.items()
                  for p in defaulted if (name, p) not in passed)


def test_every_option_has_a_caller():
    # the allowlist is exact: an entry that is no longer an option, or that a
    # call now sets, fails as much as an unset option missing from it
    assert unset_options(SRC) == sorted(NO_CALLER_NEEDED)


def test_the_scan_sees_an_option_no_call_sets(tmp_path):
    # positional and keyword arguments both set an option; a class is read
    # through its __init__, a dataclass through its fields
    (tmp_path / "tube.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3):\n    return a\n"
        "class G:\n    def __init__(self, x, y=0):\n        self.x = x\n"
        "@dataclass\nclass R:\n    u: int\n    v: int = field(repr=False)\n"
        "    w: int = 0\n    z: list = field(default_factory=list)\n"
        "@dataclass(frozen=True)\nclass S:\n    u: int\n    seed: int = None\n"
        "def _private(e=1):\n    return e\n")
    (tmp_path / "cli.py").write_text(
        "from . import tube\n"
        "def main():\n    return tube.f(1, 2, d=4), tube.G(0), tube.R(1, 2, z=[]), tube.S(0)\n")
    assert unset_options(tmp_path) == ["tube.G.y", "tube.R.w", "tube.S.seed", "tube.f.c"]
