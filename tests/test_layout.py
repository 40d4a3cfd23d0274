"""`src/affkit` holds only code that the package itself or perfbench runs.

The test parses `src/affkit` and `perfbench` with `ast` and resolves every
name and attribute per module through its imports, so `ad.transpose` under
`import affkit.autodiff as ad` refers to `affkit.autodiff.transpose` while
`np.transpose` refers to nothing in the package. Each module-level function
or class of `src/affkit` must be referred to from `src/affkit` or
`perfbench`; a method (dunders aside) is matched by attribute name, as
`ast` does not know its receiver's type. The click command functions,
which the `main` group reaches through their decorators, are exempt.
Helpers that only tests need live in `tests/support.py`. Each name a
module imports must be used in that module, so no module re-exports
another's names by accident; `__init__`'s `__all__` is the one export list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affkit"


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): ast.parse(p.read_text())
           for p in sorted(PACKAGE.glob("*.py"))}
PERFBENCH = [ast.parse(p.read_text())
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
TOP = {m: {n.name: n for n in tree.body
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
       for m, tree in MODULES.items()}


def _target(module, name):
    """("mod", dotted) if module.name is an affkit module, else ("def", ...)."""
    full = f"{module}.{name}"
    return ("mod", full) if full in MODULES else ("def", module, name)


def _imports(tree):
    """Local name -> ("mod", module) or ("def", module, name), affkit only."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "affkit":
                    table[a.asname or "affkit"] = ("mod", a.name if a.asname
                                                   else "affkit")
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["affkit" if node.level else None,
                                          node.module]))
            if base.split(".")[0] == "affkit":
                for a in node.names:
                    table[a.asname or a.name] = _target(base, a.name)
    return table


IMPORTS = {m: _imports(tree) for m, tree in MODULES.items()}


def _origin(module, name):
    """Follow imports such as affkit's `from .memory import x` to the definer."""
    target = IMPORTS.get(module, {}).get(name)
    if name not in TOP.get(module, {}) and target and target[0] == "def":
        return _origin(target[1], target[2])
    return module, name


def _references(tree, module=None):
    """The (defining module, name) pairs that `tree` refers to, and every
    attribute name it uses."""
    table = _imports(tree)

    def resolve(node):
        if isinstance(node, ast.Name):
            if node.id in table:
                return table[node.id]
            if node.id in TOP.get(module, {}):
                return ("def", module, node.id)
        elif isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if base and base[0] == "mod":
                return _target(base[1], node.attr)
        return None

    refs, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        target = resolve(node)
        if target and target[0] == "def":
            refs.add(_origin(target[1], target[2]))
    return refs, attrs


def _is_click_command(node):
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr == "command":
            return True
    return False


def _unused(refs, attrs):
    unused = []
    for module, defs in TOP.items():
        for name, node in defs.items():
            if (module, name) not in refs and not _is_click_command(node):
                unused.append(f"{module}.{name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{module}.{name}.{m.name}" for m in node.body
                           if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")
                           and m.name not in attrs]
    return unused


def test_resolution_is_per_module():
    refs, _ = _references(ast.parse(
        "import numpy as np\nimport affkit.autodiff as ad\n"
        "from affkit import model, load_memory\n"
        "from affkit.evaluation import ablation\n"
        "np.transpose(x)\nad.backward(y)\nmodel.gate\nload_memory\nablation\n"))
    assert refs == {("affkit.autodiff", "backward"), ("affkit.model", "gate"),
                    ("affkit.memory", "load_memory"),
                    ("affkit.model", "ablation")}


def test_every_definition_is_used_outside_tests():
    refs, attrs = set(), set()
    for module, tree in [*MODULES.items(), *((None, t) for t in PERFBENCH)]:
        r, a = _references(tree, module)
        refs |= r
        attrs |= a
    unused = _unused(refs, attrs)
    assert not unused, (f"neither src/affkit nor perfbench uses {unused}; "
                        "move helpers that only tests need to tests/support.py")


def test_every_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            target = node.targets[0] if isinstance(node, ast.Assign) else None
            if isinstance(target, ast.Name) and target.id == "__all__":
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}.{name}" for name in
                           (a.asname or a.name.split(".")[0]
                            for a in node.names) if name not in used]
    assert not unused, f"imported but unused: {unused}"
