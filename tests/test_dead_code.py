"""Every module-level function and class in imvc has a caller in imvc,
every module-level constant is read in imvc, and every module-level import
is read by its module.

A definition counts as used when its name is read, taken as an attribute
or imported anywhere in the package's source, or when the package exports
it. Code that only tests call belongs in tests/. An imported name counts
as used when its own module reads it or lists it in its `__all__`.
"""

import ast
from pathlib import Path

import imvc

SRC = Path(imvc.__file__).resolve().parent

# library formulas that the acceptance criteria test but imvc does not call
LIBRARY_ONLY = {"split_gini"}

# constants that the benchmark's tracer reads (perfbench/tracer.py)
TRACER_ONLY = {"tao.MAX_SELF_LABEL_ITERATIONS"}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def names_read_in_package() -> set[str]:
    """Names read, taken as an attribute or imported anywhere in imvc."""
    used = set()
    for _, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_definition_has_a_caller_in_the_package():
    defined = {}
    for stem, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[f"{stem}.{node.name}"] = node.name
    known = names_read_in_package() | set(imvc.__all__) | LIBRARY_ONLY
    unused = sorted(qualified for qualified, name in defined.items()
                    if name not in known)
    assert unused == []


def test_every_module_level_constant_is_read_in_the_package():
    defined = {}
    for stem, tree in modules():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and not name.id.startswith("__")):
                        defined[f"{stem}.{name.id}"] = name.id
    known = names_read_in_package()
    unused = sorted(qualified for qualified, name in defined.items()
                    if name not in known and qualified not in TRACER_ONLY)
    assert unused == []


def test_every_module_level_import_is_read_by_its_module():
    unused = []
    for stem, tree in modules():
        known = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)} | {"annotations"}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [target.id for target in node.targets
                         if isinstance(target, ast.Name)] == ["__all__"]):
                known |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in known:
                        unused.append(f"{stem}.{name}")
    assert unused == []
