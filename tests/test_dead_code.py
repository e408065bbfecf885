"""Every module-level function and class in imvc has a caller in imvc,
and every module-level import is read by its module.

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


def test_every_definition_has_a_caller_in_the_package():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    known = used | set(imvc.__all__) | LIBRARY_ONLY
    unused = sorted(qualified for qualified, name in defined.items()
                    if name not in known)
    assert unused == []


def test_every_module_level_import_is_read_by_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
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
                        unused.append(f"{path.stem}.{name}")
    assert unused == []
