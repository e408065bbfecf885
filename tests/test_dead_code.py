"""Every module-level function and class in imvc has a caller in imvc,
every module-level constant is read in imvc, every module-level import
is read by its module, every parameter with a default is passed by
some call in imvc, and no default restates one of PipelineConfig.

A definition counts as used when its name is read, taken as an attribute
or imported anywhere in the package's source, or when the package exports
it. Code that only tests call belongs in tests/. An imported name counts
as used when its own module reads it or lists it in its `__all__`. A
parameter that no call in the package passes is an option that only tests
set: its default is then the one value the package uses. A parameter
named after a PipelineConfig field with that field's default repeats a
default of the fit, which lives only in the config.
"""

import ast
import dataclasses
import math
from pathlib import Path

import imvc
from imvc.pipeline import PipelineConfig

SRC = Path(imvc.__file__).resolve().parent

# library formulas that the acceptance criteria test but imvc does not call
LIBRARY_ONLY = {"split_gini"}

# constants that the benchmark's tracer reads (perfbench/tracer.py)
TRACER_ONLY = {"tao.MAX_SELF_LABEL_ITERATIONS"}

# the console script calls main() with no argument; tests pass an argv
SET_OUTSIDE_THE_PACKAGE = {"cli.main(argv)"}


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


def defaulted_parameters():
    """(qualified name, called name, parameter, position, default node) of
    every parameter with a default of a function or method in imvc. A
    method is called as an attribute, so its position leaves out `self`;
    a constructor is called by its class name; a keyword-only parameter
    has position None."""
    for stem, tree in modules():
        owners = {fn: cls for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owners.get(fn)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            bound = cls is not None and not static
            called = cls.name if cls and fn.name == "__init__" else fn.name
            where = f"{stem}.{cls.name}.{fn.name}" if cls else f"{stem}.{fn.name}"
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, (arg, default) in enumerate(
                    zip(positional[first:], fn.args.defaults), start=first):
                yield (f"{where}({arg.arg})", called, arg.arg, i - bound,
                       default)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield f"{where}({arg.arg})", called, arg.arg, None, default


def calls_in_package():
    """(called name, positional count, keyword names) of every call in
    imvc; a `*args` counts as every position, a `**kwargs` as the
    keyword None."""
    for _, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            positional = (math.inf if any(isinstance(a, ast.Starred)
                                          for a in node.args)
                          else len(node.args))
            yield name, positional, {kw.arg for kw in node.keywords}


def test_every_defaulted_parameter_is_passed_in_the_package():
    calls = list(calls_in_package())
    unset = sorted(
        qualified
        for qualified, called, name, position, _ in defaulted_parameters()
        if qualified not in SET_OUTSIDE_THE_PACKAGE
        and not any(callee == called
                    and (name in keywords or None in keywords
                         or (position is not None and count > position))
                    for callee, count, keywords in calls))
    assert unset == []


def literal(node):
    """The value of a literal default, or a marker equal to nothing."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return object()


def test_no_defaulted_parameter_restates_a_config_default():
    config = {f.name: f.default for f in dataclasses.fields(PipelineConfig)
              if f.default is not dataclasses.MISSING}
    restated = sorted(
        qualified for qualified, _, name, _, default in defaulted_parameters()
        if name in config and literal(default) == config[name])
    assert restated == []
