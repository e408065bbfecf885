"""Every module-level function and class in imvc has a caller in imvc,
every module-level constant is read in imvc, every module-level import
is read by its module, every parameter with a default is passed by
some call in imvc and left at its default by another, no default
restates one of PipelineConfig, and the modules behind the input boundary
raise only in the functions listed as keeping a check.

A definition counts as used when its name is read, taken as an attribute
or imported anywhere in the package's source, or when the package exports
it. Code that only tests call belongs in tests/. An imported name counts
as used when its own module reads it or lists it in its `__all__`. A
parameter that no call in the package passes is an option that only tests
set: its default is then the one value the package uses. A parameter
that every call in the package passes has a default that only tests
use, and so do the branches behind it; functions that imvc exports are
left out, as library users call them. A parameter named after a
PipelineConfig field with that field's default repeats a default of the
fit, which lives only in the config. `PipelineConfig.validate`,
`pipeline._check_views`, `initialize`'s k <= n check and
`ServedModel.preprocess` check everything a public call passes on to
nncore, kmeans, dtree and tao, so a `raise` there re-checks what the
boundary has checked, unless its function is in KEPT_RAISES. Each
exemption below must still be needed: a name that no longer needs one
fails the last test.
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

# the modules that take their input from the boundary's checks
BEHIND_THE_BOUNDARY = ("nncore", "kmeans", "dtree", "tao")

# the checks kept there: training's gradient check, non-finite initial
# centers, the formulas the acceptance criteria call with lists, and a
# served model whose tree and view widths disagree
KEPT_RAISES = {"nncore.check_gradients", "kmeans.lloyd", "dtree.gini",
               "dtree.split_gini", "dtree.DecisionTree._layout"}


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


def uncalled_definitions() -> dict[str, str]:
    """Qualified name -> name of every module-level function and class
    that imvc neither reads nor exports."""
    known = names_read_in_package() | set(imvc.__all__)
    return {f"{stem}.{node.name}": node.name
            for stem, tree in modules() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in known}


def test_every_definition_has_a_caller_in_the_package():
    unused = sorted(qualified
                    for qualified, name in uncalled_definitions().items()
                    if name not in LIBRARY_ONLY)
    assert unused == []


def unread_constants() -> set[str]:
    """Qualified names of the module-level constants imvc never reads."""
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
    return {qualified for qualified, name in defined.items()
            if name not in known}


def test_every_module_level_constant_is_read_in_the_package():
    assert sorted(unread_constants() - TRACER_ONLY) == []


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


def parameter_use():
    """(qualified name, called name, passed, left out) of every defaulted
    parameter: whether some call in imvc can pass it and whether some call
    can leave it at its default. A call with `*args` or `**kwargs` can
    leave any parameter out."""
    calls = list(calls_in_package())
    for qualified, called, name, position, _ in defaulted_parameters():
        passed = left_out = False
        for callee, count, keywords in calls:
            if callee == called:
                given = (name in keywords
                         or (position is not None and count > position))
                passed |= given or None in keywords
                left_out |= (not given or None in keywords
                             or count == math.inf)
        yield qualified, called, passed, left_out


def parameters_no_call_passes() -> set[str]:
    return {qualified for qualified, _, passed, _ in parameter_use()
            if not passed}


def parameters_every_call_passes() -> set[str]:
    """Those of functions that imvc does not export: library users call
    these."""
    return {qualified for qualified, called, _, left_out in parameter_use()
            if not left_out and called not in imvc.__all__}


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert sorted(parameters_no_call_passes() - SET_OUTSIDE_THE_PACKAGE) == []


def test_every_defaulted_parameter_is_left_at_its_default_by_some_call():
    assert sorted(parameters_every_call_passes()
                  - SET_OUTSIDE_THE_PACKAGE) == []


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


def functions_that_raise() -> set[str]:
    """Qualified names (module, classes, functions) of the scopes that
    hold a `raise` in the modules behind the boundary; a raise at module
    level is named by its module."""
    raising = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Raise):
                    raising.add(scope)
                visit(child, scope)

    for stem, tree in modules():
        if stem in BEHIND_THE_BOUNDARY:
            visit(tree, stem)
    return raising


def test_modules_behind_the_boundary_raise_only_where_kept():
    assert sorted(functions_that_raise() - KEPT_RAISES) == []


def test_every_exemption_is_still_needed():
    flagged = {
        "LIBRARY_ONLY": set(uncalled_definitions().values()),
        "TRACER_ONLY": unread_constants(),
        "SET_OUTSIDE_THE_PACKAGE": (parameters_no_call_passes()
                                    | parameters_every_call_passes()),
        "KEPT_RAISES": functions_that_raise(),
    }
    exempt = {"LIBRARY_ONLY": LIBRARY_ONLY, "TRACER_ONLY": TRACER_ONLY,
              "SET_OUTSIDE_THE_PACKAGE": SET_OUTSIDE_THE_PACKAGE,
              "KEPT_RAISES": KEPT_RAISES}
    stale = sorted(f"{group}: {name}" for group, names in exempt.items()
                   for name in names - flagged[group])
    assert stale == []
