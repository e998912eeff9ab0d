"""Every name a module of the package imports is used in that module,
every private function, method or class is referenced somewhere in the
package, every public one runs under a command or an acceptance check (or
is a reference that a named test compares other code against), and every
parameter or dataclass field takes two values, or a runtime one, across the
calls in ``src/`` (tests are not callers), unless a named test gives it its
second value.  A defaulted one has its default among them: some call in
``src/`` omits it.

A standard-library stand-in for an unused-code lint: it parses each
``src/sgrg/*.py`` file and checks the names bound by ``import`` statements,
at module level or inside functions, the function, method and class
definitions, and the parameters and dataclass fields.
"""

import ast
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sgrg"
TESTS = Path(__file__).resolve().parent


def imported_names(tree):
    """{bound name: line} for every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "annotations":
                    out[alias.asname or alias.name] = node.lineno
    return out


def referenced_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("import os\nfrom math import pi, tau as t\n\ndef f():\n    import sys\n    return pi\n")
    assert set(imported_names(tree)) - referenced_names(tree) == {"os", "t", "sys"}


def definitions(tree):
    """Every function, method or class defined in the module."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def private_definitions(tree):
    """Every _name function, method or class defined in the module (no dunders)."""
    return [
        node for node in definitions(tree)
        if node.name.startswith("_") and not node.name.endswith("__")
    ]


def name_uses(node) -> Counter:
    """How often each name is read: ("name", id) for a bare name,
    ("attr", name) for an attribute read ``x.name``."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            uses["attr", sub.attr] += 1
    return uses


def methods(tree) -> set:
    """The ids of the function nodes defined directly in a class body."""
    return {
        id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def unreferenced(defined, trees) -> list:
    """Definitions in ``trees`` that nothing in ``trees`` refers to outside
    their own body.  An import alone is not a reference, and a
    method is referred to only by an attribute read: a local or parameter of
    the same name does not count."""
    total = sum((name_uses(tree) for tree in trees), Counter())

    def refs(uses, node, is_method):
        return uses["attr", node.name] + (0 if is_method else uses["name", node.name])

    out = []
    for tree in trees:
        in_class = methods(tree)
        for node in defined(tree):
            is_method = id(node) in in_class
            if refs(total, node, is_method) - refs(name_uses(node), node, is_method) <= 0:
                out.append(node.name)
    return out


def parse_all(folder):
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(folder.glob("*.py"))]


def test_no_unreferenced_private_definitions():
    assert unreferenced(private_definitions, parse_all(SRC)) == []


def test_unreferenced_private_is_caught():
    a = ast.parse(
        "class _Used:\n    def __init__(self):\n        pass\n    def _dead(self):\n        pass\n"
        "def _rec(n):\n    return _rec(n - 1)\n"
        "def _helper():\n    return _Used()\n"
    )
    b = ast.parse("from a import _helper\n\nx = _helper()\n")
    assert sorted(unreferenced(private_definitions, [a, b])) == ["_dead", "_rec"]


# -- reachability: every public definition runs under a command or an
# acceptance check, or is a reference that a named test compares other code to

# {qualified name: the test that compares other code against it}
KEPT = {
    "rgmap.charge_factors":
        "test_rgmap.py::TestChargedSectorBound::test_single_cloud_never_exceeds_composite_bound",
    "covariance.translation_loss":
        "test_rgmap.py::TestChargedSectorBound::test_single_cloud_never_exceeds_composite_bound",
    "interpolation.forest_count_recursive":
        "test_interpolation.py::TestForests::test_counts_match_recursion",
    "terms.CloudTerm.flipped":
        "test_rgmap.py::TestRGStep::test_uv_step_preserves_evenness_and_charge_track",
    "covariance.verify_periodization":
        "test_covariance.py::TestTorusKernels::test_periodized_continuum_matches_direct",
}
KEPT_MAX = 5

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def parse_modules(folder) -> dict:
    """{module name: tree} for every ``*.py`` file of the folder."""
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(folder.glob("*.py"))}


def definition_table(mods) -> dict:
    """{qualified name: node} for the module-level functions and classes and
    the methods of module-level classes; a nested function belongs to the
    function around it."""
    out = {}
    for mod, tree in mods.items():
        for node in tree.body:
            if isinstance(node, (*FUNCS, ast.ClassDef)):
                out[f"{mod}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, FUNCS):
                        out[f"{mod}.{node.name}.{sub.name}"] = sub
    return out


def reads(node) -> set:
    """("name", id) and ("attr", name) for every name the node reads.  A class
    reads its bases, decorators and body, but of a method only what runs when
    the class is built: its decorators and defaults.  A function's bare reads
    leave out the names it binds by assignment or as parameters: those are
    its locals, not the module's definitions."""
    if isinstance(node, FUNCS):
        local = {sub.arg for sub in ast.walk(node) if isinstance(sub, ast.arg)}
        local |= {sub.id for sub in ast.walk(node)
                  if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)}
        body = {read for read in reads(node.body) if read[0] == "attr" or read[1] not in local}
        args = node.args
        return body | reads([*node.decorator_list, *args.defaults,
                             *(d for d in args.kw_defaults if d is not None)])
    parts = node if isinstance(node, list) else [node]
    if isinstance(node, ast.ClassDef):
        parts = [*node.bases, *node.keywords, *node.decorator_list]
        for sub in node.body:
            if isinstance(sub, FUNCS):
                parts += [*sub.decorator_list, *sub.args.defaults,
                          *(d for d in sub.args.kw_defaults if d is not None)]
            else:
                parts.append(sub)
    out = set()
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(("name", sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(("attr", sub.attr))
    return out


def root_reads(mods, *trees) -> set:
    """What a command runs from: the reads of ``cli.main`` and of each module's
    import-time statements, plus every read of ``trees``."""
    out = set().union(*(reads(tree) for tree in trees))
    for tree in mods.values():
        for node in tree.body:
            if not isinstance(node, (*FUNCS, ast.ClassDef)):
                out |= reads(node)
    main = next(n for n in mods["cli"].body if isinstance(n, FUNCS) and n.name == "main")
    return out | reads(main) | {("name", "main")}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def reached(defs, roots) -> set:
    """The qualified names of ``defs`` reached from the reads ``roots``.

    A bare name reaches module-level definitions of that name, an attribute
    read also methods; a class reaches its dunder methods.  Matching is by
    name alone, so a local that shares a definition's name reaches it too:
    the closure can only err towards keeping code."""
    by_read: dict = {}
    for qual in defs:
        parts = qual.split(".")
        if len(parts) == 3 and is_dunder(parts[2]):
            by_read.setdefault(("class", ".".join(parts[:2])), []).append(qual)
            continue
        by_read.setdefault(("attr", parts[-1]), []).append(qual)
        if len(parts) == 2:
            by_read.setdefault(("name", parts[-1]), []).append(qual)
    seen, done, todo = set(), set(), list(roots)
    while todo:
        read = todo.pop()
        if read in done:
            continue
        done.add(read)
        for qual in by_read.get(read, ()):
            if qual not in seen:
                seen.add(qual)
                todo.extend(reads(defs[qual]))
                todo.append(("class", qual))
    return seen


def collect_test_ids(trees) -> set:
    """``file::Class::test`` and ``file::test`` for every test in ``trees``
    ({file name: tree})."""
    out = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, FUNCS):
                out.add(f"{name}::{node.name}")
            elif isinstance(node, ast.ClassDef):
                out |= {f"{name}::{node.name}::{sub.name}"
                        for sub in node.body if isinstance(sub, FUNCS)}
    return out


def reachability_faults(mods, roots, kept, tests) -> list:
    """Public definitions neither reached from ``roots`` nor kept (with what
    the kept ones read), and ``kept`` entries that are reached anyway, that
    name no definition, or that name no test of ``tests``."""
    defs = definition_table(mods)
    live = reached(defs, roots)
    kept_reads = set().union(*(reads(defs[q]) for q in kept if q in defs))
    allowed = live | set(kept) | reached(defs, roots | kept_reads)
    faults = [f"unreached: {q}" for q in sorted(defs)
              if q not in allowed and not q.rsplit(".", 1)[-1].startswith("_")]
    faults += [f"kept but reached: {q}" for q in sorted(kept) if q in live]
    faults += [f"kept but not defined: {q}" for q in sorted(kept) if q not in defs]
    faults += [f"kept for a test that does not exist: {q}"
               for q, test in sorted(kept.items()) if test not in tests]
    return faults


def test_no_unreferenced_public_definitions():
    mods = parse_modules(SRC)
    tests = {path.name: ast.parse(path.read_text()) for path in sorted(TESTS.glob("test_*.py"))}
    roots = root_reads(mods, tests["test_acceptance.py"])
    assert len(KEPT) <= KEPT_MAX
    assert reachability_faults(mods, roots, KEPT, collect_test_ids(tests)) == []


def test_unreferenced_public_is_caught():
    cli = ast.parse(
        "def main():\n    return run(Used())\n"
        "def run(x, shadowed=None):\n    return x.method(), shadowed\n"
        "def only_tested():\n    return _private()\n"
    )
    lib = ast.parse(
        "class Used:\n    def __init__(self):\n        pass\n"
        "    def method(self):\n        return helper()\n"
        "    def unread(self):\n        pass\n"
        "def helper():\n    pass\n"
        "def reference():\n    return referenced_helper()\n"
        "def referenced_helper():\n    pass\n"
        "def _private():\n    pass\n"
        "def shadowed():\n    pass\n"
    )
    mods = {"cli": cli, "lib": lib}
    unit = ast.parse("def test_only():\n    assert only_tested() and reference()\n")
    tests = {"test_lib.py": unit}
    names = collect_test_ids(tests)
    roots = root_reads(mods)
    # a definition only a unit test reads is unreached, as is one whose name
    # only a local reads; a kept one's helpers are not
    assert reachability_faults(mods, roots, {"lib.reference": "test_lib.py::test_only"},
                               names) == ["unreached: cli.only_tested", "unreached: lib.Used.unread",
                                          "unreached: lib.shadowed"]
    # the allow-list cannot go stale
    kept = {"lib.Used.method": "test_lib.py::test_only", "lib.gone": "test_lib.py::test_only",
            "lib.reference": "test_lib.py::test_gone"}
    assert reachability_faults(mods, roots | {("name", "only_tested"), ("attr", "unread"),
                                              ("name", "shadowed")},
                               kept, names) == [
        "kept but reached: lib.Used.method",
        "kept but not defined: lib.gone",
        "kept for a test that does not exist: lib.reference",
    ]


# -- knob census: every parameter takes two values in src/

# {parameter: why it stays a parameter though the calls in src/ give it one value}
EXEMPT = {
    "cli.main(argv)": "the entry point: run as a script it reads sys.argv, and tests "
                      "and the benchmark hand it their argument lists",
}
EXEMPT_MAX = 3
# {parameter: the test or acceptance check that gives it a second value}
TESTED = {
    "activities.mayer_init_cloud(n_q)":
        "test_activities.py::TestMayer::test_cloud_matches_functional_order",
    "activities.mayer_init_cloud(order)":
        "test_activities.py::TestMayer::test_cloud_matches_functional_order",
    "interpolation.construct_gamma(r_max)":
        "test_acceptance.py::TestAcceptance::test_ac9_randomized_bound_suites",
    "interpolation.forest_interpolation_check_multilinear(n)":
        "test_acceptance.py::TestAcceptance::test_ac3_forest_interpolation",
    "interpolation._region_quadrature(nodes)":
        "test_interpolation.py::TestRegionQuadrature::test_cache_follows_gauss_nodes",
}
TESTED_MAX = 5
# defaulted parameters and dataclass fields: a change that adds one raises this number
KNOBS_MAX = 11

RUNTIME = None  # the value of an argument that is no literal: a local, an attribute, a call


@dataclass(frozen=True)
class Knob:
    owner: str | None  # the class of a method or field, None for a function
    name: str  # what a call names: the function, the method, or the class of a field
    param: str
    index: int | None  # positional index, None for keyword-only
    default: ast.expr | None  # None for a required parameter or field
    field: bool = False


def is_dataclass(cls) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def dataclass_fields(cls):
    """(name, default expression or None) for each ``__init__`` field of a
    dataclass, in order."""
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
            continue
        value = node.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kws = {k.arg: k.value for k in value.keywords}
            if "init" in kws and getattr(kws["init"], "value", True) is False:
                continue
            yield node.target.id, kws.get("default", kws.get("default_factory"))
        else:
            yield node.target.id, value


def function_parameters(fn, is_method):
    """(parameter, positional index or None, default or None) per parameter,
    less a method's self or cls and the ``*args`` and ``**kwargs`` catch-alls."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if is_method and not static:
        positional = positional[1:]
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    for i, (a, d) in enumerate(zip(positional, defaults)):
        yield a.arg, i, d
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        yield a.arg, None, d


def parameters(mods) -> dict:
    """{qualified parameter name: Knob} for each parameter of a module-level
    function or a method, and each dataclass field.  A dunder method other
    than ``__init__`` is left out: the language calls it, not a call by name."""
    out = {}
    for mod, tree in mods.items():
        for node in tree.body:
            if isinstance(node, FUNCS):
                for param, i, d in function_parameters(node, False):
                    out[f"{mod}.{node.name}({param})"] = Knob(None, node.name, param, i, d)
            elif isinstance(node, ast.ClassDef):
                if is_dataclass(node):
                    for i, (name, d) in enumerate(dataclass_fields(node)):
                        out[f"{mod}.{node.name}.{name}"] = Knob(node.name, node.name, name,
                                                                i, d, field=True)
                for sub in node.body:
                    if isinstance(sub, FUNCS) and (sub.name == "__init__" or not is_dunder(sub.name)):
                        call = node.name if sub.name == "__init__" else sub.name
                        for param, i, d in function_parameters(sub, True):
                            out[f"{mod}.{node.name}.{sub.name}({param})"] = Knob(
                                node.name, call, param, i, d)
    return out


def knobs(mods) -> dict:
    """The defaulted parameters and dataclass fields of ``parameters``."""
    return {qual: knob for qual, knob in parameters(mods).items() if knob.default is not None}


def module_constants(mods) -> dict:
    """{NAME: repr of its value} for each module-level UPPER_CASE name bound
    to a literal."""
    out = {}
    for tree in mods.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()):
                value = literal(node.value)
                if value is not RUNTIME:
                    out[node.targets[0].id] = value
    return out


def literal(expr):
    try:
        return repr(ast.literal_eval(expr))
    except (ValueError, TypeError, SyntaxError):
        return RUNTIME


def value_of(expr, consts):
    """The repr of the literal ``expr`` is, an UPPER_CASE constant read as its
    literal (so ``PAIR_WINDOW`` and ``2`` are one value), else RUNTIME."""
    if isinstance(expr, ast.Name) and expr.id in consts:
        return consts[expr.id]
    return literal(expr)


def spread_keys(expr, scope, consts):
    """{key: value} that ``**expr`` passes, from what the enclosing ``scope``
    visibly puts into it: a dict literal, or a name bound to one (or to
    ``dict(...)``) plus its ``name["key"] = ...`` items; None when unknown."""
    if isinstance(expr, ast.Dict):
        if not all(isinstance(k, ast.Constant) for k in expr.keys):
            return None
        return {k.value: value_of(v, consts) for k, v in zip(expr.keys, expr.values)}
    if not isinstance(expr, ast.Name):
        return None
    out, bound = {}, False
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == expr.id:
                value = node.value
                if isinstance(value, ast.Dict):
                    keys = spread_keys(value, scope, consts)
                elif (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
                        and not value.args and all(k.arg for k in value.keywords)):
                    keys = {k.arg: value_of(k.value, consts) for k in value.keywords}
                else:
                    keys = None
                if keys is None:
                    return None
                out.update(keys)
                bound = True
            elif (isinstance(target, ast.Subscript) and getattr(target.value, "id", None) == expr.id
                    and isinstance(target.slice, ast.Constant)):
                out[target.slice.value] = value_of(node.value, consts)
    return out if bound else None


def calls_in(tree):
    """(call, the function around it or the module) for every call of the tree."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, scope
            yield from visit(child, child if isinstance(child, FUNCS) else scope)
    yield from visit(tree, tree)


def arguments(call, scope, consts):
    """(positional values, a ``*args`` seen, {keyword: value}, an unknown ``**`` seen)."""
    pos, star = [], False
    for a in call.args:
        if isinstance(a, ast.Starred):
            star = True
            break
        pos.append(value_of(a, consts))
    kws, spread = {}, False
    for k in call.keywords:
        if k.arg is not None:
            kws[k.arg] = value_of(k.value, consts)
        else:
            keys = spread_keys(k.value, scope, consts)
            spread = spread or keys is None
            kws.update(keys or {})
    return pos, star, kws, spread


def knob_settings(mods):
    """(qualified parameter, value, whether the call leaves the default) for
    each call in ``mods`` that reaches a parameter.  A call that omits a
    defaulted parameter gives its default; one that omits a required
    parameter is a call of another function of that name and sets nothing.
    ``C.name(...)`` with C a class of ``mods`` reaches only C's parameters.
    A ``replace`` keyword sets the dataclass fields of that name, and its
    omissions set nothing.  A ``*args`` or unknown ``**`` that may carry the
    parameter gives a runtime value and may leave the default."""
    consts = module_constants(mods)
    table = parameters(mods)
    classes = {node.name for tree in mods.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    by_name: dict = {}
    for qual, knob in table.items():
        by_name.setdefault(knob.name, []).append(qual)
    for tree in mods.values():
        for call, scope in calls_in(tree):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "replace":
                for k in call.keywords:
                    for qual, knob in table.items():
                        if knob.field and knob.param == k.arg:
                            yield qual, value_of(k.value, consts), False
                continue
            receiver = getattr(getattr(func, "value", None), "id", None)
            pos, star, kws, spread = arguments(call, scope, consts)
            for qual in by_name.get(name, ()):
                knob = table[qual]
                if receiver in classes and knob.owner != receiver:
                    continue
                if knob.index is not None and knob.index < len(pos):
                    yield qual, pos[knob.index], False
                elif (knob.index is not None and star) or (knob.param not in kws and spread):
                    yield qual, RUNTIME, True
                elif knob.param in kws:
                    yield qual, kws[knob.param], False
                elif knob.default is not None:
                    default = value_of(knob.default, consts) or f"default {ast.unparse(knob.default)}"
                    yield qual, default, True


def knob_values(mods) -> dict:
    """{qualified parameter: the values the calls in ``mods`` give it}."""
    values = {qual: set() for qual in parameters(mods)}
    for qual, value, _ in knob_settings(mods):
        values[qual].add(value)
    return values


def single_valued(mods, exempt, tested=None, tests=()) -> list:
    """The parameters of ``mods`` that the calls in ``mods`` give fewer than
    two values and no runtime value, less ``exempt`` and ``tested``: a
    defaulted one always, a required one once some call reaches it (so a
    function passed by reference, never called by name, is not flagged).
    Then the faults of the two allow-lists: an entry of either that is not
    single-valued, and a ``tested`` entry naming no test of ``tests``."""
    tested = tested or {}
    table = parameters(mods)
    flagged = [q for q, vals in sorted(knob_values(mods).items())
               if RUNTIME not in vals and len(vals) < 2 and (vals or table[q].default is not None)]
    faults = [q for q in flagged if q not in exempt and q not in tested]
    faults += [f"exempt but not single-valued: {q}" for q in sorted(exempt) if q not in flagged]
    faults += [f"tested but not single-valued: {q}" for q in sorted(tested) if q not in flagged]
    faults += [f"tested by a test that does not exist: {q}"
               for q, test in sorted(tested.items()) if test not in tests]
    return faults


def test_every_parameter_default_is_overridden_somewhere():
    mods = parse_modules(SRC)
    tests = {path.name: ast.parse(path.read_text()) for path in sorted(TESTS.glob("test_*.py"))}
    assert len(EXEMPT) <= EXEMPT_MAX
    assert len(TESTED) <= TESTED_MAX
    assert single_valued(mods, EXEMPT, TESTED, collect_test_ids(tests)) == []
    assert len(knobs(mods)) <= KNOBS_MAX


def test_unset_parameter_is_caught():
    lib = ast.parse(
        "from dataclasses import dataclass, field\n"
        "WINDOW = 2\n"
        "@dataclass\nclass Cfg:\n    a: int\n    b: int = 1\n    c: int = 2\n"
        "    d: list = field(default_factory=list)\n    e: dict = field(init=False, default=None)\n"
        "class Obj:\n    def __init__(self, x, y=0):\n        pass\n"
        "    def go(self, n=1, *, fast=False):\n        def inner(_k=n):\n            return _k\n"
        "        return inner()\n"
        "    @staticmethod\n    def make(s=0):\n        return Obj(s)\n"
        "def run(p, q=0, r=0, w=2, t=0):\n    return p\n"
    )
    use = ast.parse(
        "from lib import Cfg, Obj, WINDOW, run\n"
        "def main(argv, n):\n"
        "    run(1, 2, w=WINDOW)\n    run(1, r=3)\n    run(n, r=n)\n"
        "    Obj(1, 2).go(5)\n    Obj(n, n).go(n)\n    Obj.make(n)\n"
        "    kw = dict(a=0, b=n)\n    kw['d'] = []\n    Cfg(**kw)\n    Cfg(0, 1)\n"
        "    replace(cfg, d=n)\n"
    )
    tested = ast.parse("from lib import run\nrun(0, t=5)\n")
    # run(t) is set only by a test; run(w) only through a constant equal to
    # its default; Cfg(**kw) omits c; Obj.go(fast) is never set; inner's
    # default binding is exempt; the required Cfg.a is 0 in both calls
    assert single_valued({"lib": lib, "use": use}, {}) == [
        "lib.Cfg.a", "lib.Cfg.c", "lib.Obj.go(fast)", "lib.run(t)", "lib.run(w)",
    ]
    # read as a module of the package, the test would count as a caller
    assert "lib.run(t)" not in single_valued({"lib": lib, "use": use, "tested": tested}, {})
    # the exemption list cannot go stale
    assert single_valued({"lib": lib, "use": use},
                         {"lib.run(t)": "set by a test", "lib.run(q)": "stale"}) == [
        "lib.Cfg.a", "lib.Cfg.c", "lib.Obj.go(fast)", "lib.run(w)",
        "exempt but not single-valued: lib.run(q)",
    ]


def test_one_valued_required_parameter_is_caught():
    lib = ast.parse(
        "from dataclasses import dataclass\n"
        "ORDER = 2\n"
        "@dataclass\nclass Spec:\n    side: int\n    kind: str\n"
        "class Op:\n    def __init__(self, n):\n        pass\n"
        "    def __call__(self, x):\n        return x\n"
        "def series(ts, order):\n    return ts\n"
        "def fixed(ts, order):\n    return ts\n"
        "def callback(key, t):\n    return t\n"
        "def scan(keep):\n    return keep(0, 1)\n"
    )
    use = ast.parse(
        "from lib import ORDER, Op, Spec, callback, fixed, scan, series\n"
        "def main(ts, n, kind):\n"
        "    series(ts, 2)\n    series(ts, order=ORDER)\n    fixed(ts, n)\n    fixed(ts, 3)\n"
        "    Spec(4, kind)\n    Spec(side=4, kind='a')\n"
        "    Op(n).__call__(1)\n    scan(callback)\n"
    )
    mods = {"lib": lib, "use": use}
    # series(order) gets 2, as a literal and as a constant, and Spec.side 4;
    # fixed(order) and Spec.kind get a runtime value too; callback is passed
    # by reference, never called by name, and the dunder __call__ is not a
    # parameter of the census
    assert single_valued(mods, {}) == ["lib.Spec.side", "lib.series(order)"]
    # the allow-list cannot go stale or name a missing test
    tested = {"lib.series(order)": "test_lib.py::test_series",
              "lib.Spec.side": "test_lib.py::test_gone",
              "lib.fixed(order)": "test_lib.py::test_series"}
    assert single_valued(mods, {}, tested, {"test_lib.py::test_series"}) == [
        "tested but not single-valued: lib.fixed(order)",
        "tested by a test that does not exist: lib.Spec.side",
    ]


# -- every default is read: some call in src/ leaves it in place


def unread_defaults(mods) -> list:
    """The knobs of ``mods`` whose default no call in ``mods`` leaves in
    place: each call passes a value, even the default's own, or none
    reaches the knob."""
    read = {qual for qual, _, left in knob_settings(mods) if left}
    return sorted(q for q in knobs(mods) if q not in read)


def test_every_parameter_default_is_read_somewhere():
    assert unread_defaults(parse_modules(SRC)) == []


def test_unread_default_is_caught():
    lib = ast.parse(
        "from dataclasses import dataclass\n"
        "WINDOW = 2\n"
        "@dataclass\nclass Cfg:\n    a: int = 0\n"
        "def run(p, tested=0, overridden=1, same=2, left=3, spread=4, own=2):\n    return p\n"
    )
    use = ast.parse(
        "from lib import Cfg, WINDOW, run\n"
        "def main(n, kw, cfg):\n"
        "    run(n, 1, overridden=5, same=WINDOW, spread=0, own=WINDOW)\n"
        "    run(n, n, overridden=n, left=n, own=2, **kw)\n"
        "    replace(cfg, a=n)\n    Cfg(n)\n"
    )
    tested = ast.parse("from lib import run\nrun(0, overridden=7)\n")
    # run(tested) is left in place only by a test; every src call passes
    # run(overridden) another value, and run(own) its own value, as a literal
    # or a constant; an unknown ** may leave run(same) and run(spread) in
    # place; replace reads no default
    assert unread_defaults({"lib": lib, "use": use}) == [
        "lib.Cfg.a", "lib.run(overridden)", "lib.run(own)", "lib.run(tested)",
    ]
    # read as a module of the package, the test would count as a caller
    assert unread_defaults({"lib": lib, "use": use, "tested": tested}) == [
        "lib.Cfg.a", "lib.run(overridden)",
    ]


# -- statement census: the AST statements of src/, docstrings left out

# a change that adds statements raises this number in its diff
STATEMENTS_MAX = 2468


def statement_count(tree) -> int:
    """The statements of a module, at every depth, less the docstrings of the
    module and of its classes and functions.  Layout does not move it: line
    breaks, comments and blank lines are not statements."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCS)) and node.body
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.stmt) and id(node) not in docstrings)


def test_statement_count_is_capped():
    count = sum(statement_count(tree) for tree in parse_modules(SRC).values())
    assert count <= STATEMENTS_MAX, f"src/ has {count} statements, more than {STATEMENTS_MAX}"


def test_statement_count_ignores_layout():
    plain = ast.parse('def f(a, b):\n    x = a + b\n    return x\n')
    laid_out = ast.parse(
        '"""Module."""\n\n\ndef f(a,\n      b):\n    """Doc."""\n    # a comment\n'
        '    x = (a\n         + b)\n\n    return x\n'
    )
    one_line = ast.parse('def f(a, b): x = a + b; return x\n')
    assert statement_count(plain) == statement_count(laid_out) == statement_count(one_line) == 3
    # a string that is not the first statement of its body is counted
    assert statement_count(ast.parse('x = 1\n"""not a docstring"""\n')) == 2
