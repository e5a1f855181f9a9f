"""No knob that nobody turns, and no entry point that nothing uses.

Every defaulted parameter of a function in the package is passed, by
position or by keyword, by some call in the package or in the benchmark.
A default that every caller leaves alone is a constant, and belongs in the
body.  Every public function, class and method of the package is named
somewhere in the package or the benchmark: one that only tests reach is a
second way to do what the package already does, except for the few
independent recomputations kept for tests to compare against.

Every functools cache in the package has a finite maxsize, so no cache
grows for the life of the process, except the few named here with their
reason.

Every class of the package takes its equality and hash from _value.Value,
so value semantics are written once, except the few classes named here
with their reason.

Only linalg builds an echelon: every exact question about a span is asked
of its one kernel, so no other module of the package eliminates on its own.

Calls are matched to definitions by name only (a method by its attribute
name, __init__ by its class name), so the scans can miss a knob or an entry
point whose name another one shares; they never flag one that is used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qbrackets"
CALLERS = (ROOT / "src", ROOT / "bench")

# The test seam: tests hand load_config an environment of their own.
ALLOWED = {"config.load_config(environ)"}

# The independent recomputations tests compare the package against.
CROSS_CHECKS = {"brackets.bracket_series_oracle"}


def _caller_trees():
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            yield ast.parse(path.read_text(), str(path))


def _callee(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _calls_by_name():
    calls = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    return calls


def _definitions():
    """(qualified name, callee name, function node, number of bound
    leading parameters) for every function and method of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    owner[item] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(node)
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            bound = 1 if cls is not None and not static else 0
            name = cls if node.name == "__init__" else node.name
            qualified = ".".join([path.stem] + [cls] * (cls is not None)
                                 + [node.name])
            yield qualified, name, node, bound


def _defaulted(fn: ast.FunctionDef):
    """(parameter, its positional index or None) for each defaulted one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, param: str, index, bound: int) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index - bound


def unset_defaults():
    calls = _calls_by_name()
    unset = set()
    for qualified, name, fn, bound in _definitions():
        for param, index in _defaulted(fn):
            if not any(_passes(c, param, index, bound)
                       for c in calls.get(name, ())):
                unset.add(f"{qualified}({param})")
    return unset


def test_every_default_is_set_by_some_caller():
    knobs = sorted(unset_defaults() - ALLOWED)
    assert not knobs, ("defaulted parameters no caller in src/ or bench/ "
                       "sets: " + ", ".join(knobs))


def test_the_allowed_seam_is_still_a_default():
    assert ALLOWED <= unset_defaults()


def unreached_definitions():
    """Qualified names of the public functions, classes and methods of the
    package that no code in src/ or bench/ names."""
    named = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(f"{node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            unreached |= {f"{path.stem}.{qualified}"
                          for qualified, item in members
                          if not item.name.startswith("_")
                          and item.name not in named}
    return unreached


def test_every_public_definition_is_used_outside_the_tests():
    stray = sorted(unreached_definitions() - CROSS_CHECKS)
    assert not stray, ("public definitions that nothing in src/ or bench/ "
                       "names: " + ", ".join(stray))


def test_the_cross_checks_are_reached_only_by_tests():
    assert CROSS_CHECKS <= unreached_definitions()


ECHELONS = {"IntEchelon", "ModEchelon"}


def test_only_linalg_builds_an_echelon():
    built = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _callee(node) in ECHELONS:
                built.append(f"{path.name}:{node.lineno} {_callee(node)}")
    assert not built, ("echelons built outside linalg.py: "
                       + ", ".join(built))


# Recursive, so an LRU smaller than the largest index asked for would
# recompute in cascades; its entries are one Fraction per index.
UNBOUNDED_CACHES = {"numbers.bernoulli"}


def _bounded(decorator: ast.expr) -> bool:
    """False for functools.cache and for an lru_cache whose maxsize is not
    a literal integer (None, or an expression the scan cannot read); a
    bare lru_cache holds its default of 128."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "id", getattr(target, "attr", None))
    if name == "cache":
        return False
    if name != "lru_cache" or call is None:
        return True
    sizes = call.args[:1] + [k.value for k in call.keywords
                             if k.arg == "maxsize"]
    return all(isinstance(a, ast.Constant) and type(a.value) is int
               for a in sizes)


def unbounded_caches():
    """Qualified names of the package's functions under a cache without a
    finite maxsize."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and not all(
                    _bounded(d) for d in node.decorator_list):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_every_cache_is_bounded():
    unbounded = sorted(unbounded_caches() - UNBOUNDED_CACHES)
    assert not unbounded, ("caches without a finite maxsize: "
                           + ", ".join(unbounded))


def test_the_unbounded_exceptions_are_still_unbounded():
    assert UNBOUNDED_CACHES <= unbounded_caches()


# Value itself; QSeries, written out for speed (its docstring says why); and
# WordSum, which holds a dict, so a hash of its field tuple cannot work.
OWN_EQUALITY = {"_value.Value", "series.QSeries", "words.WordSum"}


def _defines(item: ast.stmt, names: set) -> bool:
    """True for a def of one of names, or an assignment to one."""
    if isinstance(item, ast.FunctionDef):
        return item.name in names
    targets = (item.targets if isinstance(item, ast.Assign)
               else [item.target] if isinstance(item, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id in names for t in targets)


def own_equality():
    """Qualified names of the package's classes that define __eq__ or
    __hash__ themselves."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    _defines(item, {"__eq__", "__hash__"})
                    for item in node.body):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_value_semantics_are_written_once():
    own = sorted(own_equality() - OWN_EQUALITY)
    assert not own, ("classes with their own __eq__ or __hash__ instead of "
                     "Value's: " + ", ".join(own))


def test_the_own_equality_exceptions_still_define_it():
    assert OWN_EQUALITY <= own_equality()
