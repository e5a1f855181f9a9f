"""Spans around the calls into each qbrackets layer, recorded from outside
the package.

install() wraps every public function of the layer modules in every module
of the package that binds it: the home module, every `from .x import y`
binding and the re-export in the package itself.  It also wraps the listed
methods on their classes.  Each call records one span in memory: layer,
function, parent span, start and end.  dump() writes them once, at exit.
self_times() and summarize() turn a job's spans into per-layer metrics; the
benchmark's own tests exercise them on a synthetic call tree.

The package's private caches are never read: the repeat ratios count
requests that an earlier call in the same process already asked for.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence

# The package modules that count as layers.  numbers and config are
# negligible; their time stays with the layer that calls them.
LAYERS = ("brackets", "series", "words", "derivation", "linalg", "zeta",
          "modular", "checks", "cli")

# Methods wrapped on their classes, by layer.
METHODS = {
    "series": {"QSeries": ("__add__", "__sub__", "__neg__", "scale",
                           "__mul__", "q_d_dq", "__eq__")},
    "derivation": {"Relation": ("check",)},
    "linalg": {"IntEchelon": ("add",),
               "ExactMatrix": ("kernel_basis", "rank")},
}

# span record layout
LAYER, NAME, PARENT, START, END = range(5)


class Recorder:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        self._served: Dict[tuple, int] = {}
        self._mzv_seen: set = set()

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        layer_id = LAYERS.index(layer)
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before = self._before_hook(name)
        after = self._after_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            record = [layer_id, name_id, stack[-1], 0, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    # -- argument and result counters --------------------------------------

    def _before_hook(self, name: str):
        if name in ("bracket_series", "bracket_series_oracle"):
            def hook(args, kwargs):
                self._request([_arg(args, kwargs, 0, "c")],
                              _arg(args, kwargs, 1, "order"))
                return args
            return hook
        if name in ("bracket_series_many", "bracket_series_oracle_many"):
            def hook(args, kwargs):
                comps = list(_arg(args, kwargs, 0, "comps"))
                self._request(comps, _arg(args, kwargs, 1, "order"))
                return _replace(args, kwargs, 0, "comps", comps)
            return hook
        if name == "evaluate":
            def hook(args, kwargs):
                self._count("evaluate_terms", len(_arg(args, kwargs, 0, "w")))
                return args
            return hook
        if name == "mzv":
            def hook(args, kwargs):
                target = _arg(args, kwargs, 1, "target_error", None)
                if target is None:
                    from qbrackets.config import get_config
                    target = get_config().mzv_target_error
                key = (tuple(_arg(args, kwargs, 0, "c")), float(target))
                if key in self._mzv_seen:
                    self._count("mzv_repeats")
                self._mzv_seen.add(key)
                return args
            return hook
        if name == "IntEchelon.add":
            def hook(args, kwargs):
                vector = list(_arg(args, kwargs, 1, "vector"))
                bits = max((abs(x).bit_length() for x in vector), default=0)
                if bits > self.counters.get("max_entry_bits", 0):
                    self.counters["max_entry_bits"] = bits
                return _replace(args, kwargs, 1, "vector", vector)
            return hook
        if name == "ExactMatrix.kernel_basis":
            def hook(args, kwargs):
                self._count("kernel_cells", args[0].rows * args[0].cols)
                return args
            return hook
        if name == "solve_unique":
            def hook(args, kwargs):
                rows = list(_arg(args, kwargs, 0, "rows"))
                cols = len(rows[0]) if rows else 0
                self._count("kernel_cells", len(rows) * cols)
                return _replace(args, kwargs, 0, "rows", rows)
            return hook
        return None

    def _after_hook(self, name: str):
        if name == "IntEchelon.add":
            def hook(result):
                if result:
                    self._count("rank_independent")
            return hook
        return None

    def _request(self, comps: Iterable, order: int) -> None:
        for comp in comps:
            comp = tuple(comp)
            self._count("comps")
            self._count("cells", order)
            if self._served.get(comp, -1) >= order:
                self._count("repeats")
            else:
                self._served[comp] = order

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": LAYERS, "names": self.names,
                       "spans": self.spans, "counters": self.counters},
                      handle, separators=(",", ":"))


def _arg(args, kwargs, index, name, default=inspect.Parameter.empty):
    if len(args) > index:
        return args[index]
    if name in kwargs:
        return kwargs[name]
    if default is inspect.Parameter.empty:
        raise TypeError(f"missing argument {name}")
    return default


def _replace(args, kwargs, index, name, value):
    """args with one argument replaced (a materialised iterator); a keyword
    argument is replaced in kwargs in place."""
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1:]
    kwargs[name] = value
    return args


# ---------------------------------------------------------------------------
# installation and its completeness check


def public_functions(module) -> Dict[str, Callable]:
    """Public functions defined in the module itself (not re-exports)."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def package_modules(package) -> List:
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith(prefix) and m is not None]


def install(package) -> Recorder:
    """Wrap the layers of an imported package; returns the recorder."""
    recorder = Recorder()
    wrapped: Dict[int, Callable] = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, fn in public_functions(module).items():
            wrapped[id(fn)] = recorder.wrap(layer, name, fn)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                setattr(cls, meth, recorder.wrap(layer, f"{cls_name}.{meth}", fn))
    for module in package_modules(package):
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    check_complete(package)
    return recorder


class IncompleteTrace(RuntimeError):
    pass


def check_complete(package) -> None:
    """Every binding of a layer's public function must be the wrapper.

    Checks both the module namespaces and, from the package source, every
    relative `from .x import y` statement, wherever it sits in the file.
    """
    originals = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, fn in public_functions(module).items():
            if getattr(fn, "__bench_original__", None) is None:
                raise IncompleteTrace(f"{layer}.{name} is not wrapped")
            originals[id(fn.__bench_original__)] = f"{layer}.{name}"
    for module in package_modules(package):
        for attr, value in vars(module).items():
            if id(value) in originals:
                raise IncompleteTrace(f"{module.__name__}.{attr} still binds "
                                      f"the unwrapped {originals[id(value)]}")
    for module in package_modules(package):
        path = getattr(module, "__file__", None)
        if not path:
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level >= 1):
                continue
            home = (node.module or "").split(".")[0]
            if home not in LAYERS:
                continue
            public = public_functions(getattr(package, home))
            for alias in node.names:
                if alias.name not in public:
                    continue
                bound = vars(module).get(alias.asname or alias.name)
                if getattr(bound, "__bench_original__", None) is None:
                    raise IncompleteTrace(
                        f"{module.__name__}: from .{home} import "
                        f"{alias.name} is not wrapped")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: Sequence[Sequence[int]]) -> List[int]:
    """Self time of each span: its duration minus its children's durations.

    Spans come from one thread, so children lie inside their parent and do
    not overlap; their durations can be subtracted directly.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def summarize(doc: dict) -> Dict[str, float]:
    """Per-layer totals of one job's dump: self time in seconds, top-level
    span time, call counts per function and the counters."""
    spans, names, layers = doc["spans"], doc["names"], doc["layers"]
    own = self_times(spans)
    out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in layers}
    out["covered_s"] = 0.0
    for span, t in zip(spans, own):
        out[f"{layers[span[LAYER]]}.self_s"] += t / 1e9
        key = f"calls:{names[span[NAME]]}"
        out[key] = out.get(key, 0) + 1
        out[f"calls:{layers[span[LAYER]]}"] = \
            out.get(f"calls:{layers[span[LAYER]]}", 0) + 1
        if span[PARENT] < 0:
            out["covered_s"] += (span[END] - span[START]) / 1e9
    for key, value in doc["counters"].items():
        out[f"counter:{key}"] = value
    return out
