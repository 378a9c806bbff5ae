"""Per-layer timing of cliquefan from outside the package.

:class:`Tracer` wraps every public function of each layer module and
rebinds the wrapper at every place the package binds the function, so
calls between modules (``finder`` calling ``graphs.induced_subgraph``
through its own import, say) pass through the wrapper too. Each wrapper
counts calls and adds its span's duration, minus the time of the
wrapped calls made inside it, to the function's self time.
Generator functions are left alone: a wrapper would time only the
creation of the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import ModuleType

LAYERS = ("graphs", "invariants", "generators", "witness", "finder", "oracle", "graphio")


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Install with :meth:`install`, read :attr:`stats`, then
    :meth:`uninstall` to put the package's own functions back.

    ``observers`` maps a qualified name (``"graphs.induced_subgraph"``)
    to a function of the call's result whose value is added to that
    name's ``extra`` counter after each call.
    """

    def __init__(self, package: str, observers=None) -> None:
        self.package = package
        self.observers = dict(observers or {})
        self.stats: dict[str, Stat] = {}
        self._children: list[float] = []
        self._patches: list[tuple[ModuleType, str, object]] = []

    def _modules(self) -> list[ModuleType]:
        prefix = self.package + "."
        return [m for name, m in sys.modules.items() if name == self.package or name.startswith(prefix)]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for name, fn in vars(mod).items():
                if (
                    name.startswith("_")
                    or isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, Stat())
        observe = self.observers.get(qualname)
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stat.calls += 1
                stat.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed
            if observe is not None:
                stat.extra += observe(result)
            return result

        return traced

    def stat(self, qualname: str) -> Stat:
        return self.stats.get(qualname) or Stat()

    def self_s(self, prefix: str) -> float:
        """Summed self time of every wrapped function under ``prefix``."""
        return sum(s.self_s for name, s in self.stats.items() if name.startswith(prefix))
