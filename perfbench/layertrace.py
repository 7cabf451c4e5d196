"""Per-layer counters and self times, installed from outside the library.

``Tracer`` wraps the public functions and methods of each layer module of the
``oddsymplectic`` package (plus the two private gcd paths, which have no
public name) and restores the originals on exit.  It is used only in a traced
run; the timed runs call the library as it is.

A layer is one module.  Each wrapped call opens a span; a layer's self time
is the time its spans spent outside any nested wrapped call.  Time spent in
unwrapped helpers is charged to the innermost wrapped caller.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

PACKAGE = "oddsymplectic"

# Prefixes the stderr line on which a traced child reports its counters.
TRACE_MARKER = "perfbench-trace "

# Bottom to top: the coefficient tower, superfunctions, operators, front ends.
LAYERS = (
    "gaussian",
    "poly",
    "scalar",
    "superalgebra",
    "brackets",
    "laplacians",
    "charts",
    "forms",
    "master",
    "expressions",
    "cli",
)
OPERATORS = ("brackets", "laplacians", "charts", "forms", "master")

# Dunder methods that are arithmetic; other dunders (hashing, equality,
# truth) are bookkeeping and stay unwrapped.
ARITHMETIC = frozenset(
    {
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "__pow__",
    }
)
# Private methods wrapped anyway: the gcd paths have no public entry point.
GCD_PATHS = frozenset({"_gcd_heuristic", "_gcd_prs"})


def _wanted(name: str) -> bool:
    return not name.startswith("_") or name in ARITHMETIC or name in GCD_PATHS


class Tracer:
    """Context manager that wraps the package's layers and collects counts."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.layer_calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.heuristic_hits = 0
        self.gcd_nontrivial = 0
        self.peak_terms = 0
        self._stack: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._superfunction: type | None = None

    # -- installation ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self._superfunction = sys.modules[PACKAGE + ".superalgebra"].SuperFunction
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for namespace in namespaces:
                        for attr, value in list(vars(namespace).items()):
                            if value is obj:
                                self._set(namespace, attr, wrapped)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if not _wanted(name):
                continue
            key = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                wrapped: Any = staticmethod(self._wrap(layer, key, attr.__func__))
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(layer, key, attr.__func__))
            elif callable(attr) and not isinstance(attr, type):
                wrapped = self._wrap(layer, key, attr)
            else:
                continue
            self._set(cls, name, wrapped)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _wrap(self, layer: str, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls
        layer_calls = self.layer_calls
        self_s = self.self_s
        stack = self._stack
        clock = time.perf_counter
        full_key = f"{layer}.{key}"
        observe = self._observer(full_key, layer)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[full_key] += 1
            layer_calls[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _observer(self, key: str, layer: str) -> Callable[[Any], None] | None:
        if key == "poly.Polynomial._gcd_heuristic":

            def heuristic(result: Any) -> None:
                if result is not None:
                    self.heuristic_hits += 1

            return heuristic
        if key == "poly.Polynomial.gcd":

            def gcd(result: Any) -> None:
                if not result.is_constant():
                    self.gcd_nontrivial += 1

            return gcd
        if layer in OPERATORS:

            def terms(result: Any) -> None:
                size = _term_count(result, self._superfunction)
                if size > self.peak_terms:
                    self.peak_terms = size

            return terms
        return None

    # -- results ------------------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """The raw counters, as JSON-ready data (see :meth:`merge`)."""
        return {
            "calls": dict(self.calls),
            "layer_calls": dict(self.layer_calls),
            "self_s": dict(self.self_s),
            "heuristic_hits": self.heuristic_hits,
            "gcd_nontrivial": self.gcd_nontrivial,
            "peak_terms": self.peak_terms,
        }

    def merge(self, state: dict[str, Any]) -> None:
        """Add another tracer's :meth:`state`, e.g. one from a child process."""
        self.calls.update(state["calls"])
        self.layer_calls.update(state["layer_calls"])
        for layer, seconds in state["self_s"].items():
            self.self_s[layer] += seconds
        self.heuristic_hits += state["heuristic_hits"]
        self.gcd_nontrivial += state["gcd_nontrivial"]
        self.peak_terms = max(self.peak_terms, state["peak_terms"])

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure the tracer measures (cli figures excluded)."""
        calls = self.calls

        def total(prefix: str) -> int:
            return sum(n for k, n in calls.items() if k.startswith(prefix))

        gcd_calls = calls["poly.Polynomial.gcd"]
        heuristic_calls = calls["poly.Polynomial._gcd_heuristic"]
        out: dict[str, float] = {
            "gaussian.ops": self.layer_calls["gaussian"],
            "gaussian.self_s": self.self_s["gaussian"],
            "poly.mul.calls": calls["poly.Polynomial.__mul__"],
            "poly.self_s": self.self_s["poly"],
            "poly.gcd.calls": gcd_calls,
            "poly.gcd.nontrivial_ratio": self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0,
            "poly.gcd_heuristic.hit_ratio": (
                self.heuristic_hits / heuristic_calls if heuristic_calls else 0.0
            ),
            "poly.gcd_prs.calls": calls["poly.Polynomial._gcd_prs"],
            "poly.divide_exact.calls": calls["poly.Polynomial.divide_exact"],
            "poly.sqrt.calls": calls["poly.Polynomial.sqrt"],
            "scalar.ops": self.layer_calls["scalar"],
            "scalar.self_s": self.self_s["scalar"],
            "superalgebra.mul.calls": total("superalgebra.SuperFunction.__mul__")
            + total("superalgebra.SuperFunction.__rmul__"),
            "superalgebra.substitute.calls": calls["superalgebra.SuperFunction.substitute"],
            "superalgebra.self_s": self.self_s["superalgebra"],
            "superalgebra.peak_terms": self.peak_terms,
            "charts.berezinian.calls": calls["charts.berezinian"],
            "expressions.calls": self.layer_calls["expressions"],
            "expressions.self_s": self.self_s["expressions"],
        }
        for layer in OPERATORS:
            out.setdefault(f"{layer}.calls", self.layer_calls[layer])
            out.setdefault(f"{layer}.self_s", self.self_s[layer])
        return out


def _term_count(value: Any, superfunction: type) -> int:
    """Odd-monomial terms in a returned value (the largest, for containers)."""
    if isinstance(value, superfunction):
        return len(value.terms)
    inner = getattr(value, "coefficient", None)
    if isinstance(inner, superfunction):
        return len(inner.terms)
    images = getattr(value, "images", None)
    if isinstance(images, dict):
        value = list(images.values())
    if isinstance(value, (list, tuple)):
        return max((_term_count(v, superfunction) for v in value), default=0)
    return 0
