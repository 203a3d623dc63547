"""Span tracer for the svasym layers, recorded from outside the package.

`Tracer.install` wraps every public function of the eight layer modules and
rebinds the name in every svasym module that holds it, so a call from one
module into another (``hamiltonian.simulate_tilted``, ``verify`` calling
``simulate.simulate_xy``) opens a child span.  Nothing in the package is
edited; `Tracer.uninstall` puts the original functions back.

Only calls made on the thread that created the tracer are timed.  The
program's block-worker threads run inside a simulate span that waits on
them, so their time stays in that span's self time; timing them as well
would count the same wall time twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("model", "measures", "poisson", "hamiltonian", "rates", "simulate",
          "verify", "cli")


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "child_s", "failed")

    def __init__(self, layer, name, parent):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.failed = False
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans in memory while active; ``observers`` maps
    ``"layer.function"`` to a callback ``(arguments, result)`` run after each
    successful traced call, with the call's bound arguments (defaults
    applied), for counts taken where the work happens."""

    def __init__(self):
        self.spans = []
        self.observers = {}
        self.active = False
        self._stack = []
        self._thread = threading.get_ident()
        self._last_exc = None
        self._rebound = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        if not self.active or threading.get_ident() != self._thread:
            yield None
            return
        sp = self._open(layer, name)
        try:
            yield sp
        except BaseException as exc:
            self._mark_failed(sp, exc)
            raise
        finally:
            self._close(sp)

    def _open(self, layer, name) -> Span:
        sp = Span(layer, name, self._stack[-1] if self._stack else None)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if sp.parent is not None:
            sp.parent.child_s += sp.duration
        self.spans.append(sp)

    def _mark_failed(self, sp: Span, exc: BaseException) -> None:
        # the innermost span an exception leaves is the one that failed;
        # the enclosing spans only pass it on
        if exc is not self._last_exc:
            sp.failed = True
            self._last_exc = exc

    def _wrap(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            sp = self._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._mark_failed(sp, exc)
                raise
            finally:
                self._close(sp)
            observer = self.observers.get(key)
            if observer is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"svasym.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(layer, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "svasym"
                                   or mod_name.startswith("svasym.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, val))

    def uninstall(self) -> None:
        self.active = False
        for mod, attr, val in self._rebound:
            setattr(mod, attr, val)
        self._rebound.clear()


def summarize(spans, phase_wall: float) -> dict:
    """Per-layer calls, self time and failures, plus the time the benchmark
    itself spent inside requests (layer ``bench``) and the part of the
    request phase that no request span covers."""
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(s.self_s for s in mine)
        out[f"{layer}.failed"] = sum(s.failed for s in mine)
    out["bench.self_s"] = sum(s.self_s for s in spans if s.layer == "bench")
    roots = sum(s.duration for s in spans if s.parent is None)
    out["unattributed_s"] = phase_wall - roots
    out["request_phase_s"] = phase_wall
    return out


def totals(spans, layer: str, name: str):
    """(total seconds, call count) of the spans of one function."""
    mine = [s for s in spans if s.layer == layer and s.name == name]
    return sum(s.duration for s in mine), len(mine)
