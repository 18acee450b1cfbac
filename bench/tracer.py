"""Per-layer tracing by wrapping qrand's public functions from outside.

Every public module-level function of every ``qrand`` module, plus the
text/string (de)serialisers named in ``METHODS``, is replaced by a wrapper
that records calls, wall time and self time (wall time minus the time of
traced callees on the same thread).  A function is rebound under every name
its callers look it up by: ``qrand.verify.apply_channel``,
``qrand.cli.diagnose`` and ``qrand.linalg.herm_eigvals`` are separate
bindings of functions defined elsewhere, and all of them are patched, so a
call made from inside the library is traced too.

Spans are kept per thread.  A worker thread of the attack's thread pool
has no traced caller on its own stack, so the waiting caller's self time
includes the time its workers spend.  Counters are updated under a lock,
so they repeat exactly between two runs of the same job list.

``.work`` and ``.bytes`` counters are computed from argument sizes, not
measured: ``herm_eigvals.work`` is sum d^3, ``apply_channel.work`` sum m*d^2,
``fourier_coeffs.work`` sum 2n*4^n butterflies, ``max_bias.work`` sum
bits*2^bits butterflies and ``max_bias.bytes`` one read and one write of
the float64 array per butterfly stage.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# (module, class, method) pairs traced besides the module-level functions.
METHODS = (
    ("qrand.channel", "PauliChannel", "from_text"),
    ("qrand.channel", "PauliChannel", "to_text"),
    ("qrand.smallbias", "SampleSpace", "from_text"),
    ("qrand.smallbias", "SampleSpace", "to_text"),
    ("qrand.pauli", "PauliOp", "from_string"),
    ("qrand.bitlin", "BitVector", "from_string"),
)

# Candidate-state constructors; their calls inside empirical_epsilon are
# the attack's candidate count.
CANDIDATE_STATES = (
    "verify.product_eigenstate",
    "verify.cat_probe_state",
    "pauli.stab_state",
    "linalg.random_state",
)

CACHED = ("verify.stabilizer_catalog", "gf2ext.field_spec")


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0


def _positional(args, kwargs, index, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """``install()``, run the jobs, ``remove()``; then read ``stats``,
    ``counters``, ``thread_comparison()`` and ``layers()``."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = defaultdict(int)
        # (threads, n) -> [calls, seconds] of empirical_epsilon
        self.attack_by_threads: dict[tuple[int, int], list] = defaultdict(lambda: [0, 0.0])
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, int] = {}
        self._originals: dict[str, object] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qrand" or name.startswith("qrand.")}
        snapshot = {name: dict(vars(mod)) for name, mod in modules.items()}
        wrappers: dict[int, object] = {}
        for modname, names in snapshot.items():
            for name, obj in names.items():
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if snapshot.get(home, {}).get(name) is not obj:
                    continue
                key = f"{home[len('qrand.'):]}.{name}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(key, obj)
                    self._originals[key] = obj
                self._undo.append((modules[modname], name, obj))
                setattr(modules[modname], name, wrappers[id(obj)])
        for modname, clsname, meth in METHODS:
            cls = getattr(modules[modname], clsname)
            raw = cls.__dict__[meth]
            key = f"{modname[len('qrand.'):]}.{clsname}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(key, raw.__func__))
            else:
                new = self._wrap(key, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
        for key in CACHED:
            self._cache_start[key] = self._originals[key].cache_info().hits

    def remove(self) -> None:
        for key in CACHED:
            hits = self._originals[key].cache_info().hits - self._cache_start[key]
            self.counters[f"{key}.hits"] = hits
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        extra = self._extra_counter(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            child = [0.0]
            stack.append(child)
            before = tracer._candidates() if key == "verify.empirical_epsilon" else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                with tracer._lock:
                    stat.calls += 1
                    stat.seconds += dt
                    stat.self_seconds += dt - child[0]
                    if extra is not None:
                        extra(args, kwargs, dt)
                if key == "verify.empirical_epsilon":
                    tracer.counters[f"{key}.candidates"] += tracer._candidates() - before

        return traced

    def _candidates(self) -> int:
        with self._lock:
            return sum(self.stats[k].calls for k in CANDIDATE_STATES)

    def _extra_counter(self, key: str):
        c = self.counters
        if key == "linalg.herm_eigvals":
            def extra(args, kwargs, dt):
                d = len(args[0])
                c[f"{key}.work"] += d ** 3
        elif key == "channel.apply_channel":
            def extra(args, kwargs, dt):
                ch = args[0]
                c[f"{key}.work"] += ch.size * (1 << ch.n) ** 2
        elif key == "channel.fourier_coeffs":
            def extra(args, kwargs, dt):
                n = args[0].n
                c[f"{key}.work"] += 2 * n * 4 ** n
        elif key == "smallbias.max_bias":
            def extra(args, kwargs, dt):
                if _positional(args, kwargs, 1, "max_weight", None) is None:
                    bits = args[0].n
                    c[f"{key}.work"] += bits * 2 ** bits
                    c[f"{key}.bytes"] += 2 * 8 * bits * 2 ** bits
        elif key == "verify.empirical_epsilon":
            def extra(args, kwargs, dt):
                threads = _positional(args, kwargs, 5, "threads", 1)
                cell = self.attack_by_threads[(threads, args[0].n)]
                cell[0] += 1
                cell[1] += dt
        else:
            return None
        return extra

    # -- results -------------------------------------------------------

    def thread_comparison(self) -> dict:
        """Mean ms per attack at 1 and 2 threads, at the qubit count of the
        2-thread attacks (the largest one if there are several)."""
        two = [n for (t, n) in self.attack_by_threads if t == 2]
        out = {"n": max(two) if two else None}
        for t in (1, 2):
            calls, secs = self.attack_by_threads.get((t, out["n"]), (0, 0.0))
            out[f"threads{t}.ms"] = 1000.0 * secs / calls if calls else 0.0
        return out

    def layers(self) -> dict:
        """Every traced function with at least one call, for the record."""
        return {key: {"calls": s.calls, "ms": 1000.0 * s.seconds,
                      "self_ms": 1000.0 * s.self_seconds}
                for key, s in sorted(self.stats.items()) if s.calls}
