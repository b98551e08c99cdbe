"""Outside-in span tracing of the simulator's layers.

The tracer wraps callables from the benchmark's side only: public methods
of the live objects reachable from a memory system (instance attributes,
so the replay engine's class-level eligibility guards still pass), the
few private methods the replay engine calls across the engine/core
boundary, module-level entry points looked up by name at call time, and
class methods of objects created inside an entry point (stats primitives,
the DES, MiniDB, persistent regions).  Nothing under ``src/`` changes and
every patch is undone by :meth:`Tracer.restore`.

Each call records a span — name, start, end, parent span — in flat
arrays kept in memory; the span id is its index and the op id is the id
of the outermost span it runs under.  A layer is the ``repro`` package
that defines the called function (``sim`` splits into ``sim.des``,
``sim.stats`` and the rest); spans the benchmark opens itself belong to
``bench``.  Self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import inspect
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Private methods the replay engine binds and calls across the
#: engine -> core boundary (see repro.engine.replay), wrapped on the
#: system instance so delegated work is not counted as engine time.
BOUNDARY_PRIVATES = ("_access", "_access_page", "_settle_promotions", "_drain_remaps")

#: Attribute values never descended into: configuration, sanitizers, the
#: clock (per-access arithmetic; its time stays with its caller) and the
#: stats primitives (wrapped on their classes instead, see run.py).
_SKIP_MODULES = (
    "repro.config",
    "repro.sim.clock",
    "repro.sim.sanitizers",
    "repro.sim.stats",
    "repro.faults",
)


def layer_of(module: str) -> str:
    """The layer a function defined in ``module`` belongs to."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "bench"
    if parts[1] == "sim" and len(parts) > 2 and parts[2] in ("des", "stats"):
        return f"sim.{parts[2]}"
    return parts[1]


def _own_functions(cls: type, include: Tuple[str, ...] = ()) -> Iterator[Tuple[str, Any]]:
    """Plain functions ``cls`` defines or inherits: public ones plus ``include``."""
    for name in dir(cls):
        if name.startswith("_") and name not in include:
            continue
        attr = inspect.getattr_static(cls, name)
        if isinstance(attr, types.FunctionType):
            yield name, attr


class Tracer:
    """Records spans of wrapped calls; undoes every patch on ``restore``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._wrapped: set = set()
        #: (fused rows, total rows) of every engine replay.
        self.replays: List[Tuple[int, int]] = []
        #: DES locks and semaphores built while tracing.
        self.locks: List[Any] = []

    # ------------------------------------------------------------ spans

    def _name_id(self, name: str, layer: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return ident

    def _ident_of(self, fn: Callable) -> int:
        return self._name_id(f"{fn.__module__}.{fn.__qualname__}", layer_of(fn.__module__))

    def _timed(self, fn: Callable, ident: int) -> Callable:
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(ident)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def _timed_steps(self, generator: Iterator, ident: int) -> Iterator:
        """Re-yield ``generator``'s items with one span per step."""
        step = self._timed(next, ident)
        while True:
            try:
                item = step(generator)
            except StopIteration:
                return
            yield item

    def span(self, name: str) -> "_Span":
        """A span the benchmark opens itself (layer ``bench``)."""
        return _Span(self, self._name_id(name, "bench"))

    # ---------------------------------------------------------- patches

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original, own))

    def wrap_function(self, module: Any, attr: str, steps: bool = False) -> None:
        """Wrap a module-level function that callers look up by name."""
        fn = getattr(module, attr)
        ident = self._ident_of(fn)
        if steps:
            timed_steps = self._timed_steps

            def stepping(*args, **kwargs):
                return timed_steps(fn(*args, **kwargs), ident)

            self._patch(module, attr, stepping)
        else:
            self._patch(module, attr, self._timed(fn, ident))

    def wrap_class(self, cls: type) -> None:
        """Wrap public methods on the class (for objects with ``__slots__``
        or created inside an entry point)."""
        for name, fn in _own_functions(cls):
            self._patch(cls, name, self._timed(fn, self._ident_of(fn)))

    def wrap_replay(self, module: Any) -> None:
        """Wrap ``module.replay`` and tally fused and total rows."""
        fn = module.replay
        timed = self._timed(fn, self._name_id("repro.engine.replay.replay", "engine"))
        replays = self.replays

        def replay(system, trace):
            result = timed(system, trace)
            replays.append((result.fused_ops, result.total_ops))
            return result

        self._patch(module, "replay", replay)

    def wrap_spawn(self, simulator_cls: type) -> None:
        """Trace every DES process step as a span of the process's own layer."""
        spawn = simulator_cls.spawn
        timed_steps = self._timed_steps
        name_id = self._name_id

        def traced_spawn(sim, process, start_ns=0):
            frame = getattr(process, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame is not None else ""
            qualname = getattr(process, "__qualname__", "process")
            ident = name_id(f"{module}.{qualname}", layer_of(module))
            return spawn(sim, timed_steps(process, ident), start_ns)

        self._patch(simulator_cls, "spawn", traced_spawn)

    def capture_locks(self, module: Any, attr: str) -> None:
        """Keep every lock or semaphore built through ``module.attr``."""
        cls = getattr(module, attr)
        made = self.locks

        def factory(*args, **kwargs):
            instance = cls(*args, **kwargs)
            made.append(instance)
            return instance

        self._patch(module, attr, factory)

    def wrap_live(self, root: Any, depth: int = 3) -> None:
        """Wrap public methods of ``root`` and the repro objects it holds."""
        self._wrap_object(root)
        if depth <= 0:
            return
        for value in list(vars(root).values()):
            module = type(value).__module__
            if (
                module.startswith("repro.")
                and not module.startswith(_SKIP_MODULES)
                and hasattr(value, "__dict__")
                and not isinstance(value, (type, types.ModuleType))
                and id(value) not in self._wrapped
            ):
                self.wrap_live(value, depth - 1)

    def _wrap_object(self, obj: Any) -> None:
        params = getattr(type(obj), "__dataclass_params__", None)
        frozen = params is not None and params.frozen
        if id(obj) in self._wrapped or not hasattr(obj, "__dict__") or frozen:
            return
        self._wrapped.add(id(obj))
        for name, fn in _own_functions(type(obj), BOUNDARY_PRIVATES):
            self._patch(obj, name, self._timed(getattr(obj, name), self._ident_of(fn)))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
        self._wrapped.clear()

    # ---------------------------------------------------------- results

    def arrays(self) -> Dict[str, np.ndarray]:
        parents = np.frombuffer(self.parent_col, dtype=np.int64)
        # Pointer jumping: every span ends up pointing at its outermost
        # ancestor, whose id is the op id.
        ops = np.where(parents >= 0, parents, np.arange(parents.shape[0]))
        while True:
            jumped = ops[ops]
            if np.array_equal(jumped, ops):
                break
            ops = jumped
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": parents,
            "start_ns": np.frombuffer(self.start_col, dtype=np.int64),
            "end_ns": np.frombuffer(self.end_col, dtype=np.int64),
            "op": ops,
        }

    def self_ns_by_layer(self) -> Dict[str, int]:
        """Self time per layer: span duration minus its direct children's."""
        spans = self.arrays()
        duration = spans["end_ns"] - spans["start_ns"]
        parents = spans["parent"]
        nested = parents >= 0
        children = np.bincount(
            parents[nested], weights=duration[nested], minlength=duration.shape[0]
        )
        return self._by_layer(spans["name"], duration - children)

    def calls_by_layer(self) -> Dict[str, int]:
        """Number of spans per layer."""
        return self._by_layer(np.frombuffer(self.name_col, dtype=np.int32), None)

    def _by_layer(self, names: np.ndarray, weights: Optional[np.ndarray]) -> Dict[str, int]:
        per_name = np.bincount(names, weights=weights, minlength=len(self.names))
        totals: Dict[str, int] = {}
        for ident, value in enumerate(per_name):
            layer = self.layers[ident]
            totals[layer] = totals.get(layer, 0) + int(value)
        return totals

    def write(self, path: Path) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            **self.arrays(),
        )


class _Span:
    def __init__(self, tracer: Tracer, ident: int) -> None:
        self._tracer = tracer
        self._ident = ident
        self._sid: Optional[int] = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._sid = len(tracer.start_col)
        tracer.name_col.append(self._ident)
        tracer.parent_col.append(tracer._stack[-1])
        tracer.end_col.append(0)
        tracer._stack.append(self._sid)
        tracer.start_col.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        tracer.end_col[self._sid] = time.perf_counter_ns()
        tracer._stack.pop()

    @property
    def seconds(self) -> float:
        tracer = self._tracer
        return (tracer.end_col[self._sid] - tracer.start_col[self._sid]) / 1e9
