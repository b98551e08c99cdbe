"""simeffect whole-program model: types, call graph, and effect fixpoint.

The model is built in passes over every file handed to the engine:

A.  Per-module symbol tables — classes, functions, imports (including
    ``TYPE_CHECKING`` blocks), and the module name derived from the path.
B1. Class bases, subclass sets, and MRO linearisation.
B2. Module-global typing — ``DomainType`` instances (``VPN = ...``),
    ``Callable[...]`` type aliases, plain constants.
B3. Instance-attribute typing from ``self.x = expr`` / ``self.x: T``
    across every method, iterated to a small fixpoint so attribute types
    can depend on each other.

Then each non-seeded function body is scanned once, producing its
*intrinsic* summary — direct effects, raise sites, container-allocation
sites, lock acquisitions — and its outgoing call edges, with calls
resolved through the type information (receiver-typed methods, subclass
dispatch, ``super()``, class-name statics, ``__call__`` on instance-typed
globals, builtin container methods, external-module policy).  Unresolvable
call sites are recorded with a reason instead of an edge.

Finally a fixpoint over the call graph joins callee summaries into caller
summaries (exceptions filtered by the handlers active at each call site),
with provenance pointers so a finding can print the witness chain
``caller -> callee -> ... -> primitive``.

Trusted primitives (``SPEC_SEEDS``) — the sim clock, stats counters,
domain-tag checks, the fault plane — are *not* scanned; their published
summaries terminate the traversal, exactly as the batch compiler would
treat them as opaque intrinsics.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


# --------------------------------------------------------------------------
# Effect lattice
# --------------------------------------------------------------------------

READS_CLOCK = "READS_CLOCK"
ADVANCES_CLOCK = "ADVANCES_CLOCK"
YIELDS = "YIELDS"
RNG = "RNG"
MUTATES_STATS = "MUTATES_STATS"
MUTATES_STATE = "MUTATES_STATE"
PERSISTS = "PERSISTS"
FAULT_HOOK = "FAULT_HOOK"

#: Trusted-spec summaries for simulation primitives: qualname ->
#: (effects, raised exception canonical names).  These *replace* inference
#: — the functions are never scanned and the fixpoint never descends into
#: them.  Raises listed here are part of the primitive's contract;
#: validation raises (e.g. ``Counter.add`` rejecting negatives) are
#: deliberately omitted — they indicate a model bug, not a guard the
#: batched kernel must handle.
SPEC_SEEDS: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {
    "repro.sim.clock.SimClock.now": (frozenset({READS_CLOCK}), frozenset()),
    "repro.sim.clock.SimClock.now_us": (frozenset({READS_CLOCK}), frozenset()),
    "repro.sim.clock.SimClock.now_sec": (frozenset({READS_CLOCK}), frozenset()),
    "repro.sim.clock.SimClock.advance": (
        frozenset({ADVANCES_CLOCK}),
        frozenset({"repro.sim.clock.PowerLossTriggered"}),
    ),
    "repro.sim.clock.SimClock.advance_to": (
        frozenset({ADVANCES_CLOCK}),
        frozenset({"repro.sim.clock.PowerLossTriggered"}),
    ),
    "repro.sim.stats.Counter.add": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.Counter.reset": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.RatioStat.record": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.RatioStat.reset": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.LatencyStats.record": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.LatencyStats.extend": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.LatencyStats.reset": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.Histogram.record": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.stats.Histogram.extend": (frozenset({MUTATES_STATS}), frozenset()),
    "repro.sim.domain_tags.check": (
        frozenset(),
        frozenset({"repro.sim.domain_tags.DomainTagError"}),
    ),
    "repro.sim.domain_tags.tag": (frozenset(), frozenset()),
    "repro.faults.plan.FaultInjector.fires": (
        frozenset({FAULT_HOOK}),
        frozenset(),
    ),
}

#: Effects *added on top of* inference — a scanned body whose side effect
#: is invisible to the model (NAND durability is data, not control flow).
EXTRA_SEEDS: Dict[str, FrozenSet[str]] = {
    "repro.ssd.flash.FlashArray.program": frozenset({PERSISTS}),
    "repro.ssd.flash.FlashArray.erase": frozenset({PERSISTS}),
}

#: DES commands whose yield is a scheduling point (→ YIELDS); the lock
#: commands additionally mark the function as lock-acquiring (→ SE006).
DES_COMMAND_CLASSES = {"Delay", "Acquire", "Release", "AcquireSlot", "ReleaseSlot", "Timeout"}
DES_ACQUIRE_CLASSES = {"Acquire", "AcquireSlot"}
DES_MODULE = "repro.sim.des"

# --------------------------------------------------------------------------
# External-module policy
# --------------------------------------------------------------------------

#: stdlib modules whose calls are treated as pure (no tracked effects).
PURE_EXTERNAL = {
    "struct", "math", "enum", "abc", "itertools", "functools", "heapq",
    "bisect", "json", "copy", "re", "textwrap", "dataclasses", "typing",
    "operator", "string", "collections", "statistics", "os", "os.path",
    "pathlib", "sys", "time", "array", "zlib", "hashlib",
}

#: modules whose calls draw from a random stream.
RNG_MODULES = {"random", "secrets"}

#: builtins whose call has no tracked effect.
PURE_BUILTINS = {
    "len", "int", "float", "str", "bool", "bytes", "tuple", "abs", "min",
    "max", "sum", "sorted", "reversed", "enumerate", "zip", "range", "map",
    "filter", "isinstance", "issubclass", "repr", "format", "hash", "id",
    "divmod", "round", "pow", "ord", "chr", "hex", "oct", "bin", "all",
    "any", "iter", "next", "getattr", "hasattr", "setattr", "callable",
    "print", "vars", "type", "super", "memoryview", "slice", "object",
    "staticmethod", "classmethod", "property",
}

#: builtins whose call allocates a fresh container (SE004 in kernel scope).
ALLOC_BUILTINS = {"list", "dict", "set", "frozenset", "bytearray"}

#: collections constructors reachable as imported names.
ALLOC_COLLECTIONS = {"deque", "OrderedDict", "defaultdict"}

BUILTIN_EXCEPTIONS = {
    "BaseException", "Exception", "ArithmeticError", "AssertionError",
    "AttributeError", "IndexError", "KeyError", "LookupError",
    "MemoryError", "NotImplementedError", "OSError", "OverflowError",
    "RuntimeError", "StopIteration", "TypeError", "ValueError",
    "ZeroDivisionError", "IOError",
}

#: parent links for the builtin exception hierarchy (subsumption checks).
BUILTIN_EXC_PARENT = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "IOError": "OSError",
    "OverflowError": "ArithmeticError",
    "ZeroDivisionError": "ArithmeticError",
    "StopIteration": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
}

BUILTIN_CONTAINER_KINDS = {
    "list", "dict", "set", "tuple", "frozenset", "bytearray", "bytes",
    "str", "deque", "OrderedDict", "defaultdict",
}

#: per-container-kind method effect tables: method -> "pure" | "mutate".
#: A method missing from its kind's table defaults to "mutate" (sound).
_DICT_METHODS = {
    "get": "pure", "keys": "pure", "values": "pure", "items": "pure",
    "copy": "pure", "pop": "mutate", "popitem": "mutate", "clear": "mutate",
    "update": "mutate", "setdefault": "mutate",
}
_ORDERED_DICT_METHODS = dict(_DICT_METHODS, move_to_end="mutate")
_LIST_METHODS = {
    "index": "pure", "count": "pure", "copy": "pure",
    "append": "mutate", "extend": "mutate", "insert": "mutate",
    "remove": "mutate", "pop": "mutate", "clear": "mutate",
    "sort": "mutate", "reverse": "mutate",
}
_SET_METHODS = {
    "union": "pure", "intersection": "pure", "difference": "pure",
    "issubset": "pure", "issuperset": "pure", "copy": "pure",
    "isdisjoint": "pure", "symmetric_difference": "pure",
    "add": "mutate", "discard": "mutate", "remove": "mutate",
    "pop": "mutate", "clear": "mutate", "update": "mutate",
    "difference_update": "mutate", "intersection_update": "mutate",
}
_PURE_ALL = "all-pure"
CONTAINER_METHOD_TABLES: Dict[str, object] = {
    "dict": _DICT_METHODS,
    "OrderedDict": _ORDERED_DICT_METHODS,
    "defaultdict": _DICT_METHODS,
    "list": _LIST_METHODS,
    "deque": _LIST_METHODS,
    "bytearray": _LIST_METHODS,
    "set": _SET_METHODS,
    "frozenset": _PURE_ALL,
    "tuple": _PURE_ALL,
    "str": _PURE_ALL,
    "bytes": _PURE_ALL,
    "int": _PURE_ALL,
    "float": _PURE_ALL,
    "bool": _PURE_ALL,
}

#: container methods returning the element type.
_ELEM_RETURNING = {"get", "pop", "popleft"}


# --------------------------------------------------------------------------
# Type references
# --------------------------------------------------------------------------

UNKNOWN_NAME = "?"


@dataclass(frozen=True)
class TypeRef:
    """A candidate-set type: class qualnames and/or builtin kind markers."""

    names: FrozenSet[str]
    elem: Optional["TypeRef"] = None

    @property
    def is_unknown(self) -> bool:
        return UNKNOWN_NAME in self.names or not self.names

    def single(self) -> Optional[str]:
        if len(self.names) == 1:
            return next(iter(self.names))
        return None


UNKNOWN = TypeRef(frozenset({UNKNOWN_NAME}))
NONE_TYPE = TypeRef(frozenset({"NoneType"}))
INT = TypeRef(frozenset({"int"}))
BOOL = TypeRef(frozenset({"bool"}))
STR = TypeRef(frozenset({"str"}))
FLOAT = TypeRef(frozenset({"float"}))
CALLABLE = TypeRef(frozenset({"callable"}))


def make_type(name: str, elem: Optional[TypeRef] = None) -> TypeRef:
    return TypeRef(frozenset({name}), elem)


def join_types(a: Optional[TypeRef], b: Optional[TypeRef]) -> TypeRef:
    if a is None:
        return b if b is not None else UNKNOWN
    if b is None:
        return a
    if a == b:
        return a
    elem: Optional[TypeRef] = None
    if a.elem is not None or b.elem is not None:
        elem = join_types(a.elem, b.elem)
    names = (a.names | b.names) - {"NoneType"}
    if not names:
        names = frozenset({"NoneType"})
    return TypeRef(names, elem)


def strip_optional(t: TypeRef) -> TypeRef:
    names = t.names - {"NoneType"}
    if not names:
        return t
    return TypeRef(names, t.elem)


# --------------------------------------------------------------------------
# Program structure
# --------------------------------------------------------------------------


@dataclass
class CallEdge:
    callee: str                  # qualname (program function or seed)
    line: int
    caught: Tuple[str, ...]      # handler type names active at the site


@dataclass
class FunctionInfo:
    qualname: str
    module: str
    name: str
    node: ast.AST                # FunctionDef / AsyncFunctionDef
    cls: Optional[str] = None    # owning class qualname
    lineno: int = 0
    kernel: Optional[Dict[str, Tuple[str, ...]]] = None  # {"allow","may_raise"}
    declared_effects: Optional[FrozenSet[str]] = None
    is_property: bool = False
    is_staticmethod: bool = False
    is_classmethod: bool = False
    is_abstract: bool = False
    return_type: TypeRef = UNKNOWN
    seeded: bool = False
    # scan results
    intrinsic: Set[str] = field(default_factory=set)
    calls: List[CallEdge] = field(default_factory=list)
    unresolved: List[Tuple[int, str]] = field(default_factory=list)
    allocs: List[Tuple[int, str]] = field(default_factory=list)
    raise_sites: Dict[str, int] = field(default_factory=dict)  # exc -> line
    acquires_lock: bool = False
    # fixpoint results
    effects: Set[str] = field(default_factory=set)
    via: Dict[str, Optional[str]] = field(default_factory=dict)
    raises: Dict[str, Tuple[int, Optional[str]]] = field(default_factory=dict)

    @property
    def annotated(self) -> bool:
        return self.kernel is not None or self.declared_effects is not None


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)  # resolved qualnames/builtins
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, TypeRef] = field(default_factory=dict)
    attr_annotations: Dict[str, ast.expr] = field(default_factory=dict)
    subclasses: Set[str] = field(default_factory=set)
    mro: List[str] = field(default_factory=list)  # class qualnames, self first


@dataclass
class ModuleInfo:
    name: str
    path: str
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)  # local -> qualname
    classes: Dict[str, ClassInfo] = field(default_factory=dict)   # local name ->
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    global_types: Dict[str, TypeRef] = field(default_factory=dict)


class Program:
    """All modules under analysis plus derived whole-program tables."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.paths: Dict[str, str] = {}  # module name -> file path
        # Analyses derived from this program, computed once and shared by
        # the tools (see repro.analysis.runner.shared).
        self.derived: Dict[object, object] = {}

    # -- resolution helpers ------------------------------------------------

    def resolve_name(self, module: ModuleInfo, name: str) -> Optional[Tuple[str, str]]:
        """Resolve a bare name in ``module`` to ("class"|"function"|"module"|
        "builtin"|"collections-ctor", qualname) or None."""
        if name in module.classes:
            return ("class", module.classes[name].qualname)
        if name in module.functions:
            return ("function", module.functions[name].qualname)
        if name in module.imports:
            target = module.imports[name]
            kind = self.kind_of_qualname(target)
            if kind is not None:
                return kind
            if target.split(".")[-1] in ALLOC_COLLECTIONS:
                return ("collections-ctor", target.split(".")[-1])
            return ("module", target)
        if name in ALLOC_COLLECTIONS:
            return ("collections-ctor", name)
        if name in PURE_BUILTINS or name in ALLOC_BUILTINS or name in BUILTIN_EXCEPTIONS:
            return ("builtin", name)
        return None

    def kind_of_qualname(self, qualname: str) -> Optional[Tuple[str, str]]:
        if qualname in self.classes:
            return ("class", qualname)
        if qualname in self.functions:
            return ("function", qualname)
        if qualname in self.modules:
            return ("module", qualname)
        # an attribute of a known module? e.g. repro.units.VPN
        head, _, tail = qualname.rpartition(".")
        if head in self.modules and tail in self.modules[head].global_types:
            return ("global", qualname)
        return None

    def mro_of(self, qualname: str) -> List[str]:
        cls = self.classes.get(qualname)
        return cls.mro if cls is not None else [qualname]

    def find_method(self, class_qualname: str, method: str) -> Optional[FunctionInfo]:
        """First definition of ``method`` along the MRO (self first)."""
        for qn in self.mro_of(class_qualname):
            cls = self.classes.get(qn)
            if cls is not None and method in cls.methods:
                return cls.methods[method]
        return None

    def subtree_of(self, class_qualname: str) -> List[str]:
        """The class plus all transitive subclasses."""
        out: List[str] = []
        stack = [class_qualname]
        seen: Set[str] = set()
        while stack:
            qn = stack.pop()
            if qn in seen:
                continue
            seen.add(qn)
            out.append(qn)
            cls = self.classes.get(qn)
            if cls is not None:
                stack.extend(sorted(cls.subclasses))
        return out

    def exc_parent(self, name: str) -> Optional[str]:
        """Parent of an exception type (builtin table or class base chain)."""
        if name in self.classes:
            for base in self.classes[name].base_names:
                return base  # single-inheritance exceptions in this repo
            return None
        return BUILTIN_EXC_PARENT.get(name)

    def exc_subsumes(self, handler: str, exc: str) -> bool:
        """Does a handler for ``handler`` catch an ``exc`` raise?"""
        if handler in ("BaseException",):
            return True
        cursor: Optional[str] = exc
        for _ in range(32):
            if cursor is None:
                return False
            if cursor == handler or cursor.split(".")[-1] == handler.split(".")[-1]:
                return True
            cursor = self.exc_parent(cursor)
        return False


# --------------------------------------------------------------------------
# Pass A: module symbol tables
# --------------------------------------------------------------------------


def short_name(qualname: str) -> str:
    """A qualname as the reports and messages print it (no ``repro.``)."""
    return qualname.replace("repro.", "", 1)


def chain_str(chain: Sequence[str]) -> str:
    """A call chain as the reports and messages print it."""
    return " -> ".join(short_name(name) for name in chain)


def module_name_for_path(path: str) -> str:
    """Derive the dotted module name from a path containing ``repro``."""
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return ".".join(parts[-1:]) if parts else "<module>"


def _collect_imports(body: Sequence[ast.stmt], module_name: str, out: Dict[str, str]) -> None:
    package = module_name.rpartition(".")[0]
    for stmt in body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    out[root] = root
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                prefix_parts = module_name.split(".")
                # level 1 = current package, 2 = parent, ...
                keep = len(prefix_parts) - stmt.level
                prefix = ".".join(prefix_parts[:keep]) if keep > 0 else ""
                base = f"{prefix}.{base}".strip(".") if base else prefix
            for alias in stmt.names:
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, ast.If):
            _collect_imports(stmt.body, module_name, out)
            _collect_imports(stmt.orelse, module_name, out)
        elif isinstance(stmt, ast.Try):
            _collect_imports(stmt.body, module_name, out)
            for handler in stmt.handlers:
                _collect_imports(handler.body, module_name, out)
    _ = package


def _decorator_name(dec: ast.expr) -> Optional[str]:
    node = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _string_tuple(node: Optional[ast.expr]) -> Tuple[str, ...]:
    if node is None:
        return ()
    if isinstance(node, (ast.Tuple, ast.List)):
        elements = node.elts
    else:
        elements = [node]
    out = []
    for element in elements:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            out.append(element.value)
    return tuple(out)


def _parse_function(node: ast.AST, module: str, cls: Optional[str]) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    qualname = f"{cls}.{node.name}" if cls else f"{module}.{node.name}"
    info = FunctionInfo(
        qualname=qualname, module=module, name=node.name, node=node,
        cls=cls, lineno=node.lineno,
    )
    for dec in node.decorator_list:
        name = _decorator_name(dec)
        if name == "kernel":
            allow: Tuple[str, ...] = ()
            may_raise: Tuple[str, ...] = ()
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if kw.arg == "allow":
                        allow = _string_tuple(kw.value)
                    elif kw.arg == "may_raise":
                        may_raise = _string_tuple(kw.value)
            info.kernel = {"allow": allow, "may_raise": may_raise}
        elif name == "effects" and isinstance(dec, ast.Call):
            info.declared_effects = frozenset(_string_tuple(ast.Tuple(elts=list(dec.args))))
        elif name == "property":
            info.is_property = True
        elif name == "staticmethod":
            info.is_staticmethod = True
        elif name == "classmethod":
            info.is_classmethod = True
        elif name == "abstractmethod":
            info.is_abstract = True
    return info


def build_module(path: str, source: str, tree: ast.Module) -> ModuleInfo:
    name = module_name_for_path(path)
    module = ModuleInfo(name=name, path=path, tree=tree)
    _collect_imports(tree.body, name, module.imports)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[stmt.name] = _parse_function(stmt, name, None)
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{name}.{stmt.name}", module=name, name=stmt.name, node=stmt
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[sub.name] = _parse_function(sub, name, cls.qualname)
                elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    cls.attr_annotations[sub.target.id] = sub.annotation
            module.classes[stmt.name] = cls
    return module


# --------------------------------------------------------------------------
# Pass B1: bases, subclasses, MRO
# --------------------------------------------------------------------------


def _resolve_base(program: Program, module: ModuleInfo, node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        resolved = program.resolve_name(module, node.id)
        if resolved is not None and resolved[0] in ("class", "builtin"):
            return resolved[1]
        if node.id in BUILTIN_EXCEPTIONS or node.id in BUILTIN_CONTAINER_KINDS:
            return node.id
        return None
    if isinstance(node, ast.Attribute):
        # module.Class
        if isinstance(node.value, ast.Name):
            resolved = program.resolve_name(module, node.value.id)
            if resolved is not None and resolved[0] == "module":
                qual = f"{resolved[1]}.{node.attr}"
                if qual in program.classes:
                    return qual
        return None
    if isinstance(node, ast.Subscript):  # Generic[...]
        return _resolve_base(program, module, node.value)
    return None


def link_classes(program: Program) -> None:
    for module in program.modules.values():
        for cls in module.classes.values():
            for base in cls.node.bases:
                resolved = _resolve_base(program, module, base)
                if resolved is not None:
                    cls.base_names.append(resolved)
                    if resolved in program.classes:
                        program.classes[resolved].subclasses.add(cls.qualname)
    # MRO: DFS left-to-right with dedup (no diamonds in this codebase)
    for cls in program.classes.values():
        mro: List[str] = []
        stack = [cls.qualname]
        while stack:
            qn = stack.pop(0)
            if qn in mro:
                continue
            mro.append(qn)
            info = program.classes.get(qn)
            if info is not None:
                stack = [b for b in info.base_names if b in program.classes] + stack
        cls.mro = mro


# --------------------------------------------------------------------------
# Annotation parsing
# --------------------------------------------------------------------------

_TYPING_LIST_KINDS = {
    "List": "list", "Sequence": "list", "Iterable": "list", "Iterator": "list",
    "MutableSequence": "list", "FrozenSet": "frozenset", "Set": "set",
    "MutableSet": "set", "Deque": "deque", "Tuple": "tuple",
}
_TYPING_DICT_KINDS = {
    "Dict": "dict", "Mapping": "dict", "MutableMapping": "dict",
    "OrderedDict": "OrderedDict", "DefaultDict": "defaultdict",
}
_BUILTIN_ANN = {
    "int": "int", "float": "float", "bool": "bool", "str": "str",
    "bytes": "bytes", "bytearray": "bytearray", "list": "list",
    "dict": "dict", "set": "set", "tuple": "tuple", "frozenset": "frozenset",
    "None": "NoneType", "object": UNKNOWN_NAME, "Any": UNKNOWN_NAME,
}


def _value_as_annotation(value_type: TypeRef) -> TypeRef:
    """A module global used *as* an annotation: a ``DomainType`` instance
    (``VPN``, ``TimeNs``, ...) annotates a tagged int; a ``Callable[...]``
    alias annotates a callable; anything else is opaque."""
    if value_type.single() == "repro.units.DomainType":
        return INT
    if "callable" in value_type.names:
        return CALLABLE
    return UNKNOWN


def _global_as_annotation(program: Program, qualname: str) -> TypeRef:
    head, _, tail = qualname.rpartition(".")
    value_type = program.modules[head].global_types.get(tail, UNKNOWN)
    return _value_as_annotation(value_type)


def parse_annotation(program: Program, module: ModuleInfo, node: Optional[ast.expr]) -> TypeRef:
    if node is None:
        return UNKNOWN
    if isinstance(node, ast.Constant):
        if node.value is None:
            return NONE_TYPE
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return UNKNOWN
            return parse_annotation(program, module, parsed)
        return UNKNOWN
    if isinstance(node, ast.Name):
        name = node.id
        if name in _BUILTIN_ANN:
            return make_type(_BUILTIN_ANN[name])
        resolved = program.resolve_name(module, name)
        if resolved is not None and resolved[0] == "class":
            return make_type(resolved[1])
        if resolved is not None and resolved[0] == "builtin":
            return make_type(resolved[1]) if resolved[1] in _BUILTIN_ANN else UNKNOWN
        if resolved is not None and resolved[0] == "global":
            return _global_as_annotation(program, resolved[1])
        if name == "Callable":
            return CALLABLE
        # a module-global alias used as an annotation (Callable alias,
        # DomainType instance like VPN/TimeNs, ...)
        if name in module.global_types:
            return _value_as_annotation(module.global_types[name])
        return UNKNOWN
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name):
            resolved = program.resolve_name(module, node.value.id)
            if resolved is not None and resolved[0] == "module":
                qual = f"{resolved[1]}.{node.attr}"
                if qual in program.classes:
                    return make_type(qual)
            if node.value.id in ("typing", "t"):
                return parse_annotation(program, module, ast.Name(id=node.attr, ctx=ast.Load()))
            if node.value.id == "random" and node.attr == "Random":
                return make_type("random.Random")
        return UNKNOWN
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = None
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        slice_node = node.slice
        if isinstance(slice_node, ast.Index):  # py<3.9 compat in ASTs
            slice_node = slice_node.value  # pragma: no cover
        if base_name == "Optional":
            inner = parse_annotation(program, module, slice_node)
            return join_types(inner, NONE_TYPE)
        if base_name == "Union":
            parts = slice_node.elts if isinstance(slice_node, ast.Tuple) else [slice_node]
            out: Optional[TypeRef] = None
            for part in parts:
                out = join_types(out, parse_annotation(program, module, part))
            return out if out is not None else UNKNOWN
        if base_name == "Callable":
            return CALLABLE
        if base_name in _TYPING_LIST_KINDS or base_name in ("list", "set", "frozenset", "tuple"):
            kind = _TYPING_LIST_KINDS.get(base_name, base_name)
            if isinstance(slice_node, ast.Tuple) and slice_node.elts:
                elem: Optional[TypeRef] = None
                for part in slice_node.elts:
                    if isinstance(part, ast.Constant) and part.value is Ellipsis:
                        continue
                    elem = join_types(elem, parse_annotation(program, module, part))
                return make_type(kind, elem if elem is not None else UNKNOWN)
            return make_type(kind, parse_annotation(program, module, slice_node))
        if base_name in _TYPING_DICT_KINDS or base_name == "dict":
            kind = _TYPING_DICT_KINDS.get(base_name, "dict")
            if isinstance(slice_node, ast.Tuple) and len(slice_node.elts) == 2:
                value = parse_annotation(program, module, slice_node.elts[1])
                return make_type(kind, value)
            return make_type(kind, UNKNOWN)
        if base_name == "Type":
            return UNKNOWN
        # Generic user classes — drop the parameterisation
        return parse_annotation(program, module, node.value)
    return UNKNOWN


# --------------------------------------------------------------------------
# Pass B2/B3: global and attribute typing (uses the expression typer below)
# --------------------------------------------------------------------------


class TypeContext:
    """Everything the expression typer needs to resolve names."""

    def __init__(self, program: Program, module: ModuleInfo,
                 cls: Optional[ClassInfo], env: Dict[str, TypeRef]):
        self.program = program
        self.module = module
        self.cls = cls
        self.env = env


def _ctor_return(program: Program, class_qualname: str) -> TypeRef:
    return make_type(class_qualname)


def infer_type(ctx: TypeContext, node: ast.expr) -> TypeRef:  # noqa: C901
    program, module = ctx.program, ctx.module
    if isinstance(node, ast.Name):
        if node.id in ctx.env:
            return ctx.env[node.id]
        if node.id == "self" and ctx.cls is not None:
            return make_type(ctx.cls.qualname)
        if node.id in module.global_types:
            return module.global_types[node.id]
        resolved = program.resolve_name(module, node.id)
        if resolved is not None and resolved[0] == "global":
            head, _, tail = resolved[1].rpartition(".")
            return program.modules[head].global_types.get(tail, UNKNOWN)
        if resolved is not None and resolved[0] in ("class", "function"):
            return make_type(f"type:{resolved[1]}")
        if node.id in ("True", "False"):
            return BOOL
        return UNKNOWN
    if isinstance(node, ast.Constant):
        value = node.value
        if value is None:
            return NONE_TYPE
        if isinstance(value, bool):
            return BOOL
        if isinstance(value, int):
            return INT
        if isinstance(value, float):
            return FLOAT
        if isinstance(value, str):
            return STR
        if isinstance(value, bytes):
            return make_type("bytes")
        return UNKNOWN
    if isinstance(node, ast.Attribute):
        base = strip_optional(infer_type(ctx, node.value))
        out: Optional[TypeRef] = None
        for name in base.names:
            if name in program.classes:
                cls = program.classes[name]
                attr_t = None
                for qn in cls.mro:
                    info = program.classes.get(qn)
                    if info is None:
                        continue
                    if node.attr in info.attr_types:
                        attr_t = info.attr_types[node.attr]
                        break
                    if node.attr in info.attr_annotations:
                        attr_t = parse_annotation(
                            program, program.modules[info.module], info.attr_annotations[node.attr]
                        )
                        break
                if attr_t is None:
                    prop = program.find_method(name, node.attr)
                    if prop is not None and prop.is_property:
                        attr_t = prop.return_type
                out = join_types(out, attr_t if attr_t is not None else UNKNOWN)
            else:
                out = join_types(out, UNKNOWN)
        return out if out is not None else UNKNOWN
    if isinstance(node, ast.Call):
        return _infer_call_type(ctx, node)
    if isinstance(node, ast.Subscript):
        base = strip_optional(infer_type(ctx, node.value))
        for name in base.names:
            if name in BUILTIN_CONTAINER_KINDS and base.elem is not None:
                return base.elem
        return UNKNOWN
    if isinstance(node, (ast.List, ast.Set)):
        elem: Optional[TypeRef] = None
        for element in node.elts:
            elem = join_types(elem, infer_type(ctx, element))
        kind = "list" if isinstance(node, ast.List) else "set"
        return make_type(kind, elem if elem is not None else UNKNOWN)
    if isinstance(node, ast.Dict):
        elem = None
        for value in node.values:
            if value is not None:
                elem = join_types(elem, infer_type(ctx, value))
        return make_type("dict", elem if elem is not None else UNKNOWN)
    if isinstance(node, ast.Tuple):
        elem = None
        for element in node.elts:
            elem = join_types(elem, infer_type(ctx, element))
        return make_type("tuple", elem if elem is not None else UNKNOWN)
    if isinstance(node, ast.ListComp):
        sub = TypeContext(program, module, ctx.cls, dict(ctx.env))
        for gen in node.generators:
            iter_t = strip_optional(infer_type(sub, gen.iter))
            _bind_target(sub, gen.target, _elem_of(iter_t))
        return make_type("list", infer_type(sub, node.elt))
    if isinstance(node, (ast.SetComp, ast.GeneratorExp)):
        return make_type("set" if isinstance(node, ast.SetComp) else "list", UNKNOWN)
    if isinstance(node, ast.DictComp):
        return make_type("dict", UNKNOWN)
    if isinstance(node, ast.IfExp):
        return join_types(infer_type(ctx, node.body), infer_type(ctx, node.orelse))
    if isinstance(node, ast.BoolOp):
        out = None
        for value in node.values:
            out = join_types(out, infer_type(ctx, value))
        return out if out is not None else UNKNOWN
    if isinstance(node, ast.BinOp):
        left = infer_type(ctx, node.left)
        right = infer_type(ctx, node.right)
        if left.single() == "int" and right.single() == "int":
            return INT
        return join_types(left, right)
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return BOOL
        return infer_type(ctx, node.operand)
    if isinstance(node, ast.Compare):
        return BOOL
    if isinstance(node, ast.Lambda):
        return CALLABLE
    if isinstance(node, ast.JoinedStr):
        return STR
    if isinstance(node, ast.Starred):
        return infer_type(ctx, node.value)
    if isinstance(node, ast.NamedExpr):
        return infer_type(ctx, node.value)
    return UNKNOWN


def _elem_of(t: TypeRef) -> TypeRef:
    if t.elem is not None:
        return t.elem
    return UNKNOWN


def _bind_target(ctx: TypeContext, target: ast.expr, value_type: TypeRef) -> None:
    if isinstance(target, ast.Name):
        previous = ctx.env.get(target.id)
        if previous is not None and not previous.is_unknown and not value_type.is_unknown:
            ctx.env[target.id] = join_types(previous, value_type)
        else:
            ctx.env[target.id] = value_type
    elif isinstance(target, (ast.Tuple, ast.List)):
        elem = _elem_of(value_type) if value_type.single() == "tuple" else UNKNOWN
        for sub in target.elts:
            _bind_target(ctx, sub, elem)
    # Attribute/Subscript targets: handled by the attr-typing pass / scanner


def _infer_call_type(ctx: TypeContext, node: ast.Call) -> TypeRef:
    """Return type of a call — shared by the typer and the scanner."""
    program, module = ctx.program, ctx.module
    func = node.func
    if isinstance(func, ast.Name):
        resolved = program.resolve_name(module, func.id)
        if resolved is not None:
            kind, target = resolved
            if kind == "class":
                return _ctor_return(program, target)
            if kind == "function":
                return program.functions[target].return_type
            if kind == "builtin":
                if target in ("int", "len", "abs", "sum", "ord", "hash", "id"):
                    return INT
                if target in ("bool", "isinstance", "issubclass", "all", "any",
                              "callable", "hasattr"):
                    return BOOL
                if target in ("str", "repr", "format", "hex", "oct", "bin", "chr"):
                    return STR
                if target == "float":
                    return FLOAT
                if target in ALLOC_BUILTINS or target in ("tuple", "sorted", "reversed"):
                    kind_name = "list" if target in ("sorted", "reversed") else target
                    elem = UNKNOWN
                    if node.args:
                        elem = _elem_of(strip_optional(infer_type(ctx, node.args[0])))
                    return make_type(kind_name, elem)
                if target == "divmod":
                    return make_type("tuple", INT)
                if target in ("min", "max"):
                    if node.args:
                        first = strip_optional(infer_type(ctx, node.args[0]))
                        if first.single() in BUILTIN_CONTAINER_KINDS:
                            return _elem_of(first)
                        return infer_type(ctx, node.args[0])
                return UNKNOWN
            if kind == "collections-ctor":
                return make_type(target, UNKNOWN)
        # a local/global variable holding a class or callable
        value_t = strip_optional(infer_type(ctx, func))
        single = value_t.single()
        if single is not None and single.startswith("type:"):
            target = single[len("type:"):]
            if target in program.classes:
                return _ctor_return(program, target)
            if target in program.functions:
                return program.functions[target].return_type
        if single is not None and single in program.classes:
            # instance of a class with __call__ (DomainType)
            call = program.find_method(single, "__call__")
            if call is not None:
                return call.return_type
        return UNKNOWN
    if isinstance(func, ast.Attribute):
        # super().m()
        if (isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and ctx.cls is not None):
            for qn in ctx.cls.mro[1:]:
                cls = program.classes.get(qn)
                if cls is not None and func.attr in cls.methods:
                    return cls.methods[func.attr].return_type
            return UNKNOWN
        if isinstance(func.value, ast.Name):
            resolved = program.resolve_name(module, func.value.id)
            if resolved is not None and resolved[0] == "module":
                target = resolved[1]
                member = program.kind_of_qualname(f"{target}.{func.attr}")
                if member is not None and member[0] == "class":
                    return _ctor_return(program, member[1])
                if member is not None and member[0] == "function":
                    return program.functions[member[1]].return_type
                return UNKNOWN
            if resolved is not None and resolved[0] == "class":
                method = program.find_method(resolved[1], func.attr)
                if method is not None:
                    return method.return_type
                return UNKNOWN
        receiver = strip_optional(infer_type(ctx, func.value))
        out: Optional[TypeRef] = None
        for name in receiver.names:
            if name in program.classes:
                method = program.find_method(name, func.attr)
                if method is not None:
                    out = join_types(out, method.return_type)
            elif name in BUILTIN_CONTAINER_KINDS:
                if func.attr in _ELEM_RETURNING:
                    out = join_types(out, _elem_of(receiver))
                elif func.attr in ("keys", "copy"):
                    out = join_types(out, make_type(name, receiver.elem))
                elif func.attr in ("values", "items"):
                    out = join_types(out, make_type("list", receiver.elem))
        return out if out is not None else UNKNOWN
    return UNKNOWN


def type_module_globals(program: Program) -> None:
    """Pass B2: type module-level assignments (DomainType instances, aliases)."""
    for module in program.modules.values():
        ctx = TypeContext(program, module, None, {})
        for stmt in module.tree.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                module.global_types[stmt.target.id] = parse_annotation(
                    program, module, stmt.annotation
                )
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                name = stmt.targets[0].id
                value = stmt.value
                # typing alias: X = Callable[...] / X = Dict[...] etc.
                if isinstance(value, ast.Subscript):
                    module.global_types[name] = parse_annotation(program, module, value)
                    continue
                module.global_types[name] = infer_type(ctx, value)


def type_function_signatures(program: Program) -> None:
    """Parse return annotations for every function (used by the typer)."""
    for function in program.functions.values():
        node = function.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        module = program.modules[function.module]
        function.return_type = parse_annotation(program, module, node.returns)


def _initial_env(program: Program, module: ModuleInfo, cls: Optional[ClassInfo],
                 function: FunctionInfo) -> Dict[str, TypeRef]:
    env: Dict[str, TypeRef] = {}
    node = function.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = list(node.args.posonlyargs) + list(node.args.args)
    for index, arg in enumerate(args):
        if index == 0 and cls is not None and not function.is_staticmethod:
            env[arg.arg] = make_type(cls.qualname)
            continue
        env[arg.arg] = parse_annotation(program, module, arg.annotation)
    for arg in node.args.kwonlyargs:
        env[arg.arg] = parse_annotation(program, module, arg.annotation)
    return env


def _join_attr(previous: Optional[TypeRef], value: TypeRef) -> TypeRef:
    """Join for attribute inference: UNKNOWN carries no information."""
    if previous is None or previous.is_unknown:
        return value
    if value.is_unknown:
        return previous
    return join_types(previous, value)


def type_class_attributes(program: Program, rounds: int = 4) -> None:
    """Pass B3: infer instance-attribute types from every ``self.x = ...``.

    Each round recomputes every class's table from scratch against the
    *previous* round's tables — accumulating across rounds would freeze
    the UNKNOWNs of round 1 (when dependent attributes were untyped)
    into the final answer.
    """
    for _ in range(rounds):
        changed = False
        for module in program.modules.values():
            for cls in module.classes.values():
                new_attrs: Dict[str, TypeRef] = {}
                for method in cls.methods.values():
                    env = _initial_env(program, module, cls, method)
                    ctx = TypeContext(program, module, cls, env)
                    node = method.node
                    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    self_name = None
                    args = list(node.args.posonlyargs) + list(node.args.args)
                    if args and not method.is_staticmethod:
                        self_name = args[0].arg
                    for stmt in ast.walk(node):
                        target = None
                        value_type = None
                        if isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Attribute
                        ):
                            target = stmt.target
                            value_type = parse_annotation(program, module, stmt.annotation)
                        elif isinstance(stmt, ast.Assign):
                            for t in stmt.targets:
                                if isinstance(t, ast.Attribute):
                                    target = t
                            if target is not None:
                                value_type = infer_type(ctx, stmt.value)
                        if target is None or value_type is None:
                            continue
                        if not (isinstance(target.value, ast.Name)
                                and target.value.id == self_name):
                            continue
                        attr = target.attr
                        if isinstance(stmt, ast.AnnAssign):
                            new_attrs[attr] = value_type  # annotation wins
                            continue
                        if attr in cls.attr_annotations:
                            continue  # class-level annotation wins
                        new_attrs[attr] = _join_attr(new_attrs.get(attr), value_type)
                # annotated class attributes (dataclass fields)
                for attr, ann in cls.attr_annotations.items():
                    new_attrs[attr] = parse_annotation(program, module, ann)
                if new_attrs != cls.attr_types:
                    cls.attr_types = new_attrs
                    changed = True
        if not changed:
            break


# --------------------------------------------------------------------------
# Program assembly
# --------------------------------------------------------------------------


def build_program(sources: Sequence[Tuple[str, ast.Module, str]]) -> Program:
    """Build the whole-program model from (path, tree, source) triples."""
    program = Program()
    for path, tree, _source in sources:
        module = build_module(path, _source, tree)
        program.modules[module.name] = module
        program.paths[module.name] = path
        for cls in module.classes.values():
            program.classes[cls.qualname] = cls
            for method in cls.methods.values():
                program.functions[method.qualname] = method
        for function in module.functions.values():
            program.functions[function.qualname] = function
    link_classes(program)
    type_module_globals(program)
    type_function_signatures(program)
    type_class_attributes(program)
    for qualname, function in program.functions.items():
        if qualname in SPEC_SEEDS:
            function.seeded = True
    return program
