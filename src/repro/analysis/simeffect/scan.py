"""simeffect body scanner and call-graph fixpoint.

:func:`scan_program` walks every non-seeded function body once, filling in
the *intrinsic* part of its :class:`~repro.analysis.simeffect.model.FunctionInfo`
summary — direct effects, raise sites (with the handler stack active at
each site), container-allocation sites, DES lock acquisitions — and its
outgoing :class:`CallEdge` list, resolving each call through the type
information built by :func:`build_program`.

:func:`fixpoint` then joins callee summaries into caller summaries until
stable, filtering exception propagation by the handlers recorded at each
call site, and keeps provenance pointers (``via`` / per-raise source) so
rules can print witness chains.

:func:`kernel_scope` computes the set of functions transitively reachable
from ``@kernel`` roots (the *kernel scope* that rules SE003/SE004 police),
never descending into trusted seeds.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.simeffect.model import (
    ALLOC_BUILTINS,
    BUILTIN_CONTAINER_KINDS,
    BUILTIN_EXCEPTIONS,
    CONTAINER_METHOD_TABLES,
    DES_ACQUIRE_CLASSES,
    DES_COMMAND_CLASSES,
    DES_MODULE,
    EXTRA_SEEDS,
    MUTATES_STATE,
    PURE_BUILTINS,
    PURE_EXTERNAL,
    RNG,
    RNG_MODULES,
    SPEC_SEEDS,
    YIELDS,
    CallEdge,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Program,
    TypeContext,
    TypeRef,
    UNKNOWN,
    _bind_target,
    _elem_of,
    _infer_call_type,
    infer_type,
    strip_optional,
)

_PURE_ALL = "all-pure"


class _Scanner:
    """One function-body scan: statements walked with a handler stack."""

    def __init__(self, program: Program, module: ModuleInfo,
                 cls: Optional[ClassInfo], function: FunctionInfo,
                 env: Dict[str, TypeRef]):
        self.program = program
        self.module = module
        self.cls = cls
        self.function = function
        self.ctx = TypeContext(program, module, cls, env)
        self.handler_stack: List[List[str]] = []
        self.in_raise = 0
        self.global_names: Set[str] = set()
        self._call_funcs: Set[int] = set()  # Attribute nodes that are call targets
        # Inside __init__, stores to `self.attr` initialize an object that
        # has not escaped yet — not shared-state mutation (escape analysis).
        self._ctor_self: Optional[str] = None
        if cls is not None and function.name == "__init__" and not function.is_staticmethod:
            node = function.node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = list(getattr(node.args, "posonlyargs", [])) + list(node.args.args)
                if params:
                    self._ctor_self = params[0].arg

    # -- helpers -----------------------------------------------------------

    def _caught(self) -> Tuple[str, ...]:
        out: List[str] = []
        for frame in self.handler_stack:
            out.extend(frame)
        return tuple(out)

    def _effect(self, name: str) -> None:
        self.function.intrinsic.add(name)

    def _edge(self, callee: str, line: int) -> None:
        self.function.calls.append(CallEdge(callee, line, self._caught()))

    def _unresolved(self, line: int, reason: str) -> None:
        self.function.unresolved.append((line, reason))

    def _alloc(self, line: int, desc: str) -> None:
        if self.in_raise:
            return  # exception-path formatting is not per-access allocation
        self.function.allocs.append((line, desc))

    def _raise(self, exc: str, line: int) -> None:
        caught = self._caught()
        for handler in caught:
            if self.program.exc_subsumes(handler, exc):
                return
        self.function.raise_sites.setdefault(exc, line)

    def _exc_name(self, node: Optional[ast.expr]) -> Optional[str]:
        """Canonical name for a raised/caught exception expression."""
        if node is None:
            return None
        if isinstance(node, ast.Call):
            return self._exc_name(node.func)
        if isinstance(node, ast.Name):
            resolved = self.program.resolve_name(self.module, node.id)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            if node.id in BUILTIN_EXCEPTIONS:
                return node.id
            return node.id  # unknown name; matched by last segment
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                resolved = self.program.resolve_name(self.module, node.value.id)
                if resolved is not None and resolved[0] == "module":
                    return f"{resolved[1]}.{node.attr}"
            return node.attr
        return None

    # -- statements --------------------------------------------------------

    def scan_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.stmt) -> None:  # noqa: C901
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are separate summaries (or local helpers)
        if isinstance(stmt, ast.Global):
            self.global_names.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            self.scan_expr(stmt.value)
            value_type = infer_type(self.ctx, stmt.value)
            for target in stmt.targets:
                self._scan_store_target(target, value_type)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
            from repro.analysis.simeffect.model import parse_annotation
            value_type = parse_annotation(self.program, self.module, stmt.annotation)
            self._scan_store_target(stmt.target, value_type)
            return
        if isinstance(stmt, ast.AugAssign):
            self.scan_expr(stmt.value)
            self._scan_store_target(stmt.target, infer_type(self.ctx, stmt.value))
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._effect(MUTATES_STATE)
                    self.scan_expr(target.value)
            return
        if isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.scan_expr(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            self.in_raise += 1
            if stmt.exc is not None:
                self.scan_expr(stmt.exc)
                exc = self._exc_name(stmt.exc)
                if exc is not None:
                    self._raise(exc, stmt.lineno)
            else:
                # bare re-raise: the innermost handler's types escape again
                if self.handler_stack:
                    for handler in self.handler_stack[-1]:
                        self._raise(handler, stmt.lineno)
            if stmt.cause is not None:
                self.scan_expr(stmt.cause)
            self.in_raise -= 1
            return
        if isinstance(stmt, ast.Assert):
            self.scan_expr(stmt.test)
            if stmt.msg is not None:
                self.in_raise += 1
                self.scan_expr(stmt.msg)
                self.in_raise -= 1
            self._raise("AssertionError", stmt.lineno)
            return
        if isinstance(stmt, ast.If):
            self.scan_expr(stmt.test)
            before = dict(self.ctx.env)
            self.scan_body(stmt.body)
            after_body = self.ctx.env
            self.ctx.env = dict(before)
            self.scan_body(stmt.orelse)
            for name, t in after_body.items():
                if name in self.ctx.env and self.ctx.env[name] != t:
                    from repro.analysis.simeffect.model import join_types
                    self.ctx.env[name] = join_types(self.ctx.env[name], t)
                else:
                    self.ctx.env[name] = t
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.scan_expr(stmt.iter)
            iter_type = strip_optional(infer_type(self.ctx, stmt.iter))
            _bind_target(self.ctx, stmt.target, _elem_of(iter_type))
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.scan_expr(stmt.test)
            self.scan_body(stmt.body)
            self.scan_body(stmt.orelse)
            return
        if isinstance(stmt, ast.Try):
            handlers: List[str] = []
            for handler in stmt.handlers:
                if handler.type is None:
                    handlers.append("BaseException")
                elif isinstance(handler.type, ast.Tuple):
                    for element in handler.type.elts:
                        name = self._exc_name(element)
                        if name is not None:
                            handlers.append(name)
                else:
                    name = self._exc_name(handler.type)
                    if name is not None:
                        handlers.append(name)
            self.handler_stack.append(handlers)
            self.scan_body(stmt.body)
            self.handler_stack.pop()
            for handler in stmt.handlers:
                self.scan_body(handler.body)
            self.scan_body(stmt.orelse)
            self.scan_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.scan_expr(item.context_expr)
            self.scan_body(stmt.body)
            return
        # Pass / Break / Continue / Import / Nonlocal: nothing to do

    def _scan_store_target(self, target: ast.expr, value_type: TypeRef) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_names:
                self._effect(MUTATES_STATE)
            _bind_target(self.ctx, target, value_type)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            fresh = (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self._ctor_self
            )
            if not fresh:
                self._effect(MUTATES_STATE)
            self.scan_expr(target.value)
            if isinstance(target, ast.Subscript):
                self.scan_expr(target.slice)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elem = _elem_of(value_type) if value_type.single() == "tuple" else UNKNOWN
            for sub in target.elts:
                self._scan_store_target(sub, elem)
            return
        if isinstance(target, ast.Starred):
            self._scan_store_target(target.value, UNKNOWN)

    # -- expressions -------------------------------------------------------

    def scan_expr(self, node: Optional[ast.expr]) -> None:  # noqa: C901
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._scan_call(node)
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self._scan_yield(node)
            return
        if isinstance(node, ast.Attribute):
            self.scan_expr(node.value)
            if isinstance(node.ctx, ast.Load) and id(node) not in self._call_funcs:
                self._scan_property_access(node)
            return
        if isinstance(node, (ast.List, ast.Set)):
            for element in node.elts:
                self.scan_expr(element)
            self._alloc(node.lineno, "list display" if isinstance(node, ast.List)
                        else "set display")
            return
        if isinstance(node, ast.Dict):
            for key in node.keys:
                self.scan_expr(key)
            for value in node.values:
                self.scan_expr(value)
            self._alloc(node.lineno, "dict display")
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            kind = {
                ast.ListComp: "list comprehension", ast.SetComp: "set comprehension",
                ast.DictComp: "dict comprehension", ast.GeneratorExp: "generator expression",
            }[type(node)]
            saved = dict(self.ctx.env)
            for gen in node.generators:
                self.scan_expr(gen.iter)
                iter_type = strip_optional(infer_type(self.ctx, gen.iter))
                _bind_target(self.ctx, gen.target, _elem_of(iter_type))
                for cond in gen.ifs:
                    self.scan_expr(cond)
            if isinstance(node, ast.DictComp):
                self.scan_expr(node.key)
                self.scan_expr(node.value)
            else:
                self.scan_expr(node.elt)
            self.ctx.env = saved
            self._alloc(node.lineno, kind)
            return
        if isinstance(node, ast.Lambda):
            self.scan_expr(node.body)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.scan_expr(child)
            elif isinstance(child, ast.comprehension):  # pragma: no cover
                self.scan_expr(child.iter)

    def _scan_property_access(self, node: ast.Attribute) -> None:
        receiver = strip_optional(infer_type(self.ctx, node.value))
        for name in receiver.names:
            if name in self.program.classes:
                method = self.program.find_method(name, node.attr)
                if method is not None and method.is_property:
                    self._edge(method.qualname, node.lineno)

    def _scan_yield(self, node: ast.expr) -> None:
        value = node.value if isinstance(node, (ast.Yield, ast.YieldFrom)) else None
        if value is not None:
            self.scan_expr(value)
        if isinstance(node, ast.Yield) and isinstance(value, ast.Call):
            callee_type = _infer_call_type(self.ctx, value)
            for name in callee_type.names:
                if name.startswith(f"{DES_MODULE}."):
                    cls_name = name.rsplit(".", 1)[1]
                    if cls_name in DES_COMMAND_CLASSES:
                        self._effect(YIELDS)
                    if cls_name in DES_ACQUIRE_CLASSES:
                        self.function.acquires_lock = True
        if isinstance(node, ast.YieldFrom) and isinstance(value, ast.Call):
            # delegating to another coroutine: its effects flow via the edge;
            # the delegation itself is a scheduling point only if the callee
            # yields, which the fixpoint propagates.
            pass

    # -- calls -------------------------------------------------------------

    def _propagate_seed_raises(self, qualname: str, line: int) -> None:
        """Seed raises are filtered here (seeds carry no per-site handlers)."""
        _effects, raises = SPEC_SEEDS[qualname]
        _ = _effects
        for exc in raises:
            self._raise(exc, line)

    def _scan_call(self, node: ast.Call) -> None:  # noqa: C901
        func = node.func
        if isinstance(func, ast.Attribute):
            self._call_funcs.add(id(func))
        for arg in node.args:
            self.scan_expr(arg)
        for kw in node.keywords:
            self.scan_expr(kw.value)

        program, module = self.program, self.module
        line = node.lineno

        if isinstance(func, ast.Name):
            resolved = program.resolve_name(module, func.id)
            if resolved is not None:
                kind, target = resolved
                if kind == "class":
                    self._call_class_ctor(target, line)
                    return
                if kind == "function":
                    self._edge(target, line)
                    return
                if kind == "builtin":
                    if target in ALLOC_BUILTINS:
                        self._alloc(line, f"{target}() constructor")
                    elif target in BUILTIN_EXCEPTIONS or target in PURE_BUILTINS:
                        pass
                    return
                if kind == "collections-ctor":
                    self._alloc(line, f"{target}() constructor")
                    return
                if kind == "module":
                    self._unresolved(line, f"call to module object {target!r}")
                    return
                if kind == "global":
                    head, _, tail = target.rpartition(".")
                    value_type = program.modules[head].global_types.get(tail, UNKNOWN)
                    self._call_instance(value_type, line, func.id)
                    return
            # local variable / unknown name
            if func.id in self.ctx.env:
                self._call_instance(self.ctx.env[func.id], line, func.id)
                return
            self._unresolved(line, f"call to unknown name {func.id!r}")
            return

        if isinstance(func, ast.Attribute):
            self.scan_expr(func.value)
            # super().m()
            if (isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super" and self.cls is not None):
                for qn in self.cls.mro[1:]:
                    cls = program.classes.get(qn)
                    if cls is not None and func.attr in cls.methods:
                        self._method_edge(cls.methods[func.attr], line)
                        return
                # the MRO bottoms out in a builtin (exception/container/object)
                for qn in self.cls.mro:
                    cls = program.classes.get(qn)
                    if cls is not None and any(
                        base not in program.classes for base in cls.base_names
                    ):
                        return  # builtin method: pure
                self._unresolved(line, f"super().{func.attr} has no definition in the MRO")
                return
            if isinstance(func.value, ast.Name):
                resolved = program.resolve_name(module, func.value.id)
                if resolved is not None and resolved[0] == "module":
                    self._call_module_member(resolved[1], func.attr, line)
                    return
                if resolved is not None and resolved[0] == "class":
                    method = program.find_method(resolved[1], func.attr)
                    if method is not None:
                        self._method_edge(method, line)
                    else:
                        self._unresolved(
                            line, f"no method {func.attr!r} on class {resolved[1]}"
                        )
                    return
            receiver = strip_optional(infer_type(self.ctx, func.value))
            self._call_method(receiver, func.attr, line)
            return

        # calling the result of an expression: f()() etc.
        self.scan_expr(func)
        self._unresolved(line, "call through a computed callee expression")

    def _call_class_ctor(self, class_qualname: str, line: int) -> None:
        ctor = self.program.find_method(class_qualname, "__init__")
        if ctor is not None:
            self._method_edge(ctor, line)
        # a class without __init__ constructs trivially (object.__init__)

    def _method_edge(self, method: FunctionInfo, line: int) -> None:
        if method.qualname in SPEC_SEEDS:
            self._edge(method.qualname, line)
            self._propagate_seed_raises(method.qualname, line)
            return
        self._edge(method.qualname, line)

    def _call_module_member(self, module_name: str, attr: str, line: int) -> None:
        program = self.program
        qual = f"{module_name}.{attr}"
        if qual in SPEC_SEEDS:
            self._edge(qual, line)
            self._propagate_seed_raises(qual, line)
            return
        if qual in program.functions:
            self._edge(qual, line)
            return
        if qual in program.classes:
            self._call_class_ctor(qual, line)
            return
        root = module_name.split(".")[0]
        if root in RNG_MODULES:
            self._effect(RNG)
            return
        if module_name in PURE_EXTERNAL or root in PURE_EXTERNAL:
            return
        if module_name in program.modules:
            self._unresolved(line, f"unknown member {attr!r} of module {module_name}")
            return
        self._unresolved(line, f"call into unmodelled external module {module_name!r}")

    def _call_instance(self, value_type: TypeRef, line: int, name: str) -> None:
        """A call through a variable: instance ``__call__`` or a hook."""
        value_type = strip_optional(value_type)
        single = value_type.single()
        if single is not None and single.startswith("type:"):
            target = single[len("type:"):]
            if target in self.program.classes:
                self._call_class_ctor(target, line)
            elif target in self.program.functions:
                self._edge(target, line)
            return
        if "callable" in value_type.names:
            self._unresolved(line, f"call through callable value {name!r} (hook)")
            return
        if "random.Random" in value_type.names:
            self._effect(RNG)
            return
        resolved_any = False
        for type_name in value_type.names:
            if type_name in self.program.classes:
                call = self.program.find_method(type_name, "__call__")
                if call is not None:
                    self._method_edge(call, line)
                    resolved_any = True
        if not resolved_any:
            self._unresolved(line, f"call through value {name!r} of unknown type")

    def _call_method(self, receiver: TypeRef, attr: str, line: int) -> None:  # noqa: C901
        program = self.program
        if receiver.is_unknown:
            self._unresolved(
                line, f"dynamic dispatch .{attr}() on a receiver of unknown type"
            )
            return
        any_unresolved: Optional[str] = None
        for name in sorted(receiver.names):
            if name == "NoneType":
                continue
            if name.startswith("type:"):
                target = name[len("type:"):]
                method = program.find_method(target, attr)
                if method is not None:
                    self._method_edge(method, line)
                    continue
                any_unresolved = f"no method {attr!r} on class {target}"
                continue
            if name in program.classes:
                # subtree dispatch: the receiver's static type plus subclasses
                candidates: List[FunctionInfo] = []
                for qn in program.subtree_of(name):
                    cls = program.classes.get(qn)
                    if cls is not None and attr in cls.methods:
                        candidates.append(cls.methods[attr])
                if not candidates:
                    inherited = program.find_method(name, attr)
                    if inherited is not None:
                        candidates.append(inherited)
                if candidates:
                    for method in candidates:
                        self._method_edge(method, line)
                    continue
                # a callable-typed *attribute* called like a method (a hook)
                attr_type: Optional[TypeRef] = None
                for qn in program.mro_of(name):
                    cls = program.classes.get(qn)
                    if cls is not None and attr in cls.attr_types:
                        attr_type = cls.attr_types[attr]
                        break
                if attr_type is not None and "callable" in attr_type.names:
                    any_unresolved = f"call through callable-typed attribute .{attr}() (hook)"
                elif attr_type is not None:
                    self._call_instance(strip_optional(attr_type), line, attr)
                else:
                    any_unresolved = f"no method {attr!r} on class {name} or its subclasses"
                continue
            if name == "random.Random":
                self._effect(RNG)
                continue
            if name == "callable":
                any_unresolved = f"call through callable-typed attribute .{attr}()"
                continue
            if name in BUILTIN_CONTAINER_KINDS or name in CONTAINER_METHOD_TABLES:
                table = CONTAINER_METHOD_TABLES.get(name)
                if table == _PURE_ALL:
                    continue
                assert isinstance(table, dict) or table is None
                verdict = (table or {}).get(attr, "mutate")
                if verdict == "mutate":
                    self._effect(MUTATES_STATE)
                continue
            any_unresolved = f"dynamic dispatch .{attr}() on a receiver of unknown type"
        if any_unresolved is not None:
            self._unresolved(line, any_unresolved)


def scan_program(program: Program) -> None:
    """Scan every non-seeded function body, filling intrinsic summaries."""
    from repro.analysis.simeffect.model import _initial_env

    for function in program.functions.values():
        if function.seeded:
            continue
        module = program.modules[function.module]
        cls = program.classes.get(function.cls) if function.cls else None
        env = _initial_env(program, module, cls, function)
        scanner = _Scanner(program, module, cls, function, env)
        node = function.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        # collect `global` declarations first (they may follow a use site)
        for stmt in node.body:
            if isinstance(stmt, ast.Global):
                scanner.global_names.update(stmt.names)
        scanner.scan_body(node.body)
        extra = EXTRA_SEEDS.get(function.qualname)
        if extra:
            function.intrinsic.update(extra)


# --------------------------------------------------------------------------
# Fixpoint
# --------------------------------------------------------------------------


def _summary(program: Program, qualname: str) -> Tuple[Set[str], Dict[str, Tuple[int, Optional[str]]]]:
    if qualname in SPEC_SEEDS:
        effects, raises = SPEC_SEEDS[qualname]
        return set(effects), {exc: (0, None) for exc in raises}
    function = program.functions.get(qualname)
    if function is None:
        return set(), {}
    return function.effects, function.raises


def fixpoint(program: Program) -> None:
    """Propagate effects and escaping exceptions over the call graph."""
    for function in program.functions.values():
        if function.seeded:
            effects, raises = SPEC_SEEDS[function.qualname]
            function.effects = set(effects)
            function.via = {e: None for e in effects}
            function.raises = {exc: (function.lineno, None) for exc in raises}
            continue
        function.effects = set(function.intrinsic)
        function.via = {e: None for e in function.intrinsic}
        function.raises = {exc: (line, None) for exc, line in function.raise_sites.items()}

    changed = True
    iterations = 0
    while changed and iterations < 100:
        changed = False
        iterations += 1
        for function in program.functions.values():
            if function.seeded:
                continue
            for edge in function.calls:
                callee_effects, callee_raises = _summary(program, edge.callee)
                for effect in callee_effects:
                    if effect not in function.effects:
                        function.effects.add(effect)
                        function.via[effect] = edge.callee
                        changed = True
                for exc, (_line, _src) in callee_raises.items():
                    if exc in function.raises:
                        continue
                    caught = False
                    for handler in edge.caught:
                        if program.exc_subsumes(handler, exc):
                            caught = True
                            break
                    if not caught:
                        function.raises[exc] = (edge.line, edge.callee)
                        changed = True


def witness_chain(program: Program, qualname: str, effect: str) -> List[str]:
    """Follow ``via`` pointers to the primitive that introduces ``effect``."""
    chain = [qualname]
    cursor = qualname
    for _ in range(32):
        if cursor in SPEC_SEEDS:
            break
        function = program.functions.get(cursor)
        if function is None:
            break
        nxt = function.via.get(effect)
        if nxt is None:
            break
        chain.append(nxt)
        cursor = nxt
    return chain


def raise_chain(program: Program, qualname: str, exc: str) -> List[str]:
    chain = [qualname]
    cursor = qualname
    for _ in range(32):
        if cursor in SPEC_SEEDS:
            break
        function = program.functions.get(cursor)
        if function is None:
            break
        entry = function.raises.get(exc)
        if entry is None or entry[1] is None:
            break
        chain.append(entry[1])
        cursor = entry[1]
    return chain


def kernel_scope(program: Program) -> Dict[str, str]:
    """Map of function qualname -> the @kernel root it is reachable from."""
    scope: Dict[str, str] = {}
    roots = [f for f in program.functions.values() if f.kernel is not None]
    for root in sorted(roots, key=lambda f: f.qualname):
        stack = [root.qualname]
        while stack:
            qualname = stack.pop()
            if qualname in scope or qualname in SPEC_SEEDS:
                continue
            function = program.functions.get(qualname)
            if function is None or function.seeded:
                continue
            scope[qualname] = root.qualname
            for edge in function.calls:
                stack.append(edge.callee)
    return scope


def transitive_unresolved(program: Program, qualname: str) -> List[Tuple[str, int, str]]:
    """All unresolved call sites reachable from ``qualname`` (incl. itself)."""
    out: List[Tuple[str, int, str]] = []
    seen: Set[str] = set()
    stack = [qualname]
    while stack:
        current = stack.pop()
        if current in seen or current in SPEC_SEEDS:
            continue
        seen.add(current)
        function = program.functions.get(current)
        if function is None or function.seeded:
            continue
        for line, reason in function.unresolved:
            out.append((current, line, reason))
        for edge in function.calls:
            stack.append(edge.callee)
    out.sort()
    return out
