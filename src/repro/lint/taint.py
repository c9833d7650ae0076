"""Interprocedural cache-purity taint analysis: REP008 and REP009.

The result cache's contract is that every payload is a pure function of
its key.  Two things can break that silently:

* a **tainted key** — a nondeterminism source (wall clock, fresh
  entropy, environment, filesystem enumeration) flows into the value
  the key is computed over, so two identical requests stop colliding
  (REP008 ``tainted-cache-key``);
* an **impure cached callable** — the function executed on a cache miss
  reads a source somewhere down its call chain, so the payload published
  under the key is not reproducible from the key (REP009
  ``impure-cached-callable``).

Both are *transitive* properties, invisible to the per-file rules: the
source and the sink are usually in different modules.  This module runs
two fixed points over the :class:`~repro.lint.graph.ProjectIndex`:

* a **forward value analysis** for REP008 — every function gets a
  symbolic summary of what its return value carries (``source:<name>``
  labels for nondeterminism it introduces, ``param:<i>`` labels for
  arguments it passes through), iterated to a fixed point; sink
  arguments (``TaskSpec`` id/kwargs, ``ResultCache.key``,
  ``cache_key``, ``get_or_compute`` keys, ``fingerprint`` inputs) are
  then evaluated under those summaries.  A ``param:`` label at a sink
  marks the whole function as a *sink-param* function, so taint is
  reported in the caller that actually introduces the source.
* a **reachability fixed point** for REP009 — a function is impure when
  its own body calls a source or any resolved project callee is impure;
  callables handed to ``TaskSpec(fn=...)`` or
  ``ResultCache.get_or_compute(key, compute)`` are checked against that
  set, with the offending call chain spelled out in the message.

**Sanitizers** stop propagation: calls into ``repro.obs`` (the
sanctioned wall-clock/trace layer), ``repro.util.rng`` (the seeded
generator factory), ``repro.util.atomicio`` and ``logging`` neither
taint values nor make callers impure — their nondeterminism is
documented as never reaching cache identity.  Resolution is
under-approximating (an unresolved call contributes nothing), which is
the right polarity for a self-hosted gate.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Any, Deque, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Severity
from repro.lint.graph import FunctionInfo, ProjectIndex, resolve_callable
from repro.lint.rules import (
    GlobalRngRule,
    NondeterministicCallRule,
    ProjectRule,
    UnseededGeneratorRule,
)

__all__ = [
    "ImpureCachedCallableRule",
    "SANITIZER_PREFIXES",
    "TAINT_RULES",
    "TaintAnalysis",
    "TaintedCacheKeyRule",
    "classify_source",
    "is_sanitized",
]

#: Nondeterministic regardless of arguments (shared with REP003's table).
_ALWAYS_SOURCES: FrozenSet[str] = NondeterministicCallRule._ALWAYS | frozenset(
    {
        "os.getenv",
        "os.getenvb",
        "os.listdir",
        "os.scandir",
        "glob.glob",
        "glob.iglob",
        "os.path.getmtime",
        "os.path.getatime",
        "os.path.getctime",
        "tempfile.mkstemp",
        "tempfile.mkdtemp",
        "tempfile.mktemp",
        "tempfile.NamedTemporaryFile",
        "tempfile.TemporaryDirectory",
        "random.SystemRandom",
    }
)

#: Nondeterministic only when called with no arguments.
_ARGLESS_SOURCES: FrozenSet[str] = NondeterministicCallRule._ARGLESS

#: Generator constructors: nondeterministic only when unseeded.
_SEEDABLE_SOURCES: FrozenSet[str] = UnseededGeneratorRule._SEEDABLE

#: Dotted prefixes that are sources wholesale.
_SOURCE_PREFIXES: Tuple[str, ...] = ("secrets",)

#: Attribute reads that are sources (no call involved).
_ATTRIBUTE_SOURCES: FrozenSet[str] = frozenset({"os.environ", "os.environb", "sys.argv"})

#: Call targets that never propagate taint and are never impure: the
#: codebase's sanctioned nondeterminism sinks (documented in
#: docs/LINT.md).  ``logging`` is inert for cache identity by contract.
SANITIZER_PREFIXES: Tuple[str, ...] = (
    "repro.obs",
    "repro.util.rng",
    "repro.util.atomicio",
    "logging",
)

_SANITIZED_PACKAGES: Tuple[str, ...] = tuple(p + "." for p in SANITIZER_PREFIXES)

#: Cache-identity sink call targets (match after ``resolve_qname``).
_TASKSPEC_NAMES: FrozenSet[str] = frozenset(
    {"repro.runtime.TaskSpec", "repro.runtime.task.TaskSpec"}
)
_FINGERPRINT_SINKS: FrozenSet[str] = frozenset(
    {
        "repro.runtime.fingerprint.tree_fingerprint",
        "repro.runtime.fingerprint.code_fingerprint",
        "repro.runtime.cache.cache_key",
        "repro.runtime.cache_key",
    }
)

_EMPTY: FrozenSet[str] = frozenset()

#: Fixed-point iteration ceiling (rounds of an environment, evaluations
#: of one function's summary); any real call graph converges far sooner.
_MAX_ROUNDS = 12

#: One assignment in a function's own scope: the names its target binds
#: and the value expression they receive.
_Pair = Tuple[Tuple[str, ...], ast.expr]


def is_sanitized(name: Optional[str]) -> bool:
    """True when calls to *name* must not propagate taint or impurity."""
    if name is None:
        return False
    return name in SANITIZER_PREFIXES or name.startswith(_SANITIZED_PACKAGES)


def classify_source(name: Optional[str], node: ast.Call) -> Optional[str]:
    """The source label a call introduces, or ``None`` if deterministic."""
    if name is None or is_sanitized(name):
        return None
    if name in _ALWAYS_SOURCES:
        return name
    if any(name == p or name.startswith(p + ".") for p in _SOURCE_PREFIXES):
        return name
    bare = not node.args and not node.keywords
    if name in _ARGLESS_SOURCES and bare:
        return name
    if name in _SEEDABLE_SOURCES and UnseededGeneratorRule._is_unseeded(node):
        return name
    # Draws from the process-global RNG streams (REP001's territory,
    # but here they also taint whatever consumes the value).
    if name.startswith("numpy.random."):
        member = name.split(".")[2]
        if member not in GlobalRngRule._NUMPY_ALLOWED:
            return name
    elif name.startswith("random.") and name.count(".") == 1:
        member = name.split(".")[1]
        if member not in GlobalRngRule._STDLIB_ALLOWED:
            return name
    return None


_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Nodes lexically inside *root*'s own scope (nested defs excluded),
    in the order of a stack walk over ``ast.iter_child_nodes``."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, _NESTED_SCOPES):
            continue
        yield node
        for name in node._fields:  # ast.iter_child_nodes, inlined
            value = getattr(node, name, None)
            if isinstance(value, list):
                stack.extend([item for item in value if isinstance(item, ast.AST)])
            elif isinstance(value, ast.AST):
                stack.append(value)


def _scan_scope(root: ast.AST) -> Tuple[List[_Pair], List[ast.expr]]:
    """*root*'s assignments and returned values.

    Assignments come in evaluation order, the reverse of
    :func:`_scope_nodes`, so labels flow down a chain of assignments in
    one round of :meth:`TaintAnalysis._env`.
    """
    pairs: List[_Pair] = []
    returns: List[ast.expr] = []
    for node in _scope_nodes(root):
        targets: List[ast.expr]
        value: Optional[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets, value = [node.target], node.value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets, value = [node.target], node.iter
        else:
            if isinstance(node, ast.Return) and node.value is not None:
                returns.append(node.value)
            continue
        for target in targets:
            names = tuple(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            if names and value is not None:
                pairs.append((names, value))
    return pairs[::-1], returns


def _short(qname: str) -> str:
    """A readable short form of a function qname for messages."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


class TaintAnalysis:
    """The shared machinery behind REP008 and REP009."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: fn qname -> { id(call node) -> resolved callee }
        self._callees: Dict[str, Dict[int, Optional[str]]] = {}
        for fn in index.functions.values():
            self._callees[fn.qname] = {id(s.node): s.callee for s in fn.calls}
        #: fn qname -> symbolic return summary (source:/param: labels)
        self.returns: Dict[str, FrozenSet[str]] = {}
        #: fn qname -> { param index -> sink description }
        self.sink_params: Dict[str, Dict[int, str]] = {}
        #: fn qname -> call chain ending at a source (REP009)
        self.impure: Dict[str, Tuple[str, ...]] = {}
        #: fn qname -> (assignments, returned values), scanned once
        self._scopes: Dict[str, Tuple[List[_Pair], List[ast.expr]]] = {}
        #: fn qname -> environment under the final return summaries
        self._final_envs: Dict[str, Dict[str, FrozenSet[str]]] = {}

    # -- callee lookup ---------------------------------------------------------

    def _callee(self, fn: FunctionInfo, node: ast.Call) -> Optional[str]:
        callee = self._callees.get(fn.qname, {}).get(id(node))
        if callee is None:
            return None
        return self.index.resolve_qname(callee)

    # -- expression evaluation -------------------------------------------------

    def _eval(
        self,
        fn: FunctionInfo,
        expr: ast.AST,
        env: Dict[str, FrozenSet[str]],
        depth: int = 0,
    ) -> FrozenSet[str]:
        """The labels *expr*'s value may carry under *env*."""
        if depth > 40 or isinstance(expr, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            return _EMPTY
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _EMPTY)
        if isinstance(expr, ast.Constant):
            return _EMPTY
        if isinstance(expr, ast.Call):
            return self._eval_call(fn, expr, env, depth)
        if isinstance(expr, ast.Attribute):
            module = self.index.modules.get(fn.module)
            if module is not None:
                resolved = module.imports.resolve(expr)
                if resolved in _ATTRIBUTE_SOURCES:
                    return frozenset({f"source:{resolved}"})
            return self._eval(fn, expr.value, env, depth + 1)
        labels: Set[str] = set()
        for child in ast.iter_child_nodes(expr):
            labels |= self._eval(fn, child, env, depth + 1)
        return frozenset(labels)

    def _eval_call(
        self,
        fn: FunctionInfo,
        node: ast.Call,
        env: Dict[str, FrozenSet[str]],
        depth: int,
    ) -> FrozenSet[str]:
        callee = self._callee(fn, node)
        source = classify_source(callee, node)
        if source is not None:
            return frozenset({f"source:{source}"})
        if is_sanitized(callee):
            return _EMPTY
        arg_labels = [self._eval(fn, a, env, depth + 1) for a in node.args]
        kw_labels = {
            kw.arg: self._eval(fn, kw.value, env, depth + 1) for kw in node.keywords
        }
        target = self.index.functions.get(callee) if callee is not None else None
        if target is not None:
            summary = self.returns.get(target.qname, _EMPTY)
            out: Set[str] = set()
            for label in summary:
                if label.startswith("param:"):
                    mapped = self._arg_labels_for_param(
                        target, int(label.split(":", 1)[1]), node, arg_labels, kw_labels, env, fn, depth
                    )
                    out |= mapped
                else:
                    out.add(label)
            return frozenset(out)
        # External or unresolved call: assume the result may carry
        # whatever its inputs carried (str(), round(), f-string helpers,
        # method calls on tainted objects).
        out = set()
        for labels in arg_labels:
            out |= labels
        for labels in kw_labels.values():
            out |= labels
        if isinstance(node.func, ast.Attribute):  # receiver passes through
            out |= self._eval(fn, node.func.value, env, depth + 1)
        return frozenset(out)

    def _arg_labels_for_param(
        self,
        target: FunctionInfo,
        param_index: int,
        node: ast.Call,
        arg_labels: List[FrozenSet[str]],
        kw_labels: Dict[Optional[str], FrozenSet[str]],
        env: Dict[str, FrozenSet[str]],
        fn: FunctionInfo,
        depth: int,
    ) -> FrozenSet[str]:
        """Labels of the call argument bound to *target*'s param *param_index*."""
        if param_index < len(target.params):
            name = target.params[param_index]
            if name in kw_labels:
                return kw_labels[name]
        # Bound-method calls drop ``self`` from the positional arguments.
        offset = (
            1
            if target.cls is not None
            and target.params[:1] == ("self",)
            and isinstance(node.func, ast.Attribute)
            else 0
        )
        pos = param_index - offset
        if 0 <= pos < len(arg_labels):
            return arg_labels[pos]
        if pos == -1 and isinstance(node.func, ast.Attribute):
            # The summary taints ``self``: the receiver carries it.
            return self._eval(fn, node.func.value, env, depth + 1)
        return _EMPTY

    # -- per-function environments ---------------------------------------------

    def _scope(self, fn: FunctionInfo) -> Tuple[List[_Pair], List[ast.expr]]:
        scope = self._scopes.get(fn.qname)
        if scope is None:
            scope = self._scopes[fn.qname] = _scan_scope(fn.node)
        return scope

    def _env(self, fn: FunctionInfo) -> Dict[str, FrozenSet[str]]:
        """Flow-insensitive local label environment for *fn*."""
        env: Dict[str, FrozenSet[str]] = {
            name: frozenset({f"param:{i}"}) for i, name in enumerate(fn.params)
        }
        pairs, _returns = self._scope(fn)
        for _ in range(_MAX_ROUNDS):
            changed = False
            for names, value in pairs:
                labels = self._eval(fn, value, env)
                if not labels:
                    continue
                for name in names:
                    have = env.get(name, _EMPTY)
                    if not labels <= have:
                        env[name] = have | labels
                        changed = True
            if not changed:
                break
        return env

    def _final_env(self, fn: FunctionInfo) -> Dict[str, FrozenSet[str]]:
        """:meth:`_env` under the final return summaries, computed once."""
        env = self._final_envs.get(fn.qname)
        if env is None:
            env = self._final_envs[fn.qname] = self._env(fn)
        return env

    # -- fixed points -----------------------------------------------------------

    def compute_return_summaries(self) -> None:
        """Solve symbolic return summaries with a worklist.

        A function is evaluated again only when one of its callees'
        summaries changed, and at most ``_MAX_ROUNDS`` times.  The
        environment of its last evaluation is final unless a callee
        changed after the ceiling stopped it, so the sink passes reuse it.
        """
        callers: Dict[str, Dict[str, None]] = {}  # callee -> ordered set
        for qname, callees in self._callees.items():
            if is_sanitized(qname):
                continue
            for callee in callees.values():
                if callee is None:
                    continue
                resolved = self.index.resolve_qname(callee)
                if resolved in self.index.functions:
                    callers.setdefault(resolved, {})[qname] = None
        queue: Deque[str] = deque(
            qname for qname in self.index.functions if not is_sanitized(qname)
        )
        queued = set(queue)
        evaluations: Dict[str, int] = {}
        while queue:
            qname = queue.popleft()
            queued.discard(qname)
            evaluations[qname] = evaluations.get(qname, 0) + 1
            fn = self.index.functions[qname]
            env = self._final_envs[qname] = self._env(fn)
            labels: Set[str] = set()
            for value in self._scope(fn)[1]:
                labels |= self._eval(fn, value, env)
            new = frozenset(labels)
            if new == self.returns.get(qname, _EMPTY):
                continue
            self.returns[qname] = new
            for caller in callers.get(qname, ()):
                if caller in queued:
                    continue
                if evaluations.get(caller, 0) < _MAX_ROUNDS:
                    queue.append(caller)
                    queued.add(caller)
                else:
                    self._final_envs.pop(caller, None)

    def _sink_arguments(
        self, fn: FunctionInfo
    ) -> Iterator[Tuple[ast.expr, str, ast.Call]]:
        """Yield ``(argument expr, sink description, call node)`` per sink."""
        for site in fn.calls:
            node = site.node
            callee = self.index.resolve_qname(site.callee) if site.callee else None
            if callee in _TASKSPEC_NAMES:
                for key, position, desc in (
                    ("id", 0, "TaskSpec id (cache identity)"),
                    ("kwargs", 2, "TaskSpec kwargs (cache identity)"),
                ):
                    arg = _argument(node, key, position)
                    if arg is not None:
                        yield arg, desc, node
            elif callee is not None and callee.endswith(".ResultCache.key"):
                for arg in node.args:
                    yield arg, "ResultCache.key argument", node
                for kw in node.keywords:
                    if kw.arg is not None:
                        yield kw.value, "ResultCache.key argument", node
            elif callee in _FINGERPRINT_SINKS:
                for arg in node.args:
                    yield arg, f"{_short(callee)} input", node
            elif callee is not None and callee.endswith(".get_or_compute"):
                if node.args:
                    yield node.args[0], "get_or_compute cache key", node
            elif _is_get_or_compute_attr(node, callee):
                if node.args:
                    yield node.args[0], "get_or_compute cache key", node
            elif callee is not None and callee in self.sink_params:
                target = self.index.functions.get(callee)
                if target is None:
                    continue
                for param_index, desc in self.sink_params[callee].items():
                    arg = _argument_for_param(target, param_index, node)
                    if arg is not None:
                        yield arg, f"{desc} (via {_short(callee)})", node

    def compute_sink_params(self) -> None:
        """Propagate sinks backwards: params that reach a sink downstream."""
        for _ in range(_MAX_ROUNDS):
            changed = False
            for fn in self.index.functions.values():
                if is_sanitized(fn.qname):
                    continue
                env = self._final_env(fn)
                for arg, desc, _node in self._sink_arguments(fn):
                    for label in self._eval(fn, arg, env):
                        if not label.startswith("param:"):
                            continue
                        index = int(label.split(":", 1)[1])
                        per_fn = self.sink_params.setdefault(fn.qname, {})
                        if index not in per_fn:
                            per_fn[index] = desc
                            changed = True
            if not changed:
                break

    def tainted_sink_args(self) -> Iterator[Tuple[FunctionInfo, ast.expr, str, List[str]]]:
        """Every sink argument carrying a concrete source label."""
        for fn in self.index.functions.values():
            if is_sanitized(fn.qname):
                continue
            env = self._final_env(fn)
            seen: Set[int] = set()
            for arg, desc, _node in self._sink_arguments(fn):
                if id(arg) in seen:
                    continue
                seen.add(id(arg))
                sources = sorted(
                    label.split(":", 1)[1]
                    for label in self._eval(fn, arg, env)
                    if label.startswith("source:")
                )
                if sources:
                    yield fn, arg, desc, sources

    # -- impurity (REP009) -------------------------------------------------------

    def compute_impurity(self) -> None:
        """Fixed point: a function is impure when it (transitively) calls a source."""
        for fn in self.index.functions.values():
            if is_sanitized(fn.qname):
                continue
            for site in fn.calls:
                callee = self.index.resolve_qname(site.callee) if site.callee else None
                source = classify_source(callee, site.node)
                if source is not None:
                    self.impure[fn.qname] = (source,)
                    break
        for _ in range(_MAX_ROUNDS * 4):
            changed = False
            for fn in self.index.functions.values():
                if fn.qname in self.impure or is_sanitized(fn.qname):
                    continue
                for site in fn.calls:
                    callee = self.index.resolve_qname(site.callee) if site.callee else None
                    if callee is None or is_sanitized(callee):
                        continue
                    chain = self.impure.get(callee)
                    if chain is not None:
                        self.impure[fn.qname] = (_short(callee), *chain)[:5]
                        changed = True
                        break
            if not changed:
                break

    def cached_callables(self) -> Iterator[Tuple[FunctionInfo, ast.expr, str]]:
        """Every callable expression handed to a cached-execution sink."""
        for fn in self.index.functions.values():
            for site in fn.calls:
                node = site.node
                callee = self.index.resolve_qname(site.callee) if site.callee else None
                if callee in _TASKSPEC_NAMES:
                    arg = _argument(node, "fn", 1)
                    if arg is not None:
                        yield fn, arg, "TaskSpec fn"
                elif (
                    callee is not None and callee.endswith(".get_or_compute")
                ) or _is_get_or_compute_attr(node, callee):
                    arg = _argument(node, "compute", 1)
                    if arg is not None:
                        yield fn, arg, "get_or_compute callable"


def _argument(node: ast.Call, keyword: str, position: int) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(node.args) > position:
        arg = node.args[position]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def _argument_for_param(
    target: FunctionInfo, param_index: int, node: ast.Call
) -> Optional[ast.expr]:
    """The call argument bound to *target*'s parameter *param_index*."""
    if param_index < len(target.params):
        name = target.params[param_index]
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
    offset = (
        1
        if target.cls is not None
        and target.params[:1] == ("self",)
        and isinstance(node.func, ast.Attribute)
        else 0
    )
    pos = param_index - offset
    if 0 <= pos < len(node.args):
        arg = node.args[pos]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def _is_get_or_compute_attr(node: ast.Call, callee: Optional[str]) -> bool:
    """Fallback sink match on the distinctive method name when the
    receiver's type could not be inferred."""
    return (
        callee is None
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get_or_compute"
    )


class TaintedCacheKeyRule(ProjectRule):
    """REP008: a nondeterminism source flows into cache identity.

    Once a wall-clock read, fresh-entropy draw, environment lookup or
    directory enumeration reaches a ``TaskSpec`` id/kwargs, a
    ``ResultCache.key`` / ``cache_key`` argument, a ``get_or_compute``
    key or a fingerprint input, identical requests stop colliding: the
    cache silently stores unreachable entries and the reproduction's
    log/model comparisons stop being content-addressed facts.
    """

    code = "REP008"
    name = "tainted-cache-key"
    severity = Severity.ERROR
    rationale = "A nondeterministic value in a cache key splits identical requests apart."

    def check(self, index: ProjectIndex, reporter: Any) -> None:
        analysis = TaintAnalysis(index)
        analysis.compute_return_summaries()
        analysis.compute_sink_params()
        for fn, arg, desc, sources in analysis.tainted_sink_args():
            reporter.report(
                fn.path,
                arg,
                self,
                f"{desc} is tainted by {', '.join(sources)}; cache identity must be "
                "a pure function of the request (trace the chain and pass the value "
                "as an explicit, deterministic parameter)",
            )


class ImpureCachedCallableRule(ProjectRule):
    """REP009: the callable executed on a cache miss is impure.

    A cached payload claims to be reproducible from its key; if the
    compute function (or anything it transitively calls outside the
    sanctioned sanitizer modules) reads the wall clock, fresh entropy,
    the environment or directory listings, the claim is false — the
    cache stores a value that can never be regenerated, which is
    unrecoverable once entries are shared across machines.
    """

    code = "REP009"
    name = "impure-cached-callable"
    severity = Severity.ERROR
    rationale = "A cached compute function must be reproducible from its key alone."

    def check(self, index: ProjectIndex, reporter: Any) -> None:
        analysis = TaintAnalysis(index)
        analysis.compute_impurity()
        for fn, arg, desc in analysis.cached_callables():
            target = resolve_callable(index, fn, arg)
            if target is None:
                continue
            chain = analysis.impure.get(target)
            if chain is None:
                continue
            path = " -> ".join([_short(target), *chain])
            reporter.report(
                fn.path,
                arg,
                self,
                f"{desc} {_short(target)!r} is impure: {path}; hoist the "
                "nondeterminism out of the cached computation or route it through "
                "a sanctioned sanitizer module",
            )


TAINT_RULES: Tuple[ProjectRule, ...] = (TaintedCacheKeyRule(), ImpureCachedCallableRule())
