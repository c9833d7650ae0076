"""The REPnnn rule catalog.

Every rule subclasses :class:`Rule`, declares which AST node types it
wants (``node_types``) and emits findings through the shared
:class:`~repro.lint.engine.ModuleContext`.  The engine parses each
module once and dispatches nodes to all interested rules in a single
walk, so adding a rule never adds a parse pass.

The rules encode the repository's determinism contract (see
``docs/LINT.md`` for the full catalog with rationale):

========  ============================================================
REP001    draws from the global/module-level RNG
REP002    generators constructed from fresh OS entropy
REP003    wall clock / OS entropy reads in library code
REP004    cache-unsafe callables or kwargs handed to the runtime
REP005    bare float equality outside ``assert``
REP006    mutable default arguments
REP007    non-atomic ``open(..., "w")`` writes in library code
========  ============================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Any, ClassVar, Dict, FrozenSet, Optional, Tuple, Type

from repro.lint.findings import Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.engine import ModuleContext

__all__ = [
    "Rule",
    "ProjectRule",
    "GlobalRngRule",
    "UnseededGeneratorRule",
    "NondeterministicCallRule",
    "CacheSafetyRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "NonAtomicWriteRule",
    "ALL_RULES",
    "RULES_BY_CODE",
    "KNOWN_CODES",
    "PROJECT_CODES",
]


class Rule:
    """One static check, dispatched per AST node by the shared visitor."""

    code: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    #: Node classes this rule wants to see; the engine dispatches only these.
    node_types: ClassVar[Tuple[Type[ast.AST], ...]] = ()
    #: One-line rationale shown by ``--list-rules`` and docs.
    rationale: ClassVar[str] = ""

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        raise NotImplementedError


class ProjectRule:
    """One whole-program check, run once over the project index.

    Unlike :class:`Rule`, which sees one module at a time, a project
    rule receives the cross-file :class:`~repro.lint.graph.ProjectIndex`
    (import graph, call graph, lock/shared-state facts) and reports
    through a :class:`~repro.lint.engine.ProjectReporter`, which applies
    the same inline-suppression and per-rule-exclude machinery as the
    local pass.  Implementations live in :mod:`repro.lint.taint` and
    :mod:`repro.lint.concurrency`; the engine assembles them into
    ``PROJECT_RULES``.
    """

    code: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[Severity] = Severity.ERROR
    rationale: ClassVar[str] = ""

    def check(self, index: Any, reporter: Any) -> None:
        raise NotImplementedError


def _call_name(ctx: "ModuleContext", node: ast.Call) -> Optional[str]:
    return ctx.resolve(node.func)


class GlobalRngRule(Rule):
    """REP001: draws from the process-global RNG state.

    ``np.random.rand()`` / ``random.random()`` / ``np.random.seed()``
    all read or mutate interpreter-global state, so results depend on
    import order, call order and thread interleaving.  Experiments must
    thread an explicit ``np.random.Generator`` (see
    :func:`repro.util.rng.as_generator`) instead.
    """

    code = "REP001"
    name = "global-rng"
    severity = Severity.ERROR
    node_types = (ast.Call,)
    rationale = "Global RNG state makes results depend on import and call order."

    _NUMPY_ALLOWED: FrozenSet[str] = frozenset(
        {
            "Generator",
            "BitGenerator",
            "SeedSequence",
            "PCG64",
            "PCG64DXSM",
            "MT19937",
            "Philox",
            "SFC64",
            "default_rng",  # seeding is REP002's concern
        }
    )
    _STDLIB_ALLOWED: FrozenSet[str] = frozenset({"Random", "SystemRandom"})

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        name = _call_name(ctx, node)
        if name is None:
            return
        if name.startswith("numpy.random."):
            member = name.split(".")[2]
            if member not in self._NUMPY_ALLOWED:
                ctx.report(
                    node,
                    self,
                    f"call to {name} uses the module-level global RNG; thread a seeded "
                    "np.random.Generator (repro.util.rng.as_generator) instead",
                )
        elif name.startswith("random.") and name.count(".") == 1:
            member = name.split(".")[1]
            if member not in self._STDLIB_ALLOWED:
                ctx.report(
                    node,
                    self,
                    f"call to {name} uses the interpreter-global random state; use a "
                    "dedicated random.Random(seed) or np.random.Generator instead",
                )


class UnseededGeneratorRule(Rule):
    """REP002: generator construction from fresh OS entropy.

    ``default_rng()``, ``PCG64()`` or ``random.Random()`` without a seed
    give a different stream every process start, which silently breaks
    replayability and poisons the result cache with irreproducible
    payloads.  Only :mod:`repro.util.rng` may do this (it implements the
    documented ``seed=None`` escape hatch), which the default
    per-rule-exclude encodes.
    """

    code = "REP002"
    name = "unseeded-generator"
    severity = Severity.ERROR
    node_types = (ast.Call,)
    rationale = "Fresh-entropy generators give a different stream every run."

    _SEEDABLE: FrozenSet[str] = frozenset(
        {
            "numpy.random.default_rng",
            "numpy.random.Generator",  # Generator() defaults to a fresh bit generator
            "numpy.random.SeedSequence",
            "numpy.random.PCG64",
            "numpy.random.PCG64DXSM",
            "numpy.random.MT19937",
            "numpy.random.Philox",
            "numpy.random.SFC64",
            "random.Random",
        }
    )

    @staticmethod
    def _is_unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if node.args and isinstance(node.args[0], ast.Constant) and node.args[0].value is None:
            return True
        return False

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        name = _call_name(ctx, node)
        if name is None:
            return
        if name == "random.SystemRandom":
            ctx.report(
                node,
                self,
                "random.SystemRandom draws from OS entropy and can never be seeded; "
                "use random.Random(seed) or np.random.Generator",
            )
        elif name in self._SEEDABLE and self._is_unseeded(node):
            ctx.report(
                node,
                self,
                f"{name} without an explicit seed draws fresh OS entropy; pass a seed "
                "(or route through repro.util.rng.as_generator)",
            )


class NondeterministicCallRule(Rule):
    """REP003: wall clock / OS entropy reads in library code.

    Timestamps, UUIDs and entropy reads make output differ between
    identical runs, so cached payloads stop being content-addressed
    facts.  :mod:`repro.obs.clock` is the sanctioned wall-clock and
    entropy-id module (default per-rule-exclude); anything else must
    route through it, take timestamps as parameters, or carry an inline
    suppression explaining why wall-clock behaviour is the point.
    """

    code = "REP003"
    name = "nondeterministic-call"
    severity = Severity.ERROR
    node_types = (ast.Call,)
    rationale = "Wall-clock and entropy reads make identical runs produce different output."

    _ALWAYS: FrozenSet[str] = frozenset(
        {
            "time.time",
            "time.time_ns",
            "os.urandom",
            "uuid.uuid1",
            "uuid.uuid4",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    #: Deterministic when given an explicit timestamp, nondeterministic bare.
    _ARGLESS: FrozenSet[str] = frozenset(
        {"time.gmtime", "time.localtime", "time.ctime", "time.asctime"}
    )

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        name = _call_name(ctx, node)
        if name is None:
            return
        bare = not node.args and not node.keywords
        if name in self._ALWAYS or name.startswith("secrets.") or (name in self._ARGLESS and bare):
            ctx.report(
                node,
                self,
                f"nondeterministic call to {name}; take the timestamp/entropy as a "
                "parameter, or suppress inline if wall-clock behaviour is the point",
            )


class CacheSafetyRule(Rule):
    """REP004: cache-unsafe callables or kwargs handed to the runtime.

    The runtime fingerprints tasks into cache keys and runs them in
    worker processes, which requires ``fn`` to be an importable
    module-level function and ``kwargs`` to be JSON-serializable.
    Lambdas, computed callables and closures pickle unreliably (or not
    at all), which a ``spawn`` or ``forkserver`` worker needs, and have
    no stable source identity for the fingerprint; non-JSON kwargs fall
    back to ``repr`` in the cache key, where memory addresses leak in
    and split or alias cache entries.
    """

    code = "REP004"
    name = "cache-safety"
    severity = Severity.ERROR
    node_types = (ast.Call,)
    rationale = "The result cache and worker processes need module-level fns and JSON kwargs."

    _TASK_SPEC_NAMES: FrozenSet[str] = frozenset(
        {"repro.runtime.TaskSpec", "repro.runtime.task.TaskSpec"}
    )

    def _is_task_spec(self, ctx: "ModuleContext", node: ast.Call) -> bool:
        name = _call_name(ctx, node)
        if name is not None:
            return name in self._TASK_SPEC_NAMES
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "TaskSpec"
        return isinstance(func, ast.Attribute) and func.attr == "TaskSpec"

    @staticmethod
    def _argument(node: ast.Call, keyword: str, position: int) -> Optional[ast.expr]:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
        if len(node.args) > position:
            return node.args[position]
        return None

    def _check_fn(self, ctx: "ModuleContext", spec: ast.Call, fn: ast.expr) -> None:
        if isinstance(fn, ast.Lambda):
            ctx.report(
                fn,
                self,
                "TaskSpec fn is a lambda: it cannot be pickled to a worker process or "
                "named in the cache key; use a module-level function",
            )
        elif isinstance(fn, ast.Call):
            ctx.report(
                fn,
                self,
                "TaskSpec fn is a computed callable (e.g. functools.partial): the cache "
                "key cannot fingerprint it; use a module-level function and pass "
                "parameters via kwargs",
            )
        elif isinstance(fn, ast.Name) and ctx.is_nested_def(fn.id):
            ctx.report(
                fn,
                self,
                f"TaskSpec fn {fn.id!r} is defined inside a function: closures cannot "
                "be pickled to a worker process; move it to module level",
            )

    def _check_kwargs(self, ctx: "ModuleContext", value: ast.expr) -> None:
        """Flag obviously non-JSON literals inside a dict-literal kwargs."""
        if isinstance(value, ast.Dict):
            for key in value.keys:
                if key is None:  # **splat: contents unknown, let it pass
                    continue
                if isinstance(key, ast.Constant) and not isinstance(key.value, str):
                    ctx.report(
                        key,
                        self,
                        "TaskSpec kwargs keys must be strings to serialize into the "
                        "JSON cache key",
                    )
            for item in value.values:
                self._check_kwargs(ctx, item)
        elif isinstance(value, (ast.List, ast.Tuple)):
            for item in value.elts:
                self._check_kwargs(ctx, item)
        elif isinstance(value, (ast.Set, ast.SetComp, ast.Lambda)) or (
            isinstance(value, ast.Constant) and isinstance(value.value, (bytes, complex))
        ):
            ctx.report(
                value,
                self,
                "TaskSpec kwargs value is not JSON-serializable (set/bytes/complex/"
                "lambda); the cache key would fall back to repr and lose stability",
            )

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        assert isinstance(node, ast.Call)
        if not self._is_task_spec(ctx, node):
            return
        fn = self._argument(node, "fn", 1)
        if fn is not None:
            self._check_fn(ctx, node, fn)
        kwargs = self._argument(node, "kwargs", 2)
        if kwargs is not None:
            self._check_kwargs(ctx, kwargs)


class FloatEqualityRule(Rule):
    """REP005: bare ``==`` / ``!=`` against float literals.

    Goodness-of-fit scores, Hurst estimates and the like are computed
    quantities; exact comparison against a float literal silently flips
    with harmless refactors (summation order, BLAS build).  Compare with
    a tolerance (``math.isclose`` / ``np.isclose``) instead.  ``assert``
    statements are exempt: exact golden-value assertions on
    deterministic outputs are precisely what reproducibility tests do.
    """

    code = "REP005"
    name = "float-equality"
    severity = Severity.WARNING
    node_types = (ast.Compare,)
    rationale = "Exact float equality flips with benign numerical refactors."

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is float

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        assert isinstance(node, ast.Compare)
        if ctx.in_assert:
            return
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_float_literal(left) or self._is_float_literal(right):
                ctx.report(
                    node,
                    self,
                    "bare float equality against a literal; use math.isclose/np.isclose "
                    "with an explicit tolerance",
                )
                return


class MutableDefaultRule(Rule):
    """REP006: mutable default arguments.

    A mutable default is evaluated once and shared by every call, so
    state leaks across invocations — across *experiments* when the
    function is an experiment entry point, which corrupts cached
    payloads that claim to be pure functions of their kwargs.
    """

    code = "REP006"
    name = "mutable-default"
    severity = Severity.ERROR
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    rationale = "Mutable defaults share state across calls and corrupt cached payloads."

    _CONSTRUCTORS: FrozenSet[str] = frozenset({"list", "dict", "set", "bytearray"})
    _QUALIFIED: FrozenSet[str] = frozenset(
        {"collections.defaultdict", "collections.OrderedDict", "collections.deque"}
    )

    def _is_mutable(self, ctx: "ModuleContext", node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in self._CONSTRUCTORS:
                return True
            name = ctx.resolve(node.func)
            return name in self._QUALIFIED
        return False

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        args = node.args
        defaults = [*args.defaults, *[d for d in args.kw_defaults if d is not None]]
        label = "<lambda>" if isinstance(node, ast.Lambda) else node.name
        for default in defaults:
            if self._is_mutable(ctx, default):
                ctx.report(
                    default,
                    self,
                    f"mutable default argument in {label!r} is shared across calls; "
                    "default to None and construct inside the function",
                )


class NonAtomicWriteRule(Rule):
    """REP007: non-atomic truncating writes in library code.

    ``open(path, "w")`` truncates in place: a crash (or a concurrent
    reader) between the truncate and the final flush observes a torn
    file, and every file the runtime may read back — cache entries,
    journals, reports, traces — must never be torn.  Library writers
    must write to a temp file in the same directory and ``os.replace``
    it into place; :func:`repro.util.atomicio.atomic_write_text` is the
    sanctioned helper.  A scope that calls ``os.replace``/``os.rename``
    (or a ``.replace(...)``/``.rename(...)`` method) is implementing
    exactly that idiom, so its writes pass.  Append-mode journals
    (``"a"``) are fine: appends never destroy prior records.  Tests are
    excluded by default (their tmp-dir fixtures have no torn-read
    window worth the ceremony).
    """

    code = "REP007"
    name = "non-atomic-write"
    severity = Severity.ERROR
    node_types = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
    rationale = "Truncating writes torn by a crash leave half-written files for later reads."

    _OPEN_NAMES: FrozenSet[str] = frozenset({"open", "builtins.open", "io.open"})
    _ATOMIC_CALLS: FrozenSet[str] = frozenset({"os.replace", "os.rename"})
    _ATOMIC_METHODS: FrozenSet[str] = frozenset({"replace", "rename"})

    @staticmethod
    def _scope_nodes(root: ast.AST):
        """Nodes lexically inside *root*, not descending into nested defs
        (each function scope gets its own dispatch)."""
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _write_mode(node: ast.Call) -> Optional[str]:
        """The mode literal when this ``open`` call truncates, else None."""
        mode: Optional[ast.expr] = None
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None and len(node.args) > 1:
            mode = node.args[1]
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and mode.value.startswith("w")
        ):
            return mode.value
        return None

    def _is_open(self, ctx: "ModuleContext", node: ast.Call) -> bool:
        name = _call_name(ctx, node)
        if name is not None:
            return name in self._OPEN_NAMES
        return isinstance(node.func, ast.Name) and node.func.id == "open"

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        writes = []
        atomic = False
        for child in self._scope_nodes(node):
            if not isinstance(child, ast.Call):
                continue
            name = _call_name(ctx, child)
            if name in self._ATOMIC_CALLS:
                atomic = True
            elif isinstance(child.func, ast.Attribute):
                if child.func.attr in self._ATOMIC_METHODS:
                    atomic = True
                elif child.func.attr == "write_text":
                    writes.append((child, ".write_text(...)"))
            if self._is_open(ctx, child):
                mode = self._write_mode(child)
                if mode is not None:
                    writes.append((child, f"open(..., {mode!r})"))
        if atomic:
            return
        for call, label in writes:
            ctx.report(
                call,
                self,
                f"non-atomic {label} truncates in place and can be torn by a crash; "
                "write via repro.util.atomicio.atomic_write_text (tempfile + os.replace)",
            )


ALL_RULES: Tuple[Rule, ...] = (
    GlobalRngRule(),
    UnseededGeneratorRule(),
    NondeterministicCallRule(),
    CacheSafetyRule(),
    FloatEqualityRule(),
    MutableDefaultRule(),
    NonAtomicWriteRule(),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}

#: Codes of the interprocedural (whole-program) rules.  Declared here as
#: a static list so config validation never needs to import the analysis
#: modules; the engine asserts at import time that the registered
#: project rules match this set exactly.
PROJECT_CODES: FrozenSet[str] = frozenset(
    {"REP008", "REP009", "REP010", "REP011", "REP012"}
)

KNOWN_CODES: FrozenSet[str] = frozenset(RULES_BY_CODE) | PROJECT_CODES
