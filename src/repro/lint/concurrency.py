"""Thread-safety lint for the service/obs stack: REP010–REP012.

The service runs on ``ThreadingHTTPServer`` — every request handler
method executes on its own thread, and the job runner fans work out to
a ``ThreadPoolExecutor``.  Three discipline violations hide easily in
that regime and are all cheap to prove statically once the
:class:`~repro.lint.graph.ProjectIndex` exists:

* **REP010 unguarded-shared-state** — a mutable container shared across
  threads (module-level global, or an instance attribute of a class
  that participates in threading) is mutated or iterated from
  thread-reachable code with no lock held.  Unsynchronized dict/list
  mutation is a silent-corruption bug, torn iteration a
  ``RuntimeError: dictionary changed size during iteration`` time bomb.
* **REP011 lock-order-inversion** — two locks are acquired in opposite
  nesting orders on different call paths; under load the two threads
  deadlock.  The analysis collects a global lock-order graph from
  lexical ``with`` nesting plus interprocedural acquisitions (a call
  made under lock *A* into a function that takes lock *B* contributes
  the edge *A→B*) and reports each two-cycle once.
* **REP012 blocking-under-lock** — file I/O, ``fsync``, sleeps or
  subprocess calls executed while a lock is held, directly or through a
  callee.  Every request thread then queues behind a disk flush; the
  p99 latency cliff is invisible in unit tests.  Locks whose name ends
  with ``_io_lock`` are exempt by convention: their documented job *is*
  serializing I/O.

Thread-entry discovery covers the stack's actual shapes:
``BaseHTTPRequestHandler`` subclass methods, ``run`` methods of
``threading.Thread`` subclasses, the callables handed to
``ThreadPoolExecutor.submit`` (process pools are excluded — separate
address spaces don't share locks) and to ``threading.Thread`` /
``threading.Timer`` ``target=``.  Locks held *at entry* are propagated
interprocedurally with a meet-over-call-sites fixed point, so a helper
only ever invoked under ``self._lock`` is not flagged for touching the
state that lock guards.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from repro.lint.findings import Severity
from repro.lint.graph import FunctionInfo, ProjectIndex, resolve_callable
from repro.lint.rules import ProjectRule

__all__ = [
    "BLOCKING_CALLS",
    "BlockingUnderLockRule",
    "CONCURRENCY_RULES",
    "ConcurrencyAnalysis",
    "LockOrderInversionRule",
    "UnguardedSharedStateRule",
    "is_io_lock",
]

#: Calls that block on the OS: filesystem, sleeps, sockets, subprocesses.
BLOCKING_CALLS: FrozenSet[str] = frozenset(
    {
        "open",
        "io.open",
        "builtins.open",
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.makedirs",
        "shutil.copy",
        "shutil.copy2",
        "shutil.copyfile",
        "shutil.copytree",
        "shutil.move",
        "shutil.rmtree",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)
_BLOCKING_PREFIXES: Tuple[str, ...] = ("subprocess.",)

#: A "TOP" lockset — not yet constrained by any call site.
_TOP: Optional[FrozenSet[str]] = None
_EMPTY: FrozenSet[str] = frozenset()

_MAX_ROUNDS = 48


def is_io_lock(lock_id: str) -> bool:
    """Locks named ``*_io_lock`` are I/O-serialization locks by
    convention: blocking under them is their documented purpose."""
    return lock_id.rsplit(".", 1)[-1].endswith("_io_lock")


def _is_blocking(callee: Optional[str]) -> bool:
    if callee is None:
        return False
    return callee in BLOCKING_CALLS or any(
        callee.startswith(p) for p in _BLOCKING_PREFIXES
    )


class ConcurrencyAnalysis:
    """Thread-entry discovery plus the entry-lockset fixed point."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.entries: Set[str] = set()
        self._find_entries()
        self.reachable: Set[str] = index.reachable_from(sorted(self.entries))
        #: fn qname -> locks guaranteed held at *every* thread-reachable
        #: entry into the function (meet over call sites); entries hold none.
        self.entry_locks: Dict[str, FrozenSet[str]] = {}
        self._compute_entry_locks()

    # -- thread entries ---------------------------------------------------------

    def _find_entries(self) -> None:
        for cls in self.index.classes.values():
            if self.index.class_inherits(cls.qname, "BaseHTTPRequestHandler"):
                self.entries.update(cls.methods.values())
            elif self.index.class_inherits(cls.qname, "Thread"):
                run = cls.methods.get("run")
                if run is not None:
                    self.entries.add(run)
        for fn in self.index.functions.values():
            for site in fn.calls:
                self._entry_from_site(fn, site.node, site.callee)

    def _entry_from_site(
        self, fn: FunctionInfo, node: ast.Call, callee: Optional[str]
    ) -> None:
        if callee is None:
            return
        if callee.endswith("ThreadPoolExecutor.submit") and node.args:
            self._add_callable_entry(fn, node.args[0])
        elif callee in ("threading.Thread", "threading.Timer"):
            for kw in node.keywords:
                if kw.arg in ("target", "function"):
                    self._add_callable_entry(fn, kw.value)

    def _add_callable_entry(self, fn: FunctionInfo, expr: ast.expr) -> None:
        target = resolve_callable(self.index, fn, expr)
        if target is not None and target in self.index.functions:
            self.entries.add(target)

    # -- entry locksets ---------------------------------------------------------

    def _compute_entry_locks(self) -> None:
        state: Dict[str, Optional[FrozenSet[str]]] = {
            qname: _TOP for qname in self.reachable
        }
        for entry in self.entries:
            if entry in state:
                state[entry] = _EMPTY
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qname in self.reachable:
                caller_locks = state.get(qname)
                if caller_locks is None:
                    continue
                fn = self.index.functions[qname]
                for site in fn.calls:
                    callee = site.callee
                    if callee is None or callee not in state:
                        continue
                    contribution = caller_locks | frozenset(site.held_locks)
                    have = state[callee]
                    new = contribution if have is None else have & contribution
                    if new != have:
                        state[callee] = new
                        changed = True
            if not changed:
                break
        self.entry_locks = {
            qname: (locks if locks is not None else _EMPTY)
            for qname, locks in state.items()
        }

    # -- shared-state classification --------------------------------------------

    def concurrent_classes(self) -> Set[str]:
        """Classes whose instances plausibly cross threads: they own a
        thread-entry method, or own locks and have thread-reachable
        methods (the lock is the author's own admission of sharing)."""
        out: Set[str] = set()
        for cls in self.index.classes.values():
            methods = set(cls.methods.values())
            if methods & self.entries:
                out.add(cls.qname)
            elif cls.lock_attrs and methods & self.reachable:
                out.add(cls.qname)
        return out

    def held_at(self, fn: FunctionInfo, site_locks: Tuple[str, ...]) -> FrozenSet[str]:
        """Locks held at a program point: lexical plus entry-guaranteed."""
        return frozenset(site_locks) | self.entry_locks.get(fn.qname, _EMPTY)


class UnguardedSharedStateRule(ProjectRule):
    """REP010: shared mutable state touched off-lock from thread-reachable code.

    Only targets with *mutation evidence* are considered: at least one
    mutate/rebind access from thread-reachable non-``__init__`` code.
    Containers that are filled at import time and only read afterwards
    (registries, lookup tables) are effectively immutable and stay
    exempt without annotations.
    """

    code = "REP010"
    name = "unguarded-shared-state"
    severity = Severity.ERROR
    rationale = "Unsynchronized mutation of state shared across threads corrupts silently."

    def check(self, index: ProjectIndex, reporter: Any) -> None:
        analysis = ConcurrencyAnalysis(index)
        concurrent = analysis.concurrent_classes()

        def considered(target: str) -> bool:
            owner = target.rsplit(".", 1)[0]
            return owner in concurrent or owner in index.modules

        # Pass 1: which targets does thread-reachable code actually mutate?
        mutated: Set[str] = set()
        for qname in analysis.reachable:
            fn = index.functions[qname]
            if fn.is_init:
                continue
            for access in fn.accesses:
                if access.kind in ("mutate", "rebind") and considered(access.target):
                    mutated.add(access.target)
        # Pass 2: flag every unguarded touch of those targets.
        seen: Set[Tuple[str, int, str]] = set()
        for qname in sorted(analysis.reachable):
            fn = index.functions[qname]
            if fn.is_init:
                continue
            for access in fn.accesses:
                if access.target not in mutated:
                    continue
                if analysis.held_at(fn, access.held_locks):
                    continue
                line = getattr(access.node, "lineno", 0)
                key = (fn.path, line, access.target)
                if key in seen:
                    continue
                seen.add(key)
                verb = {"mutate": "mutated", "iterate": "iterated", "rebind": "rebound"}[
                    access.kind
                ]
                reporter.report(
                    fn.path,
                    access.node,
                    self,
                    f"shared state {access.target!r} is {verb} without a lock on a "
                    f"thread-reachable path (via {fn.qname}); guard it with the "
                    "owning lock or confine it to one thread",
                )


class LockOrderInversionRule(ProjectRule):
    """REP011: two locks acquired in opposite orders on different paths."""

    code = "REP011"
    name = "lock-order-inversion"
    severity = Severity.ERROR
    rationale = "Opposite lock-acquisition orders deadlock under contention."

    def check(self, index: ProjectIndex, reporter: Any) -> None:
        analysis = ConcurrencyAnalysis(index)
        # acquires(fn): every lock the function may take, transitively.
        acquires: Dict[str, FrozenSet[str]] = {
            qname: frozenset(a.lock for a in fn.acquisitions)
            for qname, fn in index.functions.items()
        }
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qname, fn in index.functions.items():
                extra: Set[str] = set()
                for site in fn.calls:
                    if site.callee in acquires:
                        extra |= acquires[site.callee]
                new = acquires[qname] | extra
                if new != acquires[qname]:
                    acquires[qname] = new
                    changed = True
            if not changed:
                break
        # edges[(a, b)]: a witness program point where b is taken with a held.
        edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}

        def note(a: str, b: str, fn: FunctionInfo, node: ast.AST) -> None:
            if a == b:
                return
            key = (a, b)
            witness = (fn.path, getattr(node, "lineno", 0), fn.qname)
            if key not in edges or witness < edges[key]:
                edges[key] = witness

        for fn in index.functions.values():
            for acq in fn.acquisitions:
                for held in acq.held_before:
                    note(held, acq.lock, fn, acq.node)
            for site in fn.calls:
                if site.callee is None:
                    continue
                for held in site.held_locks:
                    for taken in acquires.get(site.callee, _EMPTY):
                        note(held, taken, fn, site.node)
        reported: Set[Tuple[str, str]] = set()
        for (a, b), witness in sorted(edges.items(), key=lambda kv: kv[1]):
            pair = (min(a, b), max(a, b))
            if pair in reported or (b, a) not in edges:
                continue
            reported.add(pair)
            other = edges[(b, a)]
            path, line, qname = witness
            fn = index.functions[qname]
            reporter.report(
                fn.path,
                _line_anchor(line),
                self,
                f"lock order inversion: {a!r} -> {b!r} here but {b!r} -> {a!r} at "
                f"{other[0]}:{other[1]} (in {other[2]}); pick one global order",
            )


class BlockingUnderLockRule(ProjectRule):
    """REP012: blocking I/O while holding a lock (directly or via callees)."""

    code = "REP012"
    name = "blocking-under-lock"
    severity = Severity.WARNING
    rationale = "I/O under a lock serializes every thread behind the disk."

    def check(self, index: ProjectIndex, reporter: Any) -> None:
        # blocks(fn): the first blocking call this function may reach.
        blocks: Dict[str, Tuple[str, ...]] = {}
        for qname, fn in index.functions.items():
            for site in fn.calls:
                if _is_blocking(site.callee):
                    blocks[qname] = (str(site.callee),)
                    break
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qname, fn in index.functions.items():
                if qname in blocks:
                    continue
                for site in fn.calls:
                    if site.callee is None:
                        continue
                    chain = blocks.get(site.callee)
                    if chain is not None:
                        blocks[qname] = (_tail(site.callee), *chain)[:4]
                        changed = True
                        break
            if not changed:
                break
        seen: Set[Tuple[str, int]] = set()
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            for site in fn.calls:
                held = tuple(lock for lock in site.held_locks if not is_io_lock(lock))
                if not held:
                    continue
                chain: Optional[Tuple[str, ...]] = None
                if _is_blocking(site.callee):
                    chain = (str(site.callee),)
                elif site.callee in blocks:
                    chain = (_tail(str(site.callee)), *blocks[str(site.callee)])[:4]
                if chain is None:
                    continue
                line = getattr(site.node, "lineno", 0)
                if (fn.path, line) in seen:
                    continue
                seen.add((fn.path, line))
                reporter.report(
                    fn.path,
                    site.node,
                    self,
                    f"blocking call {' -> '.join(chain)} while holding "
                    f"{', '.join(repr(h) for h in held)}; move the I/O outside the "
                    "critical section or use a dedicated *_io_lock",
                )


def _tail(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


class _line_anchor:
    """A minimal node-like object carrying just a position."""

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


CONCURRENCY_RULES: Tuple[ProjectRule, ...] = (
    UnguardedSharedStateRule(),
    LockOrderInversionRule(),
    BlockingUnderLockRule(),
)
