"""Deterministic fault injection for the experiment runtime.

A :class:`FaultPlan` is a seeded chaos schedule: a list of
:class:`FaultRule`\\ s, each matching task ids by glob and firing with
probability ``p`` per attempt.  Every decision is a pure function of
``(plan seed, rule index, task id, attempt)``, so the same seed always
injects the same faults into the same attempts — chaos runs are
replayable, and a failure found under ``--chaos 7`` reproduces under
``--chaos 7``.

Fault kinds and what they exercise:

``raise``
    The attempt raises :class:`InjectedFault` before the real function
    runs — exercises the executor's retry/backoff/graceful-degradation
    path exactly like an experiment bug would.
``hang``
    The attempt sleeps ``hang_s`` seconds before running the real
    function — exercises the timeout machinery: a SIGKILL of that
    attempt's worker at the deadline in parallel mode, post-hoc
    detection in inline mode.
``corrupt``
    The attempt "succeeds" but returns deterministic garbage instead of
    running the real function — models silent output corruption; the
    caller's payload validation (not the executor) must catch it.
``exit``
    The attempt calls ``os._exit(exit_code)``.  In parallel mode this
    kills that attempt's worker, which the executor charges to the
    attempt alone (``worker process died (exit code N)``); in inline
    mode it kills the *whole run*, which is precisely the crash that
    ``--resume`` recovers from.  Never inject ``exit`` into an
    in-process test run unless that run is a subprocess.

The module also ships filesystem chaos helpers (:func:`truncate_file`,
:func:`corrupt_file`, :func:`vanish_file`) used by the chaos suite to
damage cache entries between write and read.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "ArmedFault",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "apply_armed_fault",
    "corrupt_file",
    "parse_chaos_spec",
    "truncate_file",
    "vanish_file",
]

#: The supported fault kinds, in documentation order.
FAULT_KINDS: Tuple[str, ...] = ("raise", "hang", "corrupt", "exit")

#: Fields a chaos SPEC may set explicitly (everything else is shorthand).
_SPEC_KEYS = frozenset({"match", "kind", "p", "max_hits", "hang_s", "exit_code"})


class InjectedFault(RuntimeError):
    """Raised by a ``raise``-kind fault; retriable like any task error."""


@dataclass(frozen=True)
class FaultRule:
    """One chaos hazard: which tasks, which failure, how often.

    ``match`` is an :mod:`fnmatch` glob over task ids.  ``p`` is the
    per-attempt firing probability.  ``max_hits`` bounds how many
    attempts *per task* the rule may hit (``None`` = unbounded) — with
    ``p=1, max_hits=2`` a task fails its first two attempts and then
    recovers, the canonical retry-path probe.
    """

    match: str = "*"
    kind: str = "raise"
    p: float = 1.0
    max_hits: Optional[int] = None
    hang_s: float = 60.0
    exit_code: int = 70

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], got {self.p}")
        if self.max_hits is not None and self.max_hits < 1:
            raise ValueError(f"max_hits must be >= 1 or None, got {self.max_hits}")
        if self.hang_s <= 0:
            raise ValueError(f"hang_s must be positive, got {self.hang_s}")
        if not 1 <= self.exit_code <= 255:
            raise ValueError(f"exit_code must be in 1..255, got {self.exit_code}")


@dataclass(frozen=True)
class ArmedFault:
    """One fault scheduled into one specific attempt."""

    kind: str
    rule: int  #: index of the firing rule within the plan
    task: str
    attempt: int
    hang_s: float
    exit_code: int
    token: str  #: deterministic marker a ``corrupt`` fault returns

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A picklable callable that applies this fault around *fn*."""
        return _FaultingCall(fn, self)


def apply_armed_fault(fault: ArmedFault) -> None:
    """Apply *fault*'s in-process side effect, right here, right now.

    The shared execution half of a fault: emits the worker-side
    ``fault_fired`` breadcrumb, then raises (``raise``), kills the
    process (``exit``) or stalls (``hang``) exactly like the executor's
    wrapped calls do.  ``corrupt`` has no in-process effect — its damage
    is substituting the result (executor path) or tearing a journal
    (service path), which stays with the caller.  Used both by
    :class:`_FaultingCall` and by the service's job worker
    (:mod:`repro.service.worker`), so runtime and service chaos share
    one set of fault semantics.
    """
    from repro.obs import event as obs_event

    # Worker-side breadcrumb: with tracing on, the streamed trace
    # shows the fault firing *inside* the worker — even for an
    # ``exit`` fault that takes the process down right after.
    obs_event(
        "fault_fired",
        fault=fault.kind,
        task=fault.task,
        attempt=fault.attempt,
        rule=fault.rule,
    )
    if fault.kind == "raise":
        raise InjectedFault(
            f"injected fault (task {fault.task!r}, attempt {fault.attempt})"
        )
    if fault.kind == "exit":
        os._exit(fault.exit_code)
    if fault.kind == "hang":
        time.sleep(fault.hang_s)


class _FaultingCall:
    """Module-level wrapper so armed faults survive the pickle boundary."""

    def __init__(self, fn: Callable[..., Any], fault: ArmedFault) -> None:
        self.fn = fn
        self.fault = fault

    def __call__(self, **kwargs: Any) -> Any:
        apply_armed_fault(self.fault)
        if self.fault.kind == "corrupt":
            # corrupt: deterministic garbage instead of the real result.
            return {"__chaos_corrupt__": self.fault.token}
        return self.fn(**kwargs)


class FaultPlan:
    """A seeded, reproducible schedule of fault injections.

    The executor calls :meth:`arm` once per (task, attempt) at
    submission time; the decision never depends on scheduling order, so
    serial and parallel runs with the same seed inject the same faults.
    """

    def __init__(self, seed: int, rules: Sequence[FaultRule] = ()) -> None:
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        if not self.rules:
            raise ValueError("a FaultPlan needs at least one FaultRule")

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, rules={list(self.rules)!r})"

    def _fires(self, rule_index: int, rule: FaultRule, task_id: str, attempt: int) -> bool:
        """Pure per-(rule, task, attempt) decision, honouring ``max_hits``."""
        if not self._draw(rule_index, rule, task_id, attempt):
            return False
        if rule.max_hits is None:
            return True
        prior_hits = sum(
            1 for a in range(1, attempt) if self._draw(rule_index, rule, task_id, a)
        )
        return prior_hits < rule.max_hits

    def _draw(self, rule_index: int, rule: FaultRule, task_id: str, attempt: int) -> bool:
        stream = random.Random(f"{self.seed}:{rule_index}:{task_id}:{attempt}")
        return stream.random() < rule.p

    def arm(self, task_id: str, attempt: int) -> Optional[ArmedFault]:
        """The fault to inject into this attempt, or ``None``.

        Rules are consulted in order; the first matching rule that
        fires wins.
        """
        for index, rule in enumerate(self.rules):
            if not fnmatch(task_id, rule.match):
                continue
            if self._fires(index, rule, task_id, attempt):
                return ArmedFault(
                    kind=rule.kind,
                    rule=index,
                    task=task_id,
                    attempt=attempt,
                    hang_s=rule.hang_s,
                    exit_code=rule.exit_code,
                    token=f"chaos:{self.seed}:{index}:{task_id}:{attempt}",
                )
        return None


# -- CLI spec parsing --------------------------------------------------------


def _parse_rule(raw: str) -> FaultRule:
    """One rule from comma-separated ``key=value`` fields.

    Unknown keys are the ``MATCH=KIND`` shorthand, so ``table1*=raise``
    is equivalent to ``match=table1*,kind=raise``.
    """
    fields: Dict[str, Any] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"chaos rule field {part!r} is not key=value")
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key in _SPEC_KEYS:
            fields[key] = value
        else:  # shorthand: MATCH=KIND
            fields["match"] = key
            fields["kind"] = value
    try:
        return FaultRule(
            match=str(fields.get("match", "*")),
            kind=str(fields.get("kind", "raise")),
            p=float(fields.get("p", 1.0)),
            max_hits=int(fields["max_hits"]) if "max_hits" in fields else None,
            hang_s=float(fields.get("hang_s", 60.0)),
            exit_code=int(fields.get("exit_code", 70)),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid chaos rule {raw!r}: {exc}") from exc


def parse_chaos_spec(spec: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a CLI ``SEED[:SPEC]`` string.

    ``SPEC`` is ``;``-separated rules of comma-separated ``key=value``
    fields (keys: ``match``, ``kind``, ``p``, ``max_hits``, ``hang_s``,
    ``exit_code``), with ``MATCH=KIND`` shorthand::

        --chaos 7                                  # every task: raise, p=0.25
        --chaos 7:table2=exit                      # kill the run inside table2
        --chaos 9:match=table*,kind=raise,p=0.5,max_hits=2;figure*=hang,hang_s=5
    """
    head, sep, tail = spec.partition(":")
    try:
        seed = int(head)
    except ValueError:
        raise ValueError(f"chaos seed {head!r} is not an integer") from None
    if not sep or not tail.strip():
        return FaultPlan(seed, [FaultRule(match="*", kind="raise", p=0.25)])
    rules: List[FaultRule] = [
        _parse_rule(raw) for raw in tail.split(";") if raw.strip()
    ]
    return FaultPlan(seed, rules)


# -- filesystem chaos helpers ------------------------------------------------


def truncate_file(path: os.PathLike, *, keep_bytes: int = 16) -> None:
    """Truncate *path* to *keep_bytes* bytes — a torn write."""
    with open(path, "rb+") as fh:
        fh.truncate(max(0, keep_bytes))


def corrupt_file(path: os.PathLike, *, seed: int = 0) -> None:
    """Deterministically flip one byte of *path* — silent bit rot."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if not data:
            return
        stream = random.Random(f"corrupt:{seed}:{len(data)}")
        offset = stream.randrange(len(data))
        fh.seek(offset)
        fh.write(bytes([data[offset] ^ 0xFF]))


def vanish_file(path: os.PathLike) -> None:
    """Delete *path* — an entry that disappears between write and read."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
