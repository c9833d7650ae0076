"""Round-based return summaries, the oracle of
:meth:`repro.lint.taint.TaintAnalysis.compute_return_summaries`.

The product solves REP008's return summaries with a worklist that
evaluates a function again only when a callee's summary changed.  This
is the plain fixed point it replaced: every round evaluates every
function, until a round changes nothing or ``_MAX_ROUNDS`` have run.
Both reach the least fixed point, so their summaries must agree.
"""

from __future__ import annotations

from typing import Set

from repro.lint.taint import _EMPTY, _MAX_ROUNDS, TaintAnalysis, is_sanitized

__all__ = ["RoundBasedTaintAnalysis"]


class RoundBasedTaintAnalysis(TaintAnalysis):
    """:class:`TaintAnalysis` with the round-based summary fixed point."""

    def compute_return_summaries(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for fn in self.index.functions.values():
                if is_sanitized(fn.qname):
                    continue
                env = self._env(fn)
                labels: Set[str] = set()
                for value in self._scope(fn)[1]:
                    labels |= self._eval(fn, value, env)
                new = frozenset(labels)
                if new != self.returns.get(fn.qname, _EMPTY):
                    self.returns[fn.qname] = new
                    changed = True
            if not changed:
                break
