"""Scalar oracles for the vectorized kernels in ``src/repro``.

Every hot kernel of the product runs on one vectorized path.  Each was
written as a rewrite of a plain scalar loop, and that loop lives on here,
unchanged in its arithmetic, as the kernel's equivalence oracle:

* :mod:`oracles.mds` — one-restart-at-a-time SMACOF (``_run_single`` with
  its scalar disparities, checked ``rank_image`` and Guttman transform),
  the (k, n, n) lockstep loop, and the stack-based PAVA loop, for
  :func:`repro.coplot.mds.smacof.smacof`, its ``_run_batch`` and the
  row-batched PAVA ``_pava_rows`` in :mod:`repro.coplot.mds.monotone`;
* :mod:`oracles.bootstrap` — the per-replicate ``Coplot.fit`` loop, for
  :func:`repro.coplot.extend.bootstrap_stability`;
* :mod:`oracles.models` — the per-job generation loops of the Lublin,
  Feitelson 96/97, Jann and user-session models;
* :mod:`oracles.simulator` — the original per-event scheduler loop, for
  :func:`repro.scheduler.simulator.simulate`;
* :mod:`oracles.hurst` — the per-window R/S and per-size variance-time
  loops, for :mod:`repro.selfsim.rs_analysis` and
  :mod:`repro.selfsim.variance_time`;
* :mod:`oracles.swf` — SWF parse, read and render on the per-line scan
  and per-row renderer only, for :mod:`repro.workload.swf`;
* :mod:`oracles.lint` — the round-based fixed point of REP008's return
  summaries, for the worklist in :mod:`repro.lint.taint`.

They are not dead code.  Two consumers run them on every change: the
equivalence suites (``tests/*/test_*equivalence.py``,
``tests/workload/test_swf_fast.py``, the bootstrap tests in
``tests/coplot/test_extend.py``, ``tests/lint/test_project_rules.py``),
which assert the fast path agrees with its oracle bit for bit or within
a stated tolerance, and the kernel speedup gate (``make perf-bench``,
``benchmarks/perf_kernels.py``), which times each fast kernel against its
oracle.  Without them both the equivalence claims and the speedup floors
would be one-time statements.

The oracles share with the product only what bitwise equality depends
on: the RNG draw plans (each model's ``_draw_blocks``, the user-session
``_prepare``), the window and block-size plans (``_window_sizes``,
``_vt_sizes``), the simulator's ``_prepare``, ``classical_mds`` for the
deterministic SMACOF start, and the SWF line scan and row renderer, which
stay in the product as its path for irregular input.
"""
