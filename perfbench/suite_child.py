"""One program process of the ``suite-full`` workload.

Run as ``python3 perfbench/suite_child.py RESULT_JSON MODE [RUNNER ARGS...]``
with ``PYTHONPATH`` at the checkout's ``src``.  It imports the experiment
runner and prints ``READY <import seconds>``: the parent's clock stops
there for ``wall.setup_s``, and ``setup_s`` is this process's CPU time
up to that point.  Then, unless MODE is ``setup``, it runs
``repro.experiments.runner.main`` on the runner arguments.  MODE
``traced`` first wraps the layer entry points (see ``layers.py``) and
writes the spans beside the result.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import repro.experiments.runner as runner  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
#: CPU seconds from interpreter start until the runner is importable.
SETUP_CPU_S = time.process_time()


def main() -> int:
    result_path, mode, runner_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    print(f"READY {IMPORT_S!r}", flush=True)
    result = {"import_s": IMPORT_S, "setup_cpu_s": SETUP_CPU_S}
    if mode != "setup":
        recorder = None
        if mode == "traced":
            import layers

            recorder = layers.SpanRecorder()
            layers.install(recorder)
        with open(result_path + ".log", "w", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log):
                t0, cpu0 = time.perf_counter(), time.process_time()
                code = runner.main(runner_args)
                result["suite_s"] = time.perf_counter() - t0
                result["cpu_s"] = time.process_time() - cpu0
        result["exit_code"] = code
        if recorder is not None:
            result["spans"] = result_path + ".spans.jsonl"
            recorder.dump(result["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
