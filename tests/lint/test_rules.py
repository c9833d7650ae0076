"""Per-rule fixtures: known violations plus clean counterparts.

Each rule gets snippet pairs — code that must be flagged with the exact
``(line, col, code)`` golden location, and the clean way to write the
same thing, which must produce no findings at all.
"""

import textwrap

from repro.lint import Severity, lint_source


def findings(source):
    return lint_source(textwrap.dedent(source))


def codes(source):
    return [f.code for f in findings(source)]


class TestRep001GlobalRng:
    def test_numpy_module_level_draw(self):
        (f,) = findings(
            """\
            import numpy as np
            x = np.random.rand(10)
            """
        )
        assert (f.line, f.col, f.code) == (2, 4, "REP001")
        assert f.severity is Severity.ERROR
        assert "global RNG" in f.message and "as_generator" in f.message

    def test_numpy_seed_and_stdlib_draws(self):
        assert codes(
            """\
            import random
            import numpy as np
            np.random.seed(0)
            random.seed(0)
            y = random.gauss(0, 1)
            """
        ) == ["REP001", "REP001", "REP001"]

    def test_alias_resolution_from_numpy_import_random(self):
        assert codes(
            """\
            from numpy import random as npr
            x = npr.shuffle([1, 2, 3])
            """
        ) == ["REP001"]

    def test_clean_generator_usage(self):
        assert (
            codes(
                """\
                import numpy as np
                def draw(n, rng):
                    return rng.normal(size=n)
                gen = np.random.Generator(np.random.PCG64(42))
                """
            )
            == []
        )

    def test_seeded_stdlib_random_instance_allowed(self):
        assert codes("import random\nr = random.Random(7)\n") == []

    def test_unimported_name_not_flagged(self):
        # ``random`` here is a local, not the stdlib module.
        assert codes("random = object()\nrandom.seed(0)\n") == []


class TestRep002UnseededGenerator:
    def test_default_rng_no_args(self):
        (f,) = findings(
            """\
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert (f.line, f.col, f.code) == (2, 6, "REP002")
        assert "fresh OS entropy" in f.message

    def test_default_rng_explicit_none(self):
        assert codes("from numpy.random import default_rng\nr = default_rng(None)\n") == ["REP002"]

    def test_unseeded_bit_generator_and_stdlib(self):
        assert codes(
            """\
            import random
            import numpy as np
            a = np.random.PCG64()
            b = random.Random()
            """
        ) == ["REP002", "REP002"]

    def test_system_random_always_flagged(self):
        assert codes("import random\nr = random.SystemRandom(4)\n") == ["REP002"]

    def test_seeded_counterparts_clean(self):
        assert (
            codes(
                """\
                import numpy as np
                from numpy.random import default_rng
                a = default_rng(0)
                b = np.random.default_rng(seed=3)
                c = np.random.PCG64(7)
                """
            )
            == []
        )


class TestRep003NondeterministicCall:
    def test_time_time(self):
        (f,) = findings("import time\nstamp = time.time()\n")
        assert (f.line, f.col, f.code) == (2, 8, "REP003")
        assert "nondeterministic" in f.message

    def test_datetime_now_via_from_import(self):
        assert codes("from datetime import datetime\nnow = datetime.now()\n") == ["REP003"]

    def test_uuid_urandom_secrets(self):
        assert codes(
            """\
            import os
            import secrets
            import uuid
            a = uuid.uuid4()
            b = os.urandom(8)
            c = secrets.token_hex(4)
            """
        ) == ["REP003", "REP003", "REP003"]

    def test_argless_gmtime_flagged_seeded_gmtime_clean(self):
        assert codes("import time\nx = time.gmtime()\n") == ["REP003"]
        assert codes("import time\nx = time.gmtime(12345.0)\n") == []

    def test_perf_counter_allowed(self):
        # Duration measurement is not a reproducibility hazard.
        assert codes("import time\nt = time.perf_counter()\n") == []


class TestRep004CacheSafety:
    def test_lambda_fn(self):
        (f,) = findings(
            """\
            from repro.runtime import TaskSpec
            spec = TaskSpec(id="x", fn=lambda: 1)
            """
        )
        assert (f.line, f.col, f.code) == (2, 27, "REP004")
        assert "lambda" in f.message

    def test_partial_fn(self):
        assert codes(
            """\
            import functools
            from repro.runtime.task import TaskSpec
            spec = TaskSpec(id="x", fn=functools.partial(print, 1))
            """
        ) == ["REP004"]

    def test_nested_def_fn(self):
        assert codes(
            """\
            from repro.runtime import TaskSpec
            def build():
                def inner():
                    return 1
                return TaskSpec(id="x", fn=inner)
            """
        ) == ["REP004"]

    def test_def_nested_two_levels_down_is_flagged(self):
        assert codes(
            """\
            from repro.runtime import TaskSpec
            def build():
                def helper():
                    def inner():
                        return 1
                    return inner
                return TaskSpec(id="x", fn=inner)
            """
        ) == ["REP004"]

    def test_def_in_an_outer_enclosing_function_is_flagged(self):
        assert codes(
            """\
            from repro.runtime import TaskSpec
            def build():
                def inner():
                    return 1
                def make():
                    return TaskSpec(id="x", fn=inner)
                return make
            """
        ) == ["REP004"]

    def test_nested_async_def_fn(self):
        assert codes(
            """\
            from repro.runtime import TaskSpec
            def build():
                async def inner():
                    return 1
                return TaskSpec(id="x", fn=inner)
            """
        ) == ["REP004"]

    def test_def_nested_in_a_sibling_function_is_clean(self):
        # Only the functions enclosing the TaskSpec call make a closure;
        # ``work`` here names the module-level function.
        assert (
            codes(
                """\
                from repro.runtime import TaskSpec
                def other():
                    def work():
                        return 1
                    return work
                def work():
                    return 2
                def build():
                    return TaskSpec(id="x", fn=work)
                """
            )
            == []
        )

    def test_module_level_spec_ignores_nested_defs_elsewhere(self):
        assert (
            codes(
                """\
                from repro.runtime import TaskSpec
                def other():
                    def work():
                        return 1
                    return work
                def work():
                    return 2
                spec = TaskSpec(id="x", fn=work)
                """
            )
            == []
        )

    def test_non_json_kwargs(self):
        assert codes(
            """\
            from repro.runtime import TaskSpec
            spec = TaskSpec(id="x", fn=print, kwargs={"data": {1, 2}})
            """
        ) == ["REP004"]
        assert codes(
            """\
            from repro.runtime import TaskSpec
            spec = TaskSpec(id="x", fn=print, kwargs={3: "non-string-key"})
            """
        ) == ["REP004"]

    def test_module_level_fn_and_json_kwargs_clean(self):
        assert (
            codes(
                """\
                from repro.runtime import TaskSpec
                def work(n, seed):
                    return n * seed
                spec = TaskSpec(id="x", fn=work, kwargs={"n": 10, "seed": 0})
                """
            )
            == []
        )

    def test_module_level_fn_referenced_inside_function_clean(self):
        assert (
            codes(
                """\
                from repro.runtime import TaskSpec
                def work():
                    return 1
                def build():
                    return TaskSpec(id="x", fn=work)
                """
            )
            == []
        )


class TestRep005FloatEquality:
    def test_equality_against_literal(self):
        (f,) = findings("def perfect(r2):\n    return r2 == 1.0\n")
        assert (f.line, f.col, f.code) == (2, 11, "REP005")
        assert f.severity is Severity.WARNING
        assert "isclose" in f.message

    def test_negative_literal_and_not_equal(self):
        assert codes("def check(h):\n    return h != -0.5\n") == ["REP005"]

    def test_assert_statements_exempt(self):
        # Exact golden-value assertions on deterministic outputs are the
        # point of reproducibility tests.
        assert codes("def test_it():\n    assert estimate() == 0.82\n") == []

    def test_integer_equality_clean(self):
        assert codes("def check(n):\n    return n == 3\n") == []

    def test_tolerance_comparison_clean(self):
        assert codes("import math\ndef check(h):\n    return math.isclose(h, 0.5)\n") == []


class TestRep006MutableDefault:
    def test_list_literal_default(self):
        (f,) = findings("def collect(x, acc=[]):\n    return acc\n")
        assert (f.line, f.col, f.code) == (1, 19, "REP006")
        assert "shared across calls" in f.message

    def test_dict_set_and_constructor_defaults(self):
        assert codes("def f(a={}, b=set(), c=dict()):\n    return a\n") == [
            "REP006",
            "REP006",
            "REP006",
        ]

    def test_keyword_only_and_lambda_defaults(self):
        assert codes("def f(*, acc=[]):\n    return acc\n") == ["REP006"]
        assert codes("g = lambda acc=[]: acc\n") == ["REP006"]

    def test_collections_defaultdict(self):
        assert codes(
            "import collections\ndef f(m=collections.defaultdict(list)):\n    return m\n"
        ) == ["REP006"]

    def test_none_and_immutable_defaults_clean(self):
        assert codes("def f(a=None, b=(), c=0, d='x', e=frozenset()):\n    return a\n") == []


class TestRep007NonAtomicWrite:
    def test_truncating_open_flagged(self):
        (f,) = findings(
            """\
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
            """
        )
        assert (f.line, f.col, f.code) == (2, 9, "REP007")
        assert f.severity is Severity.ERROR
        assert "atomic_write_text" in f.message

    def test_module_level_write_flagged(self):
        assert codes('open("state.json", "w").write("{}")\n') == ["REP007"]

    def test_write_text_method_flagged(self):
        assert codes(
            """\
            def save(path, text):
                path.write_text(text)
            """
        ) == ["REP007"]

    def test_mode_keyword_flagged(self):
        assert codes('fh = open("x", mode="wt")\n') == ["REP007"]

    def test_scope_with_os_replace_is_atomic_idiom(self):
        assert codes(
            """\
            import os
            def save(path, text):
                with open(path + ".tmp", "w") as fh:
                    fh.write(text)
                os.replace(path + ".tmp", path)
            """
        ) == []

    def test_rename_method_blesses_scope(self):
        assert codes(
            """\
            def save(path, text):
                tmp = path.with_suffix(".tmp")
                tmp.write_text(text)
                tmp.replace(path)
            """
        ) == []

    def test_append_and_read_modes_clean(self):
        # Appends never destroy prior records (journals depend on this).
        assert codes(
            """\
            def log(path, line):
                with open(path, "a") as fh:
                    fh.write(line)
                with open(path) as fh:
                    return fh.read()
            """
        ) == []

    def test_nested_function_scope_is_independent(self):
        # The outer scope's os.replace must not bless the inner write.
        assert codes(
            """\
            import os
            def outer(path, text):
                def inner():
                    with open(path, "w") as fh:
                        fh.write(text)
                os.replace(path, path + ".bak")
                return inner
            """
        ) == ["REP007"]

    def test_non_builtin_open_not_flagged(self):
        assert codes(
            """\
            import gzip
            def save(path, text):
                with gzip.open(path, "wt") as fh:
                    fh.write(text)
            """
        ) == []


class TestFindingShape:
    def test_findings_sort_by_location(self):
        result = findings(
            """\
            import time
            def f(acc=[]):
                return time.time()
            """
        )
        assert [f.code for f in result] == ["REP006", "REP003"]
        assert result == sorted(result)

    def test_as_dict_round_trip(self):
        (f,) = findings("import time\nt = time.time()\n")
        doc = f.as_dict()
        assert doc == {
            "path": "<string>",
            "line": 2,
            "col": 4,
            "code": "REP003",
            "severity": "error",
            "message": f.message,
        }
