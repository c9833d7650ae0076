"""Meta-tests on the public API surface: exports resolve, everything public
is documented, and the experiment registry matches its documentation."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.stats",
    "repro.workload",
    "repro.coplot",
    "repro.coplot.mds",
    "repro.models",
    "repro.selfsim",
    "repro.archive",
    "repro.scheduler",
    "repro.runtime",
    "repro.experiments",
]


def _package_modules(pkg_name):
    """A package and its direct submodules."""
    pkg = importlib.import_module(pkg_name)
    yield pkg
    for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
        yield importlib.import_module(f"{pkg_name}.{info.name}")


def _public_objects(module):
    names = getattr(module, "__all__", None)
    if names is None:
        return []
    return [(name, getattr(module, name)) for name in names]


class TestExports:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_all_exports_resolve(self, pkg):
        missing = [
            f"{module.__name__}.{name}"
            for module in _package_modules(pkg)
            for name in getattr(module, "__all__", [])
            if not hasattr(module, name)
        ]
        assert not missing, f"__all__ lists missing names: {missing}"

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_package_has_docstring(self, pkg):
        module = importlib.import_module(pkg)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, pkg


class TestDocstrings:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_public_callables_documented(self, pkg):
        undocumented = [
            f"{module.__name__}.{name}"
            for module in _package_modules(pkg)
            for name, obj in _public_objects(module)
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and not (obj.__doc__ and obj.__doc__.strip())
        ]
        assert not undocumented, f"undocumented public API: {undocumented}"

    def test_all_submodules_have_docstrings(self):
        missing = []
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            if not hasattr(pkg, "__path__"):
                continue
            for info in pkgutil.iter_modules(pkg.__path__):
                mod = importlib.import_module(f"{pkg_name}.{info.name}")
                if not (mod.__doc__ and mod.__doc__.strip()):
                    missing.append(mod.__name__)
        assert not missing, f"modules without docstrings: {missing}"


def _public_callables(module):
    """(qualified name, callable) for each public function and each public
    method (or ``__init__``) of each public class in *module*."""
    for name, obj in _public_objects(module):
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj):
                if (attr == "__init__" or not attr.startswith("_")) and (
                    inspect.isfunction(member) or inspect.ismethod(member)
                ):
                    yield f"{module.__name__}.{name}.{attr}", member


class TestSinglePath:
    """Each kernel and model ships one product path.  Scalar oracles live
    in ``tests/oracles``, so no public signature selects an engine and no
    public name is a ``*_reference`` implementation."""

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_no_engine_parameter(self, pkg):
        offenders = [
            qual
            for module in _package_modules(pkg)
            for qual, fn in _public_callables(module)
            if "engine" in inspect.signature(fn).parameters
        ]
        assert not offenders, f"public signatures taking engine=: {offenders}"

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_no_reference_exports(self, pkg):
        offenders = [
            f"{module.__name__}.{name}"
            for module in _package_modules(pkg)
            for name in getattr(module, "__all__", [])
            if name.endswith("_reference")
        ]
        assert not offenders, f"public *_reference names: {offenders}"


class TestExperimentRegistry:
    def test_registry_matches_docs(self):
        from repro.experiments import REGISTRY

        doc = importlib.import_module("repro.experiments").__doc__
        for exp_id in REGISTRY:
            assert exp_id in doc, f"experiment {exp_id} undocumented in package doc"

    def test_every_experiment_produces_renderable_result(self):
        """The runner contract: each run_* returns something with render()
        and (directly or callably) claims."""
        from repro.experiments import REGISTRY

        for exp_id, spec in REGISTRY.items():
            sig = inspect.signature(spec.run)
            assert all(
                p.default is not inspect.Parameter.empty
                or p.kind is inspect.Parameter.VAR_KEYWORD
                for p in sig.parameters.values()
            ), f"{exp_id} requires positional arguments"


class TestVersioning:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
