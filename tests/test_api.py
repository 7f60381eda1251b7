"""Public API surface and error hierarchy.

``repro`` is the one re-export layer: its ``__all__`` is exactly what
the README, the python blocks of ``docs/*.md`` and ``examples/*.py``
import from it, and every subpackage ``__init__`` is only its
docstring, so every other name has one import path, its module.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _doc_blocks():
    """``(path, source)`` of every fenced python block in the docs that
    parses; a block that does not (a signature sketch) may not import
    from the package either."""
    for path in DOCS:
        for match in re.finditer(r"```python\n(.*?)```", path.read_text(), re.S):
            source = match.group(1)
            try:
                ast.parse(source)
            except SyntaxError:
                assert not re.search(r"^\s*(from|import) repro", source, re.M), path
                continue
            yield path, source


def _repro_imports(source):
    """The ``from repro... import ...`` statements of ``source``."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "repro" or node.module.startswith("repro."))
    ]


def _documented_names():
    """Every name the docs and examples import from ``repro`` itself."""
    sources = [source for _, source in _doc_blocks()]
    sources += [path.read_text() for path in EXAMPLES]
    return {
        alias.name
        for source in sources
        for node in _repro_imports(source)
        if node.module == "repro"
        for alias in node.names
    }


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_subpackage_inits_are_lone_docstrings(self):
        inits = sorted(PACKAGE.glob("*/__init__.py"))
        assert len(inits) >= 11
        for path in inits:
            body = ast.parse(path.read_text()).body
            assert len(body) == 1, f"{path.parent.name}/__init__.py has code"
            assert isinstance(body[0], ast.Expr)
            assert isinstance(body[0].value, ast.Constant)
            assert isinstance(body[0].value.value, str)

    def test_all_is_the_documented_surface(self):
        assert set(repro.__all__) == _documented_names() | {"__version__"}
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_doc_imports_execute(self):
        """Every ``from repro... import ...`` in a doc block imports."""
        executed = 0
        for path, source in _doc_blocks():
            for node in _repro_imports(source):
                module = ast.fix_missing_locations(ast.Module([node], []))
                exec(compile(module, str(path), "exec"), {})
                executed += 1
        assert executed

    def test_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) == 3

    def test_headline_entry_points_are_callable(self):
        assert callable(repro.simulate)
        assert callable(repro.single_switch)

    def test_every_public_item_has_a_docstring(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"
            elif isinstance(obj, type) and not issubclass(obj, Exception):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.SimulationError,
            errors.RoutingError,
            errors.FlowControlError,
            errors.AdmissionError,
            errors.DeadlockError,
            errors.FaultConfigError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)

    def test_routing_and_flow_control_are_simulation_errors(self):
        assert issubclass(errors.RoutingError, errors.SimulationError)
        assert issubclass(errors.FlowControlError, errors.SimulationError)

    def test_fault_errors_slot_into_the_hierarchy(self):
        # a watchdog trip is a simulation failure; a bad fault plan is
        # a configuration mistake — both catchable at the usual levels
        assert issubclass(errors.DeadlockError, errors.SimulationError)
        assert issubclass(errors.FaultConfigError, errors.ConfigurationError)

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.FlowControlError("x")

    def test_library_raises_its_own_errors(self):
        from repro.sim.units import LinkSpec

        with pytest.raises(errors.ReproError):
            LinkSpec(bandwidth_mbps=-1)
