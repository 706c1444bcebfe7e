"""Docstring audit: the public API must document itself.

Two tiers, mirroring how users meet the API:

* Everything exported from the top-level ``repro`` package (the facade a
  user starts from) must carry a docstring, and so must every public
  method and property those classes expose -- including an ``Args:``
  section whenever a method takes arguments and a ``Returns:`` section
  whenever it returns a value.
* Every name in every subpackage's ``__all__`` must at least carry a
  docstring.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.api",
    "repro.autoscale",
    "repro.checkpoint",
    "repro.compiler",
    "repro.core",
    "repro.federation",
    "repro.hardware",
    "repro.middleware",
    "repro.runtime",
    "repro.scenarios",
    "repro.scheduler",
    "repro.security",
    "repro.serving",
    "repro.telemetry",
    "repro.telemetry.console",
    "repro.telemetry.trace",
    "repro.undervolting",
    "repro.usecases",
]


def _top_level_exports():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def _public_members(cls):
    """(name, member) pairs for methods/properties defined in repro code."""
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            func = member.fget
        elif inspect.isfunction(member) or inspect.ismethod(member):
            func = member
        else:
            continue
        if func is None or "repro" not in (getattr(func, "__module__", "") or ""):
            continue
        yield name, member, func


def _subpackage_exports():
    for package in SUBPACKAGES:
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            if name.startswith("__"):
                continue
            yield package, name, getattr(module, name)


@pytest.mark.parametrize("name, obj", list(_top_level_exports()), ids=lambda v: str(v))
def test_top_level_export_is_documented(name, obj):
    assert inspect.getdoc(obj), f"repro.{name} has no docstring"


@pytest.mark.parametrize("name, obj", list(_top_level_exports()), ids=lambda v: str(v))
def test_top_level_export_members_are_documented(name, obj):
    if not inspect.isclass(obj):
        return
    for member_name, member, func in _public_members(obj):
        doc = inspect.getdoc(member if isinstance(member, property) else func)
        assert doc, f"repro.{name}.{member_name} has no docstring"
        if isinstance(member, property):
            continue
        signature = inspect.signature(func)
        takes_args = any(
            parameter.name not in ("self", "cls")
            for parameter in signature.parameters.values()
        )
        returns = signature.return_annotation not in (inspect.Signature.empty, None, "None")
        if takes_args:
            assert "Args:" in doc, (
                f"repro.{name}.{member_name} takes arguments but its "
                "docstring has no Args: section"
            )
        if returns:
            assert "Returns:" in doc, (
                f"repro.{name}.{member_name} returns a value but its "
                "docstring has no Returns: section"
            )


@pytest.mark.parametrize(
    "package, name, obj",
    list(_subpackage_exports()),
    ids=lambda v: str(v),
)
def test_subpackage_export_is_documented(package, name, obj):
    if not (inspect.isclass(obj) or inspect.isfunction(obj) or inspect.ismodule(obj)):
        return  # constants (catalogues, tuples) document themselves in context
    assert inspect.getdoc(obj), f"{package}.{name} has no docstring"


def _harness_exports():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "harness.py"
    spec = importlib.util.spec_from_file_location("bench_harness_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (name, getattr(module, name))
        for name in getattr(module, "__all__", [])
    ]


@pytest.mark.parametrize("name, obj", _harness_exports(), ids=lambda v: str(v))
def test_benchmark_harness_export_is_documented(name, obj):
    """The harness is user-facing tooling: its API documents itself too."""
    if not (inspect.isclass(obj) or inspect.isfunction(obj)):
        return
    doc = inspect.getdoc(obj)
    assert doc, f"benchmarks/harness.py:{name} has no docstring"
    if inspect.isclass(obj):
        for member_name, member, func in _public_members_of_module(obj, "bench_harness"):
            assert inspect.getdoc(member if isinstance(member, property) else func), (
                f"harness.{name}.{member_name} has no docstring"
            )


def _public_members_of_module(cls, module_prefix):
    """Like :func:`_public_members` but for a file-loaded module's classes."""
    for name, member in inspect.getmembers(cls):
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            func = member.fget
        elif inspect.isfunction(member) or inspect.ismethod(member):
            func = member
        else:
            continue
        if func is None or module_prefix not in (getattr(func, "__module__", "") or ""):
            continue
        yield name, member, func
