"""Tests of the public API surface."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"


@pytest.mark.parametrize(
    "module",
    [
        "repro.network",
        "repro.routing",
        "repro.traffic",
        "repro.costs",
        "repro.core",
        "repro.queueing",
        "repro.eval",
        "repro.api",
        "repro.scenarios",
        "repro.serve",
    ],
)
def test_subpackage_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing attribute {name}"


def test_cli_figure_ids_cover_report_runners():
    """``figure --id`` offers exactly the report generator's experiment set."""
    import argparse

    from repro.cli import build_parser
    from repro.eval.report import RUNNERS

    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    (figure_id,) = [
        action
        for action in commands.choices["figure"]._actions
        if action.dest == "figure_id"
    ]
    assert figure_id.choices == sorted(RUNNERS)


def test_public_docstrings_present():
    """Every public callable exported at top level carries a docstring."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"
