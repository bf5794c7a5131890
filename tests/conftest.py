"""Test lanes: every test in ``test_acceptance.py`` carries the ``acceptance``
marker, so ``pytest -m "not acceptance"`` runs the quick lane."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: the Monte Carlo acceptance gate (minutes, not seconds)")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)
