"""Test lanes: every test in ``test_acceptance.py`` carries the ``acceptance``
marker, so ``pytest -m "not acceptance"`` runs the quick lane. Also the one
units-file writer that the test modules share, :func:`write_units`."""

import pytest

from confshift.core import write_table


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: the Monte Carlo acceptance gate (minutes, not seconds)")


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.acceptance)


def write_units(path, ds, comment=None) -> None:
    """Write a :class:`~confshift.Dataset` as a units file: columns x1..xp, t
    and y, which ``read_dataset`` reads back bit for bit."""
    columns = {f"x{j + 1}": ds.x[:, j] for j in range(ds.p)}
    write_table(path, {**columns, "t": ds.t, "y": ds.y}, comment)
