"""Settings for the tests under this directory."""

from pathlib import Path

import pytest

HERE = Path(__file__).parent

# a file, socket or generator left open fails the test that leaked it
LEAKS = (pytest.mark.filterwarnings("error::ResourceWarning"),
         pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


def pytest_collection_modifyitems(items):
    # hooks of a conftest see every collected item, perfbench's too
    for item in items:
        if HERE in item.path.parents:
            for mark in LEAKS:
                item.add_marker(mark)
