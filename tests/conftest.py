"""Checks that hold for every test of the suite."""

from __future__ import annotations

import re
import warnings

import pytest

# Python 3.12+ warns when a process with a second thread forks. A filter
# cannot turn the warning into an error: os.fork clears the error that the
# filter raises, and the warning is gone. So it is recorded and checked.
FORK_WARNING = re.compile(
    r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"
)


@pytest.fixture(autouse=True)
def no_fork_while_threaded():
    """Fail a test that forks while another thread is alive, and pass every
    other warning on."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", FORK_WARNING.pattern, DeprecationWarning)
        yield
    forks = [w for w in caught if FORK_WARNING.match(str(w.message))]
    for w in caught:
        if w not in forks:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    if forks:
        pytest.fail(f"forked while another thread was alive: {forks[0].message}")
