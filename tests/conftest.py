"""Fixtures shared by the test modules."""

import pytest

from wordseries import hopf


@pytest.fixture(autouse=True)
def fresh_dual_bases():
    """Each test starts and ends with no shared ``DualBases``: an instance
    wraps its methods when it is built, so one built before a patch of the
    class, or under it, would carry the wrong methods into the next request."""
    hopf._bases.cache_clear()
    yield
    hopf._bases.cache_clear()
