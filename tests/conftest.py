"""Fixtures shared across test modules."""

import pytest

from gordian import enumerate_positive_knots


@pytest.fixture(scope="session")
def census_m2():
    """The m = 2 census, computed once per session."""
    return enumerate_positive_knots(2, budget=1_000_000)


@pytest.fixture(scope="session")
def census_m3():
    """The m = 3 census within the default budget (about five and a half
    seconds on two cores)."""
    return enumerate_positive_knots(3)
