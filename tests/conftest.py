"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def set_str_digits():
    """``sys.set_int_max_str_digits`` for one test; teardown puts the old limit back."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
