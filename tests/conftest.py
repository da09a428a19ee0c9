"""pytest rewrites the asserts of test modules only; invariants.py holds
the checks the tests share, so its asserts are rewritten too, and they
run under python -O, which strips plain asserts."""

import pytest

pytest.register_assert_rewrite("invariants")
