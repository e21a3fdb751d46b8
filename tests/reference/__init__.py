"""Test-only reference implementations.

Loop-level versions of optimized kernels, kept so equivalence tests can
require the fast path to give exactly the same result.  Import them as
``tests.reference.<module>`` (``tests/conftest.py`` puts the repository
root on ``sys.path``): a top-level ``reference`` name would clash with
the benchmark's ``perfbench/reference.py``, which the benchmark's
self-tests put first on ``sys.path`` of the whole test session.
"""
