"""Shared helper of the paper-shape suite (``benchmarks/test_*.py``).

Lives in its own uniquely named module: pytest imports every
``conftest.py`` under the name ``conftest``, so ``from conftest import
report`` resolved to whichever directory's conftest loaded last
(``benchmarks/perf/conftest.py``) and the suite failed at collection.
"""

from __future__ import annotations


def report(result) -> None:
    """Print an ExperimentResult so `pytest -s` shows the regenerated rows."""
    print()
    print(result)
