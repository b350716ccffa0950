"""Benchmark-suite configuration.

Each ``benchmarks/test_*.py`` wraps one experiment module from
``repro.experiments`` in a pytest-benchmark target, prints the reproduced
table, and asserts the paper's qualitative shape (who wins, by roughly
what factor, where crossovers fall).  Parameters are scaled down from the
headline runs so the whole suite finishes in minutes; run the experiment
modules directly (``python -m repro.experiments.fig10``) for full scale.

The shared ``report`` helper lives in :mod:`paper_shape_report`, not
here: every ``conftest.py`` is imported under the one name ``conftest``.
"""
