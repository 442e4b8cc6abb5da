"""Repo-level pytest configuration.

Its presence makes pytest put the repository root on ``sys.path``, so
``from tests.conftest import ...`` and ``from benchmarks.conftest import
...`` resolve under plain ``pytest`` as well as ``python -m pytest``.
"""
