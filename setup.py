"""Legacy setup shim: without the `wheel` package (and setuptools older than
70.1) pip cannot build the project, but `python setup.py develop --no-deps`
still installs it.  All metadata lives in pyproject.toml."""
from setuptools import setup

setup()
