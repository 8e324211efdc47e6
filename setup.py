"""Build script: the package is pure Python (see pyproject.toml)."""

from setuptools import setup

setup()
