"""Packaging for the ``repro`` library, which lives under ``src/``.

This file is the only packaging metadata in the repository; the library
has no runtime dependencies.  It declares the ``src`` layout explicitly
rather than relying on setuptools' automatic discovery.

Install for development with ``python setup.py develop``, which needs
only setuptools and works offline.  ``pip install -e .
--no-build-isolation`` does the same, but pip builds editable installs
as wheels, so it also needs the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
