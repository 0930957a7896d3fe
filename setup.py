"""Setuptools packaging for the ``repro`` library.

The package lives under ``src/`` and needs only NumPy and SciPy at run time.
Install it with ``pip install .``, or with ``python setup.py develop`` where
PEP 660 editable installs are unavailable (no ``wheel`` package).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
