"""Package metadata for the Femto-Containers reproduction.

Installs the pure-Python ``repro`` package from ``src/``.  Without the
``wheel`` package, editable installs go through ``python setup.py
develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Femto-Containers: lightweight virtualization and fault "
    "isolation for small functions on low-power IoT microcontrollers",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
