"""Package metadata for ``repro``, the library under ``src/repro``.

Install it into an environment with ``python setup.py develop``, an editable
install that works offline and without the ``wheel`` package (``pip install
.`` needs ``wheel``).  Tests and examples also run straight from a checkout
with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
