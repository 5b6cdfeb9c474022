"""Packaging metadata for the Morpheus reproduction.

The simulator runs on the Python standard library alone; the ``test``
extra installs what the test suite and its benchmarks import.
"""

from setuptools import find_packages, setup

setup(
    name="morpheus-repro",
    version="0.6.0",
    description=(
        "Analytic reproduction of Morpheus: extending the GPU LLC with "
        "idle-core scratch capacity (MICRO 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    extras_require={
        "test": ["hypothesis", "pytest", "pytest-benchmark", "pytest-cov"],
    },
)
