"""Packaging for the SIGMOD 2020 KGC re-evaluation reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml``) deliberately: the legacy
develop-mode path lets ``pip install -e .`` work even in offline environments
without the ``wheel`` package, which is how CI installs the project before
running the test suite and the benchmark regression gate.
"""

from setuptools import find_packages, setup

setup(
    name="repro-kgc",
    version="0.5.0",
    description=(
        "Reproduction of 'Realistic Re-evaluation of Knowledge Graph Completion "
        "Methods: An Experimental Study' (SIGMOD 2020)"
    ),
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[
        "numpy>=1.22",
        # TOML spec files: stdlib tomllib from 3.11, the tomli backport below.
        'tomli>=1.1; python_version < "3.11"',
    ],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "lint": ["ruff"],
    },
    entry_points={
        "console_scripts": ["repro-kgc=repro.cli:main"],
    },
)
