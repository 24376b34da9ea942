"""The package version is declared twice and both declarations must agree."""

import re
from pathlib import Path

import repro


def test_package_version_matches_setup_py():
    setup_py = (Path(__file__).parents[1] / "setup.py").read_text(encoding="utf-8")
    declared = re.search(r'^\s*version="([^"]+)",$', setup_py, re.MULTILINE)
    assert declared is not None, "setup.py declares no version"
    assert repro.__version__ == declared.group(1)
