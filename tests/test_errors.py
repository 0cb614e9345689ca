"""Every error class is raised by the package and named by some test.

A class that nothing raises is dead code; one that no test names has no
check that it fires.  Both are found by a text scan of the sources.
"""

import re
from pathlib import Path

import pytest

from lrpath import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "src" / "lrpath").rglob("*.py"))
TESTS = "\n".join(
    p.read_text(encoding="utf-8")
    for p in (ROOT / "tests").rglob("*.py")
    if p.name != Path(__file__).name
)
ERROR_NAMES = sorted(
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.LrPathError) and obj is not errors.LrPathError
)


@pytest.mark.parametrize("name", ERROR_NAMES)
def test_error_is_raised(name):
    assert re.search(rf"\braise\s+{name}\b", SRC), f"nothing under src/lrpath raises {name}"


@pytest.mark.parametrize("name", ERROR_NAMES)
def test_error_is_tested(name):
    assert re.search(rf"\b{name}\b", TESTS), f"no file under tests/ names {name}"
