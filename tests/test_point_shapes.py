"""The numeric code takes stacks in: no single-row path is left in src/rclab."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rclab"

# a promotion of one row to a stack, or the round trip of a row through one
ROW_PATH = re.compile(r"np\.atleast_2d|\.reshape\(\s*1\s*,\s*-1\s*\)")


def row_paths(src):
    """file:line for each line of the modules in ``src`` with a row path."""
    return [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if ROW_PATH.search(line)]


def test_no_module_turns_a_row_into_a_stack():
    assert row_paths(SRC) == []


def test_the_scan_sees_a_row_path(tmp_path):
    # both spellings are found; a reshape to any other shape is not a row path
    (tmp_path / "a.py").write_text(
        "X = np.atleast_2d(x)\n"
        "Y = y.reshape(-1, 3)\n"
        "Z = z.reshape(1, -1)[0]\n")
    assert row_paths(tmp_path) == ["a.py:1", "a.py:3"]
