"""The library stays small: `wc -l src/fflab/*.py` stays below the line cap
in ROADMAP.md."""

import glob
import os

LINE_CAP = 5673

SOURCES = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fflab",
                       "*.py")


def test_library_stays_below_the_line_cap():
    paths = glob.glob(SOURCES)
    assert paths
    lines = 0
    for path in paths:
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    assert lines < LINE_CAP
