"""Every task charges the one run budget: Budget.charge is the only place
that refuses work, and the fixed caps it replaced do not come back."""

import glob
import os
import re

SOURCES = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fflab",
                       "*.py")


def _sources():
    paths = sorted(glob.glob(SOURCES))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), fh.read()


def test_budget_exceeded_is_raised_at_one_site():
    sites = [(name, text[:match.start()].count("\n") + 1)
             for name, text in _sources()
             for match in re.finditer(r"raise\s+BudgetExceededError\b", text)]
    assert len(sites) == 1, sites
    assert sites[0][0] == "errors.py"


def test_no_fixed_cap_bypasses_the_budget():
    for name, text in _sources():
        for cap in ("_MAX_CELLS", "_MAX_VARS"):
            assert cap not in text, (name, cap)
