"""Every demo runs to the end as a script, with no arguments, and prints
the same bytes each time it runs."""

import glob
import os
import runpy
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "demos", "0*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [path])
    outputs = []
    for _ in range(2):
        runpy.run_path(path, run_name="__main__")
        outputs.append(capsys.readouterr().out)
    assert outputs[0]
    assert outputs[0] == outputs[1]
