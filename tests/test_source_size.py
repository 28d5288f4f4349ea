"""The library stays small: `wc -l src/fflab/*.py` stays below the line cap
in ROADMAP.md.  It also holds one representation of field data, numpy index
arrays: the scalar polynomial, binary-form and Laurent objects, and the
oracles built on them, live in tests/scalars.py and tests/oracles.py."""

import ast
import glob
import importlib.util
import os

import fflab
from fflab import circle, cyclotomic, forms, latgon

LINE_CAP = 5673

SOURCES = os.path.join(os.path.dirname(__file__), os.pardir, "src", "fflab",
                       "*.py")

# names that left the library for the tests
MOVED = {"Polynomial", "BinaryForm", "LaurentElement", "expand_rational",
         "diagonal_lattice", "eval_form", "poly_gcd", "gcd_coprime",
         "random_symmetric_gamma"}

# minima are the tuples reduce_lattices returns, and checks of every layer
# are errors.InequalityReport: names deleted from the library
DELETED = {"MinimaProfile", "LatticeCheck"}
DELETED_METHODS = {"successive_minima", "minima", "check_minima_symmetry"}


def test_library_stays_below_the_line_cap():
    paths = glob.glob(SOURCES)
    assert paths
    lines = 0
    for path in paths:
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    assert lines < LINE_CAP


def test_library_holds_no_scalar_object_model():
    paths = glob.glob(SOURCES)
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name for alias in node.names}
        assert not {name.rsplit(".", 1)[-1] for name in imported} & {
            "laurent", "polys", "oracles", "scalars"}, path
    for module in ("fflab.laurent", "fflab.polys"):
        assert importlib.util.find_spec(module) is None
    assert not MOVED & set(dir(fflab))
    for owner, name in [(forms.HypersurfaceForm, "eval_form"),
                        (forms.HypersurfaceForm, "__call__"),
                        (circle.CountingProblem, "_exp_sum_direct"),
                        (cyclotomic.CyclotomicValue, "root_power"),
                        (latgon, "_laurent_matrix"),
                        (latgon, "diagonal_lattice"),
                        (latgon, "random_symmetric_gamma")]:
        assert name not in vars(owner), name


def test_deleted_minima_and_check_types_stay_gone():
    assert not DELETED & set(dir(fflab))
    assert not DELETED & set(vars(latgon))
    for owner in (latgon.FunctionFieldLattice, latgon.SpecialLatticePair):
        assert not DELETED_METHODS & set(vars(owner)), owner
