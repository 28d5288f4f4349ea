"""Every shipped config gives the report it gave when these digests were
recorded: the csv bytes at --workers 1, compared by sha256, and the same
bytes at --workers 2.  The workers-1 runs also record which [task] keys
each task's builder reads, so a key that TASK_PARAMS accepts but no
builder reads fails here."""

import glob
import hashlib
import os

import pytest

from fflab.cli import main
from fflab.harness import TASK_PARAMS, RunConfig

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

DIGESTS = {
    "audit_d3_n45": (
        "exponent-audit",
        "0b85dbf4c62b8aa5364ce28ba8175c0ef72fd18e1cd42404430fac4330a57612"),
    "cape_q5": (
        "cape-lemma",
        "67d4ce3c76d4a90ceabcb28f162b2b03c0ea7ee7e8a5525aa269b1480bdf7511"),
    "cone_fermat_q5": (
        "count-cone",
        "0325f3c1a3b34ba2bdb9c91873489fcb8fa20e8fd1392d1cca4737dfda8253eb"),
    "cone_two_mixed_q5": (
        "count-cone",
        "d4e6fe0e2b735cdcdae9ba8f35515acc0d12470d4fb7cc94c299ab412742afcb"),
    "dissect_e2_q5": (
        "dissect-verify",
        "7484154fdef880373a25e4179edbe82e48ad76be6dbd84280583644df9ca0480"),
    "dissect_f25_n2": (
        "dissect-verify",
        "495730296845cde2ae4ba5066fa7f81dd3850bbd8ca053e24d268855ed557d12"),
    "dissect_fermat_q5": (
        "dissect-verify",
        "d8f402fdc01356206a7123eba539de31bcd80052dbb975672a39c5825fc3ab9c"),
    "dissect_mixed_q5": (
        "dissect-verify",
        "a790b52d1b28339bb0d359ce0e2b9e67eed76a55d67ba2a76be59c75499491f5"),
    "dissect_q7_n2": (
        "dissect-verify",
        "03884e462b729a5d39d351087b46c29efa32a02d1b927a998f3692c2be28c633"),
    "dissect_q11_n2": (
        "dissect-verify",
        "466d36eb759dc37760cf892cf2edf46ccc9c4bd38264b2204978253439442333"),
    "langweil_surface_q5": (
        "langweil-report",
        "e85a5bb13af71997446f35f04b2c8590d5c8f219533f6c4783632ee3eb583979"),
    "lattice_f25_n4": (
        "lattice-minima",
        "a04d238493a06f88cf685992a3d57053832f2f483fb509eafd1daa9093ebb473"),
    "lattice_q5": (
        "lattice-minima",
        "e9e922c27f5e49a8f5d7d58cd2093b67eaab4ddeb58859dc52fbf6acb0149907"),
    "lattice_q5_n4": (
        "lattice-minima",
        "83b5c699000d8a8e9f957f2c8f9a979034b09fadef2cff998804595d440dff98"),
    "major_fermat_q5": (
        "major-arc",
        "9e21e71bff3ec0ae0572c23fcca189a07916624595eef76a882e02e019d80b23"),
    "morphisms_surface_q5": (
        "count-morphisms",
        "9103c66f98526a8b75508a7322136e99d98fe799e9c9ad2790978c6956ece171"),
    "pointwise_generic_q5": (
        "pointwise-measure",
        "d40304dadfb0dc7ccca604d85c7a3036c9c15890c58e1748d2b9b22a5597b8fa"),
    "ratio_q5": (
        "ratio-lemma",
        "e4d31768ddfab52bf825e0785727e289375b9c7406dbb87fc83fe61c040a9708"),
    "shrink_e1_q5": (
        "shrink-check",
        "637d45c06927bdcd25aba0bfe290504982e74966be5b4fd6bfeafe7fb88ef594"),
    "shrink_e3_q5": (
        "shrink-check",
        "340a945ffda2ed4488fdbfa24cae670036cd8aac577c3591b0db90e6f1c4d7d6"),
    "weyl_sweep_d4_q5": (
        "weyl-check",
        "35e9b0b86a3c587648d42ab5cfba05441690b523629b7881abb740222bee1e72"),
    "weyl_sweep_q5": (
        "weyl-check",
        "8ac9538e6e994f6b38b421b3e18490868dc9d0348982c9d50bbd9ee96e897cee"),
    "weyl_sweep_q7": (
        "weyl-check",
        "b736892a7e4e4114fbd500d9d713f5654e548e86f4bfaa0fb0a6a6b7d5144a1b"),
}


class _Runs:
    """Each shipped config run once through the CLI per worker count, on
    first use: (name, workers) -> (exit code, csv sha256, [task] keys
    read); a bare name means --workers 1."""

    def __init__(self, tmp_path_factory):
        self._tmp = tmp_path_factory
        self._done = {}

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key, 1)
        if key not in self._done:
            self._done[key] = self._run(*key)
        return self._done[key]

    def _run(self, name, workers):
        task = DIGESTS[name][0]
        out_dir = self._tmp.mktemp(f"{name}_w{workers}")
        read = set()
        raw = RunConfig._param_raw

        def recording(config, key):
            read.add(key)
            return raw(config, key)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RunConfig, "_param_raw", recording)
            code = main([task, "--config",
                         os.path.join(CONFIGS, f"{name}.cfg"),
                         "--workers", str(workers), "--out", str(out_dir)])
        with open(out_dir / f"{task}.csv", "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return code, digest, read


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return _Runs(tmp_path_factory)


def test_every_shipped_config_has_a_digest():
    names = {os.path.basename(path)[:-len(".cfg")]
             for path in glob.glob(os.path.join(CONFIGS, "*.cfg"))}
    assert names == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_report_is_unchanged(runs, name):
    code, digest, _ = runs[name]
    assert code == 0
    assert digest == DIGESTS[name][1]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_report_does_not_depend_on_workers(runs, name):
    code, digest, _ = runs[name, 2]
    assert (code, digest) == runs[name][:2]


def test_builders_read_exactly_the_declared_keys(runs):
    read = {task: set() for task in TASK_PARAMS}
    for name, (task, _) in DIGESTS.items():
        read[task] |= runs[name][2]
    assert read == {task: set(keys) for task, keys in TASK_PARAMS.items()}
