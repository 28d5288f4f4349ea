"""Every shipped config gives the report it gave when these digests were
recorded: the csv bytes at --workers 1, and the jsonl bytes of the same
run's records, compared by sha256, and the same bytes at --workers 2.
The workers-1 runs also record which [task] keys each task's builder
reads, so a key that TASK_PARAMS accepts but no builder reads fails
here."""

import glob
import hashlib
import os

import pytest

from fflab import cli
from fflab.cli import main
from fflab.harness import TASK_PARAMS, RunConfig
from fflab.reporting import write_report

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

DIGESTS = {
    "audit_d3_n45": (
        "exponent-audit",
        "0b85dbf4c62b8aa5364ce28ba8175c0ef72fd18e1cd42404430fac4330a57612",
        "0f7a4001c1d084f7d307be1f57dd858d0b92f231502ac0e3f7c1cde2eada35d0"),
    "cape_q5": (
        "cape-lemma",
        "67d4ce3c76d4a90ceabcb28f162b2b03c0ea7ee7e8a5525aa269b1480bdf7511",
        "d00049d40a94aa4028e0b299e94bdd378b9c1cf6f6c76ddcdeba349f4323e0a6"),
    "cone_fermat_q5": (
        "count-cone",
        "0325f3c1a3b34ba2bdb9c91873489fcb8fa20e8fd1392d1cca4737dfda8253eb",
        "abacf4018a2a46b0bb8079a2492462972218f07748c4970ef785642f79c7fb11"),
    "cone_two_mixed_q5": (
        "count-cone",
        "d4e6fe0e2b735cdcdae9ba8f35515acc0d12470d4fb7cc94c299ab412742afcb",
        "d3373eecfbef403795c16b1af0c035e860a2124d0bc048e91da36006fac5e0e4"),
    "dissect_e2_q5": (
        "dissect-verify",
        "7484154fdef880373a25e4179edbe82e48ad76be6dbd84280583644df9ca0480",
        "2f5be576f4e0a17bb82b03a836bec8991a8306561bb196b7ca86f85e898ca042"),
    "dissect_f25_n2": (
        "dissect-verify",
        "495730296845cde2ae4ba5066fa7f81dd3850bbd8ca053e24d268855ed557d12",
        "a582cf9024772895c65707d7f6b30865a79406b6dd228e4982f5a105c2fb2127"),
    "dissect_fermat_q5": (
        "dissect-verify",
        "d8f402fdc01356206a7123eba539de31bcd80052dbb975672a39c5825fc3ab9c",
        "16a9da1764996523e78e7458fa3c453cbc4cf65d157d0df807e93e42d0e4d244"),
    "dissect_mixed_q5": (
        "dissect-verify",
        "a790b52d1b28339bb0d359ce0e2b9e67eed76a55d67ba2a76be59c75499491f5",
        "d107c1a724e3ba5fb1dde7c2223c24f9badd6efc393c43cbbf1436a95ebe9f74"),
    "dissect_q7_n2": (
        "dissect-verify",
        "03884e462b729a5d39d351087b46c29efa32a02d1b927a998f3692c2be28c633",
        "e4481fa15d487b83bb6efdd003f63627cda5ca1a8e60541cb8d3ed202737293b"),
    "dissect_q11_n2": (
        "dissect-verify",
        "466d36eb759dc37760cf892cf2edf46ccc9c4bd38264b2204978253439442333",
        "06407da7d39c830b1710e52e9f6693af0efd21a59074646e926786f7baf826c0"),
    "langweil_surface_q5": (
        "langweil-report",
        "e85a5bb13af71997446f35f04b2c8590d5c8f219533f6c4783632ee3eb583979",
        "b51957d34b39b813cc12782f783b8cc58cece19bbd6a8ed3c535bbeecd0d3420"),
    "lattice_f25_n4": (
        "lattice-minima",
        "a04d238493a06f88cf685992a3d57053832f2f483fb509eafd1daa9093ebb473",
        "1216d8fc3029878ce92db9eb4d850bedff6341ac1bacae8157e8fe7968f1a6b5"),
    "lattice_q5": (
        "lattice-minima",
        "e9e922c27f5e49a8f5d7d58cd2093b67eaab4ddeb58859dc52fbf6acb0149907",
        "c7f882238621ee53b3cdf00fffe79439cddfafdec8f8216ff42cf4266a52e94c"),
    "lattice_q5_n4": (
        "lattice-minima",
        "83b5c699000d8a8e9f957f2c8f9a979034b09fadef2cff998804595d440dff98",
        "7adbefc0a01a6c0654ac4a506c422374ab189893d55e0e1e6658868d856cefd4"),
    "major_fermat_q5": (
        "major-arc",
        "9e21e71bff3ec0ae0572c23fcca189a07916624595eef76a882e02e019d80b23",
        "21375bc57f118a817f10b1aef857d6e426081376d673ce14fea7341343cf2f56"),
    "morphisms_surface_q5": (
        "count-morphisms",
        "9103c66f98526a8b75508a7322136e99d98fe799e9c9ad2790978c6956ece171",
        "5136ea6c8429effb5cfcbfc5b7ac9f55981cdeea7830b8701c3775d33e3cf140"),
    "pointwise_generic_q5": (
        "pointwise-measure",
        "d40304dadfb0dc7ccca604d85c7a3036c9c15890c58e1748d2b9b22a5597b8fa",
        "bad61323aece3c9fc7a428272891f0fc1bfd97ccdd84c58b5d8c5085e2429a0e"),
    "ratio_q5": (
        "ratio-lemma",
        "e4d31768ddfab52bf825e0785727e289375b9c7406dbb87fc83fe61c040a9708",
        "8b114eb292921b723870e18d92d2725e3314700e81a62b53de54aedc71d6b601"),
    "shrink_e1_q5": (
        "shrink-check",
        "637d45c06927bdcd25aba0bfe290504982e74966be5b4fd6bfeafe7fb88ef594",
        "4e0b4fbf408655aa703fd0c89331ea70f1bfb362f0bd98236ed1f087d96b78db"),
    "shrink_e3_q5": (
        "shrink-check",
        "340a945ffda2ed4488fdbfa24cae670036cd8aac577c3591b0db90e6f1c4d7d6",
        "1100a90e2edbbd2bbd0e4a40f1dde4aa546c321097017cc501b15872c70ccbdf"),
    "weyl_sweep_d4_q5": (
        "weyl-check",
        "35e9b0b86a3c587648d42ab5cfba05441690b523629b7881abb740222bee1e72",
        "daf24ec52c914ea482ab36139446dd952ab588a73f7990de2387381ea5cd369a"),
    "weyl_sweep_q5": (
        "weyl-check",
        "8ac9538e6e994f6b38b421b3e18490868dc9d0348982c9d50bbd9ee96e897cee",
        "f1564e803320bf6e0ab53b580e4bdc4a61f962afa9a89446cce8786d07935707"),
    "weyl_sweep_q7": (
        "weyl-check",
        "b736892a7e4e4114fbd500d9d713f5654e548e86f4bfaa0fb0a6a6b7d5144a1b",
        "846a6286a3e1d3b67af6334896b57e1eda0e36f71d8cd279076e80007a66f8a7"),
}


class _Runs:
    """Each shipped config run once through the CLI per worker count, on
    first use: (name, workers) -> (exit code, csv sha256, jsonl sha256,
    [task] keys read); a bare name means --workers 1.  The jsonl report is
    written from the records the CLI writes as csv."""

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

        def also_jsonl(records, path, fmt):
            write_report(records, str(out_dir / f"{task}.jsonl"), "jsonl")
            return write_report(records, path, fmt)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(RunConfig, "_param_raw", recording)
            mp.setattr(cli, "write_report", also_jsonl)
            code = main([task, "--config",
                         os.path.join(CONFIGS, f"{name}.cfg"),
                         "--workers", str(workers), "--out", str(out_dir)])
        digests = []
        for fmt in ("csv", "jsonl"):
            with open(out_dir / f"{task}.{fmt}", "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        return (code, *digests, read)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return _Runs(tmp_path_factory)


def test_every_shipped_config_has_a_digest():
    names = {os.path.basename(path)[:-len(".cfg")]
             for path in glob.glob(os.path.join(CONFIGS, "*.cfg"))}
    assert names == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_report_is_unchanged(runs, name):
    code, csv_digest, jsonl_digest, _ = runs[name]
    assert code == 0
    assert (csv_digest, jsonl_digest) == DIGESTS[name][1:]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_shipped_config_report_does_not_depend_on_workers(runs, name):
    assert runs[name, 2][:3] == runs[name][:3]


def test_builders_read_exactly_the_declared_keys(runs):
    read = {task: set() for task in TASK_PARAMS}
    for name, (task, *_) in DIGESTS.items():
        read[task] |= runs[name][3]
    assert read == {task: set(keys) for task, keys in TASK_PARAMS.items()}
