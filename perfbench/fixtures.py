"""The benchmark's workloads: which tasks each one runs, on which inputs.

A workload is a list of fixtures.  A fixture is one fflab task on one
config file.  `materialize` writes every config and form file a workload
needs into a scratch directory, so the program receives only those files.

Two kinds of fixture:

* fixed: a shipped config, or a generated config on a Fermat form with no
  seed.  Its report must hash to the sha256 in DIGESTS, recorded with this
  harness when the benchmark was defined.
* seeded: the workload seed picks a random non-diagonal form, or is the
  config's [run] seed.  Its report must say `pass` and must not change
  between the passes of one run.

Random forms have a fixed number of terms with nonzero coefficients, and
a random binary cubic is drawn from one class of equal rank work (see
`_binary_cubic`), so the work a pass does barely depends on the seed and
run-to-run spread measures the program, not the inputs.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

__all__ = ["Fixture", "WORKLOADS", "DIGESTS", "fixtures_for", "materialize"]


@dataclass(frozen=True)
class Fixture:
    name: str          # names the per-fixture metric task.<name>_s
    config: str        # config file text, or the name of a shipped config
    form: str = None   # form file text; None means the diagonal form
    seeded: bool = False
    separable: bool = None  # None: the task uses no form
    shipped: bool = False


def _config(task, n=2, e=1, params=(), form=None, seed=None, p=5):
    lines = ["[field]", f"p = {p}", "", "[problem]", "d = 3", f"n = {n}",
             f"e = {e}"]
    if form is not None:
        lines.append(f"form = {form}")
    lines += ["", "[task]", f"name = {task}"]
    lines += [f"{key} = {value}" for key, value in params]
    if seed is not None:
        lines += ["", "[run]", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def _form_text(coeffs) -> str:
    return "".join(" ".join(map(str, exps)) + f" : {c}\n"
                   for exps, c in coeffs.items())


def _binary_cubic(rng, p=5) -> str:
    """x^3, x^2 y, x y^2, y^3, each with a random nonzero coefficient,
    drawn again until the discriminant is a nonzero square mod p.  Such a
    cubic has three distinct linear factors or none, and every one of them
    costs the weyl sweep the same rank work: 1,474,560 pivots over F_5.  A
    cubic with one linear factor costs 1,344,000, one with a double factor
    1,411,200 and a cube 672,000, which would make the pass time depend on
    the seed."""
    squares = {x * x % p for x in range(1, p)}
    while True:
        a, b, c, d = (rng.randrange(1, p) for _ in range(4))
        disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                - 27 * a * a * d * d + 18 * a * b * c * d) % p
        if disc in squares:
            return _form_text({(3, 0): a, (2, 1): b, (1, 2): c, (0, 3): d})


def _ternary_cubic(rng) -> str:
    """The three cubes plus two random mixed monomials: five terms, all
    with random nonzero coefficients."""
    monos = [m for m in itertools.product(range(4), repeat=3) if sum(m) == 3]
    cubes = [m for m in monos if 3 in m]
    mixed = sorted(rng.sample([m for m in monos if 3 not in m], 2),
                   reverse=True)
    return _form_text({m: rng.randrange(1, 5) for m in cubes + mixed})


def _mixed(name, task, form, **config):
    """A seeded fixture on a random non-diagonal form, read from a file."""
    return Fixture(name, _config(task, form=f"{name}.form", **config),
                   form=form, seeded=True, separable=False)


def _circle(seed, rng):
    # Quadrature and arc generation on a non-separable form; major-arc walks
    # the same arcs and builds the q^(box n) phase distribution of n = 3.
    return [
        _mixed("dissect_mixed_seeded", "dissect-verify", _binary_cubic(rng)),
        Fixture("major_fermat_q5", "major_fermat_q5.cfg", shipped=True,
                separable=True),
    ]


def _weyl(seed, rng):
    cubic = _binary_cubic(rng)
    return [
        Fixture("weyl_sweep_q5", "weyl_sweep_q5.cfg", shipped=True,
                separable=True),
        _mixed("weyl_sweep_mixed_seeded", "weyl-check", cubic),
        Fixture("weyl_fermat_n3",
                _config("weyl-check", n=3, params=[("limit", 2)]),
                separable=True),
        Fixture("shrink_fermat_seeded",
                _config("shrink-check", params=[("samples", 50)], seed=seed),
                seeded=True, separable=True),
        _mixed("shrink_mixed_seeded", "shrink-check", cubic,
               params=[("samples", 50)], seed=seed),
    ]


def _moduli(seed, rng):
    # The shipped surface count-morphisms (390,625-tuple cross-check, about
    # 20 s) is too long for a timed pass; the Fermat cubic curve runs the
    # same factor route and the same enumeration cross-check on 15,625
    # tuples.
    cubic = _ternary_cubic(rng)
    return [
        Fixture("langweil_surface_q5", "langweil_surface_q5.cfg",
                shipped=True, separable=True),
        Fixture("morphisms_fermat_n3", _config("count-morphisms", n=3),
                separable=True),
        _mixed("cone_mixed_seeded", "count-cone", cubic, n=3),
        _mixed("morphisms_mixed_seeded", "count-morphisms", cubic, n=3),
    ]


def _lattice(seed, rng):
    return [
        Fixture(f"{task.replace('-', '_')}_seeded",
                _config(task, params=[("count", 100)], seed=seed),
                seeded=True)
        for task in ("lattice-minima", "ratio-lemma", "cape-lemma")
    ]


WORKLOADS = {"circle": _circle, "weyl": _weyl, "moduli": _moduli,
             "lattice": _lattice}

# sha256 of each fixed fixture's csv report, recorded when the benchmark
# was defined.  The three shipped configs match `fflab <task> --config`.
DIGESTS = {
    "major_fermat_q5":
        "9e21e71bff3ec0ae0572c23fcca189a07916624595eef76a882e02e019d80b23",
    "weyl_sweep_q5":
        "8ac9538e6e994f6b38b421b3e18490868dc9d0348982c9d50bbd9ee96e897cee",
    "weyl_fermat_n3":
        "9c046301eddf6173ff49a150a2221184de8202cb375f75570cf4dd1cf2b403f6",
    "langweil_surface_q5":
        "e85a5bb13af71997446f35f04b2c8590d5c8f219533f6c4783632ee3eb583979",
    "morphisms_fermat_n3":
        "b3c5d09c65fa5389e981b26597f1d84613858d38d8074afa7ce94ba5f47fd555",
}


def fixtures_for(workload: str, seed: int):
    """The fixtures of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](seed, rng)


def materialize(fixtures, work_dir: str, root: str):
    """Write each fixture's config (and form) file into work_dir, copying
    shipped configs from root/configs; return the config paths."""
    paths = []
    for fx in fixtures:
        text = fx.config
        if fx.shipped:
            with open(os.path.join(root, "configs", fx.config),
                      encoding="utf-8") as fh:
                text = fh.read()
        if fx.form is not None:
            with open(os.path.join(work_dir, f"{fx.name}.form"), "w",
                      encoding="utf-8") as fh:
                fh.write(fx.form)
        path = os.path.join(work_dir, f"{fx.name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths
