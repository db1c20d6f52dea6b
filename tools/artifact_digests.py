"""Print the sha256 of every artifact the bundled configs write.

Usage: python tools/artifact_digests.py OUT

Runs each bundled config of ``src/osclab/configs`` twice, at its own seed and
with ``--set seed=1``, into ``OUT/<seed>/<config>`` (``<seed>`` is ``bundled``
or ``1``), and each named override set of ``OVERRIDE_SETS`` once, into
``OUT/overrides/<name>``; then prints a header line with the Python and
numpy versions and one line ``sha256  <path>/<file>`` per artifact, sorted
by path.  ``manifest.json`` holds timings and is left out.  Reports are
byte-identical for a given (config, seed) on one set of versions, so the
output is ``tests/artifact_digests.sha256``, which the test suite checks; a
change that moves bytes on purpose rewrites that file with this command.
The package is imported from this checkout's ``src``.

Run as a script, the tool sets the BLAS thread variables of
``perfbench/run.py`` to 1 before numpy loads, as the benchmark does: the
last bits of ``np.linalg.eigh`` (the eigenbasis semigroup of a small
stencil) depend on the BLAS thread count, so the eigenbasis reports
(bmo-heat and the ``semigroup-tilde`` set) would otherwise depend on the
number of cores.  The header records the thread count with the versions.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # as perfbench/run.py
if __name__ == "__main__":
    os.environ.update({var: "1" for var in BLAS_VARS})

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from osclab.cli import bundled_config_path, run_experiment  # noqa: E402

SEEDS = {"bundled": [], "1": ["seed=1"]}

#: name -> (bundled config, overrides): runs on paths no bundled config reaches
OVERRIDE_SETS = {
    # a semigroup family's hypothesis walk and a tilde series over the measured oscillation
    "semigroup-tilde": ("classical-jn", ['family={"kind":"semigroup","p0":1,"q0":"inf","N":1,'
                                         '"operator":{"kind":"variable-1d"}}', "variant=tilde"]),
    # the weak, strong and exponential sweeps in 2-D
    "jn-2d": ("classical-jn", ["dimension=2", "resolution_ladder=[64,128]", "good_lambda.cube=null",
                               'harnesses=["hypothesis","weak","strong","exponential"]']),
    # a power functional on cubes of one cell, whose dilates grow by whole cells only from 2 cells on
    "lipschitz-tilde": ("classical-jn", ['functional={"kind":"bmo-lipschitz","alpha":0.5}',
                                         "cube_sample.min_cells=1", "variant=tilde",
                                         "resolution_ladder=[32,64]"]),
    "weighted-alternative": ("weighted-power", ["variant=alternative"]),
    # the weight report and the weighted sweeps in 2-D, off-dyadic cubes across the seam
    "weighted-2d": ("weighted-power", ["dimension=2", "resolution_ladder=[32,64]"]),
    # the bmo harness on a positional family: the sharp maximal windows and moments
    "jn-bmo": ("classical-jn", ['harnesses=["bmo"]']),
    "jn-bmo-2d": ("classical-jn", ['harnesses=["bmo"]', "dimension=2", "resolution_ladder=[16,32]",
                                   "good_lambda.cube=null"]),
    # the Lipschitz-scale sup, with exponents off the moment path (1.5, 3)
    "jn-bmo-lipschitz": ("classical-jn", ['harnesses=["bmo"]', "bmo.alpha=0.5", "bmo.ps=[1,1.5,2,3,4]",
                                          "resolution_ladder=[128,256]"]),
    # the pair condition on a root of 12 cells across the seam: odd-sided nodes, wrapped anchors
    "epi-seam": ("epi-pair", ['epi.root={"anchor":[0.8125,0.875],"side":0.375}']),
    # a theta below the clamp, and the weighted Dr condition on spike masses
    "weighted-theta": ("weighted-power", ['weight={"kind":"spike"}', "cube_sample.min_cells=2",
                                          "resolution_ladder=[64]"]),
    # the RH subsets, the theta fit and the weighted Dr condition on off-dyadic cubes across the seam
    "rh-seam": ("weighted-power", ["resolution_ladder=[16]", "cube_sample.min_cells=8"]),
}


def versions() -> str:
    """The header line: the versions and the BLAS thread count the digests hold for."""
    threads = os.environ.get(BLAS_VARS[0], "unset")
    return f"# python {platform.python_version()}, numpy {np.__version__}, blas threads {threads}"


def digests(out: str) -> list[str]:
    """Run the bundled configs and the override sets into ``out``; one ``sha256  path``
    line per artifact, sorted by path."""
    configs = sorted(name[:-5] for name in os.listdir(os.path.join(ROOT, "src", "osclab", "configs"))
                     if name.endswith(".json"))
    runs = [(os.path.join(seed, config), config, overrides)
            for seed, overrides in SEEDS.items() for config in configs]
    runs += [(os.path.join("overrides", name), config, overrides)
             for name, (config, overrides) in OVERRIDE_SETS.items()]
    lines = []
    for where, config, overrides in runs:
        run_experiment(bundled_config_path(config), os.path.join(out, where), overrides)
        for name in sorted(os.listdir(os.path.join(out, where))):
            if name == "manifest.json":
                continue
            with open(os.path.join(out, where, name), "rb") as fh:
                lines.append((f"{where}/{name}", hashlib.sha256(fh.read()).hexdigest()))
    return [f"{digest}  {path}" for path, digest in sorted(lines)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    print(versions())
    for line in digests(argv[0]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
