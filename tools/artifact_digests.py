"""Print the sha256 of every artifact the bundled configs write.

Usage: python tools/artifact_digests.py OUT

Runs each bundled config of ``src/osclab/configs`` twice, at its own seed and
with ``--set seed=1``, into ``OUT/<seed>/<config>`` (``<seed>`` is ``bundled``
or ``1``), then prints one line ``sha256  <seed>/<config>/<file>`` per
artifact, sorted by path.  ``manifest.json`` holds timings and is left out.
Reports are byte-identical for a given (config, seed), so two trees that
write the same reports print the same lines: run this on both and diff the
output.  The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from osclab.cli import bundled_config_path, run_experiment  # noqa: E402

SEEDS = {"bundled": [], "1": ["seed=1"]}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = argv[0]
    configs = sorted(name[:-5] for name in os.listdir(os.path.join(ROOT, "src", "osclab", "configs"))
                     if name.endswith(".json"))
    lines = []
    for seed, overrides in SEEDS.items():
        for config in configs:
            where = os.path.join(seed, config)
            run_experiment(bundled_config_path(config), os.path.join(out, where), overrides)
            for name in sorted(os.listdir(os.path.join(out, where))):
                if name == "manifest.json":
                    continue
                with open(os.path.join(out, where, name), "rb") as fh:
                    lines.append((f"{where}/{name}", hashlib.sha256(fh.read()).hexdigest()))
    for path, digest in sorted(lines):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
