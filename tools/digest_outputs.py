#!/usr/bin/env python3
"""Print the sha256 of every file the benchmark workloads write.

Runs the stages of each ``bench/workloads.py`` workload (full profile,
training seed ``REFERENCE_SEED``) through ``scopedepth.cli.main`` in this
process, under ``--work/<workload>``, and prints one ``<sha256>  <path>``
line per file written, sorted by path.  ``--work`` must not exist; the
script makes it and removes it when done.  Manifests record paths, so two
source trees compare only when both runs use the same ``--work``:

    python tools/digest_outputs.py --tree ../base --work /tmp/digest > base.txt
    python tools/digest_outputs.py --work /tmp/digest > head.txt
    diff base.txt head.txt

``--tree`` is the repository whose ``src/`` and ``bench/`` are imported;
it defaults to the one holding this script.
"""

import os

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import shutil
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    tree, work = args.tree.resolve(), args.work.resolve()
    if work.exists():
        ap.error(f"--work {work} exists")
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import scopedepth
    from scopedepth.cli import main as cli_main
    from workloads import REFERENCE_SEED, WORKLOADS

    if not Path(scopedepth.__file__).is_relative_to(tree / "src"):
        raise SystemExit(f"imported scopedepth from {scopedepth.__file__}, not {tree / 'src'}")
    work.mkdir(parents=True)
    try:
        for name, workload in WORKLOADS.items():
            for stage in workload.stages(REFERENCE_SEED, work / name, "full"):
                # the stages' progress lines would mix into the digest
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli_main(stage)
                if code != 0:
                    raise SystemExit(f"{name}: scopedepth {' '.join(stage)} exited {code}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(work))
    finally:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
