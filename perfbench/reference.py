"""Reference outputs of a forward workload, computed in a process of their
own, so that the timed process neither shares their convolution route nor
carries their memory in its peak resident set.

    python3 perfbench/reference.py --workload training-b4-96 --seed 1 --workdir DIR

writes the seeded training-form weight file ``DIR/training.mhwt`` and the
seeded inputs with their references to ``DIR/reference.npz``.
``ForwardWorkload.prepare`` in workloads.py runs it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import program


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("deployed-320", "training-b4-96"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    program.cap_blas_threads()
    api = program.load_api()
    import workloads

    workloads.WORKLOADS[args.workload](api, args.seed, args.workdir).write_reference()
    return 0


if __name__ == "__main__":
    sys.exit(main())
