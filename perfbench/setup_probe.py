"""One timed set-up of a workload in a fresh interpreter.

``run.py`` starts this script and measures from the start of the process
until it prints the monotonic clock, after importing the package and
building the workload's inputs into the given (new) directory::

    python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY [PICKLE]

Given ``PICKLE``, it then adds the workload's expected values (untimed)
and pickles the inputs there, so that the measuring process loads them
and never holds the generated data itself.
"""

import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (the import is part of the set-up)


def main() -> None:
    name, seed, target = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    target.mkdir()
    workload = WORKLOADS[name]
    inputs = workload.setup(seed, target)
    print(repr(time.monotonic()), flush=True)
    if len(sys.argv) > 4:
        with open(sys.argv[4], "wb") as fh:
            pickle.dump(workload.expect(inputs), fh)


if __name__ == "__main__":
    main()
