"""Set-up probe, run in a fresh interpreter by run.py.

Times what a caller pays before the first solve: importing lettercost and
loading every instance file of a manifest with cli.load_instance. Each step
(the import, then each file) is bracketed by reference probes (speed.py) and
scaled to the reference host; prints the sum of the scaled steps.

Usage: python3 setup_probe.py SRC_DIR MANIFEST_JSON
"""

import json
import sys
import time

import speed


def main() -> None:
    src, manifest = sys.argv[1], sys.argv[2]
    with open(manifest) as fh:
        entries = json.load(fh)
    before = speed.probe()
    start = time.perf_counter()
    sys.path.insert(0, src)
    from fractions import Fraction

    from lettercost.cli import load_instance

    took = time.perf_counter() - start
    after = speed.probe()
    total = speed.scaled(took, before, after)
    for path, epsilon in entries:
        before = after
        start = time.perf_counter()
        load_instance(path, Fraction(epsilon))
        took = time.perf_counter() - start
        after = speed.probe()
        total += speed.scaled(took, before, after)
    print(total)


if __name__ == "__main__":
    main()
