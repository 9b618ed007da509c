"""Fixed reference task that run.py times alongside the kbread commands.

It does the kind of work every kbread command starts with: interpreter
start-up, the numpy and scipy imports, and parsing a subject-verb-object
TSV file into dictionaries the way a knowledge-base load does. It never
imports kbread, so a change to the program cannot change its time; only
the speed of the machine can. run.py rescales the measured times by it.

Usage: python3 perfbench/reftask.py KB_DIR/svo.tsv
"""

import sys

import numpy  # noqa: F401
import scipy.special  # noqa: F401


def load_svo(path):
    counts, pairs = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s, v, o, c = line.rstrip("\n").split("\t")
            key = (" ".join(s.casefold().split()), " ".join(v.casefold().split()),
                   " ".join(o.casefold().split()))
            counts[key] = counts.get(key, 0) + int(c)
    for (s, v, o), c in counts.items():
        pairs.setdefault((s, o), {})[v] = c
    return len(pairs)


if __name__ == "__main__":
    load_svo(sys.argv[1])
