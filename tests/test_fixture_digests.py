"""Every output the kbread commands write on the fixtures is pinned:
``fixture_digests.txt`` holds the listing that ``fixture_digests.py``
prints, which names each output file, stdout and exit code with its
sha256. Its header names the Python and numpy versions it was made with,
since the bytes are promised on one machine only; no command loads scipy.

A change that moves outputs on purpose regenerates the file with::

    python tests/test_fixture_digests.py

and its diff shows which outputs moved.
"""

import os
import platform
import subprocess
import sys

import numpy

TESTS = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(TESTS, "fixture_digests.py")
PINNED = os.path.join(TESTS, "fixture_digests.txt")


def versions():
    """The header line of the pinned file on this machine."""
    return f"# python {platform.python_version()}, numpy {numpy.__version__}"


def listing():
    """What ``fixture_digests.py`` prints, run in a process of its own."""
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def digests(lines):
    """``{name: sha256}`` of the lines of a listing."""
    return dict(reversed(line.split("  ")) for line in lines)


def test_every_fixture_output_is_the_pinned_one():
    with open(PINNED, encoding="utf-8") as fh:
        header, *pinned = fh.read().splitlines()
    assert header == versions(), f"pinned with {header[2:]}; this is {versions()[2:]}"
    pinned, found = digests(pinned), digests(listing().splitlines())
    moved = sorted(name for name in pinned.keys() | found.keys()
                   if pinned.get(name) != found.get(name))
    assert not moved, f"outputs moved: {', '.join(moved)}"


if __name__ == "__main__":
    with open(PINNED, "w", encoding="utf-8") as fh:
        fh.write(versions() + "\n" + listing())
