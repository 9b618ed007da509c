"""Print a digest of every output the kbread commands write on the fixtures.

Runs each command of :data:`COMMANDS` in order, in-process, on a copy of
``tests/fixtures`` in a temporary directory, and prints one ``sha256  name``
line, sorted by name, for each file the commands write there, for each
command's stdout (``<command>.stdout``) and for its exit code
(``<command>.exit``, the digest of ``"0\\n"`` when it succeeds). Every path is
relative to that directory, so the listing does not depend on where the
checkout or the temporary directory lies.

Two checkouts whose listings are equal write the same bytes on the fixtures.
``fixture_digests.txt`` pins this checkout's listing, and
``test_fixture_digests.py`` compares the two. To compare a change with its
parent, copy this script into the parent's ``tests`` directory and run it
on both sides::

    python tests/fixture_digests.py > change.txt
    python ../parent/tests/fixture_digests.py > parent.txt
    diff parent.txt change.txt

It imports ``kbread`` from the ``src`` directory of its own checkout.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from kbread.cli import main  # noqa: E402  (after the path to this checkout's package)

KB = ("--kb-dir", "fixtures/kb")
TRAIN = ("train", "--labeled", "fixtures/quads_labeled.tsv", *KB)
UNLABELED = ("--unlabeled", "fixtures/quads_unlabeled.tsv")
MODEL = "train-unlabeled.tsv"           # the default semi-supervised model
KNOM = ("--compounds", "fixtures/compounds.tsv", *KB)
TEST = ("--test", "fixtures/quads_test.tsv")
COLLINS = ("--collins-train", "fixtures/quads_labeled.tsv")

#: ``(name, argv)`` in run order. Each command's outputs start with its name;
#: later commands read the models ``train-*`` and the mappings ``knom-learn`` write.
COMMANDS = (
    ("train", (*TRAIN, "--model-out", "train.tsv")),
    ("train-unlabeled", (*TRAIN, *UNLABELED, "--model-out", MODEL)),
    ("train-all-families", (*TRAIN, *UNLABELED, "--families", "all", "--min-svo-count", "1",
                            "--expand-synonyms", "--model-out", "train-all-families.tsv")),
    # EM then runs all 20 iterations, with 2 M-steps each.
    ("train-two-steps", (*TRAIN, *UNLABELED, "--max-gradient-steps", "2",
                         "--model-out", "train-two-steps.tsv")),
    ("train-dry-run", (*TRAIN, *UNLABELED, "--dry-run", "--model-out", "train-dry-run.tsv")),
    ("predict", ("predict", "--model", MODEL, "--input", "fixtures/quads_test.tsv", *KB,
                 "--out", "predict.tsv")),
    # MODEL holds no F2 or F6 weight, so scoring does not extract those two families.
    ("predict-all-families", ("predict", "--model", MODEL, "--families", "all",
                              "--input", "fixtures/quads_test.tsv", *KB,
                              "--out", "predict-all-families.tsv")),
    ("eval", ("eval", *TEST, "--model", MODEL, *COLLINS, *KB, "--out", "eval.txt",
              "--tsv-out", "eval.tsv", "--chart-out", "eval-chart.tsv")),
    ("eval-collins", ("eval", *TEST, *COLLINS, *KB, "--out", "eval-collins.txt")),
    ("ternary-extract", ("ternary-extract", "--model", "train-all-families.tsv",
                         "--families", "all", "--tuples", "fixtures/tuples.tsv", *KB,
                         "--out", "ternary-extract.tsv")),
    ("ternary-extract-default-model", ("ternary-extract", "--model", MODEL, "--families", "all",
                                       "--tuples", "fixtures/tuples.tsv", *KB,
                                       "--out", "ternary-extract-default-model.tsv")),
    ("ternary-templates", ("ternary-templates", "--labeled-tuples", "fixtures/tuples_roles.tsv",
                           "--tuples", "fixtures/tuples.tsv", "--model", MODEL, *KB,
                           "--min-support", "3", "--out", "ternary-templates.tsv",
                           "--labeled-out", "ternary-templates-labeled.tsv")),
    ("knom-mine", ("knom-mine", *KNOM, "--min-support", "3", "--out", "knom-mine.tsv")),
    ("knom-learn", ("knom-learn", *KNOM, "--seq-min-support", "3", "--min-support", "3",
                    "--out", "knom-learn.tsv")),
    ("knom-predict", ("knom-predict", *KNOM, "--mappings", "knom-learn.tsv",
                      "--out", "knom-predict.tsv", "--sample-out", "knom-predict-sample.tsv",
                      "--seed", "7")),
    ("knom-predict-baseline", ("knom-predict", *KNOM, "--mappings", "knom-learn.tsv",
                               "--baseline", "--out", "knom-predict-baseline.tsv")),
    ("kb-check", ("kb-check", *KB)),
)


def digests(workdir):
    """Run :data:`COMMANDS` in ``workdir``, which holds the fixtures as
    ``fixtures``, and return ``{name: sha256}`` over what they leave there."""
    for name, argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(list(argv))
        for suffix, text in (("stdout", out.getvalue()), ("exit", f"{code}\n")):
            with open(os.path.join(workdir, f"{name}.{suffix}"), "w", encoding="utf-8") as fh:
                fh.write(text)
    listing = {}
    for entry in os.scandir(workdir):
        if entry.is_file():
            with open(entry.path, "rb") as fh:
                listing[entry.name] = hashlib.sha256(fh.read()).hexdigest()
    return listing


def run():
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        shutil.copytree(os.path.join(ROOT, "tests", "fixtures"),
                        os.path.join(workdir, "fixtures"))
        os.chdir(workdir)
        try:
            listing = digests(workdir)
        finally:
            os.chdir(start)
    for name in sorted(listing):
        print(f"{listing[name]}  {name}")


if __name__ == "__main__":
    run()
