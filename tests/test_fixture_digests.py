import hashlib
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixture_digests.py")

COMMANDS = ["train", "train-unlabeled", "train-all-families", "train-two-steps", "train-dry-run",
            "predict", "eval", "eval-collins", "ternary-extract", "ternary-templates",
            "knom-mine", "knom-learn", "knom-predict", "knom-predict-baseline", "kb-check"]
#: Every file the commands write; the dry run writes none.
FILES = ["train.tsv", "train.tsv.log", "train-unlabeled.tsv", "train-unlabeled.tsv.log",
         "train-all-families.tsv", "train-all-families.tsv.log", "train-two-steps.tsv",
         "train-two-steps.tsv.log", "predict.tsv", "eval.txt", "eval.tsv", "eval-chart.tsv",
         "eval-collins.txt", "ternary-extract.tsv", "ternary-templates.tsv",
         "ternary-templates-labeled.tsv", "knom-mine.tsv", "knom-learn.tsv", "knom-predict.tsv",
         "knom-predict-sample.tsv", "knom-predict-baseline.tsv"]


def test_lists_every_output_the_same_way_each_run():
    runs = [subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, check=True)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    listing = dict(reversed(line.split("  ")) for line in runs[0].stdout.splitlines())
    assert sorted(listing) == sorted(FILES + [f"{command}.{part}" for command in COMMANDS
                                              for part in ("stdout", "exit")])
    success = hashlib.sha256(b"0\n").hexdigest()
    assert {listing[f"{command}.exit"] for command in COMMANDS} == {success}
