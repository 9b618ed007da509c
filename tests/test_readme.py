import argparse
import os
import re

from kbread.cli import _FEATURE_SETTINGS, _Setting, build_parser
from kbread.kb import KB_FILENAMES, KB_FILES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_library_example_runs_from_repository_root(monkeypatch):
    (block,) = re.findall(r"```python\n(.*?)```", read_readme(), re.S)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["label"] in ("V", "N")
    assert len(namespace["decisions"]) == len(namespace["unlabeled"])


def test_options_table_lists_every_tunable_option():
    # Rows of the "Command line" table: | `subcommand` | keys | inputs |.
    # F stands for the three feature settings.
    (section,) = re.findall(r"^## Command line\n(.*?)^## ", read_readme(), re.M | re.S)
    listed = {}
    for name, keys in re.findall(r"^\| `([a-z-]+)` \| (.*?) \|", section, re.M):
        listed[name] = set(re.findall(r"`(\w+)`", keys))
        if re.search(r"\bF\b", keys):
            listed[name] |= set(_FEATURE_SETTINGS)
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    declared = {name: {a.dest for a in sub._actions if isinstance(a, _Setting)}
                for name, sub in subparsers.choices.items()}
    assert listed == declared


def test_knowledge_directory_table_lists_every_file_in_load_order():
    # Rows of the "Knowledge directory" table: | `file` | columns (notes) |.
    (section,) = re.findall(r"^Knowledge directory .*?\n\n(.*?)\n\n", read_readme(), re.M | re.S)
    listed = [(name, re.sub(r" \(.*?\)", "", columns).split(", "))
              for name, columns in re.findall(r"^\| `(\w+\.tsv)` \| (.*?) \|$", section, re.M)]
    declared = [(KB_FILENAMES[key], list(columns)) for key, (columns, _) in KB_FILES.items()]
    assert listed == declared
