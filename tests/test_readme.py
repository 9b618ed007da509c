import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_example_runs_from_repository_root(monkeypatch):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (block,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["label"] in ("V", "N")
    assert len(namespace["decisions"]) == len(namespace["unlabeled"])
