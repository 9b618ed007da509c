"""Every library name the traced benchmark replay wraps or calls exists.

``perfbench/tracing.py`` looks its targets up by name, so deleting or
renaming one breaks only ``perfbench/run.py --trace 1``. This loads the
tracer as it is and resolves each name.
"""

import functools
import importlib
import importlib.util
import os

from kbread.kb import KnowledgeBase

TRACING_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # _knom_probe calls type_compound and _matches besides the TARGETS.
    names = [(module, attr) for module, attr, _, _ in load_tracing().TARGETS]
    names += [("knom", "type_compound"), ("knom", "_matches")]
    missing = []
    for module, attr in names:
        try:
            target = functools.reduce(getattr, attr.split("."),
                                      importlib.import_module("kbread." + module))
        except AttributeError:
            missing.append(f"{module}.{attr}")
        else:
            assert callable(target), f"{module}.{attr}"
    assert missing == []


def test_every_knowledge_base_name_the_tracer_reads_resolves():
    # _summary("kb.load") reads these stats() keys, and the metric
    # features.unknown_word_frac calls types_of on the loaded store.
    assert {"svo_triples", "relation_instances"} <= KnowledgeBase().stats().keys()
    assert callable(KnowledgeBase.types_of)
