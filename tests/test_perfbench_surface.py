"""Every library name the traced benchmark replay wraps or calls exists,
and the model file the benchmark writes still loads.

``perfbench/tracing.py`` looks its targets up by name, so deleting or
renaming one breaks only ``perfbench/run.py --trace 1``. This loads the
tracer as it is and resolves each name. ``perfbench/gen.py`` writes the
``ppa-infer`` model itself, so a stricter ``load_model`` would fail every
command of that workload and only the benchmark's smoke run would show it.
"""

import functools
import importlib
import importlib.util
import os
import random
import sys

from kbread.features import FeatureConfig
from kbread.kb import KnowledgeBase
from kbread.model import TrainConfig, load_model

PERFBENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")


def load_perfbench_module(name):
    """``perfbench/<name>.py`` as it is, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # _knom_probe calls type_compound and _matches besides the TARGETS.
    names = [(module, attr) for module, attr, _, _ in load_perfbench_module("tracing").TARGETS]
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


def test_the_planted_model_loads(tmp_path):
    gen = load_perfbench_module("gen")
    rng = random.Random(7)
    kb = gen.SynthKB(rng, gen.SIZES["smoke"])
    planted = gen.PlantedAttachment(rng, kb)
    for _ in range(50):
        planted.draw(kb.verb(), kb.noun(), rng.choice(gen.PREPS), kb.noun())
    path = tmp_path / "model.tsv"
    n_weights = planted.write_model(str(path))
    model = load_model(path)
    assert model.config == TrainConfig(l2_penalty=0.0001, max_em_iters=20,
                                       max_gradient_steps=200, convergence_tol=1e-06)
    assert model.feature_config == FeatureConfig()
    assert (model.n_labeled, model.n_unlabeled) == (0, 0)
    assert len(model.weights) == n_weights > 0
