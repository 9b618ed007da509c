"""Traced in-process replay of a workload's commands.

The replay calls ``kbread.cli.main`` with the same argument lists the
untraced run passes to child processes, after wrapping the public functions
each command calls into the library's modules. Coarse calls (loaders,
readers, writers, training, mining, ...) each record a span: name, start,
end and parent. Per-instance calls (feature extraction, classification,
back-off prediction, ``relations_between``) are too frequent for a span
each, so they are aggregated into a call count and a time per command, and
their time is charged to the enclosing span as child time. Spans stay in
memory and are written when the replay ends.

A layer's self time is the time of its spans minus the part covered by
child spans and aggregated calls. Work a library function does internally
(for example the classification inside ``ternary.extract_ternary``) is not
split out unless the function reaches it through a wrapped module name.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time
from collections import defaultdict

#: (module, attribute, span name, per-instance). Names before the dot are
#: the layers that per-layer self time is reported for.
TARGETS = (
    ("kb", "load_kb_dir", "kb.load", False),
    ("features", "read_corpus", "tsv.read", False),
    ("ternary", "read_tuples", "tsv.read", False),
    ("ternary", "read_role_tuples", "tsv.read", False),
    ("knom", "read_compounds", "tsv.read", False),
    ("knom", "read_mappings", "tsv.read", False),
    ("cli", "_write_train_log", "tsv.write", False),
    ("ternary", "write_ternary", "tsv.write", False),
    ("ternary", "write_templates", "tsv.write", False),
    ("knom", "write_sequences", "tsv.write", False),
    ("knom", "write_mappings", "tsv.write", False),
    ("knom", "write_predictions", "tsv.write", False),
    ("evaluation", "write_reports_tsv", "tsv.write", False),
    ("evaluation", "write_prep_chart", "tsv.write", False),
    ("features", "extract_features", "features.extract", True),
    ("model", "train_supervised", "model.train_supervised", False),
    ("model", "train_em", "model.train_em", False),
    ("model", "classify", "model.classify", True),
    ("model", "save_model", "model.save", False),
    ("model", "load_model", "model.load", False),
    ("collins", "fit_counts", "collins.fit", False),
    ("collins", "predict", "collins.predict", True),
    ("evaluation", "compare", "evaluation.compare", False),
    ("evaluation", "evaluate", "evaluation.evaluate", False),
    ("ternary", "extract_ternary", "ternary.extract", False),
    ("ternary", "map_relations_to_verbs", "ternary.map", False),
    ("ternary", "annotate_relations", "ternary.annotate", False),
    ("ternary", "learn_role_templates", "ternary.learn_templates", False),
    ("ternary", "apply_role_templates", "ternary.apply_templates", False),
    ("knom", "mine_sequences", "knom.mine", False),
    ("knom", "learn_mappings", "knom.learn", False),
    ("knom", "predict_instances", "knom.predict", False),
    ("knom", "baseline_mappings", "knom.baseline", False),
    ("kb", "KnowledgeBase.relations_between", "kb.relations_between", True),
)

LAYERS = ("cli", "tsv", "kb", "features", "model", "collins", "evaluation",
          "ternary", "knom")
#: The knowledge families; the lexical ones (F8-F15) fire on every instance.
FAMILIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7")

#: Feature sets kept for the coverage figures: the first this many
#: extractions of each command.
FEATURE_SAMPLE = 5000


def _summary(name, args, result):
    """The few facts about a coarse call that the per-layer metrics use,
    taken right after it returns so large results are not kept alive. The
    knom mining and typed prediction calls also keep their inputs, for the
    untimed candidate and match counts after the replay."""
    if name == "tsv.read":
        return {"rows": len(result)}
    if name == "kb.load":
        return result.stats()
    if name == "model.train_em":
        return {"history": result.history, "n_features": len(result.weights)}
    if name == "evaluation.compare":
        return {r.method: (r.correct, r.n, r.correct_excl_of, r.n_excl_of)
                for r in result}
    if name == "ternary.extract":
        return {"tuples": len(args[0]), "extracted": len(result)}
    if name == "ternary.annotate":
        return {"n": len(result), "tagged": sum(1 for t in result if t.relation)}
    if name == "ternary.apply_templates":
        return {"n": len(result), "labeled": sum(1 for t in result if t.role_label)}
    if name == "knom.learn":
        return {"n": len(result)}
    if name == "knom.mine":
        return {"n": len(result), "corpus": args[0], "kb": args[1]}
    if name == "knom.predict":
        return {"checks": len(args[0]) * len(args[1]), "n": len(result),
                "mappings": args[0], "corpus": args[1], "kb": args[2]}
    return None


def _families(cfg):
    from kbread.features import DEFAULT_FAMILIES
    return cfg.enabled_families if cfg is not None else DEFAULT_FAMILIES


class Tracer:
    """Spans and per-instance call aggregates for one replay."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, child_hot_s, root]
        self.stack = []
        self.root = None
        self.hot = defaultdict(lambda: [0, 0.0])   # (root, name) -> [calls, s]
        self.summaries = []      # (root, name, summary)
        self.feature_sample = defaultdict(list)   # root -> [(inst, features, families)]
        self.kb = None
        self.relation_hits = 0

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
               0.0, self.root]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, hot):
        tracer = self
        if not hot:
            def coarse(*args, **kwargs):
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                summary = _summary(name, args, result)
                if summary is not None:
                    tracer.summaries.append((tracer.root, name, summary))
                return result
            return coarse

        def per_instance(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            cell = tracer.hot[(tracer.root, name)]
            cell[0] += 1
            cell[1] += dt
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][4] += dt
            if name == "kb.relations_between":
                tracer.relation_hits += bool(result)
            elif name == "features.extract":
                sample = tracer.feature_sample[tracer.root]
                if len(sample) < FEATURE_SAMPLE:
                    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                    sample.append((args[0], result, _families(cfg)))
                    tracer.kb = args[1]
            return result
        return per_instance

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapped function for its traced version in each kbread
        module that refers to it, and restore the originals on exit."""
        modules = [importlib.import_module("kbread." + m) for m in LAYERS if m != "tsv"]
        modules.append(importlib.import_module("kbread"))
        saved = []
        try:
            for module, attr, name, hot in TARGETS:
                owner = importlib.import_module("kbread." + module)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                orig = getattr(owner, attr)
                wrapper = self.wrap(name, orig, hot)
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            saved.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, child_hot, root in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "root": root,
                                     "aggregated_child_s": child_hot}) + "\n")
            for (root, name), (calls, seconds) in sorted(self.hot.items(),
                                                         key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"aggregate": name, "root": root,
                                     "calls": calls, "seconds": seconds}) + "\n")


def root_name(argv):
    """Span name of one command, e.g. ``cli.knom_predict_baseline``."""
    suffix = "_baseline" if "--baseline" in argv else ""
    return "cli." + argv[0].replace("-", "_") + suffix


def replay(commands, tracer):
    """Run each command in-process under the tracer; returns the exit
    codes."""
    import kbread.cli
    codes = []
    with tracer.installed():
        for _, argv, _ in commands:
            tracer.root = root_name(argv)
            sink = io.StringIO()
            with tracer.span(tracer.root), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                codes.append(kbread.cli.main(list(argv)))
    tracer.root = None
    return codes


# -- per-layer metrics ---------------------------------------------------------


def _knom_probe(tracer):
    """Candidate and match counts of the knom workload, computed after the
    replay (untimed) with the program's own typing and matching functions
    on the corpus, KB and mappings the replayed commands used."""
    from kbread import knom
    mine = [s for r, n, s in tracer.summaries if n == "knom.mine" and r == "cli.knom_mine"]
    typed = [s for r, n, s in tracer.summaries
             if n == "knom.predict" and r == "cli.knom_predict"]
    if not mine or not typed:
        return None
    total = largest = 0
    distinct = set()
    for cn in mine[0]["corpus"]:
        seqs = knom.type_compound(cn, mine[0]["kb"])
        total += len(seqs)
        largest = max(largest, len(seqs))
        distinct.update(s.elements for s in seqs)
    kb = typed[0]["kb"]
    hits = sum(knom._matches(cn, mp.sequence, kb)
               for cn in typed[0]["corpus"] for mp in typed[0]["mappings"])
    return {"candidates": total, "max": largest, "distinct": len(distinct), "hits": hits}


def layer_metrics(tracer):
    """Per-layer figures from one traced replay. A layer the workload
    never calls reports zero calls and zero seconds."""
    spans = tracer.spans
    by_name = defaultdict(float)
    by_root_name = defaultdict(float)
    child = [s[4] for s in spans]
    for s in spans:
        dur = s[2] - s[1]
        by_name[s[0]] += dur
        by_root_name[(s[5], s[0])] += dur
        if s[3] is not None:
            child[s[3]] += dur
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        self_s[s[0].split(".")[0]] += (s[2] - s[1]) - c
    hot = defaultdict(lambda: [0, 0.0])
    for (_, name), (calls, seconds) in tracer.hot.items():
        hot[name][0] += calls
        hot[name][1] += seconds
        self_s[name.split(".")[0]] += seconds

    def summaries(name, root=None):
        return [s for r, n, s in tracer.summaries if n == name and (root is None or r == root)]

    def frac(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m["tsv.read_s"] = by_name["tsv.read"]
    m["tsv.rows"] = sum(s["rows"] for s in summaries("tsv.read"))
    m["tsv.write_s"] = by_name["tsv.write"]

    loads = summaries("kb.load")
    m["kb.load_s"] = by_name["kb.load"]
    m["kb.svo_triples"] = loads[0]["svo_triples"] if loads else 0
    m["kb.relation_instances"] = loads[0]["relation_instances"] if loads else 0
    calls, seconds = hot["kb.relations_between"]
    m["kb.relations_between_calls"] = calls
    m["kb.relations_between_us"] = frac(seconds * 1e6, calls)
    m["kb.relations_between_hit_frac"] = frac(tracer.relation_hits, calls)

    calls, seconds = hot["features.extract"]
    m["features.extract_s"] = seconds
    m["features.us_per_instance"] = frac(seconds * 1e6, calls)
    sample = [x for per_command in tracer.feature_sample.values() for x in per_command]
    m["features.active_mean"] = frac(sum(len(fv) for _, fv, _ in sample), len(sample))
    for fam in FAMILIES:
        prefix = fam + ":"
        enabled = [fv for _, fv, fams in sample if fam in fams]
        fired = sum(1 for fv in enabled if any(n.startswith(prefix) for n in fv))
        m[f"features.fire_frac.{fam}"] = frac(fired, len(enabled))
    nouns = unknown = 0
    for inst, _, _ in sample:
        for noun in (inst.n0, inst.n1, inst.n2):
            if noun is not None:
                nouns += 1
                unknown += not tracer.kb.types_of(noun)
    m["features.unknown_word_frac"] = frac(unknown, nouns)

    m["model.train_supervised_s"] = by_name["model.train_supervised"]
    m["model.train_em_s"] = by_name["model.train_em"]
    trained = summaries("model.train_em")
    history = trained[0]["history"] if trained else []
    steps = sum(h.get("steps", h.get("m_steps", 0)) for h in history)
    m["model.em_iters"] = sum(1 for h in history if h["phase"] == "em")
    m["model.m_steps"] = steps
    m["model.ms_per_step"] = frac(by_name["model.train_em"] * 1e3, steps)
    m["model.final_ll"] = history[-1]["ll"] if history else 0.0
    m["model.n_features"] = trained[0]["n_features"] if trained else 0
    calls, seconds = hot["model.classify"]
    m["model.classify_s"] = seconds
    m["model.classify_per_s"] = frac(calls, seconds)
    m["model.save_s"] = by_name["model.save"]
    m["model.load_s"] = by_name["model.load"]

    reports = summaries("evaluation.compare")
    m["collins.fit_s"] = by_name["collins.fit"]
    m["collins.predict_s"] = hot["collins.predict"][1]
    collins = reports[0].get("collins") if reports else None
    m["collins.accuracy"] = frac(collins[0], collins[1]) if collins else 0.0
    m["evaluation.evaluate_s"] = by_name["evaluation.evaluate"]
    ppad = reports[0].get("ppad") if reports else None
    m["evaluation.accuracy_excl_of"] = frac(ppad[2], ppad[3]) if ppad else 0.0

    extracted = summaries("ternary.extract")
    m["ternary.extract_s"] = by_name["ternary.extract"]
    m["ternary.verb_attached_frac"] = frac(sum(s["extracted"] for s in extracted),
                                           sum(s["tuples"] for s in extracted))
    m["ternary.map_s"] = by_name["ternary.map"]
    annotated = summaries("ternary.annotate")
    m["ternary.tagged_frac"] = frac(sum(s["tagged"] for s in annotated),
                                    sum(s["n"] for s in annotated))
    m["ternary.learn_templates_s"] = by_name["ternary.learn_templates"]
    m["ternary.apply_templates_s"] = by_name["ternary.apply_templates"]
    applied = summaries("ternary.apply_templates")
    m["ternary.role_labeled_frac"] = frac(sum(s["labeled"] for s in applied),
                                          sum(s["n"] for s in applied))

    probe = _knom_probe(tracer)
    mined = summaries("knom.mine", "cli.knom_mine")
    typed = summaries("knom.predict", "cli.knom_predict")
    m["knom.candidates"] = probe["candidates"] if probe else 0
    m["knom.max_candidates_per_compound"] = probe["max"] if probe else 0
    m["knom.mine_s"] = by_name["knom.mine"]
    m["knom.mined"] = sum(s["n"] for s in mined)
    m["knom.mined_frac"] = frac(m["knom.mined"], probe["distinct"]) if probe else 0.0
    m["knom.learn_s"] = by_name["knom.learn"]
    m["knom.mappings"] = sum(s["n"] for s in summaries("knom.learn"))
    m["knom.predict_s"] = by_root_name[("cli.knom_predict", "knom.predict")]
    m["knom.baseline_predict_s"] = by_root_name[("cli.knom_predict_baseline", "knom.predict")]
    m["knom.match_checks"] = sum(s["checks"] for s in typed)
    m["knom.match_hit_frac"] = frac(probe["hits"], m["knom.match_checks"]) if probe else 0.0
    m["knom.predictions"] = sum(s["n"] for s in typed)
    m["trace.spans"] = len(spans)
    m["trace.total_s"] = sum(s[2] - s[1] for s in spans if s[3] is None)
    return m
