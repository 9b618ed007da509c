"""Seeded synthetic inputs for the kbread benchmark workloads.

Everything here depends only on the seed and the size table, never on the
kbread package: the program under test receives the generated files and
nothing else. Each ``make_*`` function writes one workload's files into a
directory and returns a :class:`Workload` with the CLI commands to run, the
input sizes and the planted truth that the output checks compare against.

The knowledge base has Zipfian subject-verb-object counts, a heavy-tailed
number of categories per noun (a few nouns carry ten or more, so the
Cartesian product in compound typing shows), verb roles, preposition senses,
synonym groups and about 200 relations. Attachment labels are drawn from
planted weights over the (verb, preposition), (noun, preposition) and
second-noun category features, so accuracy means something and its Bayes
rate is known.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

PREPS = ("with", "on", "in", "for", "from", "at", "to", "by", "as", "of")
ROLE_NAMES = ("instrument", "beneficiary", "location", "source", "topic", "time")
ROLE_LABELS = (
    "np_v_np_pp.asset",
    "np_v_np_pp.beneficiary",
    "np_v_np_pp.instrument",
    "np_v_np_pp.source",
    "np_v_np_pp.topic",
)

#: Input sizes per workload and scale. "full" is what the benchmark
#: measures; "smoke" is the smallest size that still exercises every path.
SIZES = {
    "full": {
        "nouns": 3000, "verbs": 300, "cats": 150, "svo": 40000,
        "relations": 200, "rel_instances": 40, "roles": 400, "synsets": 60,
        "labeled": 5000, "unlabeled": 5000, "test": 1000, "max_em_iters": 2,
        "tuples": 16000, "collins": 3000, "templates": 30,
        "planted": 240, "supporters": 16, "heldout": 6, "noise": 6000,
    },
    "smoke": {
        "nouns": 300, "verbs": 40, "cats": 30, "svo": 2000,
        "relations": 20, "rel_instances": 20, "roles": 40, "synsets": 10,
        "labeled": 200, "unlabeled": 200, "test": 100, "max_em_iters": 1,
        "tuples": 300, "collins": 200, "templates": 4,
        "planted": 4, "supporters": 12, "heldout": 3, "noise": 100,
    },
}

MAX_FANOUT = 16
FANOUT_TABLE = 1000


@dataclass
class Workload:
    """One generated workload: the commands to run (label, kbread argv),
    the output files each command writes, input sizes and planted truth."""

    name: str
    kb_dir: str
    commands: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _cum(n, s):
    """Cumulative Zipf weights 1/(rank+1)^s for ``random.choices``."""
    out, total = [], 0.0
    for i in range(n):
        total += 1.0 / (i + 1) ** s
        out.append(total)
    return out


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def _write(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


class SynthKB:
    """A generated knowledge base kept in memory so generators can draw
    nouns by category and relation instances by relation."""

    def __init__(self, rng, sz):
        self.rng = rng
        self.nouns = [f"n{i}" for i in range(sz["nouns"])]
        self.verbs = [f"v{i}" for i in range(sz["verbs"])]
        self.cats = [f"c{i}" for i in range(sz["cats"])]
        self.noun_cum = _cum(len(self.nouns), 1.0)
        self.verb_cum = _cum(len(self.verbs), 1.0)
        self.cat_cum = _cum(len(self.cats), 0.8)
        # Fan-outs cycle through a shuffled table of Pareto quantiles, so
        # every seed gets the same histogram and only the assignment varies.
        self.fanouts = [min(MAX_FANOUT, int((1.0 - (i + 0.5) / FANOUT_TABLE) ** (-1 / 1.6)))
                        for i in range(FANOUT_TABLE)]
        rng.shuffle(self.fanouts)
        self.fanout_next = 0
        self.types = {}
        for noun in self.nouns:
            if rng.random() < 0.1:
                continue                      # unknown to the category store
            self.types[noun] = self.draw_categories()
        self.cat_nouns = {}
        for noun, cats in self.types.items():
            for c in cats:
                self.cat_nouns.setdefault(c, []).append(noun)
        self.relations = {}
        self.rel_sig = {}
        for k in range(sz["relations"]):
            rel = f"r{k}"
            pairs = set()
            while len(pairs) < sz["rel_instances"]:
                a, b = rng.choice(self.nouns), rng.choice(self.nouns)
                if a != b:
                    pairs.add((a, b))
            self.relations[rel] = sorted(pairs)
            self.rel_sig[rel] = (self.verb(), rng.choice(PREPS[:-1]))
        self.rel_names = sorted(self.relations, key=lambda r: int(r[1:]))
        self.rel_cum = _cum(len(self.rel_names), 1.0)
        self.sz = sz

    def noun(self):
        return self.rng.choices(self.nouns, cum_weights=self.noun_cum)[0]

    def verb(self):
        return self.rng.choices(self.verbs, cum_weights=self.verb_cum)[0]

    def relation(self):
        return self.rng.choices(self.rel_names, cum_weights=self.rel_cum)[0]

    def draw_categories(self, must=None):
        """A heavy-tailed number of distinct categories, Zipf-chosen."""
        k = self.fanouts[self.fanout_next % FANOUT_TABLE]
        self.fanout_next += 1
        cats = {must} if must else set()
        while len(cats) < k + (1 if must else 0) and len(cats) < len(self.cats):
            cats.add(self.rng.choices(self.cats, cum_weights=self.cat_cum)[0])
        return sorted(cats)

    def populated_cats(self, min_nouns=3):
        return [c for c in self.cats if len(self.cat_nouns.get(c, ())) >= min_nouns]

    def write(self, kb_dir, extra_isa=(), extra_relations=()):
        rng, sz = self.rng, self.sz
        os.makedirs(kb_dir, exist_ok=True)
        svo = []
        for _ in range(sz["svo"]):
            count = min(10000, int(rng.paretovariate(1.2)))
            svo.append((self.noun(), self.verb(), self.noun(), str(count)))
        _write(os.path.join(kb_dir, "svo.tsv"), svo)
        isa = [(n, c) for n in self.nouns for c in self.types.get(n, ())]
        _write(os.path.join(kb_dir, "isa.tsv"), isa + list(extra_isa))
        roles = []
        cats = self.populated_cats()
        for _ in range(sz["roles"]):
            group = ",".join(sorted({self.verb() for _ in range(rng.randint(1, 2))}))
            filler = rng.choice(cats) if rng.random() < 0.8 else self.noun()
            roles.append((group, filler, rng.choice(ROLE_NAMES)))
        _write(os.path.join(kb_dir, "roles.tsv"), roles)
        prepdefs = [(p, self.verb()) for p in PREPS for _ in range(rng.randint(3, 6))]
        _write(os.path.join(kb_dir, "prepdefs.tsv"), prepdefs)
        synsets = [(",".join(sorted({self.verb() for _ in range(rng.randint(2, 3))})),)
                   for _ in range(sz["synsets"])]
        _write(os.path.join(kb_dir, "synsets.tsv"), synsets)
        rels = [(r, a, b) for r in self.rel_names for a, b in self.relations[r]]
        _write(os.path.join(kb_dir, "relations.tsv"), rels + list(extra_relations))
        return {"svo_rows": len(svo), "isa_rows": len(isa) + len(extra_isa),
                "relation_rows": len(rels) + len(extra_relations)}


class PlantedAttachment:
    """Planted logistic weights over features the program extracts by
    default: F12 (verb, prep), F13 (noun1, prep) and F4 (noun2 category).
    Weights are drawn lazily, so only keys that occur are materialized."""

    def __init__(self, rng, kb):
        self.rng = rng
        self.kb = kb
        self.w = {}

    def _weight(self, key, mean, sd):
        if key not in self.w:
            self.w[key] = self.rng.gauss(mean, sd)
        return self.w[key]

    def logit(self, v, n1, p, n2):
        z = self._weight(("F12", v, p), -3.0 if p == "of" else 0.3, 1.5)
        z += self._weight(("F13", n1, p), 0.0, 0.8)
        for c in self.kb.types.get(n2, ()):
            z += self._weight(("F4", n2, c), 0.0, 0.6)
        return z

    def draw(self, v, n1, p, n2):
        """Label drawn from the planted model, plus the Bayes-optimal
        decision's probability of being right."""
        q = _sigmoid(self.logit(v, n1, p, n2))
        return ("V" if self.rng.random() < q else "N"), max(q, 1.0 - q)

    def feature_name(self, key):
        family = key[0]
        if family == "F4":
            return f"F4:isA({key[1]},{key[2]})"
        return f"{family}:({key[1]},{key[2]})"

    def write_model(self, path):
        """A kbread-model v1 file holding exactly the planted weights."""
        header = [("#kbread-model", "1"), ("#learning_rate", "0.5"),
                  ("#l2_penalty", "0.0001"), ("#max_em_iters", "20"),
                  ("#max_gradient_steps", "200"), ("#convergence_tol", "1e-06"),
                  ("#n_labeled", "0"), ("#n_unlabeled", "0")]
        weights = sorted((self.feature_name(k), repr(v)) for k, v in self.w.items())
        _write(path, header + weights)
        return len(weights)


def _quad(rng, kb, planted):
    v, n1, n2 = kb.verb(), kb.noun(), kb.noun()
    p = rng.choice(PREPS)
    label, bayes = planted.draw(v, n1, p, n2)
    return (v, n1, p, n2), label, bayes


def _quads(rng, kb, planted, n):
    out = [_quad(rng, kb, planted) for _ in range(n)]
    bayes = sum(b for _, _, b in out) / max(1, len(out))
    return out, bayes


def make_ppa_train(directory, seed, scale="full"):
    """Labeled, unlabeled and held-out quads drawn from planted weights;
    the pipeline trains, predicts and evaluates."""
    sz = SIZES[scale]
    rng = random.Random(f"ppa-train:{seed}")
    kb = SynthKB(rng, sz)
    kb_dir = os.path.join(directory, "kb")
    kb_rows = kb.write(kb_dir)
    planted = PlantedAttachment(rng, kb)
    labeled, _ = _quads(rng, kb, planted, sz["labeled"])
    unlabeled, _ = _quads(rng, kb, planted, sz["unlabeled"])
    test, bayes = _quads(rng, kb, planted, sz["test"])
    f = {k: os.path.join(directory, v) for k, v in {
        "labeled": "labeled.tsv", "unlabeled": "unlabeled.tsv", "gold": "test.tsv",
        "config": "train.cfg", "model": "model.tsv", "log": "model.tsv.log",
        "pred": "predictions.tsv", "report": "report.txt", "report_tsv": "report.tsv",
        "chart": "chart.tsv"}.items()}
    _write(f["labeled"], [("format=quad",)] + [q + (lab,) for q, lab, _ in labeled])
    _write(f["unlabeled"], [q for q, _, _ in unlabeled])
    _write(f["gold"], [("format=quad",)] + [q + (lab,) for q, lab, _ in test])
    _write(f["config"], [(f"max_em_iters={sz['max_em_iters']}",)])
    kb_args = ["--kb-dir", kb_dir]
    wl = Workload("ppa-train", kb_dir)
    wl.commands = [
        ("train", ["train", "--labeled", f["labeled"], "--unlabeled", f["unlabeled"],
                   "--model-out", f["model"], "--config", f["config"]] + kb_args,
         [f["model"], f["log"]]),
        ("predict", ["predict", "--model", f["model"], "--input", f["gold"],
                     "--out", f["pred"]] + kb_args, [f["pred"]]),
        ("eval", ["eval", "--test", f["gold"], "--model", f["model"],
                  "--collins-train", f["labeled"], "--out", f["report"],
                  "--tsv-out", f["report_tsv"], "--chart-out", f["chart"]] + kb_args,
         [f["report"], f["report_tsv"], f["chart"]]),
    ]
    wl.sizes = dict(kb_rows, labeled=len(labeled), unlabeled=len(unlabeled),
                    test=len(test), max_em_iters=sz["max_em_iters"])
    wl.truth = {"files": f, "n_test": len(test), "bayes_accuracy": bayes}
    return wl


def make_ppa_infer(directory, seed, scale="full"):
    """5-tuples (some realizing relation instances or role templates), a
    labeled copy, back-off training quads, role-labeled tuples and a model
    file written from the planted weights; nothing is trained."""
    sz = SIZES[scale]
    rng = random.Random(f"ppa-infer:{seed}")
    kb = SynthKB(rng, sz)
    kb_dir = os.path.join(directory, "kb")
    kb_rows = kb.write(kb_dir)
    planted = PlantedAttachment(rng, kb)
    cats = kb.populated_cats()
    templates = []
    for _ in range(sz["templates"]):
        templates.append((rng.choice(ROLE_LABELS), kb.verb(), rng.choice(cats),
                          rng.choice(PREPS[:-1]), rng.choice(cats), rng.randint(12, 30)))
    roles = []
    for label, v, t1, p, t2, support in templates:
        for _ in range(support):
            roles.append((kb.noun(), v, rng.choice(kb.cat_nouns[t1]), p,
                          rng.choice(kb.cat_nouns[t2]), label))
    tuples = []
    bayes_sum = 0.0
    for _ in range(sz["tuples"]):
        r = rng.random()
        if r < 0.3:                                  # realizes a relation instance
            rel = kb.relation()
            n0, n1 = rng.choice(kb.relations[rel])
            v, p = kb.rel_sig[rel]
            n2 = kb.noun()
        elif r < 0.5:                                # fits a role template
            _, v, t1, p, t2, _ = rng.choice(templates)
            n0, n1, n2 = kb.noun(), rng.choice(kb.cat_nouns[t1]), rng.choice(kb.cat_nouns[t2])
        else:
            n0, v, n1, p, n2 = kb.noun(), kb.verb(), kb.noun(), rng.choice(PREPS), kb.noun()
        label, bayes = planted.draw(v, n1, p, n2)
        bayes_sum += bayes
        tuples.append(((n0, v, n1, p, n2), label))
    collins, _ = _quads(rng, kb, planted, sz["collins"])
    f = {k: os.path.join(directory, v) for k, v in {
        "gold": "tuples_gold.tsv", "tuples": "tuples.tsv", "collins": "collins.tsv",
        "roles": "roles.tsv", "model": "model.tsv", "pred": "predictions.tsv",
        "report": "report.txt", "report_tsv": "report.tsv", "chart": "chart.tsv",
        "ternary": "ternary.tsv", "templates": "templates.tsv",
        "labeled_out": "ternary_roles.tsv"}.items()}
    _write(f["gold"], [t + (lab,) for t, lab in tuples])
    _write(f["tuples"], [t for t, _ in tuples])
    _write(f["collins"], [("format=quad",)] + [q + (lab,) for q, lab, _ in collins])
    _write(f["roles"], roles)
    n_weights = planted.write_model(f["model"])
    kb_args = ["--kb-dir", kb_dir]
    wl = Workload("ppa-infer", kb_dir)
    wl.commands = [
        ("predict", ["predict", "--model", f["model"], "--input", f["gold"],
                     "--out", f["pred"]] + kb_args, [f["pred"]]),
        ("eval", ["eval", "--test", f["gold"], "--model", f["model"],
                  "--collins-train", f["collins"], "--out", f["report"],
                  "--tsv-out", f["report_tsv"], "--chart-out", f["chart"]] + kb_args,
         [f["report"], f["report_tsv"], f["chart"]]),
        # Every knowledge family, F2 and F6 too, which are off by default.
        ("ternary", ["ternary-extract", "--model", f["model"], "--tuples", f["tuples"],
                     "--out", f["ternary"], "--families", "all"] + kb_args,
         [f["ternary"]]),
        ("ternary", ["ternary-templates", "--labeled-tuples", f["roles"],
                     "--out", f["templates"], "--tuples", f["tuples"],
                     "--model", f["model"], "--labeled-out", f["labeled_out"]] + kb_args,
         [f["templates"], f["labeled_out"]]),
    ]
    wl.sizes = dict(kb_rows, tuples=len(tuples), collins=len(collins),
                    role_tuples=len(roles), model_weights=n_weights)
    wl.truth = {"files": f, "n_test": len(tuples),
                "bayes_accuracy": bayes_sum / len(tuples),
                "templates": [t[:5] for t in templates]}
    return wl


def make_knom(directory, seed, scale="full"):
    """Compounds realizing planted type-sequence mappings (some supporters
    held out of the relation store) plus noise compounds over the base
    nouns; the pipeline mines, learns and predicts, typed and baseline."""
    sz = SIZES[scale]
    rng = random.Random(f"knom:{seed}")
    kb = SynthKB(rng, sz)
    cats = kb.populated_cats()
    compounds, extra_isa, extra_rel, planted, heldout = [], [], [], [], []
    for m in range(sz["planted"]):
        length = rng.choice((2, 3, 3, 4))
        elements = [("type", rng.choice(cats)) for _ in range(length)]
        if length >= 3 and rng.random() < 0.3:
            elements[1] = ("lex", f"w{m}")           # a lexical anchor, as "author"
        type_pos = [i for i, (kind, _) in enumerate(elements, 1) if kind == "type"]
        i, j = rng.sample(type_pos, 2)
        rel = kb.relation()
        planted.append((rel, i, j, tuple(elements)))
        for k in range(sz["supporters"] + sz["heldout"]):
            tokens = []
            for pos, (kind, value) in enumerate(elements, 1):
                if kind == "lex":
                    tokens.append(value)
                    continue
                token = f"t{m}x{k}p{pos}"
                extra_isa += [(token, c) for c in kb.draw_categories(must=value)]
                tokens.append(token)
            pair = (tokens[i - 1], tokens[j - 1])
            if k < sz["supporters"]:
                extra_rel.append((rel,) + pair)
            else:
                heldout.append((rel,) + pair)
            compounds.append([f"m{m}_{k}"] + tokens)
    for k in range(sz["noise"]):
        compounds.append([f"z{k}"] + rng.sample(kb.nouns, rng.choice((2, 3, 3, 4))))
    rng.shuffle(compounds)
    kb_dir = os.path.join(directory, "kb")
    kb_rows = kb.write(kb_dir, extra_isa, extra_rel)
    f = {k: os.path.join(directory, v) for k, v in {
        "compounds": "compounds.tsv", "mined": "mined.tsv", "mappings": "mappings.tsv",
        "pred": "predictions.tsv", "baseline": "predictions_baseline.tsv"}.items()}
    _write(f["compounds"], compounds)
    kb_args = ["--kb-dir", kb_dir]
    wl = Workload("knom", kb_dir)
    wl.commands = [
        ("knom_mine", ["knom-mine", "--compounds", f["compounds"], "--out", f["mined"]]
         + kb_args, [f["mined"]]),
        ("knom_learn", ["knom-learn", "--compounds", f["compounds"],
                        "--out", f["mappings"]] + kb_args, [f["mappings"]]),
        ("knom_predict", ["knom-predict", "--compounds", f["compounds"],
                          "--mappings", f["mappings"], "--out", f["pred"]] + kb_args,
         [f["pred"]]),
        ("knom_predict", ["knom-predict", "--baseline", "--compounds", f["compounds"],
                          "--mappings", f["mappings"], "--out", f["baseline"]] + kb_args,
         [f["baseline"]]),
    ]
    wl.sizes = dict(kb_rows, compounds=len(compounds), planted=len(planted),
                    heldout=len(heldout))
    wl.truth = {"files": f, "planted": planted, "heldout": heldout}
    return wl


MAKERS = {"ppa-train": make_ppa_train, "ppa-infer": make_ppa_infer, "knom": make_knom}
