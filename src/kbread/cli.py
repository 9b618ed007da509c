"""Command-line pipelines over the library: train, predict, eval,
ternary-extract, ternary-templates, knom-mine, knom-learn, knom-predict,
and kb-check.

Every subcommand accepts --kb-dir, --config, --seed, and --dry-run.
Option precedence is flags, then the config file (flat key=value lines),
then built-in defaults. Outputs are byte-identical across runs given
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import collins, evaluation, knom, ternary
from .features import (DEFAULT_FAMILIES, FAMILIES, FeatureConfig,
                       expand_with_synonyms, extract_features, read_corpus)
from .kb import DEFAULT_MIN_SVO_COUNT, load_kb, load_kb_dir
from .model import (AttachmentModel, TrainConfig, classify_many, load_model,
                    save_model, train_em)
from .tsv import FormatError, iter_rows, write_lines


class _Settings:
    """Flag > config file > default resolution for tunable options."""

    def __init__(self, args):
        self.args = args
        self.file = {}
        if getattr(args, "config", None):
            for lineno, fields in iter_rows(args.config):
                if len(fields) != 1 or "=" not in fields[0]:
                    raise FormatError(args.config, lineno, "expected key=value")
                key, _, value = fields[0].partition("=")
                self.file[key.strip()] = value.strip()

    def get(self, name, default, convert=str):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.file:
            try:
                return convert(self.file[name])
            except ValueError:
                raise ValueError(f"config value for {name} is not valid: "
                                 f"{self.file[name]!r}") from None
        return default


def _parse_families(text: str) -> frozenset[str]:
    if text == "all":
        return frozenset(FAMILIES)
    if text == "default":
        return DEFAULT_FAMILIES
    families = frozenset(f.strip() for f in text.split(",") if f.strip())
    unknown = families - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown feature families: {sorted(unknown)}")
    return families


def _load_kb(args, settings):
    min_count = settings.get("min_svo_count", DEFAULT_MIN_SVO_COUNT, int)
    if args.kb_dir:
        if not os.path.isdir(args.kb_dir):
            raise FileNotFoundError(f"knowledge directory not found: {args.kb_dir}")
        return load_kb_dir(args.kb_dir, min_svo_count=min_count)
    return load_kb(min_svo_count=min_count)


def _feature_config(settings) -> FeatureConfig:
    return FeatureConfig(
        enabled_families=_parse_families(settings.get("families", "default")),
        max_prep_senses=settings.get("max_prep_senses", 5, int),
    )


def _train_config(settings) -> TrainConfig:
    return TrainConfig(
        learning_rate=settings.get("learning_rate", 0.5, float),
        l2_penalty=settings.get("l2_penalty", 1e-4, float),
        max_em_iters=settings.get("max_em_iters", 20, int),
        max_gradient_steps=settings.get("max_gradient_steps", 200, int),
        convergence_tol=settings.get("convergence_tol", 1e-6, float),
    )


def _model_feature_config(model: AttachmentModel, args, settings) -> FeatureConfig:
    """The model's stored extraction settings, unless flags override them."""
    if getattr(args, "families", None) is None and model.feature_config is not None:
        return model.feature_config
    return _feature_config(settings)


def _require_labeled(instances, path):
    for inst in instances:
        if inst.label is None:
            raise ValueError(f"{path}: corpus must be fully labeled")
    return instances


def _write_train_log(model: AttachmentModel, path) -> None:
    lines = ["#phase\tdetail"]
    for record in model.history:
        if record["phase"] == "supervised":
            lines.append(f"supervised\tsteps={record['steps']}\tll={record['ll']!r}")
        else:
            lines.append(f"em\titer={record['iter']}\tq_start={record['q_start']!r}"
                         f"\tq_end={record['q_end']!r}\tll={record['ll']!r}"
                         f"\tm_steps={record['m_steps']}")
    lines.append(f"final\tlabeled={model.n_labeled}\tunlabeled={model.n_unlabeled}"
                 f"\tfeatures={len(model.weights)}")
    write_lines(path, lines)


# -- subcommands --------------------------------------------------------------


def cmd_train(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    feature_cfg = _feature_config(settings)
    train_cfg = _train_config(settings)

    labeled_insts = _require_labeled(read_corpus(args.labeled), args.labeled)
    if args.expand_synonyms:
        labeled_insts = expand_with_synonyms(labeled_insts, kb)
    labeled = [(extract_features(i, kb, feature_cfg), i.label) for i in labeled_insts]
    unlabeled = []
    if args.unlabeled:
        unlabeled = [extract_features(i, kb, feature_cfg)
                     for i in read_corpus(args.unlabeled)]
    if args.dry_run:
        print("dry run: inputs ok")
        return 0

    model = train_em(labeled, unlabeled, train_cfg)
    model.feature_config = feature_cfg
    save_model(model, args.model_out)
    _write_train_log(model, args.log_out or args.model_out + ".log")
    print(f"trained on {model.n_labeled} labeled + {model.n_unlabeled} unlabeled "
          f"instances; {len(model.weights)} features")
    return 0


def cmd_predict(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    model = load_model(args.model)
    feature_cfg = _model_feature_config(model, args, settings)
    instances = read_corpus(args.input)
    if args.dry_run:
        print("dry run: inputs ok")
        return 0
    decisions = classify_many(model, (extract_features(inst, kb, feature_cfg)
                                      for inst in instances))
    lines = ["\t".join([inst.n0 or "-", inst.v, inst.n1, inst.p, inst.n2, label, f"{p:.6f}"])
             for inst, (label, p) in zip(instances, decisions)]
    write_lines(args.out, lines)
    print(f"wrote {len(lines)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    gold = _require_labeled(read_corpus(args.test), args.test)

    predictors = {}
    if args.model:
        model = load_model(args.model)
        feature_cfg = _model_feature_config(model, args, settings)
        predictors["ppad"] = lambda insts: [label for label, _ in classify_many(
            model, (extract_features(inst, kb, feature_cfg) for inst in insts))]
    if args.collins_train:
        train = _require_labeled(read_corpus(args.collins_train), args.collins_train)
        counts = collins.fit_counts(train)
        predictors["collins"] = lambda insts: [collins.predict(counts, inst)[0]
                                               for inst in insts]
    if not predictors:
        raise ValueError("eval needs --model and/or --collins-train")
    if args.dry_run:
        print("dry run: inputs ok")
        return 0

    reports = evaluation.compare(predictors, gold)
    text = evaluation.format_reports(reports)
    write_lines(args.out, text.splitlines())
    if args.tsv_out:
        evaluation.write_reports_tsv(reports, args.tsv_out)
    if args.chart_out:
        evaluation.write_prep_chart(reports, args.chart_out)
    print(text, end="")
    return 0


def cmd_ternary_extract(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    model = load_model(args.model)
    feature_cfg = _model_feature_config(model, args, settings)
    tuples = ternary.read_tuples(args.tuples)
    if args.dry_run:
        print("dry run: inputs ok")
        return 0
    instances = ternary.extract_ternary(tuples, model, kb, feature_cfg)
    min_support = settings.get("min_support", 10, int)
    maps = ternary.map_relations_to_verbs(kb, tuples, min_support=min_support)
    instances = ternary.annotate_relations(instances, maps)
    ternary.write_ternary(instances, args.out)
    print(f"extracted {len(instances)} ternary instances from {len(tuples)} tuples")
    return 0


def cmd_ternary_templates(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    labeled = ternary.read_role_tuples(args.labeled_tuples)
    apply_inputs = None
    model = None
    if args.tuples or args.model:
        if not (args.tuples and args.model):
            raise ValueError("applying templates needs both --tuples and --model")
        model = load_model(args.model)
        apply_inputs = ternary.read_tuples(args.tuples)
    if args.dry_run:
        print("dry run: inputs ok")
        return 0
    min_support = settings.get("min_support", 10, int)
    templates = ternary.learn_role_templates(labeled, kb, min_support=min_support)
    ternary.write_templates(templates, args.out)
    print(f"learned {len(templates)} role templates")
    if apply_inputs is not None:
        feature_cfg = _model_feature_config(model, args, settings)
        labeled_out = ternary.apply_role_templates(templates, apply_inputs, model,
                                                   kb, feature_cfg)
        ternary.write_ternary(labeled_out, args.labeled_out)
        print(f"labeled {len(labeled_out)} verb-attached tuples")
    return 0


def cmd_knom_mine(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    corpus = knom.read_compounds(args.compounds)
    if args.dry_run:
        print("dry run: inputs ok")
        return 0
    min_support = settings.get("min_support", knom.DEFAULT_MIN_SUPPORT, int)
    mined = knom.mine_sequences(corpus, kb, min_support=min_support)
    knom.write_sequences(mined, args.out)
    print(f"mined {len(mined)} sequences from {len(corpus)} compounds")
    return 0


def cmd_knom_learn(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    corpus = knom.read_compounds(args.compounds)
    if args.dry_run:
        print("dry run: inputs ok")
        return 0
    seq_support = settings.get("seq_min_support", knom.DEFAULT_MIN_SUPPORT, int)
    map_support = settings.get("min_support", knom.DEFAULT_MIN_SUPPORT, int)
    mined = knom.mine_sequences(corpus, kb, min_support=seq_support)
    mappings = knom.learn_mappings(mined, kb, min_support=map_support)
    knom.write_mappings(mappings, args.out)
    print(f"learned {len(mappings)} mappings from {len(mined)} sequences")
    return 0


def cmd_knom_predict(args) -> int:
    settings = _Settings(args)
    kb = _load_kb(args, settings)
    corpus = knom.read_compounds(args.compounds)
    mappings = knom.read_mappings(args.mappings)
    if args.dry_run:
        print("dry run: inputs ok")
        return 0
    if args.baseline:
        mappings = knom.baseline_mappings(mappings)
    predictions = knom.predict_instances(mappings, corpus, kb)
    knom.write_predictions(predictions, args.out)
    print(f"predicted {len(predictions)} instances")
    if args.sample_out:
        size = settings.get("sample_size", 100, int)
        sample = knom.sample_predictions(predictions, size=size, seed=args.seed)
        knom.write_sample_manifest(sample, args.sample_out)
        print(f"wrote annotation sample of {len(sample)} to {args.sample_out}")
    return 0


def cmd_kb_check(args) -> int:
    settings = _Settings(args)
    if not args.kb_dir:
        raise ValueError("kb-check needs --kb-dir")
    kb = _load_kb(args, settings)
    for key, value in kb.stats().items():
        print(f"{key}\t{value}")
    return 0


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kb-dir", help="directory of knowledge files")
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    common.add_argument("--dry-run", action="store_true",
                        help="validate inputs without writing outputs")
    common.add_argument("--min-svo-count", type=int, dest="min_svo_count")
    common.add_argument("--families", help="comma list of feature families, or all/default")
    common.add_argument("--max-prep-senses", type=int, dest="max_prep_senses")

    parser = argparse.ArgumentParser(prog="kbread",
                                     description="PP attachment and compound-noun "
                                                 "relation tools backed by a knowledge base")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common], help="train an attachment model")
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled")
    p.add_argument("--model-out", required=True)
    p.add_argument("--log-out")
    p.add_argument("--expand-synonyms", action="store_true",
                   help="copy labeled instances once per verb synonym")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--l2-penalty", type=float, dest="l2_penalty")
    p.add_argument("--max-em-iters", type=int, dest="max_em_iters")
    p.add_argument("--max-gradient-steps", type=int, dest="max_gradient_steps")
    p.add_argument("--convergence-tol", type=float, dest="convergence_tol")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="classify a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="score methods on labeled data")
    p.add_argument("--test", required=True)
    p.add_argument("--model")
    p.add_argument("--collins-train", dest="collins_train")
    p.add_argument("--out", required=True)
    p.add_argument("--tsv-out", dest="tsv_out")
    p.add_argument("--chart-out", dest="chart_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ternary-extract", parents=[common],
                       help="extract ternary instances from 5-tuples")
    p.add_argument("--model", required=True)
    p.add_argument("--tuples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", type=int, dest="min_support")
    p.set_defaults(func=cmd_ternary_extract)

    p = sub.add_parser("ternary-templates", parents=[common],
                       help="learn (and optionally apply) role templates")
    p.add_argument("--labeled-tuples", dest="labeled_tuples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tuples")
    p.add_argument("--model")
    p.add_argument("--labeled-out", dest="labeled_out", default="ternary_labeled.tsv")
    p.add_argument("--min-support", type=int, dest="min_support")
    p.set_defaults(func=cmd_ternary_templates)

    p = sub.add_parser("knom-mine", parents=[common], help="mine type sequences")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", type=int, dest="min_support")
    p.set_defaults(func=cmd_knom_mine)

    p = sub.add_parser("knom-learn", parents=[common],
                       help="learn sequence-to-relation mappings")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seq-min-support", type=int, dest="seq_min_support")
    p.add_argument("--min-support", type=int, dest="min_support")
    p.set_defaults(func=cmd_knom_learn)

    p = sub.add_parser("knom-predict", parents=[common],
                       help="predict relation instances from compounds")
    p.add_argument("--compounds", required=True)
    p.add_argument("--mappings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", action="store_true",
                   help="wildcard type elements before matching")
    p.add_argument("--sample-out", dest="sample_out")
    p.add_argument("--sample-size", type=int, dest="sample_size")
    p.set_defaults(func=cmd_knom_predict)

    p = sub.add_parser("kb-check", parents=[common], help="load and summarize a knowledge base")
    p.set_defaults(func=cmd_kb_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
