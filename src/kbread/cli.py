"""Command-line pipelines over the library: train, predict, eval,
ternary-extract, ternary-templates, knom-mine, knom-learn, knom-predict,
and kb-check.

Every subcommand accepts --kb-dir, --config and --dry-run. A
tunable option resolves as its flag, then its key in the --config file
(flat key=value lines), then, for the feature settings of a command that
reads a model, the model's stored value, then the library's own default.
A config key the subcommand does not take is an error.

:func:`main` runs every subcommand the same way. It resolves the options,
loads the knowledge base and starts the subcommand, a generator that reads
and validates every input and yields once before it computes and writes;
--dry-run stops at that point. Outputs are byte-identical across runs given
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import collins, evaluation, knom, ternary
from .features import (FeatureConfig, expand_with_synonyms, extract_features,
                       parse_families, read_corpus)
from .kb import load_kb, load_kb_dir
from .model import (AttachmentModel, TrainConfig, classify_many, load_model,
                    save_model, train_em)
from .tsv import FormatError, iter_rows, write_lines

#: Settings read only by feature extraction.
_FEATURE_SETTINGS = ("min_svo_count", "families", "max_prep_senses")


class _Setting(argparse.Action):
    """A tunable option. A --config file may set it too, as ``dest=value``;
    left unset it stays None, so the library's own default applies.
    ``check(dest=value)`` applies the library's own range checks."""

    def __init__(self, option_strings, dest, convert, check=None, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.convert = convert
        self.check = check

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, self.parse(text))

    def parse(self, text):
        try:
            value = self.convert(text)
            if self.check is not None:
                self.check(**{self.dest: value})
        except ValueError as exc:
            raise ValueError(f"{self.dest} {text!r}: {exc}") from None
        return value


class _Config(argparse.Action):
    """``--config FILE``: sets each of the subcommand's tunable options that
    is not given as a flag, before or after ``--config``."""

    def __call__(self, parser, namespace, path, option_string=None):
        setattr(namespace, self.dest, path)
        settings = {a.dest: a for a in parser._actions if isinstance(a, _Setting)}
        seen = set()
        for lineno, fields in iter_rows(path):
            key, eq, text = fields[0].partition("=")
            key = key.strip()
            if len(fields) != 1 or not eq:
                raise FormatError(path, lineno, "expected key=value")
            if key not in settings:
                raise FormatError(path, lineno, f"{parser.prog} has no setting {key!r}")
            if key in seen:
                raise FormatError(path, lineno, f"{key} is set twice")
            seen.add(key)
            try:
                value = settings[key].parse(text.strip())
            except ValueError as exc:
                raise FormatError(path, lineno, str(exc)) from None
            if getattr(namespace, key) is None:
                setattr(namespace, key, value)


def _given(args, *names, **renamed):
    """Keyword arguments for the settings given by flag or config. An unset
    one is left out, so the library's own default applies. ``renamed``
    maps a keyword to the setting that feeds it."""
    dests = {**{name: name for name in names}, **renamed}
    return {kw: getattr(args, dest) for kw, dest in dests.items()
            if getattr(args, dest, None) is not None}


def _load_kb(args):
    given = _given(args, "min_svo_count")
    if not args.kb_dir:
        return load_kb(**given)
    if not os.path.isdir(args.kb_dir):
        raise FileNotFoundError(f"knowledge directory not found: {args.kb_dir}")
    return load_kb_dir(args.kb_dir, **given)


def _feature_config(args, stored: FeatureConfig | None = None) -> FeatureConfig:
    """Each field from the settings given, else from ``stored`` (a model's
    own), else the library default."""
    given = _given(args, "max_prep_senses", enabled_families="families")
    return FeatureConfig(**{**(vars(stored) if stored else {}), **given})


def _reject_unread(args, needed, *settings):
    """Reject the settings given that go unread because ``needed`` is absent."""
    unread = sorted(_given(args, *settings))
    if unread:
        raise ValueError(f"{', '.join(unread)}: read only with {needed}")


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


# -- subcommands: read every input, yield, compute and write --------------------


def cmd_train(args, kb):
    feature_cfg = _feature_config(args)
    train_cfg = TrainConfig(**_given(args, *(f.name for f in fields(TrainConfig))))
    labeled_insts = _require_labeled(read_corpus(args.labeled), args.labeled)
    if args.expand_synonyms:
        labeled_insts = expand_with_synonyms(labeled_insts, kb)
    labeled = [(extract_features(i, kb, feature_cfg), i.label) for i in labeled_insts]
    unlabeled = []
    if args.unlabeled:
        unlabeled = [extract_features(i, kb, feature_cfg)
                     for i in read_corpus(args.unlabeled)]
    yield
    model = train_em(labeled, unlabeled, train_cfg)
    model.feature_config = feature_cfg
    save_model(model, args.model_out)
    _write_train_log(model, args.log_out or args.model_out + ".log")
    print(f"trained on {model.n_labeled} labeled + {model.n_unlabeled} unlabeled "
          f"instances; {len(model.weights)} features")


def cmd_predict(args, kb):
    model = load_model(args.model)
    feature_cfg = _feature_config(args, model.feature_config)
    instances = read_corpus(args.input)
    yield
    decisions = classify_many(model, (extract_features(inst, kb, feature_cfg)
                                      for inst in instances))
    lines = ["\t".join([inst.n0 or "-", inst.v, inst.n1, inst.p, inst.n2, label, f"{p:.6f}"])
             for inst, (label, p) in zip(instances, decisions)]
    write_lines(args.out, lines)
    print(f"wrote {len(lines)} predictions to {args.out}")


def cmd_eval(args, kb):
    gold = _require_labeled(read_corpus(args.test), args.test)
    predictors = {}
    if args.model:
        model = load_model(args.model)
        feature_cfg = _feature_config(args, model.feature_config)
        predictors["ppad"] = lambda insts: [label for label, _ in classify_many(
            model, (extract_features(inst, kb, feature_cfg) for inst in insts))]
    else:
        _reject_unread(args, "--model", *_FEATURE_SETTINGS)
    if args.collins_train:
        train = _require_labeled(read_corpus(args.collins_train), args.collins_train)
        counts = collins.fit_counts(train)
        predictors["collins"] = lambda insts: [collins.predict(counts, inst)[0]
                                               for inst in insts]
    if not predictors:
        raise ValueError("eval needs --model and/or --collins-train")
    yield
    reports = evaluation.compare(predictors, gold)
    text = evaluation.format_reports(reports)
    write_lines(args.out, text.splitlines())
    if args.tsv_out:
        evaluation.write_reports_tsv(reports, args.tsv_out)
    if args.chart_out:
        evaluation.write_prep_chart(reports, args.chart_out)
    print(text, end="")


def cmd_ternary_extract(args, kb):
    model = load_model(args.model)
    feature_cfg = _feature_config(args, model.feature_config)
    tuples = ternary.read_tuples(args.tuples)
    yield
    instances = ternary.extract_ternary(tuples, model, kb, feature_cfg)
    maps = ternary.map_relations_to_verbs(kb, tuples, **_given(args, "min_support"))
    instances = ternary.annotate_relations(instances, maps)
    ternary.write_ternary(instances, args.out)
    print(f"extracted {len(instances)} ternary instances from {len(tuples)} tuples")


def cmd_ternary_templates(args, kb):
    labeled = ternary.read_role_tuples(args.labeled_tuples)
    apply_inputs = None
    if args.tuples or args.model:
        if not (args.tuples and args.model):
            raise ValueError("applying templates needs both --tuples and --model")
        model = load_model(args.model)
        feature_cfg = _feature_config(args, model.feature_config)
        apply_inputs = ternary.read_tuples(args.tuples)
    else:
        _reject_unread(args, "--tuples and --model", "labeled_out", *_FEATURE_SETTINGS)
    yield
    templates = ternary.learn_role_templates(labeled, kb, **_given(args, "min_support"))
    ternary.write_templates(templates, args.out)
    print(f"learned {len(templates)} role templates")
    if apply_inputs is not None:
        labeled_out = ternary.apply_role_templates(templates, apply_inputs, model,
                                                   kb, feature_cfg)
        ternary.write_ternary(labeled_out, args.labeled_out or "ternary_labeled.tsv")
        print(f"labeled {len(labeled_out)} verb-attached tuples")


def cmd_knom_mine(args, kb):
    corpus = knom.read_compounds(args.compounds)
    yield
    mined = knom.mine_sequences(corpus, kb, **_given(args, "min_support"))
    knom.write_sequences(mined, args.out)
    print(f"mined {len(mined)} sequences from {len(corpus)} compounds")


def cmd_knom_learn(args, kb):
    corpus = knom.read_compounds(args.compounds)
    yield
    mined = knom.mine_sequences(corpus, kb, **_given(args, min_support="seq_min_support"))
    mappings = knom.learn_mappings(mined, kb, **_given(args, "min_support"))
    knom.write_mappings(mappings, args.out)
    print(f"learned {len(mappings)} mappings from {len(mined)} sequences")


def cmd_knom_predict(args, kb):
    corpus = knom.read_compounds(args.compounds)
    mappings = knom.read_mappings(args.mappings)
    if not args.sample_out:
        _reject_unread(args, "--sample-out", "sample_size")
    yield
    if args.baseline:
        mappings = knom.baseline_mappings(mappings)
    predictions = knom.predict_instances(mappings, corpus, kb)
    knom.write_predictions(predictions, args.out)
    print(f"predicted {len(predictions)} instances")
    if args.sample_out:
        sample = knom.sample_predictions(predictions, seed=args.seed,
                                         **_given(args, size="sample_size"))
        knom.write_sample_manifest(sample, args.sample_out)
        print(f"wrote annotation sample of {len(sample)} to {args.sample_out}")


def cmd_kb_check(args, kb):
    if not args.kb_dir:
        raise ValueError("kb-check needs --kb-dir")
    yield
    for key, value in kb.stats().items():
        print(f"{key}\t{value}")


# -- parser and runner ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--kb-dir", help="directory of knowledge files")
    shared.add_argument("--config", action=_Config,
                        help="flat key=value file setting this subcommand's tunable options")
    shared.add_argument("--dry-run", action="store_true",
                        help="read and validate every input, write nothing")
    features = argparse.ArgumentParser(add_help=False, parents=[shared])
    features.add_argument("--min-svo-count", action=_Setting, convert=int,
                          check=load_kb)
    features.add_argument("--families", action=_Setting, convert=parse_families,
                          check=lambda families: FeatureConfig(enabled_families=families),
                          help="comma list of feature families, or all/default")
    features.add_argument("--max-prep-senses", action=_Setting, convert=int,
                          check=FeatureConfig)
    # train, predict and eval draw no random numbers; they take --seed so that
    # a script can pass one seed to every step of a pipeline.
    seeded = argparse.ArgumentParser(add_help=False, parents=[features])
    seeded.add_argument("--seed", type=int, help="accepted and unused")

    parser = argparse.ArgumentParser(prog="kbread",
                                     description="PP attachment and compound-noun "
                                                 "relation tools backed by a knowledge base")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, parent, help):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(run=run)
        return p

    p = command("train", cmd_train, seeded, "train an attachment model")
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled")
    p.add_argument("--model-out", required=True)
    p.add_argument("--log-out")
    p.add_argument("--expand-synonyms", action="store_true",
                   help="copy labeled instances once per verb synonym")
    for f in fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), action=_Setting, convert=f.type,
                       check=TrainConfig)

    p = command("predict", cmd_predict, seeded, "classify a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, seeded, "score methods on labeled data")
    p.add_argument("--test", required=True)
    p.add_argument("--model")
    p.add_argument("--collins-train")
    p.add_argument("--out", required=True)
    p.add_argument("--tsv-out")
    p.add_argument("--chart-out")

    p = command("ternary-extract", cmd_ternary_extract, features,
                "extract ternary instances from 5-tuples")
    p.add_argument("--model", required=True)
    p.add_argument("--tuples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda min_support: ternary.map_relations_to_verbs(None, [], min_support))

    p = command("ternary-templates", cmd_ternary_templates, features,
                "learn (and optionally apply) role templates")
    p.add_argument("--labeled-tuples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tuples")
    p.add_argument("--model")
    p.add_argument("--labeled-out", help="default ternary_labeled.tsv")
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda min_support: ternary.learn_role_templates([], None, min_support))

    p = command("knom-mine", cmd_knom_mine, shared, "mine type sequences")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda min_support: knom.mine_sequences([], None, min_support))

    p = command("knom-learn", cmd_knom_learn, shared, "learn sequence-to-relation mappings")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seq-min-support", action=_Setting, convert=int,
                   check=lambda seq_min_support: knom.mine_sequences([], None, seq_min_support))
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda min_support: knom.learn_mappings([], None, min_support))

    p = command("knom-predict", cmd_knom_predict, shared,
                "predict relation instances from compounds")
    p.add_argument("--compounds", required=True)
    p.add_argument("--mappings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", action="store_true",
                   help="wildcard type elements before matching")
    p.add_argument("--sample-out")
    p.add_argument("--sample-size", action=_Setting, convert=int,
                   check=lambda sample_size: knom.sample_predictions([], sample_size))
    p.add_argument("--seed", type=int, default=0, help="seed of the sample draw")

    command("kb-check", cmd_kb_check, shared, "load and summarize a knowledge base")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        steps = args.run(args, _load_kb(args))
        next(steps)                      # every input read and validated
        if args.dry_run:
            print("dry run: inputs ok")
        else:
            next(steps, None)            # compute and write
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
