"""Command-line pipelines over the library: train, predict, eval,
ternary-extract, ternary-templates, knom-mine, knom-learn, knom-predict,
and kb-check.

Every subcommand accepts --kb-dir, --config and --dry-run. A tunable option
resolves as its flag, then its key in the --config file (flat key=value
lines), then, for the feature settings of a command that reads a model, the
model's stored value, then the library's own default; the command sets them in
the model it scores. A config key the subcommand does not take is an error.
The training and feature settings are the rows of ``model.MODEL_SETTINGS``.

:func:`main` runs every subcommand the same way, with the cyclic garbage
collector off. It resolves the options, checks every output path and
starts the subcommand, a generator that reads and validates every input,
then yields once the knowledge files it will query: those of the families
its model scores or its training extracts (``features.knowledge_files``)
and its own. ``main`` loads exactly those and sends the store in, or
exits 2 if the command yields any file and --kb-dir is not given;
--dry-run stops there. The subcommand then computes and writes in one
tsv.output_set, so its outputs and its stdout appear together once it
succeeds, or not at all. On one machine, outputs are byte-identical across
runs given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import sys
from dataclasses import replace

from .features import (FeatureConfig, expand_with_synonyms, extractor, knowledge_files,
                       read_corpus)
from .kb import KB_FILENAMES, KnowledgeBase, load_kb_dir
from .model import (MODEL_SETTINGS, AttachmentModel, TrainConfig, classify_instances,
                    load_model, save_model, scored_families, train_em)
from .tsv import FormatError, iter_rows, output_path, output_set, write_lines, write_rows

#: Settings read only by feature extraction.
_FEATURE_SETTINGS = tuple(key for cls, _, key, _, _ in MODEL_SETTINGS if cls is FeatureConfig)


class _Setting(argparse.Action):
    """A tunable option. A --config file may set it too, as ``dest=value``;
    left unset it stays None, so the library's own default applies.
    ``check(value)`` applies the library's own range checks."""

    def __init__(self, option_strings, dest, convert, check, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.convert = convert
        self.check = check

    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, self.parse(text))

    def parse(self, text):
        try:
            value = self.convert(text)
            self.check(value)
        except ValueError as exc:
            raise ValueError(f"{self.dest} {text!r}: {exc}") from None
        return value


class _Config(argparse.Action):
    """``--config FILE``: sets each of the subcommand's tunable options that
    is not given as a flag, before or after ``--config``."""

    def __call__(self, parser, namespace, path, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise ValueError(f"{option_string} may be given only once")
        if not path:
            raise ValueError(f"{option_string}: empty path")
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


def _library(name):
    """``kbread.<name>``, for an option check; each command imports its own modules inside."""
    return importlib.import_module(f"{__package__}.{name}")


def _given(args, *names, **renamed):
    """Keyword arguments for the settings given by flag or config. An unset
    one is left out, so the library's own default applies. ``renamed``
    maps a keyword to the setting that feeds it."""
    dests = {**{name: name for name in names}, **renamed}
    return {kw: getattr(args, dest) for kw, dest in dests.items()
            if getattr(args, dest, None) is not None}


def _config(args, stored):
    """``stored`` (a model's own settings, or the defaults) with each of its
    settings that is given replaced."""
    return replace(stored, **_given(args, **{name: key for cls, name, key, _, _ in MODEL_SETTINGS
                                             if cls is type(stored)}))


def _reject_unread(args, needed, *settings):
    """Reject the settings given that go unread because ``needed`` is absent."""
    unread = sorted(_given(args, *settings))
    if unread:
        raise ValueError(f"{', '.join(unread)}: read only with {needed}")


def _write_train_log(model: AttachmentModel, path) -> None:
    rows = [[record["phase"], *(f"{key}={value!r}" for key, value in record.items()
                                if key != "phase")] for record in model.history]
    rows.append(["final", f"labeled={model.n_labeled}", f"unlabeled={model.n_unlabeled}",
                 f"features={len(model.weights)}"])
    write_rows(path, rows, header=["#phase\tdetail"])


# -- subcommands: read inputs, yield the knowledge files, compute and write ---


def cmd_train(args):
    feature_cfg = _config(args, FeatureConfig())
    train_cfg = _config(args, TrainConfig())
    labeled = read_corpus(args.labeled, labeled=True)
    if not labeled:
        raise ValueError(f"{args.labeled}: training requires at least one labeled instance")
    unlabeled = [] if args.unlabeled is None else read_corpus(args.unlabeled)
    files = knowledge_files(feature_cfg.enabled_families)
    kb = yield files | {"synsets"} if args.expand_synonyms else files
    if args.expand_synonyms:
        labeled = expand_with_synonyms(labeled, kb)
    extract = extractor(kb, feature_cfg)
    labeled = [(extract(i), i.label) for i in labeled]
    unlabeled = [extract(i) for i in unlabeled]
    model = train_em(labeled, unlabeled, train_cfg)
    model.feature_config = feature_cfg
    save_model(model, args.model_out)
    _write_train_log(model, args.log_out)
    print(f"trained on {model.n_labeled} labeled + {model.n_unlabeled} unlabeled "
          f"instances; {len(model.weights)} features")


def cmd_predict(args):
    model = load_model(args.model)
    model.feature_config = _config(args, model.feature_config)
    instances = read_corpus(args.input)
    kb = yield knowledge_files(scored_families(model))
    decisions = classify_instances(model, kb, instances)
    write_rows(args.out, ([inst.n0 or "-", inst.v, inst.n1, inst.p, inst.n2, label, f"{p:.6f}"]
                          for inst, (label, p) in zip(instances, decisions)))
    print(f"wrote {len(decisions)} predictions to {args.out}")


def cmd_eval(args):
    from . import collins, evaluation
    gold = read_corpus(args.test, labeled=True)
    predictors, files = {}, set()
    if args.model is not None:
        model = load_model(args.model)
        model.feature_config = _config(args, model.feature_config)
        files = knowledge_files(scored_families(model))
        predictors["ppad"] = lambda gold: [d for d, _ in classify_instances(model, kb, gold)]
    else:
        _reject_unread(args, "--model", *_FEATURE_SETTINGS)
    if args.collins_train is not None:
        train = read_corpus(args.collins_train, labeled=True)
        if not train:
            raise ValueError(f"{args.collins_train}: fitting requires at least one "
                             "labeled instance")
        counts = collins.fit_counts(train)
        predictors["collins"] = lambda insts: [collins.predict(counts, inst)[0]
                                               for inst in insts]
    if not predictors:
        raise ValueError("eval needs --model and/or --collins-train")
    kb = yield files
    reports = evaluation.compare(predictors, gold)
    text = evaluation.format_reports(reports)
    write_lines(args.out, text.splitlines())
    if args.tsv_out is not None:
        evaluation.write_reports_tsv(reports, args.tsv_out)
    if args.chart_out is not None:
        evaluation.write_prep_chart(reports, args.chart_out)
    print(text, end="")


def cmd_ternary_extract(args):
    from . import ternary
    model = load_model(args.model)
    model.feature_config = _config(args, model.feature_config)
    tuples = ternary.read_tuples(args.tuples)
    kb = yield knowledge_files(scored_families(model)) | {"relations"}
    instances = ternary.extract_ternary(tuples, model, kb)
    maps = ternary.map_relations_to_verbs(kb, tuples, **_given(args, "min_support"))
    instances = ternary.annotate_relations(instances, maps)
    ternary.write_ternary(instances, args.out)
    print(f"extracted {len(instances)} ternary instances from {len(tuples)} tuples")


def cmd_ternary_templates(args):
    from . import ternary
    labeled = ternary.read_role_tuples(args.labeled_tuples)
    apply_inputs, files = None, {"isa"}
    if args.tuples is not None or args.model is not None:
        if args.tuples is None or args.model is None:
            raise ValueError("applying templates needs both --tuples and --model")
        model = load_model(args.model)
        model.feature_config = _config(args, model.feature_config)
        apply_inputs = ternary.read_tuples(args.tuples)
        files |= knowledge_files(scored_families(model))
    else:
        _reject_unread(args, "--tuples and --model", "labeled_out", *_FEATURE_SETTINGS)
    kb = yield files
    templates = ternary.learn_role_templates(labeled, kb, **_given(args, "min_support"))
    ternary.write_templates(templates, args.out)
    print(f"learned {len(templates)} role templates")
    if apply_inputs is not None:
        labeled_out = ternary.apply_role_templates(templates, apply_inputs, model, kb)
        ternary.write_ternary(labeled_out, args.labeled_out)
        print(f"labeled {len(labeled_out)} verb-attached tuples")


def cmd_knom_mine(args):
    from . import knom
    corpus = knom.read_compounds(args.compounds)
    kb = yield {"isa"}
    mined = knom.mine_sequences(corpus, kb, **_given(args, "min_support"))
    knom.write_sequences(mined, args.out)
    print(f"mined {len(mined)} sequences from {len(corpus)} compounds")


def cmd_knom_learn(args):
    from . import knom
    corpus = knom.read_compounds(args.compounds)
    kb = yield {"isa", "relations"}
    mined = knom.mine_sequences(corpus, kb, **_given(args, min_support="seq_min_support"))
    mappings = knom.learn_mappings(mined, kb, **_given(args, "min_support"))
    knom.write_mappings(mappings, args.out)
    print(f"learned {len(mappings)} mappings from {len(mined)} sequences")


def cmd_knom_predict(args):
    from . import knom
    corpus = knom.read_compounds(args.compounds)
    mappings = knom.read_mappings(args.mappings)
    if args.sample_out is None:
        _reject_unread(args, "--sample-out", "sample_size", "seed")
    kb = yield {"isa", "relations"}
    if args.baseline:
        mappings = knom.baseline_mappings(mappings)
    predictions = knom.predict_instances(mappings, corpus, kb)
    knom.write_predictions(predictions, args.out)
    print(f"predicted {len(predictions)} instances")
    if args.sample_out is not None:
        sample = knom.sample_predictions(predictions, **_given(args, "seed", size="sample_size"))
        knom.write_sample_manifest(sample, args.sample_out)
        print(f"wrote annotation sample of {len(sample)} to {args.sample_out}")


def cmd_kb_check(args):
    kb = yield set(KB_FILENAMES)
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
    setting_help = {"families": "comma list of feature families, or all/default"}

    def add_settings(p, owner, stored=False):
        """A flag for each setting of ``owner``, checked by ``owner``. Its help
        spells the default as a model file does; ``stored`` when the command
        reads a model, whose stored value comes before the default."""
        for cls, name, key, parse, spell in MODEL_SETTINGS:
            if cls is owner:
                default = f"default {spell(getattr(owner(), name))}"
                if stored:
                    default = f"the model's stored value, else the {default}"
                p.add_argument("--" + key.replace("_", "-"), action=_Setting, convert=parse,
                               check=lambda value, name=name: owner(**{name: value}),
                               help="; ".join(filter(None, (setting_help.get(key), default))))

    # train, predict and eval draw no random numbers; they take --seed so that
    # a script can pass one seed to every step of a pipeline.
    seeded = argparse.ArgumentParser(add_help=False, parents=[shared])
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
    add_settings(p, FeatureConfig)
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled")
    p.add_argument("--model-out", required=True)
    p.add_argument("--log-out")
    p.add_argument("--expand-synonyms", action="store_true",
                   help="copy labeled instances once per verb synonym")
    add_settings(p, TrainConfig)

    p = command("predict", cmd_predict, seeded, "classify a corpus")
    add_settings(p, FeatureConfig, stored=True)
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, seeded, "score methods on labeled data")
    add_settings(p, FeatureConfig, stored=True)
    p.add_argument("--test", required=True)
    p.add_argument("--model")
    p.add_argument("--collins-train")
    p.add_argument("--out", required=True)
    p.add_argument("--tsv-out")
    p.add_argument("--chart-out")

    p = command("ternary-extract", cmd_ternary_extract, shared,
                "extract ternary instances from 5-tuples")
    add_settings(p, FeatureConfig, stored=True)
    p.add_argument("--model", required=True)
    p.add_argument("--tuples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda n: _library("ternary").map_relations_to_verbs(None, [], n))

    p = command("ternary-templates", cmd_ternary_templates, shared,
                "learn (and optionally apply) role templates")
    add_settings(p, FeatureConfig, stored=True)
    p.add_argument("--labeled-tuples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tuples")
    p.add_argument("--model")
    p.add_argument("--labeled-out", help="default ternary_labeled.tsv")
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda n: _library("ternary").learn_role_templates([], None, n))

    p = command("knom-mine", cmd_knom_mine, shared, "mine type sequences")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda n: _library("knom").mine_sequences([], None, n))

    p = command("knom-learn", cmd_knom_learn, shared, "learn sequence-to-relation mappings")
    p.add_argument("--compounds", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seq-min-support", action=_Setting, convert=int,
                   check=lambda n: _library("knom").mine_sequences([], None, n))
    p.add_argument("--min-support", action=_Setting, convert=int,
                   check=lambda n: _library("knom").learn_mappings([], None, n))

    p = command("knom-predict", cmd_knom_predict, shared,
                "predict relation instances from compounds")
    p.add_argument("--compounds", required=True)
    p.add_argument("--mappings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", action="store_true",
                   help="wildcard type elements before matching")
    p.add_argument("--sample-out")
    p.add_argument("--sample-size", action=_Setting, convert=int,
                   check=lambda n: _library("knom").sample_predictions([], n))
    p.add_argument("--seed", type=int,
                   help="seed of the sample draw, read only with --sample-out; default 0")

    command("kb-check", cmd_kb_check, shared, "load and summarize a knowledge base")
    return parser


def main(argv=None) -> int:
    # A command makes no garbage cycle that grows with its input, so the
    # collector's scans would free nothing; the caller's state is restored.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        if empty := [k for k, v in vars(args).items() if v == ""]:  # every str option is a path
            raise ValueError(f"--{empty[0].replace('_', '-')}: empty path")
        # The outputs that no option names: the training log and the applied templates.
        if args.command == "train" and args.log_out is None:
            args.log_out = args.model_out + ".log"
        elif (args.command == "ternary-templates" and args.labeled_out is None
              and args.tuples is not None and args.model is not None):
            args.labeled_out = "ternary_labeled.tsv"
        for dest, path in vars(args).items():    # every output option ends in "out"
            if dest.endswith("out") and path is not None:
                output_path(path)
        steps = args.run(args)
        files = next(steps)              # every input read and validated
        if files and args.kb_dir is None:
            needed = (name for key, name in KB_FILENAMES.items() if key in files)
            raise ValueError(f"--kb-dir is needed to read {', '.join(needed)}")
        kb = KnowledgeBase() if args.kb_dir is None else load_kb_dir(args.kb_dir, files)
        if args.dry_run:
            print("dry run: inputs ok")
        else:
            with (output_set(), contextlib.redirect_stdout(io.StringIO()) as held,
                  contextlib.suppress(StopIteration)):
                steps.send(kb)           # compute and write
            sys.stdout.write(held.getvalue())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
