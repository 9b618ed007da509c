import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
from collections import defaultdict
from dataclasses import fields, replace

import pytest

import kbread

from kbread import cli, knom
from kbread.cli import _FEATURE_SETTINGS, _config, build_parser, main
from kbread.features import FeatureConfig, extract_features, read_corpus
from kbread.kb import KB_FILENAMES, load_kb_dir
from kbread.model import (MODEL_SETTINGS, TrainConfig, classify, load_model, save_model,
                          train_supervised)
from kbread.tsv import output_set, write_lines
import fixture_digests
import test_fixture_digests
from test_model import FEATURE_FIELDS, CountingKB


def run(*argv):
    return main(list(argv))


def input_paths(fixtures_dir, kb_dir):
    return {
        "kb": kb_dir,
        "labeled": f"{fixtures_dir}/quads_labeled.tsv",
        "unlabeled": f"{fixtures_dir}/quads_unlabeled.tsv",
        "test": f"{fixtures_dir}/quads_test.tsv",
        "tuples": f"{fixtures_dir}/tuples.tsv",
        "roles": f"{fixtures_dir}/tuples_roles.tsv",
        "compounds": f"{fixtures_dir}/compounds.tsv",
    }


@pytest.fixture
def paths(fixtures_dir, kb_dir):
    return input_paths(fixtures_dir, kb_dir)


def train_fixture_model(paths, tmp_path, *extra):
    model_path = str(tmp_path / "model.tsv")
    code = run("train", "--labeled", paths["labeled"], "--unlabeled",
               paths["unlabeled"], "--kb-dir", paths["kb"],
               "--model-out", model_path, *extra)
    assert code == 0
    return model_path


class TestTrain:
    def test_writes_model_and_log(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        assert os.path.exists(model_path)
        log = open(model_path + ".log", encoding="utf-8").read()
        em_lines = [l for l in log.splitlines() if l.startswith("em\t")]
        assert em_lines
        for line in em_lines:
            fields = dict(f.split("=", 1) for f in line.split("\t")[1:])
            assert float(fields["q_end"]) >= float(fields["q_start"]) - 1e-12

    def test_labeled_only_matches_library_training(self, paths, tmp_path, kb):
        model_path = str(tmp_path / "model.tsv")
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", model_path) == 0
        cli_model = load_model(model_path)
        cfg = FeatureConfig()
        data = [(extract_features(i, kb, cfg), i.label)
                for i in read_corpus(paths["labeled"])]
        lib_model = train_supervised(data, TrainConfig())
        for fv, _ in data:
            assert classify(cli_model, fv) == classify(lib_model, fv)

    def test_unlabeled_model_keeps_only_the_weights_that_score(self, paths, tmp_path, kb,
                                                                capsys):
        model_path = train_fixture_model(paths, tmp_path)
        reported = capsys.readouterr().out
        rows = [line.split("\t") for line in
                open(model_path, encoding="utf-8").read().splitlines() if line[0] != "#"]
        assert rows and all(float(weight) != 0.0 for _, weight in rows)
        log = open(model_path + ".log", encoding="utf-8").read().splitlines()
        assert log[-1].endswith(f"\tfeatures={len(rows)}")
        assert reported.endswith(f"; {len(rows)} features\n")
        # A name without a row scores as a 0.0 row would: predict again with
        # the features only the unlabeled data holds written back at 0.0.
        labeled, unlabeled = ({name for i in read_corpus(paths[corpus])
                               for name in extract_features(i, kb, FeatureConfig())}
                              for corpus in ("labeled", "unlabeled"))
        padded = load_model(model_path)
        assert unlabeled - labeled and not (unlabeled - labeled) & padded.weights.keys()
        padded.weights.update(dict.fromkeys(unlabeled - labeled, 0.0))
        save_model(padded, tmp_path / "padded.tsv")
        predictions = []
        for model in (model_path, tmp_path / "padded.tsv"):
            out = tmp_path / "predictions.tsv"
            assert run("predict", "--model", str(model), "--input", paths["unlabeled"],
                       "--kb-dir", paths["kb"], "--out", str(out)) == 0
            predictions.append(out.read_bytes())
        assert predictions[0] == predictions[1]

    def test_missing_labeled_file_exits_2(self, paths, tmp_path):
        code = run("train", "--labeled", str(tmp_path / "nope.tsv"),
                   "--model-out", str(tmp_path / "m.tsv"))
        assert code == 2

    def test_unknown_flag_rejected(self, paths, tmp_path):
        with pytest.raises(SystemExit):
            run("train", "--labeled", paths["labeled"],
                "--model-out", str(tmp_path / "m.tsv"), "--bogus-flag")

    def test_dry_run_writes_nothing(self, paths, tmp_path):
        model_path = str(tmp_path / "model.tsv")
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", model_path, "--dry-run") == 0
        assert not os.path.exists(model_path)

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_a_labeled_file_without_rows_exits_2_naming_it(self, paths, tmp_path, capsys,
                                                            dry_run):
        labeled = tmp_path / "labeled.tsv"
        labeled.write_text("format=quad\n", encoding="utf-8")
        assert run("train", "--labeled", str(labeled), "--kb-dir", paths["kb"],
                   "--model-out", str(tmp_path / "m.tsv"),
                   *(["--dry-run"] if dry_run else [])) == 2
        assert capsys.readouterr() == (
            "", f"error: {labeled}: training requires at least one labeled instance\n")
        assert [p.name for p in tmp_path.iterdir()] == ["labeled.tsv"]

    # Without F5, --expand-synonyms is what reads synsets.tsv.
    @pytest.mark.parametrize("families", [[], ["--families", "F12"]], ids=["default", "F12"])
    def test_synonym_expansion_grows_training_data(self, paths, tmp_path, families):
        model_path = train_fixture_model(paths, tmp_path, "--expand-synonyms", *families)
        model = load_model(model_path)
        # Four "caught" quads each gain a "captured" copy.
        assert model.n_labeled == 24


class TestDryRunEverywhere:
    def test_no_subcommand_output_under_dry_run(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        out = str(tmp_path / "never-written.tsv")
        commands = [
            ("predict", "--model", model_path, "--input", paths["test"],
             "--kb-dir", paths["kb"], "--out", out),
            ("eval", "--test", paths["test"], "--collins-train", paths["labeled"],
             "--kb-dir", paths["kb"], "--out", out),
            ("ternary-extract", "--model", model_path, "--tuples", paths["tuples"],
             "--kb-dir", paths["kb"], "--out", out),
            ("ternary-templates", "--labeled-tuples", paths["roles"],
             "--kb-dir", paths["kb"], "--out", out),
            ("knom-mine", "--compounds", paths["compounds"], "--kb-dir", paths["kb"],
             "--out", out),
            ("knom-learn", "--compounds", paths["compounds"], "--kb-dir", paths["kb"],
             "--out", out),
        ]
        for argv in commands:
            assert run(*argv, "--dry-run") == 0, argv
            assert not os.path.exists(out), argv


class TestPredict:
    def test_prediction_rows(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        corpus = tmp_path / "tuples_corpus.tsv"
        corpus.write_text("format=tuple\n" + open(paths["tuples"], encoding="utf-8").read(),
                          encoding="utf-8")
        out = str(tmp_path / "pred.tsv")
        assert run("predict", "--model", model_path, "--input", str(corpus),
                   "--kb-dir", paths["kb"], "--out", out) == 0
        rows = [l.split("\t") for l in open(out, encoding="utf-8").read().splitlines()]
        assert len(rows) == 5
        assert all(len(r) == 7 and r[5] in ("V", "N") for r in rows)
        by_verb = {r[1]: r[5] for r in rows}
        assert by_verb["acquired"] == "V"
        assert by_verb["expect"] == "N"

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_exits_2(self, paths, tmp_path, capsys, weight):
        model_path = train_fixture_model(paths, tmp_path)
        with open(model_path, "a", encoding="utf-8") as fh:
            fh.write(f"F15:(with)\t{weight}\n")
        lineno = open(model_path, encoding="utf-8").read().count("\n")
        out = str(tmp_path / "pred.tsv")
        assert run("predict", "--model", model_path, "--input", paths["test"],
                   "--kb-dir", paths["kb"], "--out", out) == 2
        assert f"{model_path}:{lineno}:" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [("#l2_penalty", "5.0"), ("F15:(with)", "99.0")])
    def test_repeated_model_line_exits_2(self, paths, tmp_path, capsys, key, value):
        model_path = train_fixture_model(paths, tmp_path)
        assert f"\n{key}\t" in open(model_path, encoding="utf-8").read()
        with open(model_path, "a", encoding="utf-8") as fh:
            fh.write(f"{key}\t{value}\n")
        lineno = open(model_path, encoding="utf-8").read().count("\n")
        out = str(tmp_path / "pred.tsv")
        assert run("predict", "--model", model_path, "--input", paths["test"],
                   "--kb-dir", paths["kb"], "--out", out) == 2
        assert f"{model_path}:{lineno}: repeated" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_reruns_are_byte_identical(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        out1, out2 = str(tmp_path / "p1.tsv"), str(tmp_path / "p2.tsv")
        for out in (out1, out2):
            assert run("predict", "--model", model_path, "--input", paths["test"],
                       "--kb-dir", paths["kb"], "--out", out) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestEval:
    def test_comparison_table(self, paths, tmp_path, capsys):
        model_path = train_fixture_model(paths, tmp_path)
        out = str(tmp_path / "report.txt")
        tsv = str(tmp_path / "report.tsv")
        chart = str(tmp_path / "chart.tsv")
        assert run("eval", "--test", paths["test"], "--model", model_path,
                   "--collins-train", paths["labeled"], "--kb-dir", paths["kb"],
                   "--out", out, "--tsv-out", tsv, "--chart-out", chart) == 0
        text = open(out, encoding="utf-8").read()
        assert "== ppad ==" in text and "== collins ==" in text
        tsv_rows = open(tsv, encoding="utf-8").read()
        assert "ppad\toverall\t10\t" in tsv_rows
        assert "collins\texcl_of\t7\t" in tsv_rows
        assert os.path.exists(chart)

    def test_requires_some_method(self, paths, tmp_path):
        assert run("eval", "--test", paths["test"],
                   "--out", str(tmp_path / "r.txt")) == 2

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_a_collins_file_without_rows_exits_2_naming_it(self, paths, tmp_path, capsys,
                                                           dry_run):
        collins_train = tmp_path / "collins.tsv"
        collins_train.write_text("format=quad\n", encoding="utf-8")
        assert run("eval", "--test", paths["test"], "--collins-train", str(collins_train),
                   "--out", str(tmp_path / "r.txt"), *(["--dry-run"] if dry_run else [])) == 2
        assert capsys.readouterr() == (
            "", f"error: {collins_train}: fitting requires at least one labeled instance\n")
        assert [p.name for p in tmp_path.iterdir()] == ["collins.tsv"]

    def test_empty_test_file_reports_dashes(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        empty = tmp_path / "empty.tsv"
        empty.write_text("# no data rows\n", encoding="utf-8")
        out = str(tmp_path / "report.txt")
        assert run("eval", "--test", str(empty), "--model", model_path,
                   "--collins-train", paths["labeled"], "--kb-dir", paths["kb"],
                   "--out", out) == 0
        overall = [l.split() for l in open(out, encoding="utf-8") if l.startswith("overall")]
        assert overall == [["overall", "0", "0", "-"]] * 2


class TestTernaryCommands:
    def test_extract_gates_and_annotates(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        out = str(tmp_path / "ternary.tsv")
        assert run("ternary-extract", "--model", model_path, "--tuples",
                   paths["tuples"], "--kb-dir", paths["kb"], "--out", out,
                   "--min-support", "1") == 0
        rows = [l.split("\t") for l in open(out, encoding="utf-8").read().splitlines()]
        assert ["bny mellon", "acquired", "insight", "from", "lloyds",
                "acquired", "-"] in rows
        assert all(r[1] != "expect" for r in rows)

    def test_templates_learn_and_apply(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path)
        out = str(tmp_path / "templates.tsv")
        labeled_out = str(tmp_path / "labeled.tsv")
        assert run("ternary-templates", "--labeled-tuples", paths["roles"],
                   "--kb-dir", paths["kb"], "--out", out, "--min-support", "3",
                   "--tuples", paths["tuples"], "--model", model_path,
                   "--labeled-out", labeled_out) == 0
        text = open(out, encoding="utf-8").read()
        assert text == "np_v_np_pp.beneficiary\tbuy\tjewelry\tfor\tperson\t3\n"
        assert os.path.exists(labeled_out)
        # Learning alone, with no model's families to name it, still reads isa.tsv.
        alone = str(tmp_path / "alone.tsv")
        assert run("ternary-templates", "--labeled-tuples", paths["roles"],
                   "--kb-dir", paths["kb"], "--out", alone, "--min-support", "3") == 0
        assert open(alone, encoding="utf-8").read() == text


class TestKnomCommands:
    def test_learn_then_predict(self, paths, tmp_path):
        mappings = str(tmp_path / "mappings.tsv")
        assert run("knom-learn", "--compounds", paths["compounds"], "--kb-dir",
                   paths["kb"], "--seq-min-support", "3", "--min-support", "3",
                   "--out", mappings) == 0
        text = open(mappings, encoding="utf-8").read()
        assert "citizenofcountry\t3\t1\ttype:country type:profession type:person\t3" in text
        assert "personhasjobposition\t3\t2\t" in text

        preds = str(tmp_path / "preds.tsv")
        sample = str(tmp_path / "sample.tsv")
        assert run("knom-predict", "--compounds", paths["compounds"], "--mappings",
                   mappings, "--kb-dir", paths["kb"], "--out", preds,
                   "--sample-out", sample, "--seed", "7") == 0
        pred_text = open(preds, encoding="utf-8").read()
        assert "citizenofcountry\tsoichi noguchi\tjapanese\tc1\tknown" in pred_text
        assert open(sample, encoding="utf-8").read().count("\n") == 7  # header + 6 rows

    def test_baseline_flag_discards_all_type_mappings(self, paths, tmp_path):
        mappings = str(tmp_path / "mappings.tsv")
        run("knom-learn", "--compounds", paths["compounds"], "--kb-dir", paths["kb"],
            "--seq-min-support", "3", "--min-support", "3", "--out", mappings)
        preds = str(tmp_path / "preds.tsv")
        assert run("knom-predict", "--compounds", paths["compounds"], "--mappings",
                   mappings, "--kb-dir", paths["kb"], "--out", preds,
                   "--baseline") == 0
        assert open(preds, encoding="utf-8").read() == ""

    def test_mine_writes_sequences(self, paths, tmp_path):
        out = str(tmp_path / "seqs.tsv")
        assert run("knom-mine", "--compounds", paths["compounds"], "--kb-dir",
                   paths["kb"], "--min-support", "3", "--out", out) == 0
        text = open(out, encoding="utf-8").read()
        assert "type:country type:profession type:person\t3\tc1,c2,c3" in text

    def test_learn_recovers_planted_corpus(self, tmp_path):
        from synth import PLANTED, write_planted
        from kbread.knom import read_mappings
        kb_dir, compounds = write_planted(str(tmp_path))
        out = str(tmp_path / "mappings.tsv")
        assert run("knom-learn", "--compounds", compounds, "--kb-dir", kb_dir,
                   "--out", out) == 0
        learned = read_mappings(out)
        assert {(m.relation, m.arg1_pos, m.arg2_pos, m.sequence.elements)
                for m in learned} == set(PLANTED)

    def test_multi_word_lex_token_survives_its_mappings_file(self, tmp_path):
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        (kb_dir / "isa.tsv").write_text("japanese\tnationality\n", encoding="utf-8")
        (kb_dir / "relations.tsv").write_text("citizenof\tastro one\tjapanese\n",
                                              encoding="utf-8")
        compounds = tmp_path / "compounds.tsv"
        compounds.write_text("c1\tjapanese\tAstro  One\n", encoding="utf-8")
        mappings, preds = str(tmp_path / "map.tsv"), str(tmp_path / "preds.tsv")
        assert run("knom-learn", "--compounds", str(compounds), "--kb-dir", str(kb_dir),
                   "--min-support", "1", "--seq-min-support", "1", "--out", mappings) == 0
        assert open(mappings, encoding="utf-8").read() == (
            "citizenof\t2\t1\ttype:nationality lex:astro one\t1\n")
        assert run("knom-predict", "--compounds", str(compounds), "--mappings", mappings,
                   "--kb-dir", str(kb_dir), "--out", preds) == 0
        assert open(preds, encoding="utf-8").read() == (
            "citizenof\tastro one\tjapanese\tc1\tknown\n")

    def test_category_holding_an_element_break_exits_2(self, tmp_path, capsys):
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        (kb_dir / "isa.tsv").write_text("japanese\tnationality\nastro\tfoo lex:bar\n",
                                        encoding="utf-8")
        (kb_dir / "relations.tsv").write_text("citizenof\tastro\tjapanese\n",
                                              encoding="utf-8")
        compounds = tmp_path / "compounds.tsv"
        compounds.write_text("c1\tjapanese\tastro\n", encoding="utf-8")
        mappings = tmp_path / "map.tsv"
        assert run("knom-learn", "--compounds", str(compounds), "--kb-dir", str(kb_dir),
                   "--min-support", "1", "--seq-min-support", "1",
                   "--out", str(mappings)) == 2
        assert "'foo lex:bar' holds a sequence element break" in capsys.readouterr().err
        assert not mappings.exists()

    @pytest.mark.parametrize("row,message", [
        ("\t2\t1\ttype:nationality lex:astro\t1", "empty field"),
        ("citizenof\t2\t3\ttype:nationality lex:astro\t1", "argument positions out of range"),
        ("citizenof\t2\t1\ttype:nationality lex:astro\t-7", "support must be >= 1"),
    ], ids=["empty-relation", "position-out-of-range", "support-below-one"])
    def test_bad_mapping_row_exits_2_at_its_line(self, paths, tmp_path, capsys, row, message):
        mappings = tmp_path / "map.tsv"
        mappings.write_text(row + "\n", encoding="utf-8")
        preds = tmp_path / "preds.tsv"
        assert run("knom-predict", "--compounds", paths["compounds"], "--mappings",
                   str(mappings), "--kb-dir", paths["kb"], "--out", str(preds)) == 2
        assert f"{mappings}:1: {message}" in capsys.readouterr().err
        assert not preds.exists()


class TestKbCheck:
    def test_stats_printed(self, paths, capsys):
        assert run("kb-check", "--kb-dir", paths["kb"]) == 0
        assert capsys.readouterr().out == ("svo_triples\t3\ntyped_nouns\t30\nrole_entries\t2\n"
                                           "prepositions\t3\nsynonym_groups\t2\nrelations\t6\n"
                                           "relation_instances\t10\n")

    def test_missing_dir_exits_2(self, tmp_path):
        assert run("kb-check", "--kb-dir", str(tmp_path / "missing")) == 2

    @pytest.mark.parametrize("name", ["kb-check", "knom-mine"])
    def test_regular_file_exits_2_as_not_a_directory(self, paths, tmp_path, capsys, name):
        argv = fixture_command(name, paths, ("model.tsv", "mappings.tsv"), tmp_path)
        assert run(*argv, "--kb-dir", paths["labeled"]) == 2
        assert capsys.readouterr().err == f"error: {paths['labeled']}: not a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_dry_run_loads_without_printing_stats(self, paths, capsys):
        assert run("kb-check", "--kb-dir", paths["kb"], "--dry-run") == 0
        assert capsys.readouterr().out == "dry run: inputs ok\n"


#: Runs each argv of the JSON list in ``sys.argv[1]`` through ``cli.main`` and
#: prints, per run, the command, its exit code and the modules loaded so far
#: that are named in the JSON list in ``sys.argv[2]`` or lie in a package it
#: names.
LOADED_MODULES_SCRIPT = """
import contextlib, io, json, sys
from kbread.cli import main
watched = json.loads(sys.argv[2])
results = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded = sorted(m for m in sys.modules if m in watched or m.partition(".")[0] in watched)
    results.append([argv[0], code, loaded])
print(json.dumps(results))
"""


def loaded_modules(argvs, watched=("numpy", "scipy")):
    """Runs ``LOADED_MODULES_SCRIPT`` over ``argvs`` in a child process: this
    test session has imported numpy and every kbread module already."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kbread.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES_SCRIPT, json.dumps(argvs),
                           json.dumps(watched)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def knom_outputs(compounds, kb_dir, out_dir):
    """Bytes written by knom-mine, knom-learn and knom-predict (typed and
    --baseline) on one knowledge directory."""
    out = {name: os.path.join(out_dir, name + ".tsv")
           for name in ("sequences", "mappings", "typed", "baseline")}
    common = ("--compounds", compounds, "--kb-dir", kb_dir)
    assert run("knom-mine", *common, "--min-support", "3", "--out", out["sequences"]) == 0
    assert run("knom-learn", *common, "--seq-min-support", "3", "--min-support", "3",
               "--out", out["mappings"]) == 0
    for name, extra in (("typed", ()), ("baseline", ("--baseline",))):
        assert run("knom-predict", *common, "--mappings", out["mappings"],
                   "--out", out[name], *extra) == 0
    return {name: open(path, "rb").read() for name, path in out.items()}


#: A row of the wrong width for each knowledge file a test breaks.
BAD_ROWS = {"relations.tsv": "worksfor\tshubert\n", "svo.tsv": "sam\tate\tcake\n",
            "prepdefs.tsv": "with\n"}


def broken_kb(paths, tmp_path, name="relations.tsv"):
    """A copy of the fixture KB whose file ``name`` ends in a row of the
    wrong width, and the number of that line."""
    kb_dir = tmp_path / "kb"
    shutil.copytree(paths["kb"], kb_dir)
    broken = kb_dir / name
    lineno = len(broken.read_text(encoding="utf-8").splitlines()) + 1
    with open(broken, "a", encoding="utf-8") as fh:
        fh.write(BAD_ROWS[name])
    return str(kb_dir), lineno


class TestKbFilesPerCommand:
    """A command reads only the knowledge files it will query, after it has
    read and validated its other inputs: those of the families its model
    weights, or that training extracts (``features.knowledge_files``), and
    its own. knom-mine reads only isa.tsv, knom-learn and knom-predict
    isa.tsv and relations.tsv, ternary-extract adds relations.tsv,
    ternary-templates isa.tsv, ``train --expand-synonyms`` synsets.tsv, and
    kb-check reads every file. Only ``train`` loads numpy, no command loads
    scipy, and only the commands that use knom, ternary, collins or
    evaluation import them."""

    @pytest.mark.parametrize("name", ["train", "predict", "eval", "ternary-templates",
                                      "knom-mine"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize("bad_file", ["relations.tsv", "prepdefs.tsv"])
    def test_commands_that_skip_relations_ignore_a_malformed_file(
            self, paths, trained, tmp_path, capsys, name, dry_run, bad_file):
        # A model that weights F6 queries prepdefs.tsv, so that case drops
        # the F6 weights; the relations.tsv cases keep the F6-weighted model.
        model_path = trained[0]
        if bad_file == "prepdefs.tsv":
            model = load_model(trained[0])
            model_path = str(tmp_path / "no-f6.tsv")
            save_model(replace(model, weights={f: w for f, w in model.weights.items()
                                               if not f.startswith("F6:")}), model_path)

        def outputs_and_stdout(kb_dir, tag):
            out_dir = tmp_path / tag
            out_dir.mkdir()
            capsys.readouterr()
            assert run(*fixture_command(name, dict(paths, kb=kb_dir), (model_path, trained[1]),
                                        out_dir), *dry_run) == 0
            stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
            return stdout, {p.name: p.read_bytes() for p in out_dir.iterdir()}

        broken, _ = broken_kb(paths, tmp_path, bad_file)
        assert outputs_and_stdout(broken, "broken") == outputs_and_stdout(paths["kb"], "intact")

    @pytest.mark.parametrize("name", ["ternary-extract", "knom-learn", "kb-check"])
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_commands_that_read_relations_fail_on_a_malformed_file(
            self, paths, trained, tmp_path, capsys, name, dry_run):
        broken, lineno = broken_kb(paths, tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        capsys.readouterr()
        assert run(*fixture_command(name, dict(paths, kb=broken), trained, out_dir),
                   *dry_run) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {os.path.join(broken, 'relations.tsv')}:{lineno}: expected 3 columns")
        assert list(out_dir.iterdir()) == []

    def test_each_fixture_command_needs_only_the_files_it_loads(self, fixtures_dir, tmp_path,
                                                                monkeypatch):
        # Each command of the pinned listing loads these files, --dry-run too,
        # and writes its pinned bytes on a directory that holds only them.
        pp = {"svo", "isa", "roles", "synsets"}         # the default families' files
        expected = {"train": pp, "train-unlabeled": pp, "train-all-families": pp | {"prepdefs"},
                    "train-two-steps": pp, "train-dry-run": pp, "predict": pp,
                    "predict-all-families": pp, "eval": pp, "eval-collins": set(),
                    "ternary-extract": pp | {"prepdefs", "relations"},
                    "ternary-extract-default-model": pp | {"relations"},
                    "ternary-templates": pp, "knom-mine": {"isa"},
                    "knom-learn": {"isa", "relations"}, "knom-predict": {"isa", "relations"},
                    "knom-predict-baseline": {"isa", "relations"},
                    "kb-check": set(KB_FILENAMES)}
        loads = []

        def spy(directory, resources):
            loads.append(set(resources))
            return load_kb_dir(directory, resources)
        monkeypatch.setattr(cli, "load_kb_dir", spy)
        full = tmp_path / "full"
        shutil.copytree(fixtures_dir, full / "fixtures")
        monkeypatch.chdir(full)
        fixture_digests.digests(str(full))
        names = [name for name, _ in fixture_digests.COMMANDS]
        assert dict(zip(names, loads, strict=True)) == expected
        for name, argv in fixture_digests.COMMANDS:
            loads.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--dry-run"]) == 0
            assert loads == [expected[name]], name

        part = tmp_path / "part"
        shutil.copytree(fixtures_dir, part / "fixtures")
        commands = []
        for name, argv in fixture_digests.COMMANDS:
            (part / name).mkdir()
            for key in expected[name]:
                shutil.copy(full / "fixtures" / "kb" / KB_FILENAMES[key], part / name)
            commands.append((name, tuple(name if arg == "fixtures/kb" else arg for arg in argv)))
        monkeypatch.setattr(fixture_digests, "COMMANDS", tuple(commands))
        monkeypatch.chdir(part)
        with open(test_fixture_digests.PINNED, encoding="utf-8") as fh:
            _, *pinned = fh.read().splitlines()
        assert fixture_digests.digests(str(part)) == test_fixture_digests.digests(pinned)

    def test_predict_reads_svo_only_for_a_weight_that_queries_it(self, paths, trained,
                                                                  tmp_path, capsys):
        model = load_model(trained[0])
        assert any(name.startswith("F1:") for name in model.weights)
        no_svo = str(tmp_path / "no-svo.tsv")
        save_model(replace(model, weights={f: w for f, w in model.weights.items()
                                           if f.split(":")[0] not in ("F1", "F2", "F6")}),
                   no_svo)
        broken, lineno = broken_kb(paths, tmp_path, "svo.tsv")

        def predict(model_path, kb_dir, out_dir):
            out_dir.mkdir()
            code = run("predict", "--model", model_path, "--input", paths["test"],
                       "--kb-dir", kb_dir, "--out", str(out_dir / "p.tsv"))
            return code, {p.name: p.read_bytes() for p in out_dir.iterdir()}

        intact = predict(no_svo, paths["kb"], tmp_path / "intact")
        assert intact[0] == 0 and intact[1]
        assert predict(no_svo, broken, tmp_path / "broken") == intact
        capsys.readouterr()
        assert predict(trained[0], broken, tmp_path / "weighted") == (2, {})
        assert capsys.readouterr().err.startswith(
            f"error: {os.path.join(broken, 'svo.tsv')}:{lineno}: ")

    def test_a_malformed_input_is_reported_before_a_missing_kb_dir(self, paths, trained,
                                                                   tmp_path, capsys):
        bad = tmp_path / "input.tsv"
        bad.write_text("caught\tbutterfly\twith\n", encoding="utf-8")
        assert run("predict", "--model", trained[0], "--input", str(bad),
                   "--kb-dir", str(tmp_path / "missing"), "--out", str(tmp_path / "p.tsv")) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: ")

    def test_knom_outputs_need_only_isa_and_relations(self, paths, tmp_path):
        (tmp_path / "full").mkdir()
        (tmp_path / "part").mkdir()
        full = knom_outputs(paths["compounds"], paths["kb"], str(tmp_path / "full"))
        part_kb = tmp_path / "kb"
        part_kb.mkdir()
        for name in ("isa.tsv", "relations.tsv"):
            shutil.copy(os.path.join(paths["kb"], name), part_kb / name)
        assert knom_outputs(paths["compounds"], str(part_kb), str(tmp_path / "part")) == full
        assert full["sequences"] and full["mappings"] and full["typed"]

    def test_malformed_file_fails_only_the_commands_that_read_it(self, paths, tmp_path,
                                                                 capsys):
        def learn(kb_dir, out):
            assert run("knom-learn", "--compounds", paths["compounds"], "--kb-dir", kb_dir,
                       "--seq-min-support", "3", "--min-support", "3", "--out", out) == 0
            return open(out, "rb").read()

        expected = learn(paths["kb"], str(tmp_path / "expected.tsv"))
        kb_dir, lineno = broken_kb(paths, tmp_path, "svo.tsv")
        assert learn(kb_dir, str(tmp_path / "mappings.tsv")) == expected
        capsys.readouterr()
        assert run("kb-check", "--kb-dir", kb_dir) == 2
        assert f"svo.tsv:{lineno}:" in capsys.readouterr().err
        model_path = tmp_path / "model.tsv"
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", kb_dir,
                   "--model-out", str(model_path)) == 2
        assert f"svo.tsv:{lineno}:" in capsys.readouterr().err
        assert not model_path.exists()

    @staticmethod
    def evaluate(paths, kb_dir, out_dir, *model):
        """eval's exit code and outputs, with the back-off and ``model``."""
        out_dir.mkdir()
        code = run("eval", "--kb-dir", kb_dir, "--test", paths["test"], *model,
                   "--collins-train", paths["labeled"], "--out", str(out_dir / "r.txt"),
                   "--tsv-out", str(out_dir / "r.tsv"), "--chart-out", str(out_dir / "c.tsv"))
        return code, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    def test_back_off_only_eval_reads_no_knowledge_file(self, paths, tmp_path):
        broken, _ = broken_kb(paths, tmp_path, "svo.tsv")
        intact = self.evaluate(paths, paths["kb"], tmp_path / "intact")
        assert intact[0] == 0 and len(intact[1]) == 3
        assert self.evaluate(paths, broken, tmp_path / "broken") == intact

    def test_eval_with_a_model_fails_on_a_malformed_file(self, paths, tmp_path, capsys):
        model = train_fixture_model(paths, tmp_path)
        broken, lineno = broken_kb(paths, tmp_path, "svo.tsv")
        capsys.readouterr()
        assert self.evaluate(paths, broken, tmp_path / "out", "--model", model) == (2, {})
        assert capsys.readouterr().err.startswith(
            f"error: {os.path.join(broken, 'svo.tsv')}:{lineno}: ")

    def test_knom_and_kb_check_leave_numpy_and_scipy_unloaded(self, paths, tmp_path):
        mappings = str(tmp_path / "mappings.tsv")
        common = ["--compounds", paths["compounds"], "--kb-dir", paths["kb"]]
        argvs = [
            ["kb-check", "--kb-dir", paths["kb"]],
            ["knom-mine", *common, "--min-support", "3", "--out", str(tmp_path / "s.tsv")],
            ["knom-learn", *common, "--seq-min-support", "3", "--min-support", "3",
             "--out", mappings],
            ["knom-predict", *common, "--mappings", mappings, "--out", str(tmp_path / "p.tsv")],
        ]
        assert loaded_modules(argvs) == [[argv[0], 0, []] for argv in argvs]

    def test_only_train_loads_numpy_and_no_command_loads_scipy(self, paths, tmp_path):
        model = train_fixture_model(paths, tmp_path)
        out = {name: str(tmp_path / name) for name in ("p", "r", "rt", "c", "t", "tp", "tl")}
        argvs = [
            ["predict", "--kb-dir", paths["kb"], "--model", model, "--input", paths["test"],
             "--out", out["p"]],
            ["eval", "--kb-dir", paths["kb"], "--test", paths["test"], "--model", model,
             "--collins-train", paths["labeled"], "--out", out["r"], "--tsv-out", out["rt"],
             "--chart-out", out["c"]],
            ["ternary-extract", "--kb-dir", paths["kb"], "--families", "all", "--model", model,
             "--tuples", paths["tuples"], "--out", out["t"]],
            ["ternary-templates", "--kb-dir", paths["kb"], "--labeled-tuples", paths["roles"],
             "--out", out["tp"], "--tuples", paths["tuples"], "--model", model,
             "--labeled-out", out["tl"]],
        ]
        assert loaded_modules(argvs) == [[argv[0], 0, []] for argv in argvs]
        # The same check sees numpy once a command does train, and no scipy module.
        [[_, code, heavy]] = loaded_modules([["train", "--kb-dir", paths["kb"], "--labeled",
                                              paths["labeled"], "--model-out", model]])
        assert code == 0
        assert "numpy" in heavy and [m for m in heavy if m.partition(".")[0] == "scipy"] == []

    def test_each_command_imports_only_its_own_modules(self, paths, trained, tmp_path):
        model, mappings = trained
        own = ["kbread.collins", "kbread.evaluation", "kbread.knom", "kbread.ternary"]
        argvs = [
            ["kb-check", "--kb-dir", paths["kb"]],
            ["predict", "--kb-dir", paths["kb"], "--model", model, "--input", paths["test"],
             "--out", str(tmp_path / "p.tsv")],
            ["knom-predict", "--kb-dir", paths["kb"], "--compounds", paths["compounds"],
             "--mappings", mappings, "--out", str(tmp_path / "k.tsv")],
        ]
        assert loaded_modules(argvs, own) == [["kb-check", 0, []], ["predict", 0, []],
                                              ["knom-predict", 0, ["kbread.knom"]]]


class TestFamilyFlags:
    def test_unknown_family_exits_2(self, paths, tmp_path):
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", str(tmp_path / "m.tsv"),
                   "--families", "F1,F99") == 2

    def test_empty_family_list_exits_2(self, paths, tmp_path, capsys):
        model_path = tmp_path / "m.tsv"
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", str(model_path), "--families", ",") == 2
        assert "no feature families enabled" in capsys.readouterr().err
        assert not model_path.exists()

    def test_all_families_enable_extra_features(self, paths, tmp_path):
        default_path = train_fixture_model(paths, tmp_path)
        all_path = str(tmp_path / "all.tsv")
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", all_path, "--families", "all") == 0
        default_feats = set(load_model(default_path).weights)
        all_feats = set(load_model(all_path).weights)
        assert any(f.startswith("F2:") or f.startswith("F6:")
                   for f in all_feats - default_feats)
        assert not any(f.startswith(("F2:", "F6:")) for f in default_feats)

    @pytest.mark.parametrize("name", ["predict", "eval", "ternary-extract", "ternary-templates"])
    def test_scoring_looks_up_no_family_the_model_does_not_weight(
            self, paths, trained, tmp_path, monkeypatch, name):
        # F1, F2, F5 and F6 are enabled on the command line; only the model
        # that weights them makes their lookups.
        model = load_model(trained[0])
        unweighted = str(tmp_path / "unweighted.tsv")
        save_model(replace(model, weights={f: w for f, w in model.weights.items()
                                           if f.split(":")[0] not in ("F1", "F2", "F5", "F6")}),
                   unweighted)
        kbs = []

        def counting_kb(*args, **kwargs):
            kbs.append(CountingKB(load_kb_dir(*args, **kwargs)))
            return kbs[-1]
        monkeypatch.setattr(cli, "load_kb_dir", counting_kb)
        for tag, model_path in (("weighted", trained[0]), ("unweighted", unweighted)):
            (tmp_path / tag).mkdir()
            assert run(*fixture_command(name, paths, (model_path, None), tmp_path / tag),
                       "--families", "all", "--min-svo-count", "1") == 0
        weighted, unweighted = kbs
        assert weighted.calls and not unweighted.calls


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, paths, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("l2_penalty=0.5\nmax_em_iters=7\n", encoding="utf-8")
        model_path = str(tmp_path / "m.tsv")
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", model_path, "--config", str(cfg_file),
                   "--l2-penalty", "0.25") == 0
        model = load_model(model_path)
        assert model.config.l2_penalty == 0.25      # flag wins
        assert model.config.max_em_iters == 7       # config file beats default
        assert model.config.max_gradient_steps == 200   # default survives

    def test_second_config_exits_2(self, paths, tmp_path, capsys):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("l2_penalty=0.5\n", encoding="utf-8")
        second.write_text("l2_penalty=0.9\nmax_em_iters=3\n", encoding="utf-8")
        model_path = tmp_path / "m.tsv"
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", str(model_path), "--config", str(first),
                   "--config", str(second)) == 2
        assert capsys.readouterr().err == "error: --config may be given only once\n"
        assert not model_path.exists()


def train_and_learn(inputs, base):
    """A model trained with --families all, so it carries F6 weights, and
    knom mappings learned, both from ``inputs`` (as ``input_paths``)."""
    model, mappings = str(base / "model.tsv"), str(base / "mappings.tsv")
    assert run("train", "--labeled", inputs["labeled"], "--unlabeled", inputs["unlabeled"],
               "--kb-dir", inputs["kb"], "--model-out", model, "--families", "all") == 0
    assert run("knom-learn", "--compounds", inputs["compounds"], "--kb-dir", inputs["kb"],
               "--seq-min-support", "3", "--min-support", "3", "--out", mappings) == 0
    return model, mappings


@pytest.fixture(scope="module")
def trained(tmp_path_factory, fixtures_dir, kb_dir):
    """``train_and_learn`` on the fixtures."""
    return train_and_learn(input_paths(fixtures_dir, kb_dir), tmp_path_factory.mktemp("trained"))


def repeat_rows(src, dst, times):
    """Copies the directory tree ``src`` to ``dst`` with each data row of
    each file written ``times`` times over; comment and header lines once."""
    dst.mkdir()
    for entry in os.scandir(src):
        if entry.is_dir():
            repeat_rows(entry.path, dst / entry.name, times)
            continue
        with open(entry.path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") + "\n" for line in fh]
        head = [line for line in lines if line.startswith(("#", "format="))]
        rows = [line for line in lines if not line.startswith(("#", "format="))]
        (dst / entry.name).write_text("".join(head + rows * times), encoding="utf-8")


@pytest.fixture(scope="module")
def grown(tmp_path_factory, fixtures_dir):
    """The fixtures with every data row ten times over, as ``input_paths``,
    and ``train_and_learn`` on them."""
    base = tmp_path_factory.mktemp("grown")
    repeat_rows(fixtures_dir, base / "fixtures", 10)
    inputs = input_paths(str(base / "fixtures"), str(base / "fixtures" / "kb"))
    return inputs, train_and_learn(inputs, base)


def fixture_command(name, paths, trained, out_dir):
    """A complete argument list for ``name`` on the fixtures, writing every
    output into ``out_dir``."""
    model, mappings = trained
    out = {f: str(out_dir / f) for f in ("a.tsv", "b.tsv", "c.tsv")}
    own = {
        "train": ["--labeled", paths["labeled"], "--unlabeled", paths["unlabeled"],
                  "--model-out", out["a.tsv"]],
        "predict": ["--model", model, "--input", paths["labeled"], "--out", out["a.tsv"]],
        "eval": ["--test", paths["labeled"], "--model", model, "--out", out["a.tsv"],
                 "--tsv-out", out["b.tsv"]],
        "ternary-extract": ["--model", model, "--tuples", paths["tuples"],
                            "--out", out["a.tsv"]],
        "ternary-templates": ["--labeled-tuples", paths["roles"], "--tuples",
                              paths["tuples"], "--model", model, "--out", out["a.tsv"],
                              "--labeled-out", out["b.tsv"]],
        "knom-mine": ["--compounds", paths["compounds"], "--out", out["a.tsv"]],
        "knom-learn": ["--compounds", paths["compounds"], "--out", out["a.tsv"]],
        "knom-predict": ["--compounds", paths["compounds"], "--mappings", mappings,
                         "--out", out["a.tsv"], "--sample-out", out["b.tsv"]],
        "kb-check": [],
    }[name]
    return [name, "--kb-dir", paths["kb"], *own]


def outputs(name, paths, trained, out_dir, *extra):
    out_dir.mkdir()
    assert run(*fixture_command(name, paths, trained, out_dir), *extra) == 0
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


FEATURE_COMMANDS = ("train", "predict", "eval", "ternary-extract", "ternary-templates")

#: (subcommand, setting, value, whether the value changes the outputs on
#: the fixtures): every tunable option of every subcommand.
TUNABLES = [
    *[(name, "min_svo_count", "6", name in ("train", "predict"))
      for name in FEATURE_COMMANDS],
    *[(name, "families", "F1", True) for name in FEATURE_COMMANDS],
    *[(name, "max_prep_senses", "0", name in ("train", "predict"))
      for name in FEATURE_COMMANDS],
    ("train", "l2_penalty", "0.5", True),
    ("train", "max_em_iters", "1", True),
    ("train", "max_gradient_steps", "3", True),
    ("train", "convergence_tol", "0.5", True),
    ("ternary-extract", "min_support", "1", True),
    ("ternary-templates", "min_support", "3", True),
    ("knom-mine", "min_support", "3", True),
    ("knom-learn", "seq_min_support", "3", False),   # min_support stays 10
    ("knom-learn", "min_support", "3", False),       # seq_min_support stays 10
    ("knom-predict", "sample_size", "2", True),
]


#: (subcommand, {option: value}, option): an empty path, given to an option
#: that once read it as not given or named no path in its error, what else
#: the fixture command needs so that the run succeeds when it does (a value
#: of None removes the option), and the option the error must name.
EMPTY_PATHS = [
    ("predict", {"--kb-dir": ""}, "--kb-dir"),
    ("kb-check", {"--kb-dir": ""}, "--kb-dir"),
    ("knom-mine", {"--config": ""}, "--config"),
    ("train", {"--unlabeled": ""}, "--unlabeled"),
    ("train", {"--log-out": ""}, "--log-out"),
    ("train", {"--model-out": ""}, "--model-out"),
    ("predict", {"--model": ""}, "--model"),
    ("eval", {"--model": "", "--collins-train": "labeled"}, "--model"),
    ("eval", {"--collins-train": ""}, "--collins-train"),
    ("ternary-templates", {"--tuples": "", "--model": "", "--labeled-out": None}, "--tuples"),
    ("ternary-templates", {"--labeled-out": ""}, "--labeled-out"),
]


class TestOptions:
    @pytest.mark.parametrize("name,key,value,changes", TUNABLES)
    def test_flag_and_config_key_write_identical_outputs(self, paths, trained, tmp_path,
                                                         name, key, value, changes):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{key}={value}\n", encoding="utf-8")
        by_flag = outputs(name, paths, trained, tmp_path / "flag",
                          "--" + key.replace("_", "-"), value)
        by_config = outputs(name, paths, trained, tmp_path / "config", "--config", str(cfg))
        assert by_flag == by_config
        assert (by_flag != outputs(name, paths, trained, tmp_path / "unset")) == changes

    @pytest.mark.parametrize("name,flag", [
        *[(name, flag) for name in ("knom-mine", "knom-learn", "knom-predict", "kb-check")
          for flag in ("--min-svo-count", "--families", "--max-prep-senses")],
        ("train", "--learning-rate"),
        *[(name, "--seed") for name in ("ternary-extract", "ternary-templates", "knom-mine",
                                        "knom-learn", "kb-check")],
    ])
    def test_flag_a_subcommand_never_reads_is_rejected(self, paths, trained, tmp_path,
                                                       capsys, name, flag):
        with pytest.raises(SystemExit) as exc:
            run(*fixture_command(name, paths, trained, tmp_path), flag, "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,text,lineno", [
        ("train", "l2_penlty=0.5", 2),                  # unknown key
        ("train", "learning_rate=0.5", 2),              # deleted setting
        ("knom-mine", "families=all", 2),               # not read by knom-mine
        ("train", "max_prep_senses=abc", 2),            # does not convert
        ("predict", "families=F1,F99", 2),
        ("train", "l2_penalty=nan", 2),                 # fails the library's check
        ("predict", "min_svo_count=0", 2),
        ("knom-mine", "min_support=3\nmin_support=4", 3),   # set twice
        ("knom-mine", "min_support", 2),                # not key=value
        ("knom-mine", "min_support=0", 2),              # below the library's range
        ("knom-learn", "seq_min_support=0", 2),
        ("ternary-templates", "min_support=-1", 2),
        ("knom-predict", "sample_size=-2", 2),
    ])
    def test_bad_config_line_exits_2_at_its_line(self, paths, trained, tmp_path, capsys,
                                                 name, text, lineno):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\n{text}\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = fixture_command(name, paths, trained, out_dir)
        assert run(*argv, "--config", str(cfg)) == 2
        assert f"{cfg}:{lineno}:" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("name,flag,value", [
        ("knom-predict", "--sample-size", "-2"),
        ("knom-mine", "--min-support", "0"),
        ("knom-learn", "--seq-min-support", "0"),
        ("knom-learn", "--min-support", "-1"),
        ("ternary-extract", "--min-support", "0"),
        ("ternary-templates", "--min-support", "0"),
    ])
    def test_out_of_range_flag_exits_2_before_any_output(self, paths, trained, tmp_path,
                                                         capsys, name, flag, value):
        assert run(*fixture_command(name, paths, trained, tmp_path), flag, value) == 2
        assert f"error: {flag[2:].replace('-', '_')} {value!r}:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_flag_before_config_wins_too(self, paths, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("l2_penalty=0.5\n", encoding="utf-8")
        model_path = str(tmp_path / "m.tsv")
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", model_path, "--l2-penalty", "0.25",
                   "--config", str(cfg)) == 0
        assert load_model(model_path).config.l2_penalty == 0.25

    def test_predict_reads_each_feature_setting_on_its_own(self, paths, trained, tmp_path):
        model, _ = trained

        def predict(out, *extra):
            assert run("predict", "--model", model, "--input", paths["labeled"],
                       "--kb-dir", paths["kb"], "--out", str(tmp_path / out), *extra) == 0
            return (tmp_path / out).read_bytes()

        zero = predict("zero.tsv", "--max-prep-senses", "0")
        assert zero == predict("both.tsv", "--families", "all", "--max-prep-senses", "0")
        assert zero != predict("stored.tsv")

    @pytest.mark.parametrize("name,extra", [
        ("eval", ["--test", "labeled", "--collins-train", "labeled", "--families", "all"]),
        ("ternary-templates", ["--labeled-tuples", "roles", "--min-svo-count", "1"]),
        ("ternary-templates", ["--labeled-tuples", "roles", "--labeled-out", "labeled_out"]),
        ("knom-predict", ["--compounds", "compounds", "--mappings", "compounds",
                          "--sample-size", "3"]),
    ])
    def test_setting_without_the_input_it_applies_to_exits_2(self, paths, tmp_path,
                                                             name, extra):
        files = {**paths, "labeled_out": str(tmp_path / "labeled.tsv")}
        assert run(name, "--kb-dir", paths["kb"], *[files.get(a, a) for a in extra],
                   "--out", str(tmp_path / "out.tsv")) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,options,named", EMPTY_PATHS)
    def test_an_empty_path_exits_2_and_writes_nothing(self, paths, trained, tmp_path,
                                                      monkeypatch, capsys, name, options, named):
        # A relative output would be written where the command runs.
        monkeypatch.chdir(tmp_path)
        argv = fixture_command(name, paths, trained, tmp_path)
        for option, value in options.items():
            if option in argv:
                del argv[argv.index(option):argv.index(option) + 2]
            if value is not None:
                argv += [option, paths.get(value, value)]
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"error: {named}: empty path\n")
        assert list(tmp_path.iterdir()) == []

    def test_seed_without_sample_out_exits_2(self, paths, trained, tmp_path, capsys):
        argv = fixture_command("knom-predict", paths, trained, tmp_path)
        del argv[argv.index("--sample-out"):]
        assert run(*argv, "--seed", "7") == 2
        assert capsys.readouterr() == ("", "error: seed: read only with --sample-out\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_sample_drawn_without_seed_is_drawn_with_seed_0(self, paths, trained, tmp_path):
        unset = outputs("knom-predict", paths, trained, tmp_path / "unset", "--sample-size", "2")
        assert unset == outputs("knom-predict", paths, trained, tmp_path / "zero",
                                "--sample-size", "2", "--seed", "0")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_training_setting_exits_2(self, paths, tmp_path, value):
        model_path = tmp_path / "m.tsv"
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", str(model_path), "--l2-penalty", value) == 2
        assert not model_path.exists()

    def test_largest_l2_penalty_trains_without_warning(self, paths, tmp_path):
        # Warnings are errors under the test configuration, so an overflow
        # inside training would fail this run.
        model_path = str(tmp_path / "m.tsv")
        assert run("train", "--labeled", paths["labeled"], "--unlabeled", paths["unlabeled"],
                   "--kb-dir", paths["kb"], "--model-out", model_path,
                   "--l2-penalty", "1e308") == 0
        model = load_model(model_path)
        assert model.config.l2_penalty == 1e308
        # No Newton step can move a weight, so none is taken or counted,
        # EM stops at its first M-step and every weight stays 0.0, with no row.
        assert model.weights == {}
        log = open(model_path + ".log", encoding="utf-8").read().splitlines()
        records = [(r[0], dict(f.split("=", 1) for f in r[1:]))
                   for r in (line.split("\t") for line in log[1:])]
        assert [phase for phase, _ in records] == ["supervised", "em", "final"]
        assert records[0][1]["steps"] == "0" and records[1][1]["m_steps"] == "0"

    @pytest.mark.parametrize("key,value", [
        ("l2_penalty", "nan"), ("convergence_tol", "inf"), ("max_em_iters", "2.5"),
        ("max_prep_senses", "five"), ("families", "F1,F99"), ("n_labeled", "x"),
        ("min_svo_count", "0"), ("n_labeled", "-7"), ("n_unlabeled", "-1"),
    ])
    def test_bad_model_header_exits_2_at_its_line(self, paths, tmp_path, capsys, key, value):
        model_path = train_fixture_model(paths, tmp_path)
        lines = open(model_path, encoding="utf-8").read().splitlines()
        lineno = next(i for i, l in enumerate(lines, 1) if l.startswith(f"#{key}\t"))
        lines[lineno - 1] = f"#{key}\t{value}"
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = str(tmp_path / "pred.tsv")
        assert run("predict", "--model", model_path, "--input", paths["test"],
                   "--kb-dir", paths["kb"], "--out", out) == 2
        assert f"{model_path}:{lineno}:" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestHelp:
    @staticmethod
    def help_of(capsys, monkeypatch, command, option):
        """The help text of ``option`` in ``kbread <command> --help``."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            run(command, "--help")
        text = capsys.readouterr().out
        start = text.index(f"  {option} ")
        end = text.find("\n  -", start + 1)
        return " ".join(text[start:end if end >= 0 else None].split()[2:])

    @pytest.mark.parametrize("command", ["predict", "eval", "ternary-extract",
                                         "ternary-templates"])
    def test_a_command_reading_a_model_puts_its_stored_value_first(self, capsys, monkeypatch,
                                                                  command):
        assert (self.help_of(capsys, monkeypatch, command, "--min-svo-count")
                == "the model's stored value, else the default 3")

    def test_train_help_shows_each_default_as_a_model_file_spells_it(self, capsys,
                                                                    monkeypatch):
        for cls, name, key, _, spell in MODEL_SETTINGS:
            default = spell(getattr(cls(), name))
            assert self.help_of(capsys, monkeypatch, "train",
                                "--" + key.replace("_", "-")).endswith(f"default {default}")
        assert self.help_of(capsys, monkeypatch, "train", "--l2-penalty") == "default 0.1"


class TestStoredMinSvoCount:
    """A model keeps the triple count threshold it was trained with, as it
    keeps its other feature settings. The KB's triples are seen once or
    twice, so only a threshold below 3 lets F1 fire."""

    @pytest.fixture
    def low_counts(self, paths, tmp_path):
        kb = tmp_path / "kb"
        shutil.copytree(paths["kb"], kb)
        (kb / "svo.tsv").write_text("net\tcaught\tbutterfly\t2\nbutterfly\thas\tspots\t1\n"
                                    "butterfly\tusing\tnet\t1\n", encoding="utf-8")
        return {**paths, "kb": str(kb)}

    @staticmethod
    def predict(paths, model, out, *extra):
        assert run("predict", "--model", model, "--input", paths["labeled"],
                   "--kb-dir", paths["kb"], "--out", str(out), *extra) == 0
        return out.read_bytes()

    def test_predict_uses_the_threshold_the_model_was_trained_with(self, low_counts,
                                                                  tmp_path):
        model = train_fixture_model(low_counts, tmp_path, "--min-svo-count", "1")
        stored = self.predict(low_counts, model, tmp_path / "stored.tsv")
        assert stored == self.predict(low_counts, model, tmp_path / "one.tsv",
                                      "--min-svo-count", "1")
        assert stored != self.predict(low_counts, model, tmp_path / "three.tsv",
                                      "--min-svo-count", "3")

    def test_a_model_without_the_header_uses_3(self, low_counts, tmp_path):
        model = train_fixture_model(low_counts, tmp_path, "--min-svo-count", "1")
        with open(model, encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("#min_svo_count\t")]
        with open(model, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        stored = self.predict(low_counts, model, tmp_path / "stored.tsv")
        assert stored == self.predict(low_counts, model, tmp_path / "three.tsv",
                                      "--min-svo-count", "3")
        assert stored != self.predict(low_counts, model, tmp_path / "one.tsv",
                                      "--min-svo-count", "1")


class TestEveryFeatureSetting:
    """No feature setting can skip a feature command or the model file: each
    FeatureConfig field is a setting of all five commands, named as its
    model header line (``test_model.py`` checks that line)."""

    def test_every_field_is_listed(self):
        assert set(FEATURE_FIELDS) == {f.name for f in fields(FeatureConfig)}
        assert {setting for setting, _, _ in FEATURE_FIELDS.values()} == set(_FEATURE_SETTINGS)

    @pytest.mark.parametrize("command", FEATURE_COMMANDS)
    @pytest.mark.parametrize("name", [f.name for f in fields(FeatureConfig)])
    def test_each_feature_command_takes_it(self, tmp_path, command, name):
        setting, text, value = FEATURE_FIELDS[name]
        argv = fixture_command(command, defaultdict(str), ("model.tsv", "mappings.tsv"),
                               tmp_path)
        args = build_parser().parse_args([*argv, "--" + setting.replace("_", "-"), text])
        assert _config(args, FeatureConfig()) == replace(FeatureConfig(), **{name: value})


#: Every output option of every subcommand.
OUTPUT_OPTIONS = [
    ("train", "--model-out"), ("train", "--log-out"), ("predict", "--out"),
    ("eval", "--out"), ("eval", "--tsv-out"), ("eval", "--chart-out"),
    ("ternary-extract", "--out"), ("ternary-templates", "--out"),
    ("ternary-templates", "--labeled-out"), ("knom-mine", "--out"),
    ("knom-learn", "--out"), ("knom-predict", "--out"), ("knom-predict", "--sample-out"),
]


class TestOutputDirectories:
    def test_every_output_option_is_listed(self):
        subcommands = next(a for a in build_parser()._actions if a.dest == "command")
        found = {(name, option) for name, sub in subcommands.choices.items()
                 for a in sub._actions for option in a.option_strings
                 if option.endswith("-out")}
        assert found == set(OUTPUT_OPTIONS)

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("name,option", OUTPUT_OPTIONS)
    def test_missing_directory_exits_2_before_any_output(self, paths, trained, tmp_path,
                                                         capsys, name, option, dry_run):
        argv = fixture_command(name, paths, trained, tmp_path)
        missing = str(tmp_path / "missing" / "out.tsv")
        if option in argv:
            argv[argv.index(option) + 1] = missing
        else:
            argv += [option, missing]
        assert run(*argv, *(["--dry-run"] if dry_run else [])) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {missing}:")
        assert list(tmp_path.iterdir()) == []

    def test_eval_leaves_no_report_when_the_tsv_directory_is_missing(self, paths, tmp_path):
        report = tmp_path / "report.txt"
        assert run("eval", "--test", paths["test"], "--collins-train", paths["labeled"],
                   "--out", str(report), "--tsv-out", str(tmp_path / "missing" / "r.tsv")) == 2
        assert not report.exists()

    def test_train_leaves_no_model_when_the_log_directory_is_missing(self, paths, tmp_path):
        model_path = tmp_path / "m.tsv"
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", str(model_path),
                   "--log-out", str(tmp_path / "nodir" / "log.tsv")) == 2
        assert not model_path.exists()


#: (subcommand, module, writer): each writer that a subcommand with more
#: than one output calls, by the module attribute it calls it through.
WRITERS = [
    ("train", "cli", "save_model"), ("train", "cli", "_write_train_log"),
    ("eval", "cli", "write_lines"), ("eval", "evaluation", "write_reports_tsv"),
    ("eval", "evaluation", "write_prep_chart"),
    ("ternary-templates", "ternary", "write_templates"),
    ("ternary-templates", "ternary", "write_ternary"),
    ("knom-predict", "knom", "write_predictions"),
    ("knom-predict", "knom", "write_sample_manifest"),
]


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestOutputSet:
    """A subcommand's outputs appear together, after it succeeds, or not at all."""

    @pytest.mark.parametrize("name,module,writer", WRITERS)
    def test_a_failed_write_changes_no_output(self, paths, trained, tmp_path, capsys,
                                              monkeypatch, name, module, writer):
        argv = fixture_command(name, paths, trained, tmp_path)
        if name == "eval":
            argv += ["--chart-out", str(tmp_path / "c.tsv")]
        (tmp_path / "a.tsv").write_bytes(b"old\n")
        owner = importlib.import_module("kbread." + module)
        write = getattr(owner, writer)

        def write_then_fail(*args):
            write(*args)
            raise OSError("disk full")

        monkeypatch.setattr(owner, writer, write_then_fail)
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", "error: disk full\n")
        assert files(tmp_path) == {"a.tsv": b"old\n"}

    def test_interrupt_changes_no_output(self, tmp_path):
        (tmp_path / "kept.tsv").write_bytes(b"old\n")
        with pytest.raises(KeyboardInterrupt), output_set():
            write_lines(str(tmp_path / "kept.tsv"), ["new"])
            write_lines(str(tmp_path / "new.tsv"), ["new"])
            raise KeyboardInterrupt
        assert files(tmp_path) == {"kept.tsv": b"old\n"}

    @pytest.mark.parametrize("stale", ["file", "symlink"])
    def test_a_stale_temporary_file_of_this_pid_is_replaced(self, tmp_path, stale):
        # A run killed between staging and commit leaves its temporary file;
        # a later process that gets the same pid must still write.
        temp = tmp_path.resolve() / f".out.tsv.{os.getpid()}.tmp"
        left = {}
        if stale == "file":
            temp.write_bytes(b"partial\n")
        else:
            (tmp_path / "other.tsv").write_bytes(b"kept\n")
            temp.symlink_to(tmp_path / "other.tsv")
            left = {"other.tsv": b"kept\n"}
        write_lines(str(tmp_path / "out.tsv"), ["new"])
        assert files(tmp_path) == {"out.tsv": b"new\n", **left}

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("name,option", OUTPUT_OPTIONS)
    def test_directory_output_exits_2_before_any_output(self, paths, trained, tmp_path,
                                                       capsys, name, option, dry_run):
        argv = fixture_command(name, paths, trained, tmp_path)
        target = tmp_path / "dir"
        target.mkdir()
        if option in argv:
            argv[argv.index(option) + 1] = str(target)
        else:
            argv += [option, str(target)]
        assert run(*argv, *(["--dry-run"] if dry_run else [])) == 2
        assert capsys.readouterr() == ("", f"error: {target}: not a regular file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("name,option,default", [
        ("train", "--log-out", "{out}/a.tsv.log"),
        ("ternary-templates", "--labeled-out", "ternary_labeled.tsv")])
    def test_a_directory_at_a_default_output_path_exits_2_before_any_output(
            self, paths, trained, tmp_path, capsys, monkeypatch, name, option, default, dry_run):
        """An output option left out writes to its default path, which a dry
        run checks as it checks a path given."""
        monkeypatch.chdir(tmp_path)
        argv = fixture_command(name, paths, trained, tmp_path)
        if option in argv:
            del argv[argv.index(option):argv.index(option) + 2]
        default = default.format(out=tmp_path)
        os.mkdir(default)
        assert run(*argv, *(["--dry-run"] if dry_run else [])) == 2
        assert capsys.readouterr() == ("", f"error: {default}: not a regular file\n")
        assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(default)]

    def test_fifo_output_exits_2_before_any_output(self, paths, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # An open reader keeps a writer that opens the FIFO from blocking.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run("eval", "--test", paths["test"], "--collins-train", paths["labeled"],
                       "--out", str(tmp_path / "report.txt"), "--tsv-out", str(fifo)) == 2
        finally:
            os.close(reader)
        assert capsys.readouterr() == ("", f"error: {fifo}: not a regular file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["fifo"]

    def test_train_writes_no_model_when_its_default_log_is_a_directory(
            self, paths, trained, tmp_path, capsys):
        log = tmp_path / "a.tsv.log"
        log.mkdir()
        assert run(*fixture_command("train", paths, trained, tmp_path)) == 2
        assert capsys.readouterr() == ("", f"error: {log}: not a regular file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["a.tsv.log"]

    @pytest.mark.parametrize("spelling", ["same", "symlink"])
    def test_eval_outputs_naming_one_file_exit_2(self, paths, tmp_path, capsys, spelling):
        report = tmp_path / "H.txt"
        other = report
        if spelling == "symlink":
            other = tmp_path / "link.txt"
            other.symlink_to(report)
        assert run("eval", "--test", paths["test"], "--collins-train", paths["labeled"],
                   "--out", str(report), "--tsv-out", str(other)) == 2
        assert capsys.readouterr() == ("", f"error: {other}: the same file as another output\n")
        assert [p.name for p in tmp_path.iterdir()] == ([] if other == report else ["link.txt"])

    def test_templates_named_as_the_default_labeled_output_exit_2(
            self, paths, trained, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("ternary-templates", "--kb-dir", paths["kb"],
                   "--labeled-tuples", paths["roles"], "--tuples", paths["tuples"],
                   "--model", trained[0], "--out", "ternary_labeled.tsv") == 2
        assert capsys.readouterr() == (
            "", "error: ternary_labeled.tsv: the same file as another output\n")
        assert list(tmp_path.iterdir()) == []

    def test_symlinked_output_writes_its_target_and_keeps_the_link(self, paths, trained,
                                                                   tmp_path):
        direct = outputs("knom-mine", paths, trained, tmp_path / "direct")
        target = tmp_path / "target.tsv"
        target.write_bytes(b"old\n")
        linked = tmp_path / "linked"
        linked.mkdir()
        (linked / "a.tsv").symlink_to(target)
        assert run(*fixture_command("knom-mine", paths, trained, linked)) == 0
        assert os.readlink(linked / "a.tsv") == str(target)
        assert target.read_bytes() == direct["a.tsv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct", "linked", "target.tsv"]
        assert [p.name for p in linked.iterdir()] == ["a.tsv"]

    def test_new_output_gets_the_mode_open_gives(self, paths, trained, tmp_path):
        umask = os.umask(0o027)
        try:
            assert run(*fixture_command("knom-mine", paths, trained, tmp_path)) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "a.tsv").stat().st_mode) == 0o640

    def test_library_write_outside_a_command_writes_at_once(self, trained, tmp_path):
        _, mappings = trained
        knom.write_mappings(knom.read_mappings(mappings), str(tmp_path / "mappings.tsv"))
        with open(mappings, "rb") as fh:
            assert files(tmp_path) == {"mappings.tsv": fh.read()}


def unreachable_after(argv):
    """How many objects ``gc.collect`` finds unreachable once ``main(argv)``
    has returned 0, with the collector off from before the command on."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestCyclicCollector:
    """``main`` runs each command with the cyclic garbage collector off and
    gives the caller back the state it found. That is safe while reference
    counting frees what a command builds: the cycles a command leaves (the
    parser's) must not grow with its input."""

    @pytest.mark.parametrize("name", [*FEATURE_COMMANDS, "knom-mine", "knom-learn",
                                      "knom-predict", "kb-check"])
    def test_cycles_left_do_not_grow_with_the_input(self, paths, trained, grown, tmp_path,
                                                    capsys, name):
        def argv(inputs, models, tag):
            out_dir = tmp_path / tag
            out_dir.mkdir()
            back_off = ["--collins-train", inputs["labeled"]] if name == "eval" else []
            return [*fixture_command(name, inputs, models, out_dir), *back_off]

        assert main(argv(paths, trained, "warm-up")) == 0    # lazy imports and caches
        grown_inputs, grown_models = grown
        assert (unreachable_after(argv(paths, trained, "fixtures"))
                == unreachable_after(argv(grown_inputs, grown_models, "grown")))

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("case", ["exit-0", "format-error", "dry-run", "usage-error"])
    def test_command_runs_with_the_collector_off_and_restores_it(
            self, paths, tmp_path, monkeypatch, capsys, case, enabled):
        seen = []

        def load_kb_dir(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        real = cli.load_kb_dir
        monkeypatch.setattr(cli, "load_kb_dir", load_kb_dir)
        broken, _ = broken_kb(paths, tmp_path)
        argv, code = {"exit-0": (["--kb-dir", paths["kb"]], 0),
                      "format-error": (["--kb-dir", broken], 2),
                      "dry-run": (["--kb-dir", paths["kb"], "--dry-run"], 0),
                      "usage-error": (["--bogus-flag"], 2)}[case]
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                assert run("kb-check", *argv) == code
            except SystemExit as exc:         # argparse's exit
                assert exc.code == code
            restored = gc.isenabled()
        finally:
            gc.enable()
        assert restored is enabled
        assert seen == ([] if case == "usage-error" else [False])
