import os

import pytest

from kbread.cli import main
from kbread.features import FeatureConfig, extract_features, read_corpus
from kbread.model import TrainConfig, classify, load_model, train_supervised


def run(*argv):
    return main(list(argv))


@pytest.fixture
def paths(fixtures_dir, kb_dir):
    return {
        "kb": kb_dir,
        "labeled": f"{fixtures_dir}/quads_labeled.tsv",
        "unlabeled": f"{fixtures_dir}/quads_unlabeled.tsv",
        "test": f"{fixtures_dir}/quads_test.tsv",
        "tuples": f"{fixtures_dir}/tuples.tsv",
        "roles": f"{fixtures_dir}/tuples_roles.tsv",
        "compounds": f"{fixtures_dir}/compounds.tsv",
    }


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

    def test_synonym_expansion_grows_training_data(self, paths, tmp_path):
        model_path = train_fixture_model(paths, tmp_path, "--expand-synonyms")
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
    ], ids=["empty-relation", "position-out-of-range"])
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
        out = capsys.readouterr().out
        assert "svo_triples\t3" in out
        assert "relation_instances\t10" in out

    def test_missing_dir_exits_2(self, tmp_path):
        assert run("kb-check", "--kb-dir", str(tmp_path / "missing")) == 2

    def test_dry_run_loads_without_printing_stats(self, paths, capsys):
        assert run("kb-check", "--kb-dir", paths["kb"], "--dry-run") == 0
        assert capsys.readouterr().out == "dry run: inputs ok\n"


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


@pytest.fixture(scope="module")
def trained(tmp_path_factory, fixtures_dir, kb_dir):
    """A model trained with --families all, so it carries F6 weights, and
    knom mappings learned from the fixtures."""
    base = tmp_path_factory.mktemp("trained")
    model, mappings = str(base / "model.tsv"), str(base / "mappings.tsv")
    assert run("train", "--labeled", f"{fixtures_dir}/quads_labeled.tsv",
               "--unlabeled", f"{fixtures_dir}/quads_unlabeled.tsv", "--kb-dir", kb_dir,
               "--model-out", model, "--families", "all") == 0
    assert run("knom-learn", "--compounds", f"{fixtures_dir}/compounds.tsv",
               "--kb-dir", kb_dir, "--seq-min-support", "3", "--min-support", "3",
               "--out", mappings) == 0
    return model, mappings


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_training_setting_exits_2(self, paths, tmp_path, value):
        model_path = tmp_path / "m.tsv"
        assert run("train", "--labeled", paths["labeled"], "--kb-dir", paths["kb"],
                   "--model-out", str(model_path), "--l2-penalty", value) == 2
        assert not model_path.exists()

    @pytest.mark.parametrize("key,value", [
        ("l2_penalty", "nan"), ("convergence_tol", "inf"), ("max_em_iters", "2.5"),
        ("max_prep_senses", "five"), ("families", "F1,F99"), ("n_labeled", "x"),
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
