import argparse
import codecs
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oncograph import cli, cohort, errors, ingest, validate

from conftest import FIXTURES, GOLDEN, REPO
from test_runtime import COMMANDS


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def fixture_args(out, **overrides):
    paths = {
        "mutations": FIXTURES / "mutations.tsv",
        "clinical": FIXTURES / "clinical.tsv",
        "gda": FIXTURES / "gda.tsv",
        "drugs": FIXTURES / "drugs.tsv",
    }
    paths.update(overrides)
    return [
        "--mutations", str(paths["mutations"]),
        "--clinical", str(paths["clinical"]),
        "--gda", str(paths["gda"]),
        "--drugs", str(paths["drugs"]),
        "--out", str(out),
    ]


def replay_goldens(out, tables, skip=()):
    """Runs every command of test_runtime's COMMANDS in process on ``tables``
    (table -> path) and compares each TSV it writes, except the goldens in
    ``skip``, with its golden file."""
    inputs = [f"--{table}={path}" for table, path in tables.items()]
    for command, (argv, _, outputs) in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([*argv, *inputs, f"--out={out}"]) == 0, command
        for name, golden in outputs.items():
            if golden not in skip:
                assert (out / name).read_bytes() == (GOLDEN / golden).read_bytes(), command


class TestExitCodes:
    def test_build_success(self, tmp_path, capsys):
        assert run(["build"] + fixture_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Pa=6 Mu=8 Di=2 Dr=4" in out

    def test_missing_clinical_file(self, tmp_path, capsys):
        args = fixture_args(tmp_path, clinical=tmp_path / "nope.tsv")
        assert run(["build"] + args) == 2
        assert "nope.tsv" in capsys.readouterr().err

    def test_usage_error_is_64(self, tmp_path):
        assert run(["coexist"] + fixture_args(tmp_path)) == 64  # --k required
        assert run(["frobnicate"]) == 64

    def test_missing_input_option_is_64(self, tmp_path, capsys):
        args = fixture_args(tmp_path / "out")
        at = args.index("--clinical")
        del args[at:at + 2]
        assert run(["build"] + args) == 64
        assert capsys.readouterr().err == "missing required input: --clinical\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "case, code",
        [("built", 0), ("no --mutations", 64), ("no file", 2), ("no gene column", 2),
         ("not UTF-8", 2)],
    )
    def test_the_collector_is_on_after_every_exit(self, tmp_path, case, code, capsys):
        mutations = tmp_path / "mutations.tsv"
        text = (FIXTURES / "mutations.tsv").read_bytes()
        if case == "no gene column":
            mutations.write_bytes(text.replace(b"\tgene\t", b"\tsymbol\t", 1))
        elif case == "not UTF-8":
            mutations.write_bytes(text.replace(b"KRAS", b"KR\xc9S", 1))
        elif case == "built":
            mutations = FIXTURES / "mutations.tsv"
        args = fixture_args(tmp_path / "out", mutations=mutations)
        if case == "no --mutations":
            del args[:2]
        assert gc.isenabled()
        assert run(["build"] + args) == code
        assert gc.isenabled()

    def test_a_collector_found_off_stays_off(self, tmp_path, capsys):
        gc.disable()
        try:
            assert run(["build"] + fixture_args(tmp_path)) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_in_process_calls_freeze_no_parser(self, tmp_path, capsys):
        # The load freezes every object the collector tracks, so a parser
        # that main still held, or left uncollected, would stay for good.
        gc.unfreeze()
        gc.collect()
        for _ in range(5):
            assert run(["build"] + fixture_args(tmp_path)) == 0
        gc.unfreeze()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            parts = (argparse.ArgumentParser, argparse.Action, argparse.HelpFormatter)
            left = sum(isinstance(o, parts) for o in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert left == 0

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["build"] + fixture_args(out)) == 2
        assert "File exists" in capsys.readouterr().err

    def test_freq_of_one_disease(self, tmp_path):
        args = write_inputs(tmp_path, [], [("P1", "KRAS"), ("P2", "EGFR")])
        (tmp_path / "clinical.tsv").write_text(
            "sample_id\tcancer_type\tos_months\tos_status\n"
            "P1\tLUAD\t12\tliving\nP2\tCOAD\t12\tliving\n"
        )
        assert run(["freq", "--disease", "LUAD"] + args) == 0
        assert (tmp_path / "out" / "frequency.tsv").read_text() == (
            "item\tpercent\nKRAS_1_100_100\t100.0\n"
        )

    def test_freq_of_an_unknown_disease_is_3(self, tmp_path, capsys):
        assert run(["freq", "--disease", "NOPE"] + fixture_args(tmp_path)) == 3
        assert capsys.readouterr().err == "unknown disease NOPE\n"
        assert not (tmp_path / "frequency.tsv").exists()

    def test_freq_of_the_long_band(self, tmp_path):
        # P1 (40 months) and P2 (36) are the long survivors of the fixture.
        assert run(["freq", "--band", "long"] + fixture_args(tmp_path)) == 0
        assert (tmp_path / "frequency.tsv").read_text() == (
            "item\tpercent\n"
            "EGFR_7_55259515_55259515\t33.3\n"
            "KRAS_12_25398284_25398284\t33.3\n"
            "TP53_17_7577120_7577120\t16.7\n"
            "TP53_17_7578406_7578406\t16.7\n"
        )

    def test_untargetable_mutation_is_3(self, tmp_path, capsys):
        # TP53 has no targeting drug in the fixture
        args = fixture_args(tmp_path) + [
            "--patient", "P1", "--targets", "TP53_17_7578406_7578406",
        ]
        assert run(["treat"] + args) == 3
        assert "untargetable mutation TP53_17_7578406_7578406" in capsys.readouterr().err

    def test_empty_mutation_file_builds(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text(
            "sample_id\tgene\tchromosome\tstart_position\tend_position\tvaf\n"
        )
        args = fixture_args(tmp_path, mutations=empty)
        assert run(["build"] + args) == 0
        captured = capsys.readouterr()
        assert "green=0" in captured.out
        assert "no data rows" in captured.err


class TestDeterminism:
    @pytest.mark.parametrize(
        "command",
        [
            ["check"],
            ["cohort", "--k", "2"],
            ["freq", "--mode", "mutation"],
            ["coexist", "--k", "30"],
        ],
    )
    def test_byte_identical_across_runs(self, tmp_path, command, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run(command + fixture_args(out1)) == 0
        assert run(command + fixture_args(out2)) == 0
        capsys.readouterr()
        for f in sorted(out1.iterdir()):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mutation_row_order_changes_only_the_build_report(self, tmp_path, seed):
        # Green edges go into the graph in input order; every output sorts its rows.
        lines = (FIXTURES / "mutations.tsv").read_text().splitlines(keepends=True)
        rows = lines[2:]
        random.Random(seed).shuffle(rows)
        assert rows != lines[2:]
        path = tmp_path / "mutations.tsv"
        path.write_text("".join(lines[:2] + rows))
        tables = {t: FIXTURES / f"{t}.tsv" for t in ("clinical", "gda", "drugs")}
        replay_goldens(tmp_path / "out", {"mutations": path, **tables}, skip={"build_report.tsv"})


class TestTreat:
    def test_unweighted_picks_common_drug(self, tmp_path, capsys):
        args = fixture_args(tmp_path) + [
            "--patient", "P1",
            "--targets", "KRAS_12_25398284_25398284,EGFR_7_55259515_55259515",
        ]
        assert run(["treat"] + args) == 0
        assert "drugs=1 total_weight=5" in capsys.readouterr().out
        assert "omnitinib" in (tmp_path / "treatment.tsv").read_text()

    def test_weighted_prefers_cheap_pair(self, tmp_path, capsys):
        args = fixture_args(tmp_path) + [
            "--patient", "P1",
            "--targets", "KRAS_12_25398284_25398284,EGFR_7_55259515_55259515",
            "--weighted",
        ]
        assert run(["treat"] + args) == 0
        assert "drugs=2 total_weight=4" in capsys.readouterr().out

    def test_weight_with_too_many_places_is_a_malformed_row(self, tmp_path, capsys):
        # Chosen, this weight would be printed, past the int-to-str limit.
        drugs = tmp_path / "drugs.tsv"
        drugs.write_text((FIXTURES / "drugs.tsv").read_text() + "tiny\tKRAS\t1e-3000000\n")
        args = fixture_args(tmp_path, drugs=drugs)
        targets = ["--patient", "P1", "--targets", "KRAS_12_25398284_25398284", "--weighted"]
        assert run(["treat"] + args + targets) == 0
        assert "total_weight=3" in capsys.readouterr().out
        assert run(["build"] + args) == 0
        report = (tmp_path / "build_report.tsv").read_text().splitlines()
        assert f"{drugs}\t8\terror\tweight 1e-3000000 has more than 1000 decimal places" in report

    def test_unknown_patient_is_3(self, tmp_path, capsys):
        args = fixture_args(tmp_path) + [
            "--patient", "NOPE", "--targets", "KRAS_12_25398284_25398284",
        ]
        assert run(["treat"] + args) == 3
        assert capsys.readouterr().err == "unknown patient NOPE\n"

    def test_unknown_mutation_is_3(self, tmp_path, capsys):
        args = fixture_args(tmp_path) + ["--patient", "P1", "--targets", "NOPE_1_1_1"]
        assert run(["treat"] + args) == 3
        assert capsys.readouterr().err == "unknown mutation NOPE_1_1_1\n"


def write_inputs(tmp_path, patients, mutations):
    """Inputs with ``patients`` (ids) and ``mutations`` (sample, gene) rows;
    each gene has one locus. The GDA and drug tables are empty."""
    clinical = tmp_path / "clinical.tsv"
    clinical.write_text(
        "sample_id\tcancer_type\tos_months\tos_status\n"
        + "".join(f"{pid}\tLUAD\t12\tliving\n" for pid in patients)
    )
    muts = tmp_path / "mutations.tsv"
    muts.write_text(
        "sample_id\tgene\tchromosome\tstart_position\tend_position\tvaf\n"
        + "".join(f"{pid}\t{gene}\t1\t100\t100\t0.5\n" for pid, gene in mutations)
    )
    gda = tmp_path / "gda.tsv"
    gda.write_text("gene\tdisease\tgda_score\n")
    drugs = tmp_path / "drugs.tsv"
    drugs.write_text("drug\tgene\n")
    return fixture_args(
        tmp_path / "out", mutations=muts, clinical=clinical, gda=gda, drugs=drugs
    )


def write_alike_loci(tmp_path):
    """Two patients on loci that both render A_1_2_5_5: P1 on gene A_1 at
    chromosome 2, P2 on gene A at chromosome 1_2. Drug dA hits gene A,
    drug dA1 gene A_1."""
    (tmp_path / "clinical.tsv").write_text(
        "sample_id\tcancer_type\tos_months\tos_status\n"
        "P1\tLUAD\t12\tliving\nP2\tLUAD\t12\tliving\n"
    )
    (tmp_path / "mutations.tsv").write_text(
        "sample_id\tgene\tchromosome\tstart_position\tend_position\tvaf\n"
        "P1\tA_1\t2\t5\t5\t0.5\nP2\tA\t1_2\t5\t5\t0.5\n"
    )
    (tmp_path / "gda.tsv").write_text("gene\tdisease\tgda_score\n")
    (tmp_path / "drugs.tsv").write_text("drug\tgene\ndA\tA\ndA1\tA_1\n")
    return fixture_args(tmp_path / "out", **{
        t: tmp_path / f"{t}.tsv" for t in ("mutations", "clinical", "gda", "drugs")
    })


class TestLociThatRenderAlike:
    @pytest.mark.parametrize("patient, drug", [("P1", "dA1"), ("P2", "dA")])
    def test_treat_names_the_patients_own_locus(self, tmp_path, patient, drug, capsys):
        args = write_alike_loci(tmp_path)
        assert run(["treat", "--patient", patient, "--targets", "A_1_2_5_5"] + args) == 0
        assert (tmp_path / "out" / "treatment.tsv").read_text() == f"drug\tweight\n{drug}\t1\n"
        capsys.readouterr()

    def test_freq_counts_each_locus(self, tmp_path):
        assert run(["freq", "--mode", "mutation"] + write_alike_loci(tmp_path)) == 0
        assert (tmp_path / "out" / "frequency.tsv").read_text() == (
            "item\tpercent\nA_1_2_5_5\t50.0\nA_1_2_5_5\t50.0\n"
        )


class TestExactThresholds:
    def test_jaccard_k_joins_pair_at_exactly_k(self, tmp_path):
        # |a ^ b| = 3 and |a | b| = 10: distance exactly 3/10.
        genes = [f"G{i}" for i in range(10)]
        rows = [("P1", g) for g in genes] + [("P2", g) for g in genes[:7]]
        args = write_inputs(tmp_path, ["P1", "P2"], rows)
        assert run(["cohort", "--metric", "jaccard", "--k", "0.3"] + args) == 0
        assert (tmp_path / "out" / "profile_groups.tsv").read_text() == (
            "group\tsize\tpatients\n1\t2\tP1,P2\n"
        )

    def test_coexist_keeps_item_at_exactly_k_percent(self, tmp_path):
        patients = [f"P{i:04d}" for i in range(1000)]
        args = write_inputs(tmp_path, patients, [("P0000", "KRAS")])
        assert run(["coexist", "--k", "0.1"] + args) == 0
        assert (tmp_path / "out" / "coexisting_sets.tsv").read_text().splitlines()[1:] == [
            "KRAS_1_100_100\t0.1\t1\tP0000"
        ]

    @pytest.mark.parametrize("k", ["2.5", "0.3", "abc", "1/0"])
    def test_hamming_rejects_non_integer_k(self, tmp_path, k, capsys):
        assert run(["cohort", "--metric", "hamming", "--k", k] + fixture_args(tmp_path)) == 64
        capsys.readouterr()

    @pytest.mark.parametrize("metric, k", [("hamming", "-1"), ("jaccard", "-0.5")])
    def test_negative_k_is_usage_error_before_any_output(self, tmp_path, metric, k, capsys):
        out = tmp_path / "out"
        argv = ["cohort", "--metric", metric, f"--k={k}"] + fixture_args(out)
        assert run(argv) == 64
        assert ">= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["check", "--gda-threshold=1e5000"], ["coexist", "--k=1e5000"],
                 ["cohort", "--k=1e-5000"]]
    )
    def test_threshold_with_too_many_digits_is_usage_error(self, tmp_path, argv, capsys):
        out = tmp_path / "out"
        assert run(argv + fixture_args(out)) == 64
        # The usage error keeps the reason that ingest.exact_number gives.
        option, _, value = argv[1].partition("=")
        assert f"argument {option}: value {value} has more than 1000 " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cohort", "--t-long", "6", "--t-short", "36"], "t_short 36 must be < t_long 6"),
            (["cohort", "--t-long", "6", "--t-short", "6"], "t_short 6 must be < t_long 6"),
            (["freq", "--band", "long", "--t-long", "6", "--t-short", "36"],
             "t_short 36 must be < t_long 6"),
            (["freq", "--top-n", "-1"], "--top-n -1 must be >= 0"),
            (["coexist", "--k", "0"], "--k 0 must be in (0, 100]"),
            (["coexist", "--k", "101"], "--k 101 must be in (0, 100]"),
            (["treat", "--patient", "P1", "--targets", ","], "--targets ',' names no mutation"),
        ],
    )
    def test_bad_bands_and_top_n_are_usage_errors_before_any_input(
        self, tmp_path, argv, message, capsys
    ):
        # The mutation table does not exist: nothing may be read before the check.
        out = tmp_path / "out"
        assert run(argv + fixture_args(out, mutations=tmp_path / "absent.tsv")) == 64
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_freq_without_bands_ignores_their_thresholds(self, tmp_path):
        argv = ["freq", "--t-long", "6", "--t-short", "36", "--top-n", "0"]
        assert run(argv + fixture_args(tmp_path)) == 0
        assert (tmp_path / "frequency.tsv").read_text() == "item\tpercent\n"

    def test_gda_threshold_is_compared_exactly(self, tmp_path):
        # float("0.29999999999999999") is 0.3, but the score is below 3/10.
        args = write_inputs(tmp_path, ["P1"], [("P1", "KRAS"), ("P1", "TP53")])
        (tmp_path / "gda.tsv").write_text(
            "gene\tdisease\tgda_score\nKRAS\tLUAD\t0.3\nTP53\tLUAD\t0.29999999999999999\n"
        )
        argv = ["check", "--gda-threshold", "0.3", "--granularity", "mutation"] + args
        assert run(argv) == 0
        row = (tmp_path / "out" / "knowledge_check.tsv").read_text().splitlines()[1]
        assert row.split("\t")[:5] == ["LUAD", "1", "2", "2", "1"]

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    def test_gda_threshold_outside_unit_interval_is_usage_error(
        self, tmp_path, threshold, capsys
    ):
        out = tmp_path / "out"
        assert run(["check", f"--gda-threshold={threshold}"] + fixture_args(out)) == 64
        capsys.readouterr()
        assert not out.exists()


TREATMENT_HEADER = "sample_id\tdrug_id\torder\teffectiveness\n"


@pytest.mark.parametrize(
    "table, extra, message",
    [
        ("mutations", "P1\tKRAS\t12\t1_0\t10\t0.5", "non-integer start_position '1_0'"),
        ("mutations", "P1\tKRAS\t12\t10\t1_0\t0.5", "non-integer end_position '1_0'"),
        ("mutations", "P1\tKRAS\t12\t10\t10\t0.1_5", "non-numeric vaf '0.1_5'"),
        ("clinical", "P9\tLUAD\t3_6\tliving", "non-numeric os_months '3_6'"),
        ("treatments", "P1\tsotorasib\t1_0\tp", "non-integer order '1_0'"),
        (None, ["freq", "--top-n", "1_0"], "argument --top-n: non-integer value '1_0'"),
        (None, ["freq", "--t-long", "3_6"], "argument --t-long: non-integer value '3_6'"),
        (None, ["cohort", "--t-short", "1_0"], "argument --t-short: non-integer value '1_0'"),
        # Digits other than ASCII ones: fullwidth, Arabic-Indic.
        ("mutations", "P1\tKRAS\t12\t１２\t12\t0.5", "non-integer start_position '１２'"),
        ("mutations", "P1\tKRAS\t12\t10\t10\t٠.٥", "non-numeric vaf '٠.٥'"),
        ("clinical", "P9\tLUAD\t٣٦\tliving", "non-numeric os_months '٣٦'"),
        ("gda", "KRAS\tLUAD\t٠.٥", "non-numeric gda_score '٠.٥'"),
        ("drugs", "d9\tKRAS\t１/２", "non-numeric weight '１/２'"),
        ("treatments", "P1\tsotorasib\t١\tp", "non-integer order '١'"),
        (None, ["freq", "--top-n", "１０"], "argument --top-n: non-integer value '１０'"),
        (None, ["cohort", "--k", "٢"], "argument --k: non-numeric value '٢'"),
    ],
    ids=[
        "start", "end", "vaf", "os_months", "order", "top-n", "t-long", "t-short",
        "start-fullwidth", "vaf-arabic", "os_months-arabic", "gda_score-arabic",
        "weight-fullwidth", "order-arabic", "top-n-fullwidth", "k-arabic",
    ],
)
def test_underscore_is_refused_in_every_number(tmp_path, table, extra, message, capsys):
    """int and float read ``1_0`` as 10, and any Unicode digit (``１２`` as
    12); a cell is a malformed row, and an option a usage error that keeps
    the reason."""
    out = tmp_path / "out"
    if table is None:
        assert run(extra + fixture_args(out)) == 64
        assert message in capsys.readouterr().err
        assert not out.exists()
        return
    path = tmp_path / f"{table}.tsv"
    fixture = FIXTURES / f"{table}.tsv"
    head = fixture.read_text() if fixture.exists() else TREATMENT_HEADER
    path.write_text(head + extra + "\n", encoding="utf-8")
    assert run(["build"] + fixture_args(out) + [f"--{table}={path}"]) == 0
    report = (out / "build_report.tsv").read_text(encoding="utf-8").splitlines()
    assert f"{path}\t{len(head.splitlines()) + 1}\terror\t{message}" in report


def test_freq_modes_are_the_frequency_modes():
    # The parser names them itself, so that building it does not import cohort.
    assert list(cli._FREQUENCY_MODES) == [m.value for m in cohort.FrequencyMode]


class TestConfigFile:
    def test_config_supplies_inputs_and_defaults(self, tmp_path, monkeypatch):
        flags = fixture_args(tmp_path / "flags") + ["--k", "2", "--t-long", "20"]
        assert run(["cohort"] + flags) == 0
        assert run(["cohort"] + fixture_args(tmp_path / "plain")) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mutations": str(FIXTURES / "mutations.tsv"),
            "clinical": str(FIXTURES / "clinical.tsv"),
            "gda": str(FIXTURES / "gda.tsv"),
            "drugs": str(FIXTURES / "drugs.tsv"),
            "out": str(tmp_path / "config"),
            "k": 2,
            "t_long": 20,
        }))
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        assert run(["cohort"]) == 0
        for name in ("survival_bands.tsv", "profile_groups.tsv"):
            expected = (tmp_path / "flags" / name).read_bytes()
            assert (tmp_path / "config" / name).read_bytes() == expected
            # Both settings change this output, so the match shows they were read.
            assert (tmp_path / "plain" / name).read_bytes() != expected

    def test_config_with_a_byte_order_mark_is_read(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_bytes(codecs.BOM_UTF8 + json.dumps({"out": str(tmp_path / "cfg")}).encode())
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        assert run(["build"] + fixture_args(tmp_path)[:-2]) == 0  # no --out
        assert (tmp_path / "cfg" / "build_report.tsv").exists()

    @pytest.mark.parametrize(
        "argv, output",
        [
            (["coexist", "--k", "30"], "coexisting_sets.tsv"),
            (["cohort", "--k", "1"], "profile_groups.tsv"),
        ],
    )
    def test_granularity_setting_is_read_as_the_flag(self, tmp_path, monkeypatch, argv, output):
        # check, cohort and coexist all have --granularity; one setting sets all three.
        assert run(argv + fixture_args(tmp_path / "flag") + ["--granularity", "gene"]) == 0
        assert run(argv + fixture_args(tmp_path / "plain")) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"granularity": "gene"}))
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        assert run(argv + fixture_args(tmp_path / "config")) == 0
        expected = (tmp_path / "flag" / output).read_bytes()
        assert (tmp_path / "config" / output).read_bytes() == expected
        assert (tmp_path / "plain" / output).read_bytes() != expected

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_unreadable_config_is_io_error(self, tmp_path, monkeypatch, content, capsys):
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(content)
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        assert run(["cohort"] + fixture_args(tmp_path)) == 2
        assert "cannot read config" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, setting",
        [
            ("cohort", {"t_long": [1]}),
            ("freq", {"top_n": 2.5}),
            ("check", {"granularity": "bogus"}),
            ("build", {"out": 5}),
            ("cohort", {"k": [1]}),
        ],
    )
    def test_bad_config_value_is_io_error(self, tmp_path, monkeypatch, command, setting, capsys):
        # argparse converts only a string default and checks no default
        # against its choices, so each value is read as its option's text is.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        monkeypatch.chdir(tmp_path)
        assert run([command] + fixture_args(tmp_path)[:-2]) == 2  # no --out
        [key] = setting
        assert capsys.readouterr().err == (
            f"cannot read config {config}: bad {key} value {setting[key]!r}\n"
        )

    @pytest.mark.parametrize(
        "setting",
        [
            {"t-long": 24},  # spelled as the flag, not as its setting t_long
            {"metric": "jaccard"},  # an option that takes no config default
            {"out": "x", "bogus": 1, "other": 2},
        ],
    )
    def test_unknown_setting_is_io_error(self, tmp_path, monkeypatch, setting, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        # The mutation table is absent, so reading it would give another error.
        argv = fixture_args(tmp_path / "out", mutations=tmp_path / "absent.tsv")
        assert run(["cohort"] + argv) == 2
        unknown = next(key for key in setting if key != "out")
        assert capsys.readouterr().err == (
            f"cannot read config {config}: unknown setting {unknown!r}\n"
        )


class TestParseBoundary:
    @pytest.mark.parametrize("table", ["mutations", "clinical", "gda", "drugs"])
    def test_non_utf8_input_is_io_error_with_line(self, tmp_path, table, capsys):
        path = tmp_path / f"{table}.tsv"
        lines = (FIXTURES / f"{table}.tsv").read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b"\t", b"\xe9\t", 1)  # Latin-1 e-acute
        path.write_bytes(b"".join(lines))
        assert run(["build"] + fixture_args(tmp_path / "out", **{table: path})) == 2
        assert f"{path}:4: not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_is_io_error_with_line(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{\n  "out": "caf\xe9"\n}\n')
        monkeypatch.setenv(cli.CONFIG_ENV, str(config))
        assert run(["build"] + fixture_args(tmp_path)) == 2
        assert f"cannot read config {config}:2: not valid UTF-8" in capsys.readouterr().err

    def test_inputs_with_a_byte_order_mark_match_the_goldens(self, tmp_path):
        # Spreadsheet "UTF-8" exports begin with one.
        tables = {}
        for table in ("mutations", "clinical", "gda", "drugs"):
            tables[table] = tmp_path / f"{table}.tsv"
            tables[table].write_bytes(codecs.BOM_UTF8 + (FIXTURES / f"{table}.tsv").read_bytes())
        replay_goldens(tmp_path / "out", tables)

    def test_comma_in_patient_id_is_rejected(self, tmp_path, capsys):
        args = write_inputs(
            tmp_path, ["P1", "P9,P10"], [("P1", "KRAS"), ("P9,P10", "KRAS")]
        )
        assert run(["build"] + args) == 0
        report = (tmp_path / "out" / "build_report.tsv").read_text().splitlines()
        for table in ("clinical", "mutations"):
            path = tmp_path / f"{table}.tsv"
            assert f"{path}\t3\terror\tcomma in sample_id 'P9,P10'" in report
        assert run(["cohort"] + args) == 0
        assert (tmp_path / "out" / "profile_groups.tsv").read_text() == (
            "group\tsize\tpatients\n1\t1\tP1\n"
        )
        capsys.readouterr()


class TestAtomicOutput:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "frequency.tsv"
        cli._write_tsv(path, ["item", "percent"], [("KRAS", "50.0")])
        before = path.read_bytes()

        def rows():
            yield ("TP53", "25.0")
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            cli._write_tsv(path, ["item", "percent"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["frequency.tsv"]


def test_cliques_byte_identical_across_hash_seeds(tmp_path):
    # Hamming k=1 cliques {P0,P1,P4}, {P0,P2}, {P2,P3}; the clique search
    # meets the two led by P0 in an order that follows the hash seed.
    rows = [("P0", "M3"), ("P0", "M4"), ("P1", "M3"), ("P2", "M4"),
            ("P3", "M1"), ("P3", "M4"), ("P4", "M3")]
    args = write_inputs(tmp_path, [f"P{i}" for i in range(5)], rows)
    outputs = set()
    for seed in range(1, 5):
        out = tmp_path / f"seed{seed}"
        argv = [a if a != str(tmp_path / "out") else str(out) for a in args]
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(REPO / "src"))
        subprocess.run(
            [sys.executable, "-m", "oncograph.cli", "cohort", "--k", "1",
             "--strategy", "cliques", *argv],
            env=env, check=True, capture_output=True,
        )
        outputs.add((out / "profile_groups.tsv").read_bytes())
    assert outputs == {
        b"group\tsize\tpatients\n1\t3\tP0,P1,P4\n2\t2\tP0,P2\n3\t2\tP2,P3\n"
    }


TABLES = ["mutations", "clinical", "gda", "drugs"]
SUBCOMMANDS = [
    ["build"],
    ["check"],
    ["freq", "--mode", "gene_without_multiplicity"],
    ["coexist", "--k", "30", "--granularity", "gene"],
    ["cohort", "--metric", "jaccard", "--k", "0.5", "--strategy", "cliques"],
    ["treat", "--patient", "P1", "--targets", "KRAS_12_25398284_25398284", "--weighted"],
]
# Cells that the tables' columns read as ids, numbers, statuses or junk.
CELLS = st.one_of(
    st.sampled_from([
        "", "P1", "P2", "KRAS", "EGFR", "12", "25398284", "-1", "0", "0.5", "1.5",
        "nan", "inf", "1e400", "living", "deceased", "1:DECEASED", "Lung Adenocarcinoma",
        "sotorasib", "a,b", " ", "#",
    ]),
    st.text(max_size=6),
)
# A table is random bytes, or random rows under its real header or none.
TABLE_CONTENT = st.one_of(
    st.binary(max_size=120),
    st.tuples(st.booleans(), st.lists(st.lists(CELLS, max_size=7), max_size=6)),
)


HEADERS = {table: (FIXTURES / f"{table}.tsv").read_text().splitlines()[1] for table in TABLES}
HEADERS["treatments"] = TREATMENT_HEADER.rstrip("\n")
# A treatments table is fuzzed like the others, or is rows of fixture
# patients and drugs, so that some reach the red insert.
TREATMENT_ROW = st.tuples(
    st.sampled_from(["P1", "P2", "P9"]),
    st.sampled_from(["sotorasib", "erlotinib", "d9"]),
    st.sampled_from(["0", "1", "2", "-1", "x"]),
    st.sampled_from(["p", "N", "u", "r", "x"]),
).map(list)
TREATMENT_CONTENT = st.one_of(
    TABLE_CONTENT, st.tuples(st.just(True), st.lists(TREATMENT_ROW, max_size=6))
)


def write_tables(tmp: Path, tables) -> dict:
    """Writes each fuzzed table (table -> TABLE_CONTENT) into ``tmp``;
    returns table -> path."""
    paths = {}
    for table, content in tables.items():
        if not isinstance(content, bytes):
            keep_header, rows = content
            lines = ["\t".join(cells) for cells in rows]
            if keep_header:
                lines.insert(0, HEADERS[table])
            content = "\n".join(lines).encode()
        paths[table] = tmp / f"{table}.tsv"
        paths[table].write_bytes(content)
    return paths


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.sampled_from(TABLES), TABLE_CONTENT, min_size=1))
def test_fuzzed_inputs_exit_with_a_documented_code(tables):
    """Whatever is in the input tables, every subcommand exits 0, 2, 3 or
    64, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tables(Path(tmp), tables)
        for command in SUBCOMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(command + fixture_args(Path(tmp) / "out", **paths))
            assert code in {0, 2, 3, 64}, (command, code, err.getvalue())
            assert "Traceback" not in err.getvalue()


PARSERS = {
    "mutations": ingest.parse_mutation_table,
    "clinical": ingest.parse_clinical_table,
    "gda": ingest.parse_gda_table,
    "drugs": ingest.parse_drug_target_table,
}


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.sampled_from(TABLES), TABLE_CONTENT, min_size=1),
    st.none() | TREATMENT_CONTENT,
)
def test_built_graph_always_validates(tables, treatments):
    """build_graph inserts only through add_node and add_edges, which refuse
    whatever validate would report, so every graph it returns validates
    clean, and build does not validate it again. A table that cannot be
    read (no header, not UTF-8) is replaced by its fixture; a treatments
    table, by none."""
    if treatments is not None:
        tables = {**tables, "treatments": treatments}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tables(Path(tmp), tables)
        rows = []
        for table in TABLES:
            try:
                parsed = PARSERS[table](paths.get(table, FIXTURES / f"{table}.tsv"))
            except (errors.MissingColumn, errors.InvalidEncoding):
                parsed = PARSERS[table](FIXTURES / f"{table}.tsv")
            rows.append(parsed.rows)
        treatment_rows = None
        if "treatments" in paths:
            try:
                treatment_rows = ingest.parse_treatment_table(paths["treatments"]).rows
            except (errors.MissingColumn, errors.InvalidEncoding):
                pass
    graph, _ = ingest.build_graph(*rows, treatment_rows)
    assert validate(graph) == []
