"""The runtime needs only the standard library, and a CLI call imports only
what its command runs."""

import argparse
import json
import subprocess
import sys

import pytest

from oncograph import cli

from conftest import FIXTURES, GOLDEN, REPO

# The environment of every interpreter started here. No bytecode is written:
# a __pycache__ left in src/ would make later runs of the checkout skip
# compiling, which every benchmark call of a fresh checkout pays.
ENV = {"PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def test_package_imports_only_standard_library_modules():
    # -S leaves site-packages off sys.path, as the benchmark runs the CLI, and
    # the check below also catches a third-party module found some other way.
    names = sorted(p.stem for p in (REPO / "src" / "oncograph").glob("*.py"))
    script = "\n".join(
        ["import json, sys"]
        + [f"import oncograph.{n}" for n in names if n != "__init__"]
        + ["print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))"]
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=ENV,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout)) - {"__main__", "oncograph"}
    assert sorted(loaded - set(sys.stdlib_module_names)) == []


# Runs oncograph.cli as `python -m` does, through runpy, then writes the names
# in sys.modules to the file named by the first argument.
CLI_SHIM = """\
import runpy, sys
modules_file = sys.argv.pop(1)
try:
    runpy.run_module("oncograph.cli", run_name="__main__", alter_sys=True)
finally:
    with open(modules_file, "w", encoding="utf-8") as out:
        out.write("\\n".join(sorted(sys.modules)))
"""

# Modules that no call may load: the records are collections.namedtuple
# classes, paths are strings, json is read only for a config file, and the
# help formatter is given the terminal width that shutil would read.
NEVER_LOADED = {"dataclasses", "inspect", "pathlib", "json", "typing", "shutil"}

BASE = {"oncograph", "oncograph.errors", "oncograph.graph", "oncograph.ingest"}
TREAT_TARGETS = "KRAS_12_25398284_25398284,EGFR_7_55259515_55259515"

# Each command on the fixtures: its argv, its oncograph modules, and each TSV
# it writes with the golden file it must equal.
COMMANDS = {
    "build": (["build"], BASE, {"build_report.tsv": "build_report.tsv"}),
    "check": (
        ["check"], BASE | {"oncograph.knowledge", "oncograph.cohort"},
        {"knowledge_check.tsv": "knowledge_check.tsv"},
    ),
    "freq": (
        ["freq", "--mode", "mutation"], BASE | {"oncograph.cohort"},
        {"frequency.tsv": "frequency.tsv"},
    ),
    "coexist": (
        ["coexist", "--k", "30"], BASE | {"oncograph.cohort"},
        {"coexisting_sets.tsv": "coexisting_sets.tsv"},
    ),
    "cohort": (
        ["cohort", "--k", "2"], BASE | {"oncograph.cohort"},
        {"survival_bands.tsv": "survival_bands.tsv",
         "profile_groups.tsv": "profile_groups.tsv"},
    ),
    "treat": (
        ["treat", "--patient", "P1", "--targets", TREAT_TARGETS],
        BASE | {"oncograph.hitting_set"}, {"treatment.tsv": "treatment.tsv"},
    ),
    "treat --weighted": (
        ["treat", "--patient", "P1", "--targets", TREAT_TARGETS, "--weighted"],
        BASE | {"oncograph.hitting_set"}, {"treatment.tsv": "treatment_weighted.tsv"},
    ),
}


def test_every_golden_file_is_written_by_a_command():
    # So the fresh-interpreter runs below compare every golden file.
    written = {golden for _, _, outputs in COMMANDS.values() for golden in outputs.values()}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(written)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_in_a_fresh_interpreter(tmp_path, command):
    # The in-process tests import every module early, so only a new process
    # shows an import that a command needs but does not make. No cache:
    # every module is compiled from source, as the benchmark runs it.
    argv, modules, outputs = COMMANDS[command]
    out = tmp_path / "out"
    modules_file = tmp_path / "modules.txt"
    tables = ("mutations", "clinical", "gda", "drugs")
    inputs = [f"--{t}={FIXTURES / (t + '.tsv')}" for t in tables]
    done = subprocess.run(
        [sys.executable, "-S", "-c", CLI_SHIM, str(modules_file),
         *argv, *inputs, f"--out={out}"],
        env=ENV,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    for name, golden in outputs.items():
        assert (out / name).read_bytes() == (GOLDEN / golden).read_bytes(), name
    loaded = set(modules_file.read_text(encoding="utf-8").split("\n"))
    assert sorted(loaded & NEVER_LOADED) == []
    assert {m for m in loaded if m.partition(".")[0] == "oncograph"} == modules


def test_submodules_load_on_first_use():
    script = "\n".join([
        "import sys, oncograph",
        "lazy = ['cohort', 'hitting_set', 'knowledge']",
        "assert not [m for m in lazy if 'oncograph.' + m in sys.modules]",
        "assert oncograph.cohort.frequency_table.__name__ == 'frequency_table'",
        "from oncograph import hitting_set, knowledge",
        "assert knowledge is sys.modules['oncograph.knowledge']",
        "import oncograph.ingest as ingest",
        "assert oncograph.ingest is ingest",
        "print(' '.join(oncograph.__all__))",
    ])
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=ENV,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "KnowledgeGraph", "PatientRecord", "MutationKey", "DiseaseNode", "DrugNode",
        "GeneticEdge", "DiagnosisEdge", "TreatmentEdge", "GdaAssociation", "TargetEdge",
        "Partition", "EdgeColor", "Effectiveness", "validate",
        "cohort", "errors", "hitting_set", "ingest", "knowledge",
    ]


@pytest.mark.parametrize("columns", [None, "40", "60", "120"])
def test_help_matches_the_stock_formatter(monkeypatch, columns):
    # The parser's formatter takes its width from COLUMNS or the terminal, as
    # argparse's HelpFormatter does through shutil, so every help and usage
    # text is the one argparse would give by itself.
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    parser = cli.build_arg_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["build", "check", "coexist", "cohort", "freq", "treat"]
    for p in [parser, *sub.choices.values()]:
        texts = (p.format_help(), p.format_usage())
        p.formatter_class = argparse.HelpFormatter
        assert texts == (p.format_help(), p.format_usage()), p.prog
