"""Import footprint and the lazy package namespace.

``import summitwx`` loads no submodule, each CLI subcommand loads only the
layers it runs, and every public name of the package still resolves to the
object its home module defines. Footprints are sets of loaded modules, read
from ``sys.modules`` in a fresh interpreter; nothing here is timed.
"""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import summitwx
from summitwx import cli
from conftest import FIXTURE_DIR
from test_cli import write_csvs

SRC = Path(summitwx.__file__).resolve().parents[1]
SUBMODULES = ("canonical", "cli", "distributions", "hazards", "layout", "model", "stats",
              "textparse")

#: The package's public names and their home modules: the names the package
#: bound when it imported every layer eagerly, with ``Participant`` in place
#: of the per-response record and its two helpers, ``WIND_DISPLAY_FLOOR`` in
#: place of the icon rule config and its default, and ``derive_icon_rows``,
#: which gives both icon rows of a document, in place of ``derive_icons``,
#: which gave the row of one period. The lazy namespace keeps each.
EAGER_EXPORTS = {
    "canonical": "SCHEMA emit_canonical parse_canonical",
    "hazards": """KIND_ORDER WIND_DISPLAY_FLOOR HazardIcon HazardKind ScaleBand
        ScaleTable ScaleTableError TriadAdvisory TriadThresholds TriadVerdict beaufort_force
        derive_document_icons derive_icon_rows load_scale_table load_tables
        period_wind_chill round_half_away triad_advisory wind_chill wind_chill_category""",
    "layout": """CONDITION_TOKENS FORMATS STYLESHEET_VERSION LayoutCondition RenderedDocument
        condition_from_token render render_icon render_stimulus_set""",
    "model": """COMPASS_POINTS WINTER_PRECIP_KINDS WORST_CASE_LABEL Certainty ForecastDocument
        ForecastPeriod InvalidDocument PrecipEvent PrecipKind ValueRange Violation
        WindPrediction require_valid validate validate_period""",
    "stats": """ACTIVITIES AnovaResult CodingCell CodingTable GroupSummary PairwiseResult
        Participant RegressionResult StatsReport StudyDataError build_report emit_plot_spec
        emit_report format_report grips_regression load_study one_way_anova pairwise_t_tests
        percentage t_ci95""",
    "textparse": "Diagnostic ParseResult Severity format_diagnostic parse_forecast",
}
EXPORT_HOMES = [(name, module) for module, names in EAGER_EXPORTS.items()
                for name in names.split()]


def fresh_python(*args):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


LOADED_MODULES = """
import json, sys
print(json.dumps(sorted(m[len("summitwx."):] for m in sys.modules
                        if m.startswith("summitwx."))))
"""


def loaded_after(code):
    """The ``summitwx`` submodules a fresh interpreter holds after ``code``."""
    proc = fresh_python("-c", code + LOADED_MODULES)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


# ---------------------------------------------------------------- footprint

PARSE_LAYERS = {"cli", "model", "textparse", "canonical"}
#: A raw bulletin needs only the text parser; the canonical reader is loaded
#: only for a file that starts like a canonical one.
RAW_LAYERS = {"cli", "model", "textparse"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["parse", "{calm}"], PARSE_LAYERS),
        (["classify", "{severe}"], RAW_LAYERS | {"hazards"}),
        (["classify", "{tmp}/severe.canon"], PARSE_LAYERS | {"hazards"}),
        (["render", "{severe}", "--condition", "icons", "--format", "svg"],
         RAW_LAYERS | {"hazards", "layout"}),
        (["stimuli", "{calm}", "{severe}", "--condition", "per-day-icons", "--out", "{tmp}/set"],
         RAW_LAYERS | {"hazards", "layout"}),
        (["stats", "--responses", "{tmp}/responses.csv",
          "--participants", "{tmp}/participants.csv"],
         {"cli", "model", "stats", "distributions"}),
        (["validate-tables"], {"cli", "model", "hazards"}),
    ],
    ids=["parse", "classify", "classify-canonical", "render", "stimuli", "stats",
         "validate-tables"],
)
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, layers):
    write_csvs(tmp_path)
    severe = FIXTURE_DIR / "severe-day.txt"
    assert cli.main(["parse", str(severe), "--out", str(tmp_path / "severe.canon")]) == 0
    argv = [arg.format(calm=FIXTURE_DIR / "calm-day.txt", severe=severe, tmp=tmp_path)
            for arg in argv]
    code = f"from summitwx import cli\nassert cli.main({argv!r}) == 0\n"
    assert loaded_after(code) == layers


def run_fresh_without(argv, modules, tmp_path=None):
    """Run ``summitwx argv`` in a fresh interpreter and check that none of
    ``modules`` was loaded."""
    argv = [arg.format(calm=FIXTURE_DIR / "calm-day.txt", severe=FIXTURE_DIR / "severe-day.txt",
                       tmp=tmp_path) for arg in argv]
    code = (f"import sys\nfrom summitwx import cli\nassert cli.main({argv!r}) == 0\n"
            f"loaded = sorted(m for m in {sorted(modules)!r} if m in sys.modules)\n"
            "assert not loaded, f'{loaded} loaded'\n")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["classify", "{severe}"], ["render", "{severe}", "--condition", "icons", "--format", "svg"]],
    ids=["classify", "render"],
)
def test_one_shot_subcommands_do_not_load_hashlib(argv):
    # Only the stimulus-set index digests its renders.
    run_fresh_without(argv, {"hashlib"})


@pytest.mark.parametrize(
    "argv",
    [["classify", "{severe}"], ["render", "{severe}", "--condition", "icons", "--format", "html"],
     ["stimuli", "{calm}", "{severe}", "--condition", "icons", "--format", "html",
      "--out", "{tmp}/set"]],
    ids=["classify", "render", "stimuli"],
)
def test_no_subcommand_loads_the_html_module(tmp_path, argv):
    # The renderer escapes with five replacements of its own; the html
    # module would load its entity table, which escaping does not use.
    run_fresh_without(argv, {"html", "html.entities"}, tmp_path)


@pytest.mark.parametrize(
    "argv",
    [["stats", "--responses", "{tmp}/responses.csv", "--participants", "{tmp}/participants.csv"],
     ["validate-tables"]],
    ids=["stats", "validate-tables"],
)
def test_subcommands_without_a_bulletin_do_not_load_datetime(tmp_path, argv):
    # Only the parsers read a time stamp; model names datetime for type
    # checkers alone, so a call that parses no bulletin does not import it.
    write_csvs(tmp_path)
    run_fresh_without(argv, {"datetime", "_datetime"}, tmp_path)


def test_loading_the_tables_does_not_load_datetime():
    proc = fresh_python("-c", "import sys, summitwx\nsummitwx.load_tables()\n"
                              "assert 'datetime' not in sys.modules, 'datetime loaded'\n")
    assert proc.returncode == 0, proc.stderr


def test_every_dataclass_has_a_docstring_of_its_own():
    # Without one, dataclasses writes "Name(field: type, ...)" through
    # inspect.signature as the class is defined, on every import.
    undocumented = []
    for stem in SUBMODULES:
        module = importlib.import_module(f"summitwx.{stem}")
        undocumented += [f"{stem}.{name}" for name, obj in vars(module).items()
                         if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                         and obj.__module__ == module.__name__
                         and (obj.__doc__ or f"{name}(").startswith(f"{name}(")]
    assert undocumented == []


def test_import_summitwx_loads_no_submodule():
    assert loaded_after("import summitwx\n") == set()


def test_a_public_name_loads_only_its_home_layers():
    assert loaded_after("import summitwx\nsummitwx.LayoutCondition\n") == {"model"}
    assert loaded_after("import summitwx\nsummitwx.load_study\n") == {
        "model", "stats", "distributions"}


def test_library_render_loads_neither_parser():
    # The number formatter lives in model, so the renderer needs no parser.
    assert loaded_after("import summitwx.layout\n") == {"layout", "hazards", "model"}


def test_no_module_imports_a_private_name_from_a_sibling_other_than_model():
    # Only model's private helpers (the number grammar and formatter) are
    # shared; every other layer is reached through its public functions.
    offenders = []
    for path in sorted((SRC / "summitwx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                sibling = node.module
            elif node.level == 0 and node.module.startswith("summitwx."):
                sibling = node.module[len("summitwx."):]
            else:
                continue
            offenders += [f"{path.stem} imports {sibling}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_") and sibling != "model"]
    assert offenders == []


#: Each module's module-level imports of its siblings. A layer that a
#: subcommand may not need is imported inside the function that runs it.
LAYER_GRAPH = {
    "canonical": {"model", "textparse"},
    "cli": {"model"},
    "distributions": set(),
    "hazards": {"model"},
    "layout": {"hazards", "model"},
    "model": set(),
    "stats": {"distributions", "model"},
    "textparse": {"model"},
}


def test_each_module_imports_only_its_layers_at_module_level():
    graph = {}
    for path in sorted((SRC / "summitwx").glob("*.py")):
        if path.stem == "__init__":
            continue
        siblings = graph[path.stem] = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                siblings.add(node.module)
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("summitwx."):
                siblings.add(node.module[len("summitwx."):])
    assert graph == LAYER_GRAPH


def test_the_parsers_leave_the_model_rules_to_model():
    # Both parsers build through model._period and model._document, which
    # report a broken rule as a diagnostic; neither catches or checks itself.
    for stem in ("textparse", "canonical"):
        tree = ast.parse((SRC / "summitwx" / f"{stem}.py").read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        assert {"_period", "_document"} <= names, stem
        assert not names & {"InvalidDocument", "validate", "validate_period"}, stem


def test_input_readers_take_numbers_only_from_the_model_grammar():
    # Canonical values, threshold values and scale-table bands all go through
    # model._read_number; a bare float() or int() would accept '1_0' or '+5'.
    offenders = []
    for stem in ("canonical", "cli", "hazards"):
        path = SRC / "summitwx" / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "int")):
                offenders.append(f"{stem}.py:{node.lineno} calls {node.func.id}()")
    assert offenders == []


def test_study_reader_takes_numbers_only_from_the_model_grammar():
    # grips_score and each distinct rating spelling go through
    # model._read_number; a row read in full, because one of its spellings
    # failed or the memo is full, is converted only after its ratings match
    # the model grammar as a whole.
    tree = ast.parse((SRC / "summitwx" / "stats.py").read_text(encoding="utf-8"))
    offenders = [f"stats.py:{node.lineno} calls {node.func.id}()" for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id in ("float", "int")]
    assert offenders == []


def test_no_module_splits_lines_at_anything_but_a_newline():
    # str.splitlines() also ends a line at \v, \f, \x1c-\x1e, \x85, U+2028
    # and U+2029, where no editor does, so a line number after one is wrong.
    offenders = []
    for path in sorted((SRC / "summitwx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "splitlines"):
                offenders.append(f"{path.name}:{node.lineno} calls .splitlines()")
    assert offenders == []


def test_only_model_reads_an_input_file_as_text_or_bytes():
    # model._read_input decodes each input file and names the line of a byte
    # that is not UTF-8; a second reader would decide both again, its own way.
    offenders = []
    for path in sorted((SRC / "summitwx").glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("read_text", "read_bytes")):
                offenders.append(f"{path.name}:{node.lineno} calls .{node.func.attr}()")
    assert offenders == []


# ---------------------------------------------------------- lazy namespace


def test_all_is_the_eager_export_list():
    assert sorted(summitwx.__all__) == sorted(name for name, _ in EXPORT_HOMES)


@pytest.mark.parametrize("name, module", EXPORT_HOMES)
def test_each_name_is_its_home_module_attribute(name, module):
    home = importlib.import_module(f"summitwx.{module}")
    assert getattr(summitwx, name) is getattr(home, name)


def test_dir_lists_every_name_and_submodule():
    # In a fresh interpreter, where no name has been looked up and cached yet.
    proc = fresh_python("-c", "import json, summitwx\nprint(json.dumps(dir(summitwx)))")
    assert proc.returncode == 0, proc.stderr
    listed = set(json.loads(proc.stdout))
    assert set(summitwx.__all__) <= listed
    assert set(SUBMODULES) <= listed


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from summitwx import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(summitwx.__all__)


def test_submodules_resolve_after_a_bare_import():
    assert loaded_after("import summitwx\nsummitwx.layout.render\n") >= {"layout"}
    assert loaded_after("import summitwx\nsummitwx.distributions.t_ppf\n") == {"distributions"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'summitwx' has no attribute 'no_such_name'"):
        summitwx.no_such_name


def test_condition_names_are_one_object_on_every_path():
    assert (summitwx.LayoutCondition is summitwx.layout.LayoutCondition
            is summitwx.model.LayoutCondition is summitwx.stats.LayoutCondition)
    for name in ("CONDITION_TOKENS", "FORMATS", "condition_from_token"):
        assert getattr(summitwx.layout, name) is getattr(summitwx.model, name)


# ------------------------------------------------------------- import order


@pytest.mark.parametrize("module", ("summitwx",) + tuple(f"summitwx.{m}" for m in SUBMODULES))
def test_each_module_imports_first_without_warnings(module):
    proc = fresh_python("-W", "error", "-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_cli_module_help_runs_without_warnings():
    proc = fresh_python("-W", "error", "-m", "summitwx.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: summitwx")
