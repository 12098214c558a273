"""Command-line behavior: the documented exit-code contract end to end.

Exit 0 for success, 1 for any input-level problem (flags, unreadable files,
schema violations), 2 for internal invariant failures. Every error path is
driven here through ``main`` so the stderr line and the code are both
checked; two subprocess tests prove the codes survive the entry point.
"""

import contextlib
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, FIXTURE_NAMES
from summitwx import hazards
from summitwx.canonical import parse_canonical
from summitwx.cli import main
from summitwx.layout import condition_from_token, render
from summitwx.stats import build_report, emit_plot_spec, emit_report, format_report, load_study
from summitwx.textparse import parse_forecast

SEVERE = str(FIXTURE_DIR / "severe-day.txt")
CALM = str(FIXTURE_DIR / "calm-day.txt")
MIXED = str(FIXTURE_DIR / "mixed-precip.txt")

GOOD_THRESHOLDS = "# summit cutoffs\n\nwind_high_mph: 74\ntemperature_low_f: -10\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- parse


def test_parse_emits_canonical_to_stdout(capsys):
    code, out, err = run(capsys, "parse", CALM)
    assert code == 0
    assert out.startswith("schema: hsf-canonical/1\n")
    assert err == ""
    reparsed = parse_canonical(out)
    assert reparsed.document == parse_forecast(
        (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8"),
        source_id="calm-day",
    ).document


def test_parse_writes_file_and_honors_source_id(tmp_path, capsys):
    out_path = tmp_path / "canon.txt"
    code, out, err = run(capsys, "parse", CALM, "--out", str(out_path),
                         "--source-id", "custom-id")
    assert code == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert "source_id: custom-id" in text.splitlines()


def test_parse_routes_warnings_to_stderr(capsys):
    code, out, err = run(capsys, "parse", MIXED)
    assert code == 0
    assert "warning:" not in out
    assert f"{MIXED}: warning:5:97" in err
    assert "gusts mentioned without a numeric value" in err


def test_parse_error_diagnostics_exit_1(tmp_path, capsys):
    bad = tmp_path / "two-periods.txt"
    bad.write_text(
        "Issued: 2026-01-01T00:00:00\nQuiet.\n\n"
        "Today: Sunny. Temperatures 10 to 20F. Winds 5 to 10 mph.\n\n"
        "Tonight: Clear. Temperatures 5 to 15F. Winds 5 to 10 mph.\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert "expected 4 periods, found 2" in err
    assert "error: " in err
    assert "1 error diagnostic(s); no document" in err
    assert out == ""


def test_raw_period_violation_is_reported_at_its_header(tmp_path, capsys):
    bad = tmp_path / "negative-wind.txt"
    text = (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8")
    bad.write_text(text.replace("SW 6-14 mph", "SW -6 to 14 mph"), encoding="utf-8")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == (
        f"{bad}: error:8:1 period 4 ('Tomorrow night'): wind.sustained: "
        "wind speeds must be >= 0"
    )


def test_canonical_period_violation_is_reported_at_its_marker(tmp_path, capsys):
    code, canon, _ = run(capsys, "parse", CALM)
    assert code == 0
    lines = canon.splitlines()
    marker = max(i for i, line in enumerate(lines) if line == "period:")
    low = lines.index("  wind_low_mph: 6", marker)
    lines[low] = "  wind_low_mph: -6"
    bad = tmp_path / "negative-wind.canon"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "classify", str(bad))
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == (
        f"{bad}: error:{marker + 1}:1 period 4: wind.sustained: wind speeds must be >= 0"
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_parse_writes_canonical_input_back_unchanged(tmp_path, capsys, name):
    code, canon, _ = run(capsys, "parse", str(FIXTURE_DIR / f"{name}.txt"))
    assert code == 0
    path = tmp_path / f"{name}.canon"
    path.write_text(canon, encoding="utf-8")
    assert run(capsys, "parse", str(path)) == (0, canon, "")


def test_parse_source_id_names_raw_input_only(tmp_path, capsys):
    # A canonical file keeps its own source_id line.
    _, canon, _ = run(capsys, "parse", CALM)
    path = tmp_path / "renamed.canon"
    path.write_text(canon, encoding="utf-8")
    assert run(capsys, "parse", str(path), "--source-id", "other") == (0, canon, "")


def test_parse_joins_a_hazard_note_wrapped_across_lines(tmp_path, capsys):
    # Only a whitespace run that breaks a line becomes one space.
    text = (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8")
    wrapped = tmp_path / "wrapped.txt"
    wrapped.write_text(
        text.replace("Today: Mostly sunny.", "Today: Dense fog  in the\n  morning."),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "parse", str(wrapped))
    assert (code, err) == (0, "")
    assert "  hazard_note: Dense fog  in the morning." in out.splitlines()


def test_parse_reads_raw_numbers_in_ascii_digits_only(tmp_path, capsys):
    text = (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8")
    arabic = tmp_path / "arabic.txt"
    arabic.write_text(text.replace("48-58F", "٤٨-٥٨F"), encoding="utf-8")
    code, out, err = run(capsys, "parse", str(arabic))
    assert "temp_low_f: 48" not in out
    assert code == 1
    assert "error:5:1 period 1 ('Today'): no temperature found" in err


@pytest.mark.parametrize("word", ["\u017fnow", "\u017fleet"])
def test_parse_reads_a_look_alike_precipitation_word_as_narrative(tmp_path, capsys, word):
    # Under Unicode case folding U+017F matches "s", but it is not an ASCII letter.
    text = (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8")
    path = tmp_path / "long-s.txt"
    path.write_text(text.replace("Today: Mostly sunny.", f"Today: Chance of {word}."), encoding="utf-8")
    code, out, err = run(capsys, "parse", str(path))
    assert (code, err) == (0, "")
    assert run(capsys, "parse", CALM)[1].replace("calm-day", "long-s") == out


def test_parse_reads_crlf_files_as_bare_newlines(tmp_path, capsys):
    crlf = tmp_path / "calm-day.txt"
    crlf.write_bytes((FIXTURE_DIR / "calm-day.txt").read_bytes().replace(b"\n", b"\r\n"))
    assert run(capsys, "parse", str(crlf)) == run(capsys, "parse", CALM)


def test_missing_input_file_exit_1(tmp_path, capsys):
    # Every reader names an input it cannot read in one form, whatever the
    # operating system calls the reason.
    r_path, p_path = write_csvs(tmp_path)
    missing = tmp_path / "missing"
    for argv, name in [
        (("parse", "/nonexistent/forecast.txt"), "/nonexistent/forecast.txt"),
        (("stats", "--responses", str(missing), "--participants", str(p_path)), missing),
        (("stats", "--responses", str(r_path), "--participants", str(tmp_path)), tmp_path),
        (("validate-tables", "--tables", str(missing)), missing / "beaufort.table"),
        (("classify", SEVERE, "--tables", str(missing)), missing / "beaufort.table"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: cannot read {name}: ")
        assert "Errno" not in err and err.count("\n") == 1


def test_unwritable_output_exit_1(tmp_path, capsys):
    # Every writer names an output it cannot write in one form: a missing
    # directory, a directory where a file is expected, a file where a
    # directory is, a file that an earlier output names too. stats writes its
    # files before its report, so a failed file leaves stdout empty. Outputs
    # are whole or absent: a failure leaves no new file, no temporary file and
    # no new directory, and render's payload is not replaced when its manifest
    # cannot be. A pipe takes nothing, as it is written only after every file.
    r_path, p_path = write_csvs(tmp_path)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    missing = tmp_path / "missing" / "out"
    a_file = tmp_path / "a-file"
    a_file.write_text("", encoding="utf-8")
    (tmp_path / "taken.svg.manifest").mkdir()
    (tmp_path / "set" / "index.tsv").mkdir(parents=True)
    stats = ("stats", "--responses", str(r_path), "--participants", str(p_path))
    for argv, name in [
        (("parse", CALM, "--out", str(missing)), missing),
        (("classify", CALM, "--out", str(tmp_path)), tmp_path),
        (("render", CALM, "--condition", "icons", "--out", str(missing)), missing),
        (("render", CALM, "--condition", "icons", "--out", str(tmp_path / "taken.svg")),
         tmp_path / "taken.svg.manifest"),
        (("stimuli", CALM, "--condition", "icons", "--out", str(a_file / "set")), a_file / "set"),
        (("stimuli", CALM, "--condition", "icons", "--out", str(missing)), missing),
        (("stimuli", CALM, "--condition", "icons", "--out", str(tmp_path / "set")),
         tmp_path / "set" / "index.tsv"),
        ((*stats, "--out", str(missing)), missing),
        ((*stats, "--out", str(tmp_path / "report.txt"), "--plot-spec", str(tmp_path)), tmp_path),
        ((*stats, "--out", str(tmp_path / "twice.txt"), "--plot-spec", str(tmp_path / "twice.txt")),
         tmp_path / "twice.txt"),
        ((*stats, "--out", str(pipe), "--plot-spec", str(missing)), missing),
    ]:
        before = sorted(tmp_path.rglob("*"))
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run(capsys, *argv)
            assert os.read(reader, 1 << 16) == b""
        finally:
            os.close(reader)
        assert code == 1
        assert err.startswith(f"error: cannot write {name}: ")
        assert "Errno" not in err and err.count("\n") == 1
        assert out == ""
        assert sorted(tmp_path.rglob("*")) == before


def test_output_through_a_link_replaces_the_file_it_names(tmp_path, capsys):
    real = tmp_path / "real.canon"
    real.write_text("an earlier run\n", encoding="utf-8")
    link = tmp_path / "link.canon"
    link.symlink_to(real)
    assert run(capsys, "parse", CALM, "--out", str(link)) == (0, "", "")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == run(capsys, "parse", CALM)[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.canon", "real.canon"]


def test_output_into_a_pipe_is_written_in_place(tmp_path, capsys):
    # A pipe, like a device, is not replaced by a file. The canonical text
    # fits the pipe's buffer, so nothing waits on the reader.
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, "parse", CALM, "--out", str(pipe)) == (0, "", "")
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data.decode("utf-8") == run(capsys, "parse", CALM)[1]
    assert pipe.is_fifo() and list(tmp_path.iterdir()) == [pipe]


# ------------------------------------------------------------------ classify


def test_classify_lists_periods_and_overall(capsys):
    code, out, err = run(capsys, "classify", SEVERE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "per-period:"
    assert lines[1] == "  1. Today: [WIND F12] [WIND CHILL 10MIN] [FREEZING] [WINTER PRECIP]"
    assert lines[2] == "  2. Tonight: [WIND F12] [WIND CHILL 5MIN] [FREEZING] [WINTER PRECIP]"
    assert lines[4] == "  4. Tomorrow night: [WIND F11] [WIND CHILL 30MIN] [FREEZING]"
    assert lines[5] == "overall:"
    assert lines[6] == (
        "  Worst case (48 hours): [WIND F12] [WIND CHILL 5MIN] [FREEZING] [WINTER PRECIP]"
    )


def test_classify_mode_flags_select_sections(capsys):
    code, out, _ = run(capsys, "classify", CALM, "--mode", "overall")
    assert code == 0
    assert out == "overall:\n  Worst case (48 hours): (none)\n"
    code, out, _ = run(capsys, "classify", CALM, "--mode", "per-period")
    assert code == 0
    assert out.startswith("per-period:\n")
    assert "overall:" not in out


def test_classify_looks_each_period_up_once(capsys, monkeypatch):
    # Both sections come from one band lookup per period, in every mode.
    calls = []
    real = hazards._bands
    monkeypatch.setattr(hazards, "_bands", lambda *args: calls.append(args) or real(*args))
    for mode in ((), ("--mode", "overall"), ("--mode", "per-period")):
        calls.clear()
        assert run(capsys, "classify", SEVERE, *mode)[0] == 0
        assert len(calls) == 4, mode


def test_classify_and_render_take_a_chill_too_cold_for_a_float(tmp_path, capsys):
    # -1e300 F in a 1e300 mph wind is valid, and its computed chill is -inf:
    # the coldest band, not an internal error.
    canon = tmp_path / "extreme.canon"
    text = run(capsys, "parse", CALM)[1]
    canon.write_text(text.replace("temp_low_f: 48", "temp_low_f: -1e+300", 1)
                     .replace("wind_high_mph: 15", "wind_high_mph: 1e+300", 1), encoding="utf-8")
    assert run(capsys, "parse", str(canon))[0] == 0
    code, out, err = run(capsys, "classify", str(canon))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "  1. Today: [WIND F12] [WIND CHILL 5MIN] [FREEZING]"
    code, out, err = run(capsys, "render", str(canon), "--condition", "icons")
    assert (code, err) == (0, "")
    assert "HAZARDS (48 HOURS): [WIND F12] [WIND CHILL 5MIN] [FREEZING]\n" in out


def test_classify_accepts_canonical_input(tmp_path, capsys):
    canon = tmp_path / "severe.canon"
    assert main(["parse", SEVERE, "--out", str(canon)]) == 0
    capsys.readouterr()
    code, from_canonical, _ = run(capsys, "classify", str(canon))
    assert code == 0
    code, from_raw, _ = run(capsys, "classify", SEVERE)
    assert code == 0
    assert from_canonical == from_raw


def test_classify_triad_advisory_section(tmp_path, capsys):
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text(GOOD_THRESHOLDS, encoding="utf-8")
    code, out, _ = run(capsys, "classify", SEVERE, "--triad-thresholds", str(thresholds))
    assert code == 0
    lines = out.splitlines()
    assert "triad advisory:" in lines
    section = lines[lines.index("triad advisory:") + 1:]
    assert section == [
        "  1. Today: no_go (visibility, wind)",
        "  2. Tonight: no_go (temperature, wind)",
        "  3. Tomorrow: no_go (visibility, wind)",
        "  4. Tomorrow night: go (none)",
    ]


def test_classify_triad_reads_a_fog_word_the_parser_kept(tmp_path, capsys):
    # The parser keeps a note holding any word starting ``fog``, and the
    # triad counts it as visibility.
    bulletin = tmp_path / "foggy-day.txt"
    text = (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8")
    bulletin.write_text(text.replace("Today: Mostly sunny.", "Today: Foggy at times.", 1),
                        encoding="utf-8")
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text("wind_high_mph: 200\ntemperature_low_f: -100\n", encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(bulletin))
    assert code == 0
    assert "hazard_note: Foggy at times.\n" in out
    code, out, _ = run(capsys, "classify", str(bulletin), "--triad-thresholds", str(thresholds))
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("triad advisory:") + 1:] == [
        "  1. Today: caution (visibility)",
        "  2. Tonight: go (none)",
        "  3. Tomorrow: go (none)",
        "  4. Tomorrow night: go (none)",
    ]


def test_classify_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "icons.txt"
    code, out, _ = run(capsys, "classify", CALM, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "Worst case (48 hours): (none)" in out_path.read_text(encoding="utf-8")


def test_classify_rejects_unknown_mode(capsys):
    code, out, err = run(capsys, "classify", CALM, "--mode", "sideways")
    assert code == 1
    assert err.startswith("error: ")
    assert "invalid choice" in err


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("wind_speed: 74\ntemperature_low_f: -10\n",
         "expected one of wind_high_mph, temperature_low_f"),
        ("wind_high_mph 74\ntemperature_low_f: -10\n",
         "expected one of wind_high_mph, temperature_low_f"),
        ("wind_high_mph: 74\nwind_high_mph: 80\ntemperature_low_f: -10\n",
         "duplicate key 'wind_high_mph'"),
        ("wind_high_mph: fast\ntemperature_low_f: -10\n",
         "wind_high_mph is not a number: 'fast'"),
        ("wind_high_mph: 74\n", "missing threshold key(s): temperature_low_f"),
        ("wind_high_mph: nan\ntemperature_low_f: -10\n",
         "thresholds.txt:1: wind_high_mph is not a number: 'nan'"),
        ("wind_high_mph: 74\ntemperature_low_f: -inf\n",
         "thresholds.txt:2: temperature_low_f is not a number: '-inf'"),
        ("wind_high_mph: inf\ntemperature_low_f: -10\n",
         "thresholds.txt:1: wind_high_mph is not a number: 'inf'"),
        ("wind_high_mph: 1_0\ntemperature_low_f: -10\n",
         "thresholds.txt:1: wind_high_mph is not a number: '1_0'"),
        ("wind_high_mph: \uff11\uff10\ntemperature_low_f: -10\n",
         "thresholds.txt:1: wind_high_mph is not a number: '\uff11\uff10'"),
        ("wind_high_mph: 1e999\ntemperature_low_f: -10\n",
         "thresholds.txt:1: wind_high_mph is not a number: '1e999'"),
        ("wind_high_mph: 1e+999\ntemperature_low_f: -10\n",
         "thresholds.txt:1: wind_high_mph is not finite: '1e+999'"),
        # A line ends at "\n" only: a comment with a U+2028 (or any other
        # character str.splitlines() breaks at) is one line, line 1.
        *[(f"# cutoffs{c} from the workshop\nwind_high_mph: fast\ntemperature_low_f: -10\n",
           "thresholds.txt:2: wind_high_mph is not a number: 'fast'")
          for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"],
    ],
)
def test_classify_rejects_bad_threshold_files(tmp_path, capsys, content, fragment):
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text(content, encoding="utf-8")
    code, _, err = run(capsys, "classify", CALM, "--triad-thresholds", str(thresholds))
    assert code == 1
    assert fragment in err


# -------------------------------------------------------------------- render


def test_render_prints_plain_payload(capsys):
    doc = parse_forecast(
        (FIXTURE_DIR / "calm-day.txt").read_text(encoding="utf-8"), source_id="calm-day"
    ).document
    expected = render(doc, condition_from_token("icons"), format="plain")
    code, out, err = run(capsys, "render", CALM, "--condition", "icons")
    assert code == 0
    assert out.encode("utf-8") == expected.payload


def test_render_writes_payload_and_manifest_sidecar(tmp_path, capsys):
    out_path = tmp_path / "severe.svg"
    code, out, _ = run(capsys, "render", SEVERE, "--condition", "per-day-icons",
                       "--format", "svg", "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = out_path.read_bytes()
    assert payload.startswith(b"<svg")
    doc = parse_forecast(
        (FIXTURE_DIR / "severe-day.txt").read_text(encoding="utf-8"),
        source_id="severe-day",
    ).document
    expected = render(doc, condition_from_token("per-day-icons"), format="svg")
    assert payload == expected.payload
    manifest_path = tmp_path / "severe.svg.manifest"
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    assert lines == [f"{eid}\t{source}" for eid, source in expected.manifest]


def test_render_rejects_unknown_condition_and_names_the_valid_ones(capsys):
    code, _, err = run(capsys, "render", CALM, "--condition", "fancy")
    assert code == 1
    assert "invalid choice" in err
    for token in ("baseline", "summary-last", "icons", "per-day-icons"):
        assert token in err


def test_render_rejects_unknown_format(capsys):
    code, _, err = run(capsys, "render", CALM, "--condition", "icons", "--format", "pdf")
    assert code == 1
    assert "invalid choice" in err


# ------------------------------------------------------------------- stimuli


def test_stimuli_writes_numbered_files_and_index(tmp_path, capsys):
    out_dir = tmp_path / "set"
    # A name with no ASCII letter or digit gives no slug; the file takes doc-<n>.
    star = tmp_path / "\u2605.txt"
    star.write_bytes((FIXTURE_DIR / "calm-day.txt").read_bytes())
    code, out, _ = run(capsys, "stimuli", SEVERE, CALM, str(star), "--condition",
                       "per-day-icons", "--format", "svg", "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["01-severe-day.svg", "02-calm-day.svg", "03-doc-3.svg", "index.tsv"]
    index_lines = (out_dir / "index.tsv").read_text(encoding="utf-8").splitlines()
    assert len(index_lines) == 3
    assert index_lines[0].startswith("01\tsevere-day\tper_day_icons\tsvg\t")
    assert index_lines[1].startswith("02\tcalm-day\tper_day_icons\tsvg\t")
    assert index_lines[2].startswith("03\t\u2605\tper_day_icons\tsvg\t")
    doc = parse_forecast(
        (FIXTURE_DIR / "severe-day.txt").read_text(encoding="utf-8"),
        source_id="severe-day",
    ).document
    expected = render(doc, condition_from_token("per-day-icons"), format="svg")
    assert (out_dir / "01-severe-day.svg").read_bytes() == expected.payload


def test_stimuli_requires_out_directory(capsys):
    code, _, err = run(capsys, "stimuli", CALM, "--condition", "icons")
    assert code == 1
    assert "--out" in err


# --------------------------------------------------------------------- stats

PARTICIPANTS_CSV = (
    "participant_id,condition,grips_score,"
    "mentioned_per_day_info,mentioned_summary_only_info\n"
    "p1,baseline,2.0,true,false\n"
    "p2,baseline,3.0,true,true\n"
    "p3,icons,2.5,true,false\n"
    "p4,icons,3.5,false,true\n"
)
RESPONSES_CSV = (
    "participant_id,forecast_id,car_trip,day_hike,mountaineering,"
    "backcountry_skiing,single_night_camping,multi_night_camping\n"
    "p1,f1,10,10,10,10,10,10\n"
    "p1,f2,20,20,20,20,20,20\n"
    "p2,f1,30,30,30,30,30,30\n"
    "p2,f2,40,40,40,40,40,40\n"
    "p3,f1,50,50,50,50,50,50\n"
    "p3,f2,60,60,60,60,60,60\n"
    "p4,f1,70,70,70,70,70,70\n"
    "p4,f2,80,80,80,80,80,80\n"
)


def write_csvs(tmp_path, participants=PARTICIPANTS_CSV, responses=RESPONSES_CSV):
    p = tmp_path / "participants.csv"
    r = tmp_path / "responses.csv"
    p.write_text(participants, encoding="utf-8")
    r.write_text(responses, encoding="utf-8")
    return r, p


def test_stats_prints_report_and_writes_emissions(tmp_path, capsys):
    r_path, p_path = write_csvs(tmp_path)
    report_path = tmp_path / "report.txt"
    plot_path = tmp_path / "plot.tsv"
    code, out, err = run(
        capsys, "stats", "--responses", str(r_path), "--participants", str(p_path),
        "--out", str(report_path), "--plot-spec", str(plot_path),
    )
    assert code == 0
    assert err == ""
    assert out.startswith("Perceived-risk study report\n")
    # Group means 150 vs 390 with sd 60*sqrt(2) each: F = 8 exactly.
    assert "One-way ANOVA: F(1, 2) = 8.000, p = 0.1056" in out
    assert "baseline" in out and "icons" in out
    assert report_path.read_text(encoding="utf-8").startswith("schema: hsf-stats/1\n")
    assert plot_path.read_text(encoding="utf-8").startswith("schema: hsf-plot/1\n")


def test_stats_correction_names_the_multiplier_it_applied(tmp_path, capsys):
    r_path, p_path = write_csvs(tmp_path)
    argv = ("stats", "--responses", str(r_path), "--participants", str(p_path))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "Pairwise comparisons (Bonferroni multiplier 1):\n" in out
    assert "raw p = 0.1056, adjusted p = 0.1056\n" in out
    code, out, _ = run(capsys, *argv, "--correction", "3")
    assert code == 0
    assert "Pairwise comparisons (Bonferroni multiplier 3):\n" in out
    assert "raw p = 0.1056, adjusted p = 0.3167\n" in out


def test_stats_notes_each_degenerate_statistic_on_stderr(tmp_path, capsys):
    # Every group is constant: 3 participants per condition, with grips 1, 2
    # and 3, and every rating of the k-th condition 10 * k. So each SD is 0,
    # F and every t are infinite, and the flat line's R^2 is 0 with p 1.
    tokens = ("baseline", "summary-last", "icons", "per-day-icons")
    participants = PARTICIPANTS_CSV.splitlines()[0] + "\n"
    responses = RESPONSES_CSV.splitlines()[0] + "\n"
    for k, token in enumerate(tokens, start=1):
        for grips in (1, 2, 3):
            participants += f"p{k}{grips},{token},{grips},true,false\n"
            responses += f"p{k}{grips},f1," + ",".join([str(10 * k)] * 6) + "\n"
    r_path, p_path = write_csvs(tmp_path, participants, responses)
    report_path, plot_path = tmp_path / "report.txt", tmp_path / "plot.tsv"
    argv = ("stats", "--responses", str(r_path), "--participants", str(p_path))
    code, out, err = run(capsys, *argv, "--out", str(report_path), "--plot-spec", str(plot_path))
    assert code == 0
    report = build_report(load_study(r_path, p_path))
    assert out == format_report(report)
    assert report_path.read_text(encoding="utf-8") == emit_report(report)
    assert plot_path.read_text(encoding="utf-8") == emit_plot_spec(report)
    groups = [c.value for c in map(condition_from_token, tokens)]
    pairs = [(a, b) for i, a in enumerate(groups) for b in groups[i + 1:]]
    assert err.splitlines() == [
        *(f"note: {g}: SD is 0, so the 95% CI is the mean" for g in groups),
        "note: ANOVA: every group is constant and the means differ, so F is inf and p is 0",
        *(f"note: {a} vs {b}: both groups are constant and the means differ, "
          "so t is -inf and p is 0" for a, b in pairs),
        "note: regression: the line explains none of the variance, so R^2 is 0 and p is 1",
    ]


def test_stats_notes_an_f_and_a_t_of_zero_over_zero_on_stderr(tmp_path, capsys):
    # Every rating is 10: 3 participants per condition, with grips 1, 2 and
    # 3, so every group is constant with one shared mean, and F and every t
    # are 0/0, given as 0 with p 1.
    tokens = ("baseline", "summary-last", "icons", "per-day-icons")
    participants = PARTICIPANTS_CSV.splitlines()[0] + "\n"
    responses = RESPONSES_CSV.splitlines()[0] + "\n"
    for k, token in enumerate(tokens, start=1):
        for grips in (1, 2, 3):
            participants += f"p{k}{grips},{token},{grips},true,false\n"
            responses += f"p{k}{grips},f1," + ",".join(["10"] * 6) + "\n"
    r_path, p_path = write_csvs(tmp_path, participants, responses)
    report_path, plot_path = tmp_path / "report.txt", tmp_path / "plot.tsv"
    argv = ("stats", "--responses", str(r_path), "--participants", str(p_path))
    code, out, err = run(capsys, *argv, "--out", str(report_path), "--plot-spec", str(plot_path))
    assert code == 0
    report = build_report(load_study(r_path, p_path))
    assert out == format_report(report)
    assert report_path.read_text(encoding="utf-8") == emit_report(report)
    assert plot_path.read_text(encoding="utf-8") == emit_plot_spec(report)
    assert (report.anova.f_statistic, report.anova.p_value) == (0.0, 1.0)
    assert {(pw.t_statistic, pw.p_raw) for pw in report.pairwise} == {(0.0, 1.0)}
    groups = [c.value for c in map(condition_from_token, tokens)]
    pairs = [(a, b) for i, a in enumerate(groups) for b in groups[i + 1:]]
    assert err.splitlines() == [
        *(f"note: {g}: SD is 0, so the 95% CI is the mean" for g in groups),
        "note: ANOVA: every group is constant and the means are equal, so F is 0 and p is 1",
        *(f"note: {a} vs {b}: both groups are constant and the means are equal, "
          "so t is 0 and p is 1" for a, b in pairs),
        "note: regression: the line explains none of the variance, so R^2 is 0 and p is 1",
    ]


def test_stats_empty_data_exit_1(tmp_path, capsys):
    r_path, p_path = write_csvs(
        tmp_path, participants=PARTICIPANTS_CSV.splitlines()[0] + "\n",
        responses=RESPONSES_CSV.splitlines()[0] + "\n",
    )
    code, _, err = run(capsys, "stats", "--responses", str(r_path),
                       "--participants", str(p_path))
    assert code == 1
    assert "no records" in err


def test_stats_out_of_range_rating_exit_1(tmp_path, capsys):
    r_path, p_path = write_csvs(
        tmp_path, responses=RESPONSES_CSV.replace("p4,f2,80", "p4,f2,880"),
    )
    code, _, err = run(capsys, "stats", "--responses", str(r_path),
                       "--participants", str(p_path))
    assert code == 1
    assert "outside [0, 100]" in err


def test_stats_unknown_participant_exit_1(tmp_path, capsys):
    r_path, p_path = write_csvs(
        tmp_path, responses=RESPONSES_CSV + "p9,f1,10,10,10,10,10,10\n",
    )
    code, _, err = run(capsys, "stats", "--responses", str(r_path),
                       "--participants", str(p_path))
    assert code == 1
    assert "unknown participant 'p9'" in err


def test_stats_oversized_field_names_its_line_exit_1(tmp_path, capsys):
    # The csv module refuses a field over 131 072 characters; that is the
    # input's fault, reported at the line the record starts on.
    lines = PARTICIPANTS_CSV.splitlines(keepends=True)
    lines.insert(2, "x" * 200_000 + ",baseline,10,true,false\n")
    r_path, p_path = write_csvs(tmp_path, participants="".join(lines))
    code, _, err = run(capsys, "stats", "--responses", str(r_path),
                       "--participants", str(p_path))
    assert code == 1
    assert err == f"error: {p_path}:3: field larger than field limit (131072)\n"


# ------------------------------------------------------------------- tables


def test_validate_tables_reports_every_kind(capsys):
    code, out, err = run(capsys, "validate-tables")
    assert code == 0
    assert out == (
        "ok: freezing_temp (freezing) bands=2 domain=[-150, 150] F\n"
        "ok: wind (Beaufort) bands=13 domain=[0, 200] mph\n"
        "ok: wind_chill (NWS wind chill) bands=4 domain=[-120, 50] F\n"
        "ok: winter_precip (winter precipitation) bands=2 domain=[0, 5] kinds\n"
        "all scale tables pass integrity checks\n"
    )


def packaged_scale_dir():
    from importlib import resources

    return resources.files("summitwx") / "scales"


def copy_tables(tmp_path):
    table_dir = tmp_path / "scales"
    table_dir.mkdir()
    for entry in packaged_scale_dir().iterdir():
        if entry.name.endswith(".table"):
            (table_dir / entry.name).write_text(
                entry.read_text(encoding="utf-8"), encoding="utf-8"
            )
    return table_dir


def test_validate_tables_accepts_a_retranscribed_directory(tmp_path, capsys):
    table_dir = copy_tables(tmp_path)
    code, out, _ = run(capsys, "validate-tables", "--tables", str(table_dir))
    assert code == 0
    assert out.endswith("all scale tables pass integrity checks\n")


def test_validate_tables_prints_the_domain_as_written(tmp_path, capsys):
    table_dir = copy_tables(tmp_path)
    path = table_dir / "beaufort.table"
    text = path.read_text(encoding="utf-8")
    assert "domain: 0 | 200\n" in text and "| 200 |" in text
    path.write_text(text.replace("domain: 0 | 200\n", "domain: 0 | 1234567\n")
                    .replace("| 200 |", "| 1234567 |"), encoding="utf-8")
    code, out, _ = run(capsys, "validate-tables", "--tables", str(table_dir))
    assert code == 0
    assert "ok: wind (Beaufort) bands=13 domain=[0, 1234567] mph\n" in out


def test_validate_tables_rejects_band_gap(tmp_path, capsys):
    table_dir = copy_tables(tmp_path)
    path = table_dir / "freezing.table"
    path.write_text(
        path.read_text(encoding="utf-8").replace("band: 1 | -150 | 32", "band: 1 | -150 | 30"),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "validate-tables", "--tables", str(table_dir))
    assert code == 1
    assert "gap or overlap between levels" in err


@pytest.mark.parametrize("old, new, error", [
    ("#6FF46F", "#6FF46G", "17: level 4 color '#6FF46G' is not #RRGGBB"),
    ("band: 4 | 13 | 19", "band: 4 | 14 | 19", "17: gap or overlap between levels 3 and 4"),
    ("band: 4 | 13 | 19", "band: 4 | 19 | 13", "17: level 4 band is empty or inverted"),
    ("band: 5 | 19 | 25", "band: 4 | 19 | 25", "18: duplicate levels: level 4 is repeated"),
], ids=["color", "gap", "inverted", "duplicate"])
def test_validate_tables_names_the_line_of_a_bad_band(tmp_path, capsys, old, new, error):
    table_dir = copy_tables(tmp_path)
    path = table_dir / "beaufort.table"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert run(capsys, "validate-tables", "--tables", str(table_dir)) == (
        1, "", f"error: {path}:{error}\n")


def test_validate_tables_rejects_kind_mismatch(tmp_path, capsys):
    table_dir = copy_tables(tmp_path)
    beaufort = (table_dir / "beaufort.table").read_text(encoding="utf-8")
    (table_dir / "freezing.table").write_text(beaufort, encoding="utf-8")
    code, _, err = run(capsys, "validate-tables", "--tables", str(table_dir))
    assert code == 1
    assert "declares kind 'wind'" in err


def test_validate_tables_missing_file_exit_1(tmp_path, capsys):
    table_dir = copy_tables(tmp_path)
    (table_dir / "wind_chill.table").unlink()
    code, _, err = run(capsys, "validate-tables", "--tables", str(table_dir))
    assert code == 1
    assert "wind_chill.table" in err


def test_classify_uses_the_tables_flag(tmp_path, capsys):
    table_dir = copy_tables(tmp_path)
    path = table_dir / "beaufort.table"
    path.write_text(
        path.read_text(encoding="utf-8").replace("closed_edge: low", "closed_edge: up"),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "classify", SEVERE, "--tables", str(table_dir))
    assert code == 1
    assert "closed_edge must be 'low' or 'high'" in err


# ---------------------------------------------------------------- encoding


def _spoil(path, lineno, ending):
    """Append the byte 0xff, which is never UTF-8, to line ``lineno`` of
    ``path``, and end each of its lines with ``ending``."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] += b"\xff"
    path.write_bytes(ending.join(lines))


@pytest.mark.parametrize("reader, ending", [
    pytest.param(reader, ending, id=reader + suffix)
    for suffix, ending in (("", b"\n"), ("-crlf", b"\r\n"), ("-cr", b"\r"))
    for reader in ("bulletin", "canonical", "thresholds", "tables", "study")
])
def test_a_byte_that_is_not_utf8_is_an_error_at_its_line(tmp_path, capsys, reader, ending):
    bulletin = tmp_path / "calm.txt"
    bulletin.write_bytes((FIXTURE_DIR / "calm-day.txt").read_bytes())
    canonical = tmp_path / "calm.canon"
    run(capsys, "parse", CALM, "--out", str(canonical))
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text(GOOD_THRESHOLDS, encoding="utf-8")
    table_dir = copy_tables(tmp_path)
    # A study file longer than the csv reader's decode chunk, with the bad
    # byte past the first chunk.
    extra = "".join(f"q{k},icons,2.0,true,false\n" for k in range(2000))
    responses, participants = write_csvs(tmp_path, participants=PARTICIPANTS_CSV + extra)
    path, line, argv = {
        "bulletin": (bulletin, 3, ["render", str(bulletin), "--condition", "icons"]),
        "canonical": (canonical, 3, ["parse", str(canonical)]),
        "thresholds": (thresholds, 3, ["classify", CALM, "--triad-thresholds", str(thresholds)]),
        "tables": (table_dir / "wind_chill.table", 4,
                   ["validate-tables", "--tables", str(table_dir)]),
        "study": (participants, 1900, ["stats", "--responses", str(responses),
                                       "--participants", str(participants)]),
    }[reader]
    _spoil(path, line, ending)
    assert run(capsys, *argv) == (
        1, "", f"error: {path}:{line}: byte 0xff is not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("reader", ("bulletin", "canonical", "thresholds", "tables", "study"))
def test_a_leading_byte_order_mark_is_dropped(tmp_path, capsys, reader):
    bulletin = tmp_path / "calm.txt"
    bulletin.write_bytes((FIXTURE_DIR / "calm-day.txt").read_bytes())
    canonical = tmp_path / "calm.canon"
    run(capsys, "parse", CALM, "--out", str(canonical))
    thresholds = tmp_path / "thresholds.txt"
    thresholds.write_text(GOOD_THRESHOLDS, encoding="utf-8")
    table_dir = copy_tables(tmp_path)
    responses, participants = write_csvs(tmp_path)
    path, argv = {
        "bulletin": (bulletin, ["parse", str(bulletin)]),
        "canonical": (canonical, ["classify", str(canonical)]),
        "thresholds": (thresholds, ["classify", SEVERE, "--triad-thresholds", str(thresholds)]),
        "tables": (table_dir / "beaufort.table",
                   ["classify", SEVERE, "--tables", str(table_dir)]),
        "study": (participants, ["stats", "--responses", str(responses),
                                 "--participants", str(participants)]),
    }[reader]
    without = run(capsys, *argv)
    assert without[0] == 0
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # a UTF-8 byte-order mark
    assert run(capsys, *argv) == without


# ------------------------------------------------------------ error plumbing


def test_unknown_subcommand_exit_1(capsys):
    code, _, err = run(capsys, "conjure")
    assert code == 1
    assert err.startswith("error: summitwx: ")
    assert "invalid choice" in err


def test_no_arguments_exit_1(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert err.startswith("error: summitwx: ")


def test_multiline_error_collapses_to_one_stderr_line(monkeypatch, capsys):
    def explode(directory=None):
        raise ValueError("first line\nsecond line")

    monkeypatch.setattr("summitwx.hazards.load_tables", explode)
    code, _, err = run(capsys, "validate-tables")
    assert code == 1
    assert err == "error: first line | second line\n"


def test_internal_failure_exit_2(monkeypatch, capsys):
    def explode(directory=None):
        raise RuntimeError("boom")

    monkeypatch.setattr("summitwx.hazards.load_tables", explode)
    code, out, err = run(capsys, "validate-tables")
    assert code == 2
    assert err == "internal: RuntimeError: boom\n"
    assert out == ""


def test_entry_point_success_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "summitwx.cli", "validate-tables"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("all scale tables pass integrity checks\n")


def test_entry_point_failure_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "summitwx.cli", "parse", "/nonexistent/forecast.txt"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read")


# ------------------------------------------------ one property over every input

#: Tokens a mutation splices into a line: numbers no reader may take, a
#: byte-order mark, a carriage return, an Arabic-Indic digit, separators, a
#: long run.
_TOKENS = ("nan", "1e309", "-1e309", "inf", "\ufeff", "\r", "\u0661", "|", ":", "-", "#",
           " ", "0", "x" * 300)
#: The texts of the checks that a scale table's bands fail one band at a time.
_BAND_ERRORS = ("band is empty or inverted", "is not #RRGGBB", "gap or overlap",
                "duplicate levels", "is out of order")


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """One copy of each kind of input in a directory of its own, and each
    subcommand that reads it, with ``{path}`` for the file a mutation spoils."""
    root = tmp_path_factory.mktemp("cli-inputs")
    (root / "calm.txt").write_bytes((FIXTURE_DIR / "calm-day.txt").read_bytes())
    (root / "severe.txt").write_bytes((FIXTURE_DIR / "severe-day.txt").read_bytes())
    assert main(["parse", SEVERE, "--out", str(root / "severe.canon")]) == 0
    (root / "thresholds.txt").write_text(GOOD_THRESHOLDS, encoding="utf-8")
    tables = copy_tables(root)
    responses, participants = write_csvs(root)
    good = str(root / "thresholds.txt")
    out = str(root / "set")
    documents = [["parse", "{path}"], ["classify", "{path}", "--triad-thresholds", good],
                 ["classify", "{path}", "--mode", "overall"],
                 ["render", "{path}", "--condition", "per-day-icons", "--format", "svg"],
                 ["render", "{path}", "--condition", "icons", "--format", "html"],
                 ["stimuli", "{path}", CALM, "--condition", "icons", "--out", out]]
    with_tables = [["validate-tables", "--tables", str(tables)],
                   ["classify", SEVERE, "--tables", str(tables)],
                   ["render", SEVERE, "--condition", "icons", "--format", "plain",
                    "--tables", str(tables)]]
    stats = [["stats", "--responses", str(responses), "--participants", str(participants)]]
    inputs = {root / "calm.txt": documents, root / "severe.txt": documents,
              root / "severe.canon": documents,
              root / "thresholds.txt": [["classify", SEVERE, "--triad-thresholds", "{path}"]],
              responses: stats, participants: stats}
    inputs.update((path, with_tables) for path in sorted(tables.iterdir()))
    return [(path, path.read_text(encoding="utf-8"), commands)
            for path, commands in inputs.items()]


def _mutate(text, mutations):
    lines = text.split("\n")
    for op, i, j, token in mutations:
        i, j = i % len(lines), j % len(lines)
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "splice":
            at = j % (len(lines[i]) + 1)
            lines[i] = lines[i][:at] + token + lines[i][at:]
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_subcommand_fails_on_a_mutated_input_with_one_error_line(cli_inputs, data):
    # cli.main maps every ValueError to exit 1, so one escaping from the math
    # would pass as an input error: each failure must name an input it was
    # given, and a scale table's band error the band's line.
    path, text, commands = data.draw(st.sampled_from(cli_inputs))
    mutations = data.draw(st.lists(st.tuples(
        st.sampled_from(("delete", "duplicate", "swap", "splice")),
        st.integers(0, 1 << 16), st.integers(0, 1 << 16), st.sampled_from(_TOKENS)),
        min_size=1, max_size=3))
    argv = [arg.format(path=path) for arg in data.draw(st.sampled_from(commands))]
    path.write_text(_mutate(text, mutations), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        path.write_text(text, encoding="utf-8")
    lines = err.getvalue().split("\n")
    errors = [line for line in lines if line.startswith("error:")]
    assert code in (0, 1), err.getvalue()
    if code == 0:
        assert errors == []
        return
    assert lines[-1] == "" and errors == [lines[-2]], err.getvalue()
    assert any(arg in errors[0] for arg in argv if os.path.exists(arg)), errors[0]
    if path.suffix == ".table" and any(words in errors[0] for words in _BAND_ERRORS):
        assert re.match(rf"error: {re.escape(str(path))}:\d+: ", errors[0]), errors[0]
