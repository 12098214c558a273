import hashlib
import re
import weakref
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, FIXTURE_NAMES, GOLDEN_DIR
from helpers import make_doc, squash, visible_text
from test_cli import GOOD_THRESHOLDS
from test_hazards import _tamper
from summitwx import cli, layout, model
from summitwx.canonical import emit_canonical
from summitwx.hazards import (
    IconRuleConfig,
    TriadThresholds,
    derive_document_icons,
    derive_icons,
    load_tables,
    triad_advisory,
)
from summitwx.layout import (
    CONDITION_TOKENS,
    FORMATS,
    STYLESHEET_VERSION,
    LayoutCondition,
    condition_from_token,
    render,
    render_icon,
    render_stimulus_set,
)
from summitwx.model import InvalidDocument, with_periods
from summitwx.textparse import parse_forecast

EXTENSIONS = {"plain": "txt", "svg": "svg", "html": "html"}


@pytest.fixture(scope="module")
def fixture_docs(fixture_texts):
    return {
        name: parse_forecast(text, source_id=name).document
        for name, text in fixture_texts.items()
    }


def test_condition_tokens_round_trip():
    assert set(CONDITION_TOKENS) == {"baseline", "summary-last", "icons", "per-day-icons"}
    for token in CONDITION_TOKENS:
        assert condition_from_token(token) in LayoutCondition
    with pytest.raises(ValueError, match="per-day-icons"):
        condition_from_token("weekly")


@pytest.fixture(scope="module")
def goldens():
    return {
        (name, token, fmt): (GOLDEN_DIR / f"{name}__{token}.{EXTENSIONS[fmt]}").read_bytes()
        for name in FIXTURE_NAMES for token in CONDITION_TOKENS for fmt in FORMATS
    }


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("token", sorted(CONDITION_TOKENS))
@pytest.mark.parametrize("fmt", FORMATS)
def test_golden_renders_are_byte_stable(fixture_docs, goldens, name, token, fmt):
    doc = fixture_docs[name]
    golden = goldens[name, token, fmt]
    rendered = render(doc, condition_from_token(token), format=fmt)
    assert rendered.payload == golden
    assert render(doc, condition_from_token(token), format=fmt).payload == golden


# A render reuses the layouts of the documents the last call rendered; no
# render may depend on what was rendered before it. A step renders its
# documents one ``render`` at a time or in one ``render_stimulus_set`` call.
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(FIXTURE_NAMES), st.booleans()),
                                   min_size=1, max_size=5),
                          st.booleans(),
                          st.sampled_from(sorted(CONDITION_TOKENS)), st.sampled_from(FORMATS)),
                min_size=1, max_size=12))
def test_renders_match_the_goldens_whatever_was_rendered_before(
        fixture_docs, fixture_texts, goldens, sequence):
    for members, as_set, token, fmt in sequence:
        # A reparse is a document equal to the fixture's but not the same object.
        docs = [parse_forecast(fixture_texts[name], source_id=name).document if reparse
                else fixture_docs[name] for name, reparse in members]
        condition = condition_from_token(token)
        renders = (render_stimulus_set(docs, condition, format=fmt)[0] if as_set
                   else [render(doc, condition, format=fmt) for doc in docs])
        assert [r.payload for r in renders] == [goldens[name, token, fmt] for name, _ in members]


def test_equal_documents_each_print_their_own_issued_line(fixture_docs):
    utc = replace(fixture_docs["calm-day"],
                  issued_at=datetime(2026, 1, 1, 12, tzinfo=timezone.utc))
    eastern = replace(utc, issued_at=datetime(2026, 1, 1, 7, tzinfo=timezone(timedelta(hours=-5))))
    assert utc == eastern and hash(utc) == hash(eastern)
    for condition in LayoutCondition:
        for fmt in FORMATS:
            for doc, line in ((utc, "Issued: 2026-01-01T12:00:00+00:00"),
                              (eastern, "Issued: 2026-01-01T07:00:00-05:00")):
                assert line in render(doc, condition, format=fmt).payload.decode()


def _custom_cases(tmp_path):
    """``(fixture, render keywords)`` pairs whose icons differ from the defaults'."""
    # Force 12 moved out of reach, so severe-day's winds read force 11.
    tables = load_tables(_tamper(
        tmp_path, "beaufort.table",
        lambda s: s.replace("band: 11 | 64 | 73", "band: 11 | 64 | 150")
        .replace("band: 12 | 73 | 200", "band: 12 | 150 | 200"),
    ))
    return [("severe-day", {"tables": tables}),
            ("calm-day", {"config": IconRuleConfig(wind_display_floor=0)})]


def test_tables_and_config_render_alike_after_a_default_render(fixture_docs, tmp_path):
    for name, custom in _custom_cases(tmp_path):
        doc, other = fixture_docs[name], fixture_docs["flood-day"]
        for condition in (LayoutCondition.ICONS, LayoutCondition.PER_DAY_ICONS):
            for fmt in FORMATS:
                render(other, condition, format=fmt)
                first = render(doc, condition, format=fmt, **custom)
                default = render(doc, condition, format=fmt)
                assert render(doc, condition, format=fmt, **custom) == first
                assert first.payload != default.payload, (name, condition, fmt)


def test_custom_tables_and_config_after_a_set_call_miss_the_memo(fixture_docs, tmp_path):
    docs = [fixture_docs[name] for name in FIXTURE_NAMES]
    for name, custom in _custom_cases(tmp_path):
        k = FIXTURE_NAMES.index(name)
        for condition in (LayoutCondition.ICONS, LayoutCondition.PER_DAY_ICONS):
            for fmt in FORMATS:
                default, _ = render_stimulus_set(docs, condition, format=fmt)
                custom_renders, _ = render_stimulus_set(docs, condition, format=fmt, **custom)
                assert custom_renders[k].payload != default[k].payload, (name, condition, fmt)
                assert render_stimulus_set(docs, condition, format=fmt)[0] == default


def test_at_most_one_document_is_held(fixture_texts):
    a, b = (parse_forecast(fixture_texts[name], source_id=name).document
            for name in ("calm-day", "severe-day"))
    for condition in LayoutCondition:
        render(a, condition)
    held = weakref.ref(a)
    del a
    assert held() is not None
    render(b, LayoutCondition.BASELINE)
    assert held() is None


def test_a_set_call_holds_its_documents_until_the_next_call(fixture_texts):
    docs = [parse_forecast(fixture_texts[name], source_id=name).document
            for name in FIXTURE_NAMES]
    render_stimulus_set(docs, LayoutCondition.ICONS)
    held = [weakref.ref(doc) for doc in docs]
    del docs
    assert all(ref() is not None for ref in held)
    b = parse_forecast(fixture_texts["calm-day"], source_id="calm-day").document
    render(b, LayoutCondition.BASELINE)
    assert [ref() for ref in held] == [None] * len(held)


def test_twelve_set_calls_lay_each_document_out_once_per_condition(fixture_texts, monkeypatch):
    # Fresh documents, so that no earlier test's layouts are reused.
    docs = [parse_forecast(fixture_texts[name], source_id=name).document
            for name in FIXTURE_NAMES]
    calls = Counter()
    for fn in ("_text_groups", "_build_groups"):
        def counting(*args, _real=getattr(layout, fn), _name=fn):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(layout, fn, counting)
    for condition in LayoutCondition:
        for fmt in FORMATS:
            render_stimulus_set(docs, condition, format=fmt)
    assert calls == {"_text_groups": 5, "_build_groups": 20}


def test_baseline_and_summary_last_are_element_set_equal(fixture_docs):
    for name, doc in fixture_docs.items():
        base = render(doc, LayoutCondition.BASELINE)
        last = render(doc, LayoutCondition.SUMMARY_LAST)
        assert set(base.manifest) == set(last.manifest), name
        assert len(base.manifest) == len(last.manifest), name
        base_lines = Counter(l for l in base.payload.decode().splitlines() if l)
        last_lines = Counter(l for l in last.payload.decode().splitlines() if l)
        assert base_lines == last_lines, name
        assert base.payload != last.payload, name


def test_conditions_render_pairwise_distinct_payloads(fixture_docs):
    for name in ("severe-day", "calm-day"):
        payloads = {
            condition: render(fixture_docs[name], condition).payload
            for condition in LayoutCondition
        }
        for a, b in combinations(LayoutCondition, 2):
            assert payloads[a] != payloads[b], (name, a, b)


def test_icons_condition_adds_exactly_the_overall_row(fixture_docs):
    doc = fixture_docs["severe-day"]
    base = render(doc, LayoutCondition.BASELINE)
    icons = render(doc, LayoutCondition.ICONS)
    added = set(icons.manifest) - set(base.manifest)
    (overall,) = derive_document_icons(doc, "overall")
    expected = {("icons-overall", "derived:worst_case")} | {
        (f"icons-overall-icon-{k + 1}", "derived:worst_case")
        for k in range(len(overall))
    }
    assert added == expected
    assert set(base.manifest) <= set(icons.manifest)


def test_overall_icon_row_text_matches_derivation(fixture_docs):
    doc = fixture_docs["severe-day"]
    (overall,) = derive_document_icons(doc, "overall")
    plain = render(doc, LayoutCondition.ICONS).payload.decode()
    row = next(l for l in plain.splitlines() if l.startswith("HAZARDS (48 HOURS):"))
    expected = "HAZARDS (48 HOURS):" + "".join(
        f" {render_icon(icon)}" for icon in overall
    )
    assert row == expected
    assert row.endswith("[WIND F12] [WIND CHILL 5MIN] [FREEZING] [WINTER PRECIP]")


def test_per_day_rows_match_per_period_derivation(fixture_docs):
    for name, doc in fixture_docs.items():
        plain = render(doc, LayoutCondition.PER_DAY_ICONS).payload.decode()
        rows = [l for l in plain.splitlines() if l.startswith("HAZARDS:")]
        assert len(rows) == 4, name
        for row, period in zip(rows, doc.periods):
            expected = "HAZARDS:" + "".join(
                f" {render_icon(icon)}" for icon in derive_icons(period)
            )
            assert row == expected, (name, period.label)


def test_hazard_free_document_renders_an_empty_icon_row(fixture_docs):
    doc = fixture_docs["calm-day"]
    rendered = render(doc, LayoutCondition.ICONS)
    plain = rendered.payload.decode()
    assert "HAZARDS (48 HOURS):\n" in plain
    assert "[" not in plain
    icon_entries = [m for m in rendered.manifest if m[0].startswith("icons-overall-icon-")]
    assert icon_entries == []


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("token", sorted(CONDITION_TOKENS))
def test_every_source_sentence_survives_rendering(fixture_docs, token, fmt):
    for name, doc in fixture_docs.items():
        payload = render(doc, condition_from_token(token), format=fmt).payload
        haystack = squash(visible_text(payload, fmt))
        for line in doc.summary_text.split("\n"):
            assert squash(line) in haystack, (name, line)
        for i, period in enumerate(doc.periods):
            assert squash(f"{period.label}:") in haystack, (name, period.label)
            for note in period.extra_hazard_notes:
                assert squash(note) in haystack, (name, note)
            for value in (
                period.temperature.low,
                period.temperature.high,
                period.wind.sustained.low,
                period.wind.sustained.high,
            ):
                token_text = str(int(value)) if value == int(value) else repr(value)
                assert token_text in haystack, (name, i, value)
            for event in period.precip_events:
                assert event.kind.value.replace("_", " ") in haystack, (name, i, event)


def test_masthead_content(fixture_docs):
    doc = fixture_docs["flood-day"]
    plain = render(doc, LayoutCondition.BASELINE).payload.decode()
    lines = plain.splitlines()
    assert lines[0] == "HIGHER SUMMITS FORECAST"
    assert lines[1] == "Issued: 2026-10-03T16:45:00"
    assert lines[2] == "Source: flood-day"


def test_summary_position_tracks_condition(fixture_docs):
    doc = fixture_docs["calm-day"]
    first_line = doc.summary_text.split("\n")[0]
    base = render(doc, LayoutCondition.BASELINE).payload.decode()
    last = render(doc, LayoutCondition.SUMMARY_LAST).payload.decode()
    assert base.index(first_line) < base.index("Today:")
    assert last.index(first_line) > last.index("Tomorrow night:")


def test_manifest_ids_are_unique_and_sources_are_field_paths(fixture_docs):
    for name, doc in fixture_docs.items():
        for condition in LayoutCondition:
            manifest = render(doc, condition).manifest
            ids = [element_id for element_id, _ in manifest]
            assert len(ids) == len(set(ids)), (name, condition)
            sources = dict(manifest)
            assert sources["title"] == "constant"
            assert sources["issued"] == "issued_at"
            assert sources["period-1-wind"] == "periods[0].wind"
            assert sources["period-4-label"] == "periods[3].label"


@pytest.mark.parametrize("fmt", ("svg", "html"))
def test_markup_ids_are_the_manifest_ids(fixture_docs, fmt):
    for name, doc in fixture_docs.items():
        for condition in LayoutCondition:
            rendered = render(doc, condition, format=fmt)
            ids = re.findall(r'(?<![\w-])id="([^"]*)"', rendered.payload.decode())
            manifest_ids = [element_id for element_id, _ in rendered.manifest]
            assert Counter(ids) == Counter(manifest_ids), (name, condition)


def test_svg_payload_structure(fixture_docs):
    payload = render(
        fixture_docs["severe-day"], LayoutCondition.ICONS, format="svg"
    ).payload.decode()
    assert payload.startswith("<svg xmlns=")
    assert STYLESHEET_VERSION in payload
    assert 'id="icons-overall-icon-1"' in payload
    assert "https://" not in payload
    assert "url(" not in payload
    assert payload.count("<svg") == 1


def test_html_payload_structure(fixture_docs):
    payload = render(
        fixture_docs["severe-day"], LayoutCondition.PER_DAY_ICONS, format="html"
    ).payload.decode()
    assert payload.startswith("<!DOCTYPE html>")
    assert STYLESHEET_VERSION in payload
    assert '<main class="forecast">' in payload
    assert 'id="icons-period-1"' in payload
    assert 'aria-label="NWS wind chill: Frostbite in 10 minutes"' in payload
    assert 'aria-hidden="true"' in payload


def test_html_escapes_markup_in_document_text():
    doc = replace(make_doc(), summary_text="Rime & fog <tonight> on the \"knife edge\".")
    payload = render(doc, LayoutCondition.BASELINE, format="html").payload
    text = payload.decode()
    assert "Rime &amp; fog &lt;tonight&gt;" in text
    assert "<tonight>" not in text
    assert 'Rime & fog <tonight> on the "knife edge".' in visible_text(payload, "html")


def test_gust_annotation_appears_in_all_formats(fixture_docs):
    doc = fixture_docs["mixed-precip"]
    (overall,) = derive_document_icons(doc, "overall")
    wind = overall[0]
    assert wind.gust_annotation == 58
    assert render_icon(wind, "plain") == "[WIND F8 G58]"
    assert ">G58</text>" in render_icon(wind, "svg")
    assert ">G58</span>" in render_icon(wind, "html")
    assert "gusts to 58 mph" in render_icon(wind, "svg")


def test_plain_icon_tokens(fixture_docs):
    doc = fixture_docs["severe-day"]
    per_period = derive_document_icons(doc, "per_period")
    tokens = [render_icon(icon) for icon in per_period[1]]
    assert tokens == ["[WIND F12]", "[WIND CHILL 5MIN]", "[FREEZING]", "[WINTER PRECIP]"]


def test_render_icon_rejects_unknown_format_and_glyph(fixture_docs):
    (overall,) = derive_document_icons(fixture_docs["severe-day"], "overall")
    with pytest.raises(ValueError, match="svg"):
        render_icon(overall[0], "png")
    with pytest.raises(ValueError, match="glyph"):
        render_icon(replace(overall[0], glyph_id="missing"), "svg")


def test_render_rejects_bad_inputs(fixture_docs):
    doc = fixture_docs["calm-day"]
    with pytest.raises(ValueError, match="plain"):
        render(doc, LayoutCondition.BASELINE, format="pdf")
    with pytest.raises(ValueError, match="condition"):
        render(doc, "baseline")
    with pytest.raises(InvalidDocument):
        render(with_periods(doc, doc.periods[:1]), LayoutCondition.BASELINE)


def test_stimulus_set_index_and_digests(fixture_docs):
    docs = [fixture_docs[name] for name in FIXTURE_NAMES]
    renders, index = render_stimulus_set(docs, LayoutCondition.ICONS, format="html")
    assert len(renders) == len(docs)
    lines = index.splitlines()
    assert len(lines) == len(docs)
    for i, (line, rendered, doc) in enumerate(zip(lines, renders, docs)):
        ordinal, name, condition, fmt, digest = line.split("\t")
        assert ordinal == f"{i + 1:02d}"
        assert name == doc.source_id
        assert condition == "icons"
        assert fmt == "html"
        assert digest == hashlib.sha256(rendered.payload).hexdigest()
    again = render_stimulus_set(docs, LayoutCondition.ICONS, format="html")
    assert again[1] == index
    assert [r.payload for r in again[0]] == [r.payload for r in renders]


def test_stimulus_index_lines_have_five_fields(fixture_docs):
    doc = fixture_docs["calm-day"]
    docs = [replace(doc, source_id=name) for name in ("", "calm day", "calm-day")]
    _, index = render_stimulus_set(docs, LayoutCondition.BASELINE)
    assert [len(line.split("\t")) for line in index.splitlines()] == [5, 5, 5]
    with pytest.raises(InvalidDocument, match="source_id: must not contain tabs"):
        render_stimulus_set([replace(doc, source_id="calm\tday")], LayoutCondition.BASELINE)


def test_stimulus_set_empty_input():
    renders, index = render_stimulus_set([], LayoutCondition.BASELINE)
    assert renders == ()
    assert index == ""
    # An empty set still has its format and condition checked, as ``render`` does.
    with pytest.raises(ValueError, match="plain"):
        render_stimulus_set([], LayoutCondition.BASELINE, format="pdf")
    with pytest.raises(ValueError, match="condition"):
        render_stimulus_set([], "icons")


def test_stimulus_set_reads_an_iterator_once(fixture_docs):
    doc = fixture_docs["calm-day"]
    renders, index = render_stimulus_set((d for d in [doc, doc]), LayoutCondition.ICONS)
    assert (renders, index) == render_stimulus_set([doc, doc], LayoutCondition.ICONS)
    assert [line.split("\t")[:2] for line in index.splitlines()] == [
        ["01", "calm-day"], ["02", "calm-day"]]


@pytest.fixture
def period_checks(monkeypatch):
    """Every ``validate_period`` call made while the test runs, as
    ``(prefix, period)``. A period makes one as it is constructed."""
    calls = []
    real = model.validate_period

    def counting(period, prefix="period"):
        calls.append((prefix, period))
        return real(period, prefix)

    monkeypatch.setattr(model, "validate_period", counting)
    return calls


_DOCUMENT_ENTRY_POINTS = [
    *(
        pytest.param(
            lambda doc, c=condition, f=fmt: render(doc, c, format=f),
            id=f"render-{condition.value}-{fmt}",
        )
        for condition in LayoutCondition
        for fmt in FORMATS
    ),
    pytest.param(lambda doc: derive_document_icons(doc, "overall"), id="icons-overall"),
    pytest.param(lambda doc: derive_document_icons(doc, "per_period"), id="icons-per_period"),
    pytest.param(emit_canonical, id="emit_canonical"),
]


@pytest.mark.parametrize("entry_point", _DOCUMENT_ENTRY_POINTS)
def test_document_entry_points_validate_each_period_once(fixture_docs, period_checks, entry_point):
    # Each period was checked once, when the parser built it. An entry point
    # checks none of them again.
    entry_point(fixture_docs["severe-day"])
    assert period_checks == []


@pytest.mark.parametrize("entry_point", _DOCUMENT_ENTRY_POINTS)
def test_document_entry_points_reject_a_three_period_document(fixture_docs, entry_point):
    doc = fixture_docs["severe-day"]
    with pytest.raises(InvalidDocument, match="expected exactly 4 periods, found 3"):
        entry_point(with_periods(doc, doc.periods[:3]))


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "{severe}", "--out", "{tmp}/out.canon"],
        ["classify", "{severe}"],
        ["classify", "{severe}", "--triad-thresholds", "{tmp}/thresholds.txt"],
        ["render", "{severe}", "--condition", "icons", "--format", "svg", "--out", "{tmp}/out.svg"],
        ["stimuli", "{severe}", "--condition", "icons", "--format", "svg", "--out", "{tmp}/set"],
    ],
    ids=["parse", "classify", "classify-triad", "render", "stimuli"],
)
def test_cli_subcommands_validate_each_period_once(tmp_path, capsys, period_checks, argv):
    # The parser builds the four periods; nothing after it checks one again.
    (tmp_path / "thresholds.txt").write_text(GOOD_THRESHOLDS, encoding="utf-8")
    severe = FIXTURE_DIR / "severe-day.txt"
    assert cli.main([arg.format(severe=severe, tmp=tmp_path) for arg in argv]) == 0
    assert [prefix for prefix, _ in period_checks] == ["period"] * 4


def test_stimulus_set_validates_each_period_once(fixture_docs, period_checks):
    docs = [fixture_docs[name] for name in FIXTURE_NAMES]
    render_stimulus_set(docs, LayoutCondition.ICONS, format="svg")
    assert period_checks == []


def test_period_entry_points_validate_once(fixture_docs, period_checks):
    period = fixture_docs["severe-day"].periods[0]
    derive_icons(period)
    triad_advisory(period, TriadThresholds(wind_high_mph=50, temperature_low_f=0))
    assert period_checks == []
