import hashlib
import html
import re
import runpy
import weakref
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, FIXTURE_NAMES, GOLDEN_DIR, documents
from helpers import (
    line_events,
    make_doc,
    make_period,
    oracle_icon_rows,
    oracle_render,
    oracle_render_icon,
    period_row,
    squash,
    visible_text,
)
from test_cli import GOOD_THRESHOLDS
from test_hazards import _tamper
from summitwx import cli, hazards, layout, model
from summitwx.canonical import emit_canonical
from summitwx.hazards import (
    HazardIcon,
    TriadThresholds,
    derive_document_icons,
    derive_icon_rows,
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
from summitwx.model import InvalidDocument
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


#: Text that html escapes, and the ``%`` that the svg line template doubles.
_MARKUP = "Rime & <fog> on the \"knife\" edge's 100% {x}"


def _with_markup(doc, at: int):
    """``doc`` with markup in its source id and a note of period ``at``."""
    periods = list(doc.periods)
    notes = (*periods[at].extra_hazard_notes, _MARKUP)
    periods[at] = replace(periods[at], extra_hazard_notes=notes)
    return replace(doc, source_id=_MARKUP, periods=tuple(periods))


# Gusts that badge the wind icon of a period and of the overall row, and an
# issue time with an offset.
_BADGED = replace(
    make_doc((make_period("Today", temp=(-5, 5), wind=(60, 70), gust=110, notes=(_MARKUP,)),
              make_period("Tonight", wind=(30, 40), gust=47),
              make_period("Tomorrow", temp=(31, 40)),
              make_period("Tomorrow night"))),
    issued_at=datetime(2026, 1, 10, 4, 30, tzinfo=timezone(timedelta(hours=-5))))


@settings(max_examples=60, deadline=None)
@given(documents(), st.none() | st.integers(0, 3))
@example(_BADGED, 1)
def test_every_render_matches_the_element_by_element_writers(doc, markup_at):
    if markup_at is not None:
        doc = _with_markup(doc, markup_at)
    tables = load_tables()
    for condition in LayoutCondition:
        for fmt in FORMATS:
            rendered = render(doc, condition, format=fmt)
            assert ((rendered.payload, rendered.manifest)
                    == oracle_render(doc, condition, fmt, tables))
    overall, per_period = oracle_icon_rows(doc, tables)
    for icon in {*overall, *(icon for icons in per_period for icon in icons)}:
        for fmt in FORMATS:
            assert render_icon(icon, fmt) == oracle_render_icon(icon, fmt)


def test_each_tables_object_renders_its_own_colours(fixture_docs, tmp_path):
    # Force 12 recoloured: an icon's markup kept for one tables object must
    # not be written under another.
    packaged = load_tables()
    recoloured = load_tables(_tamper(tmp_path, "beaufort.table",
                                     lambda s: s.replace("#D5102D", "#123456")))
    doc = fixture_docs["severe-day"]
    for tables, colour, other in ((packaged, "#D5102D", "#123456"),
                                  (recoloured, "#123456", "#D5102D"),
                                  (packaged, "#D5102D", "#123456")):
        for condition in (LayoutCondition.ICONS, LayoutCondition.PER_DAY_ICONS):
            for fmt in ("svg", "html"):
                rendered = render(doc, condition, format=fmt, tables=tables)
                assert rendered.payload == oracle_render(doc, condition, fmt, tables)[0]
                assert colour in rendered.payload.decode()
                assert other not in rendered.payload.decode()


#: Gusts that are integral, fractional and far beyond the Beaufort domain.
_GUSTS = (80, 61.5, 1e16)


@pytest.mark.parametrize("label", ["", ' & "Co" 100%'], ids=["packaged", "markup-in-labels"])
def test_every_badged_icon_row_matches_the_element_by_element_writers(tmp_path, label):
    # Fresh tables, so that a band's markup is first kept from a badged icon
    # (period 1's row is laid out first) and later spliced from kept parts.
    tables = load_tables(_tamper(tmp_path, "beaufort.table",
                                 lambda s: re.sub(r"(?m)^(band: .*)$", rf"\g<1>{label}", s)))
    badged = set()
    for band in tables[hazards.HazardKind.WIND].bands:
        for gust in _GUSTS:
            if gust < band.low:
                continue
            doc = make_doc((make_period("Today", wind=(band.low, band.low), gust=gust),
                            make_period("Tonight", temp=(-5, 5), wind=(30, 40), gust=47),
                            make_period("Tomorrow"), make_period("Tomorrow night")))
            for condition in (LayoutCondition.ICONS, LayoutCondition.PER_DAY_ICONS):
                for fmt in FORMATS:
                    rendered = render(doc, condition, format=fmt, tables=tables)
                    assert ((rendered.payload, rendered.manifest)
                            == oracle_render(doc, condition, fmt, tables))
            overall, per_period = derive_icon_rows(doc, tables)
            for icon in (*overall, *per_period[0]):
                if icon.gust_annotation is not None:
                    badged.add(icon.level)
                for fmt in FORMATS:
                    assert render_icon(icon, fmt) == oracle_render_icon(icon, fmt)
    assert badged == set(range(hazards.WIND_DISPLAY_FLOOR, 12))  # each shown force below 12


def test_the_rows_kept_for_one_tables_object_are_bounded(tmp_path):
    # Each period of the 128 documents below takes each combination of shown
    # bands (wind force 6-12 or none, chill 1-3 or none, freezing, winter
    # precipitation) once; badged, and then again without gusts.
    tables = load_tables(_tamper(tmp_path, "beaufort.table", lambda s: s))
    shown = [sum(band.level >= (hazards.WIND_DISPLAY_FLOOR if kind is hazards.HazardKind.WIND
                                else 1) for band in table.bands) + 1
             for kind, table in tables.items()]
    bound = 5 * shown[0] * shown[1] * shown[2] * shown[3]
    assert bound == 640
    snow = (model.PrecipEvent(model.PrecipKind.SNOW, model.Certainty.LIKELY),)
    combos = [(wind, chill, temp, precip) for wind in (10, 25, 32, 39, 47, 55, 64, 73)
              for chill in (None, (-20, -20), (-40, -40), (-70, -70))
              for temp in ((40, 50), (20, 30)) for precip in ((), snow)]
    for gust in (200, None):
        for k in range(len(combos)):
            periods = []
            for i, label in enumerate(("Today", "Tonight", "Tomorrow", "Tomorrow night")):
                wind, chill, temp, precip = combos[(k + 32 * i) % len(combos)]
                periods.append(make_period(label, temp=temp, wind=(wind, wind), chill=chill,
                                           precip=precip, gust=gust))
            render(make_doc(tuple(periods)), LayoutCondition.BASELINE, tables=tables)
    kept_tables, _, markup = layout._last
    assert kept_tables is tables
    rows = [value for value in markup.values() if isinstance(value, layout._Block)]
    assert 4 * len(combos) < len(rows) <= bound
    assert not any("icon-badge" in row.svg for row in rows)


def _custom_cases(tmp_path):
    """``(fixture, render keywords)`` pairs whose icons differ from the defaults'."""
    # Force 12 moved out of reach, so severe-day's winds read force 11.
    tables = load_tables(_tamper(
        tmp_path, "beaufort.table",
        lambda s: s.replace("band: 11 | 64 | 73", "band: 11 | 64 | 150")
        .replace("band: 12 | 73 | 200", "band: 12 | 150 | 200"),
    ))
    return [("severe-day", {"tables": tables})]


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


@pytest.fixture
def layout_calls(monkeypatch):
    """Counts of ``layout._layouts`` and ``model.validate`` calls."""
    calls = Counter()
    for module, fn in ((layout, "_layouts"), (model, "validate")):
        def counting(*args, _real=getattr(module, fn), _name=fn):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, fn, counting)
    return calls


def test_each_document_is_laid_out_and_validated_once(fixture_texts, layout_calls):
    # Fresh documents, so that no earlier test's layouts are reused. Each is
    # parsed before the counts are cleared, so that only the renders count.
    docs = [parse_forecast(fixture_texts[name], source_id=name).document
            for name in FIXTURE_NAMES]
    layout_calls.clear()
    for condition in LayoutCondition:
        for fmt in FORMATS:
            render_stimulus_set(docs, condition, format=fmt)
    assert layout_calls == {"_layouts": 5, "validate": 5}

    doc = parse_forecast(fixture_texts["severe-day"], source_id="severe-day").document
    layout_calls.clear()
    for condition in LayoutCondition:
        for fmt in FORMATS:
            render(doc, condition, format=fmt)
    assert layout_calls == {"_layouts": 1, "validate": 1}

    doc = parse_forecast(fixture_texts["calm-day"], source_id="calm-day").document
    layout_calls.clear()
    renders, _ = render_stimulus_set([doc, doc], LayoutCondition.ICONS)
    assert renders[0] == renders[1]
    assert layout_calls == {"_layouts": 1, "validate": 1}


@pytest.fixture
def layout_work(monkeypatch):
    """Counts of the work a layout does: ``hazards._bands`` (a period's band
    lookups) and ``layout._esc`` (html-escape) calls, unbadged icons built by
    ``hazards._icon``, and each kind of unbadged icon text and markup written."""
    calls = Counter()

    def wrap(module, fn, counts=lambda *args: True):
        def counting(*args, _real=getattr(module, fn), **kwargs):
            calls[fn] += counts(*args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, fn, counting)

    for module, fn in ((hazards, "_bands"), (hazards, "_icon"), (layout, "_esc")):
        wrap(module, fn)
    wrap(layout, "_band_markup", lambda icon: icon.gust_annotation is None)

    def plain_text(icon, _real=HazardIcon.plain_text.fget):
        calls["plain_text"] += icon.gust_annotation is None
        return _real(icon)
    monkeypatch.setattr(HazardIcon, "plain_text", property(plain_text))
    return calls


def test_a_layout_looks_each_period_up_once_and_writes_each_line_once(
        fixture_texts, tmp_path, layout_work):
    # Tables of their own, whose icons no earlier test has built.
    tables = load_tables(_tamper(tmp_path, "beaufort.table", lambda s: s))
    first, second = (parse_forecast(fixture_texts["severe-day"], source_id="severe-day").document
                     for _ in range(2))
    layout_work.clear()
    render(first, LayoutCondition.BASELINE, tables=tables)
    bands = sum(len(table.bands) for table in tables.values())
    # Severe-day shows seven distinct unbadged icons, each written once.
    assert {fn: n for fn, n in layout_work.items() if fn != "_esc"} == {
        "_bands": 4, "_icon": bands, "plain_text": 7, "_band_markup": 7}

    layout_work.clear()
    payload = render(second, LayoutCondition.BASELINE, tables=tables).payload.decode()
    text = [line for line in payload.split("\n") if line]
    assert len(set(text)) < len(text)  # two periods read "Temperatures: 0 to 10 F"
    # One escape per line, a repeated one included. Both icon rows are unbadged
    # and kept for these tables, so their headings are not escaped again.
    assert dict(layout_work) == {"_bands": 4, "_esc": len(text)}


def test_render_cost_grows_linearly_with_lines(tmp_path):
    # 4x the summary lines, notes and precipitation events; a pass over them
    # per line would grow with their square. Line events in layout's own
    # frames do not swing with the machine's load. Each size has tables of
    # its own, so both lay out and write every icon afresh.
    def events(n):
        combos = [(kind, certainty) for kind in model.PrecipKind for certainty in model.Certainty]
        period = make_period(precip=tuple(model.PrecipEvent(*combos[i % len(combos)])
                                          for i in range(n)),
                             notes=tuple(f"note {i}" for i in range(n)))
        doc = replace(make_doc((period,) * 4),
                      summary_text="\n".join(f"line {i}" for i in range(n)))
        tables = load_tables(_tamper(tmp_path / str(n), "beaufort.table", lambda s: s))
        cases = list(zip(LayoutCondition, ("plain", "svg", "html", "svg")))
        count, renders = line_events(layout, lambda: [
            render(doc, condition, format=fmt, tables=tables) for condition, fmt in cases])
        assert [(r.payload, r.manifest) for r in renders] == [
            oracle_render(doc, condition, fmt, tables) for condition, fmt in cases]
        return count

    ratio = events(200) / events(50)
    assert ratio <= 4.5, ratio


def test_stimulus_set_cost_grows_linearly_with_documents(tmp_path):
    # 4x the distinct documents, each rendered in every condition; a pass over
    # the set per document would grow with its square. Each size has tables of
    # its own, so both lay out every document and write every icon afresh.
    def events(n):
        docs = [replace(make_doc(tuple(
            make_period(label, temp=(k * 7 % 90 - 60, k * 7 % 90 - 50), wind=(k % 50, k % 50 + 30))
            for k, label in enumerate(("Today", "Tonight", "Tomorrow", "Tomorrow night"), i))),
            source_id=f"stimulus-{i}") for i in range(n)]
        tables = load_tables(_tamper(tmp_path / str(n), "beaufort.table", lambda s: s))
        cases = list(zip(LayoutCondition, ("plain", "svg", "html", "svg")))
        count, sets = line_events(layout, lambda: [
            render_stimulus_set(docs, condition, format=fmt, tables=tables)
            for condition, fmt in cases])
        for (renders, index), (condition, fmt) in zip(sets, cases):
            assert index.count("\n") == n
            assert [(r.payload, r.manifest) for r in renders[::7]] == [
                oracle_render(doc, condition, fmt, tables) for doc in docs[::7]]
        return count

    ratio = events(256) / events(64)
    assert ratio <= 4.5, ratio


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("&<>\"'%; #x27ampltgquot") | st.characters()))
@example("Rime & <fog> on the \"knife\" edge's 100% &amp; &#x27; \u00e9\u2014\U0001f32c")
def test_the_escaper_is_html_escape_with_quotes(text):
    assert layout._esc(text) == html.escape(text, quote=True)


def test_a_failing_call_leaves_the_last_calls_layouts(fixture_texts, goldens, layout_calls):
    docs = [parse_forecast(fixture_texts[name], source_id=name).document
            for name in FIXTURE_NAMES]
    render_stimulus_set(docs, LayoutCondition.ICONS)
    held = [weakref.ref(doc) for doc in docs]
    fresh = parse_forecast(fixture_texts["calm-day"], source_id="calm-day").document
    bad = replace(docs[0], periods=docs[0].periods[:3])
    with pytest.raises(InvalidDocument, match="expected exactly 4 periods, found 3"):
        render_stimulus_set([*docs, fresh, bad], LayoutCondition.BASELINE)
    fresh_ref = weakref.ref(fresh)
    del docs, fresh, bad
    assert fresh_ref() is None
    assert all(ref() is not None for ref in held)
    layout_calls.clear()
    for token in sorted(CONDITION_TOKENS):
        for fmt in FORMATS:
            renders, _ = render_stimulus_set([ref() for ref in held],
                                             condition_from_token(token), format=fmt)
            assert [r.payload for r in renders] == [goldens[name, token, fmt]
                                                    for name in FIXTURE_NAMES]
    assert layout_calls == {}


def test_refreeze_goldens_writes_the_goldens_and_removes_stale_files(tmp_path, capsys):
    script = runpy.run_path(str(GOLDEN_DIR.parents[1] / "scripts" / "refreeze_goldens.py"))
    (tmp_path / "stale.txt").write_text("left by an older layout\n", encoding="utf-8")
    assert script["main"](["--golden", str(tmp_path)]) == 0
    names = sorted(path.name for path in GOLDEN_DIR.iterdir())
    assert len(names) == 60
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
    assert capsys.readouterr().out == (
        f"removed stale golden stale.txt\nwrote 60 golden files to {tmp_path}\n")


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
                f" {render_icon(icon)}" for icon in period_row(period)
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
    for fmt in FORMATS:
        with pytest.raises(ValueError, match="glyph"):
            render_icon(replace(overall[0], glyph_id="missing"), fmt)


def _every_packaged_icon():
    """Each band's icon of every packaged table, unbadged and gust-badged."""
    for table in load_tables().values():
        for band in table.bands:
            icon = hazards._icon(table, band)
            yield icon
            yield replace(icon, gust_annotation=band.level * 10 + 0.5)


@pytest.mark.parametrize("icon", list(_every_packaged_icon()),
                         ids=lambda icon: f"{icon.glyph_id}-{icon.level}-"
                                          f"{'badged' if icon.gust_annotation else 'plain'}")
def test_the_plain_icon_text_has_one_definition(icon):
    # The icon's own text, the renderer's plain icon and a classify line.
    expected = oracle_render_icon(icon, "plain")
    assert icon.plain_text == render_icon(icon, "plain") == cli._icon_line((icon,)) == expected


def _wcag_luminance(color):
    """WCAG 2.1 relative luminance of ``#RRGGBB``."""
    channels = [int(color[i:i + 2], 16) / 255 for i in (1, 3, 5)]
    r, g, b = (c / 12.92 if c <= 0.03928 else ((c + 0.055) / 1.055) ** 2.4 for c in channels)
    return 0.2126 * r + 0.7152 * g + 0.0722 * b


#: WCAG 2.1 contrast, (L1 + 0.05) / (L2 + 0.05), of each packaged band
#: against the ink _glyph_color picks for it. Three fall below the 4.5 that
#: WCAG AA asks of text: wind force 10 (where dark ink would give 5.19), wind
#: force 11 and winter precipitation level 1.
BAND_INK_CONTRAST = {
    ("wind", 0): 17.06, ("wind", 1): 13.61, ("wind", 2): 13.51, ("wind", 3): 13.21,
    ("wind", 4): 12.06, ("wind", 5): 11.25, ("wind", 6): 11.94, ("wind", 7): 13.08,
    ("wind", 8): 10.01, ("wind", 9): 6.94, ("wind", 10): 3.28, ("wind", 11): 4.26,
    ("wind", 12): 5.33,
    ("wind_chill", 0): 17.06, ("wind_chill", 1): 11.45, ("wind_chill", 2): 6.75,
    ("wind_chill", 3): 6.76,
    ("freezing_temp", 0): 17.06, ("freezing_temp", 1): 9.07,
    ("winter_precip", 0): 17.06, ("winter_precip", 1): 4.15,
}


def test_each_band_keeps_its_ink_contrast():
    contrast = {}
    for kind, table in load_tables().items():
        for band in table.bands:
            lighter, darker = sorted(
                map(_wcag_luminance, (band.color, layout._glyph_color(band.color))), reverse=True)
            contrast[kind.value, band.level] = round((lighter + 0.05) / (darker + 0.05), 2)
    assert contrast == BAND_INK_CONTRAST


def test_render_rejects_bad_inputs(fixture_docs):
    doc = fixture_docs["calm-day"]
    with pytest.raises(ValueError, match="plain"):
        render(doc, LayoutCondition.BASELINE, format="pdf")
    with pytest.raises(ValueError, match="condition"):
        render(doc, "baseline")
    with pytest.raises(InvalidDocument):
        render(replace(doc, periods=doc.periods[:1]), LayoutCondition.BASELINE)


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
    """Every period ``validate_period`` checks while the test runs. A period
    makes one call as it is constructed."""
    calls = []
    real = model.validate_period

    def counting(period):
        calls.append(period)
        return real(period)

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
    pytest.param(derive_icon_rows, id="icon-rows"),
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
        entry_point(replace(doc, periods=doc.periods[:3]))


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
    assert len(period_checks) == 4


def test_stimulus_set_validates_each_period_once(fixture_docs, period_checks):
    docs = [fixture_docs[name] for name in FIXTURE_NAMES]
    render_stimulus_set(docs, LayoutCondition.ICONS, format="svg")
    assert period_checks == []


def test_period_entry_points_validate_once(fixture_docs, period_checks):
    period = fixture_docs["severe-day"].periods[0]
    period_row(period)
    triad_advisory(period, TriadThresholds(wind_high_mph=50, temperature_low_f=0))
    assert period_checks == []
