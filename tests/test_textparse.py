import re
import sys
import textwrap
import time
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from summitwx import textparse
from summitwx.model import Certainty, PrecipEvent, PrecipKind
from summitwx.textparse import (
    EPOCH, Severity, _coverage, _fold, _Scan, format_diagnostic, parse_forecast,
)

from conftest import FIXTURE_NAMES, spellable_documents
from helpers import write_bulletin

MINI_HEADER = "Issued: 2026-01-01T00:00:00\nQuiet pattern overall.\n\n"


def mini(today: str, tonight: str = "Temperatures: 20-30F. Winds: NW 10-20 mph.") -> str:
    filler = "Temperatures: 20-30F. Winds: NW 10-20 mph."
    return (
        f"{MINI_HEADER}"
        f"Today: {today}\n"
        f"Tonight: {tonight}\n"
        f"Tomorrow: {filler}\n"
        f"Tomorrow night: {filler}\n"
    )


def parse_ok(text: str):
    result = parse_forecast(text)
    assert result.errors == (), [format_diagnostic(d, text) for d in result.errors]
    assert result.document is not None
    return result


def test_fixtures_parse_without_errors(fixture_texts):
    for name, text in fixture_texts.items():
        result = parse_forecast(text, source_id=name)
        assert result.errors == (), (name, [format_diagnostic(d, text) for d in result.errors])
        assert result.document is not None
        assert result.document.source_id == name
        assert len(result.document.periods) == 4


def test_severe_day_extraction(fixture_texts):
    doc = parse_ok(fixture_texts["severe-day"]).document
    assert doc.issued_at == datetime(2026, 1, 10, 4, 30)
    assert doc.summary_text.startswith("A dangerous arctic outbreak")
    assert doc.summary_text.endswith("strongly discouraged.")
    assert "Issued" not in doc.summary_text

    today, tonight, tomorrow, tomorrow_night = doc.periods
    assert [p.label for p in doc.periods] == [
        "Today", "Tonight", "Tomorrow", "Tomorrow night",
    ]

    assert (today.temperature.low, today.temperature.high) == (0, 10)
    assert today.wind.direction == "NW"
    assert (today.wind.sustained.low, today.wind.sustained.high) == (70, 90)
    assert today.wind.gust_high == 110
    assert (today.wind_chill.low, today.wind_chill.high) == (-50, -35)
    assert PrecipEvent(PrecipKind.SNOW, Certainty.LIKELY) in today.precip_events
    assert today.extra_hazard_notes == (
        "Blowing snow reducing visibility to near zero at times.",
    )

    assert (tonight.temperature.low, tonight.temperature.high) == (-15, -10)
    assert (tonight.wind.sustained.low, tonight.wind.sustained.high) == (85, 105)
    assert tonight.wind.gust_high is None
    assert tonight.wind_chill is None
    kinds = {ev.kind for ev in tonight.precip_events}
    assert kinds == {PrecipKind.SNOW, PrecipKind.SLEET}

    assert (tomorrow.temperature.low, tomorrow.temperature.high) == (-5, 5)
    assert tomorrow.wind.gust_high == 95
    assert tomorrow.extra_hazard_notes == (
        "Whiteout conditions possible in the morning.",
    )

    assert (tomorrow_night.temperature.low, tomorrow_night.temperature.high) == (0, 10)
    assert tomorrow_night.wind.direction == "W"
    assert tomorrow_night.precip_events == ()


def test_flood_day_extraction(fixture_texts):
    doc = parse_ok(fixture_texts["flood-day"]).document
    saturday, saturday_night, sunday, sunday_night = doc.periods
    assert saturday.label == "Saturday"
    assert saturday.wind.gust_high == 60
    assert PrecipEvent(PrecipKind.RAIN, Certainty.LIKELY) in saturday.precip_events
    assert any("flood watch" in n.lower() for n in saturday.extra_hazard_notes)
    assert any("fog" in n.lower() for n in saturday_night.extra_hazard_notes)
    assert {ev.kind for ev in sunday.precip_events} == {PrecipKind.RAIN}
    assert sunday_night.extra_hazard_notes == ("Patchy fog near the summits.",)
    assert all(p.wind_chill is None for p in doc.periods)


def test_freeze_snap_extraction(fixture_texts):
    doc = parse_ok(fixture_texts["freeze-snap"]).document
    assert [p.label for p in doc.periods] == [
        "This afternoon", "Overnight", "Tomorrow", "Tomorrow night",
    ]
    assert (doc.periods[0].temperature.low, doc.periods[0].temperature.high) == (-25, -15)
    assert (doc.periods[1].temperature.low, doc.periods[1].temperature.high) == (-28, -20)
    assert all(p.precip_events == () for p in doc.periods)


def test_mixed_precip_gust_warning(fixture_texts):
    result = parse_ok(fixture_texts["mixed-precip"])
    warnings = [d for d in result.diagnostics if d.severity is Severity.WARNING]
    assert len(warnings) == 1
    rendered = format_diagnostic(warnings[0], fixture_texts["mixed-precip"])
    assert rendered.startswith("warning:5:")
    assert "gusts mentioned without a numeric value" in rendered
    today, tonight, tomorrow, tomorrow_night = result.document.periods
    assert today.wind.gust_high is None
    assert tonight.wind.gust_high == 58
    assert {ev.kind for ev in tonight.precip_events} == {
        PrecipKind.SLEET, PrecipKind.FREEZING_RAIN,
    }
    assert {ev.kind for ev in tomorrow.precip_events} == {
        PrecipKind.MIXED, PrecipKind.RAIN,
    }
    assert tomorrow_night.precip_events == (
        PrecipEvent(PrecipKind.SNOW, Certainty.CHANCE),
    )


@pytest.mark.parametrize(
    "phrase, expected",
    [
        ("Temperatures: 0-10F.", (0, 10)),
        ("Temperatures: 35-50 below zero.", (-50, -35)),
        ("Temperatures: 5 below to 5F.", (-5, 5)),
        ("Temperatures: 10-15 below.", (-15, -10)),
        ("Temperatures: 5 below to 10 below.", (-10, -5)),
        ("Temperatures: 40 - 60.", (40, 60)),
        ("Temperatures: around 45F.", (45, 45)),
        ("Temperatures: in the 20s, near 25F.", (20, 25)),
        ("Temperatures: 4-5F.", (4, 5)),
        # Only an ASCII digit before the hyphen makes it a range separator.
        ("Temperatures: x-5F.", (-5, -5)),
        ("Temperatures: ٤-5F.", (-5, -5)),
        ("Temperatures: ²-5F.", (-5, -5)),
    ],
)
def test_temperature_phrasings(phrase, expected):
    doc = parse_ok(mini(f"{phrase} Winds: NW 10-20 mph.")).document
    temp = doc.periods[0].temperature
    assert (temp.low, temp.high) == expected


@pytest.mark.parametrize(
    "phrase, sustained, direction, gust",
    [
        ("Winds: NW 70-90 mph with higher gusts 100-110 mph.", (70, 90), "NW", 110),
        ("Winds: NW 60-80 mph, gusts to 95 mph.", (60, 80), "NW", 95),
        ("Winds: 20-30 mph.", (20, 30), None, None),
        ("Winds: shifting SW 15-25 mph.", (15, 25), "SW", None),
        ("Winds: W 45 mph.", (45, 45), "W", None),
    ],
)
def test_wind_phrasings(phrase, sustained, direction, gust):
    doc = parse_ok(mini(f"Temperatures: 20-30F. {phrase}")).document
    wind = doc.periods[0].wind
    assert (wind.sustained.low, wind.sustained.high) == sustained
    assert wind.direction == direction
    assert wind.gust_high == gust


def test_gust_below_sustained_is_dropped_with_warning():
    result = parse_ok(mini("Temperatures: 20-30F. Winds: NW 40-60 mph, gusts to 50 mph."))
    assert result.document.periods[0].wind.gust_high is None
    warnings = [d for d in result.diagnostics if d.severity is Severity.WARNING]
    assert len(warnings) == 1
    assert "below the sustained high" in warnings[0].message


def test_gust_warning_prints_the_numbers_as_stated():
    text = mini("Temperatures: 20-30F. Winds: 1000001 to 1000002 mph, gusts to 1000001.5 mph.")
    (warning,) = [d for d in parse_ok(text).diagnostics if d.severity is Severity.WARNING]
    assert warning.message == ("period 1 ('Today'): stated gust 1000001.5 mph is below the "
                               "sustained high 1000002 mph; gust ignored")


def test_a_wind_too_large_for_a_float_is_an_error_not_a_crash():
    text = mini(f"Temperatures: 20-30F. Winds: 10 to 1{'0' * 400} mph, gusts to 50 mph.")
    result = parse_forecast(text)
    assert result.document is None
    assert [d.message for d in result.diagnostics if d.severity is not Severity.INFO] == [
        "period 1 ('Today'): stated gust 50 mph is below the sustained high inf mph; "
        "gust ignored",
        "period 1 ('Today'): wind.sustained: values must be finite",
    ]


@pytest.mark.parametrize(
    "today, temperature, sustained, direction, gust, warned_at",
    [
        # Two wind statements: the first compass point wins, the sustained
        # values and the gusts of both merge.
        ("Temperatures: 20-30F. Winds: NW 10-20 mph, gusts to 40. Winds: SE 30 mph, gusts 50.",
         (20, 30), (10, 30), "NW", 50, []),
        ("Temperatures: 20-30F. Winds: 10-20 mph. Winds: SE 30 mph, gusts 50.",
         (20, 30), (10, 30), "SE", 50, []),
        # A gust word in a temperature statement is not a split: every number
        # after it is still a temperature.
        ("Temperatures: 20-30F with gusts 45. Winds: NW 10-20 mph.",
         (20, 45), (10, 20), "NW", None, []),
        # Only the first gust word of a wind statement splits it.
        ("Temperatures: 20-30F. Winds: NW 10-20 mph gusting 30, gusts 40.",
         (20, 30), (10, 20), "NW", 40, []),
        ("Temperatures: 20-30F. Winds: NW 10-20 mph gusting, gusts 40.",
         (20, 30), (10, 20), "NW", 40, []),
        # A gust word with no number after it warns once per statement, in
        # statement order.
        ("Temperatures: 20-30F. Winds: NW 10-20 mph gusting. Winds: W 25 mph with gusts.",
         (20, 30), (10, 25), "NW", None, ["gusting", "gusts"]),
    ],
    ids=["two-winds", "two-winds-later-direction", "gust-in-temperature",
         "two-gust-words", "two-gust-words-first-bare", "two-bare-gusts"],
)
def test_order_sensitive_statements(today, temperature, sustained, direction, gust, warned_at):
    text = mini(today)
    result = parse_ok(text)
    period = result.document.periods[0]
    assert (period.temperature.low, period.temperature.high) == temperature
    assert (period.wind.sustained.low, period.wind.sustained.high) == sustained
    assert period.wind.direction == direction
    assert period.wind.gust_high == gust
    warnings = [d for d in result.diagnostics if d.severity is Severity.WARNING]
    assert [text[slice(*d.span)] for d in warnings] == warned_at
    assert all("gusts mentioned without a numeric value" in d.message for d in warnings)


def oracle_numbers(folded, numbers, start, end):
    """The number reader as it was before it became one right-to-left pass,
    kept verbatim as its oracle: numbers read forward, then a second loop
    spreads ``below zero`` to the left."""
    values: list[float] = []
    negate: list[bool] = []
    for m in numbers:
        token = m[0]
        value = float(token)
        if token.startswith("-"):
            # Hyphen between two complete numbers separates a range.
            k = m.start() - 1
            while k >= start and folded[k].isspace():
                k -= 1
            if k >= start and "0" <= folded[k] <= "9":
                value = float(token[1:])
        values.append(value)
        negate.append(bool(textparse._BELOW_RE.match(folded, m.end(), end)))
    # "35-50 below zero" puts the whole range below zero, so a trailing
    # negation spreads left across pure range separators.
    for i in range(len(values)):
        if not negate[i]:
            continue
        values[i] = -abs(values[i])
        j = i - 1
        while (j >= 0 and not negate[j]
               and textparse._RANGE_GAP_RE.fullmatch(folded, numbers[j].end(),
                                                     numbers[j + 1].start())):
            values[j] = -abs(values[j])
            j -= 1
    return values


_NUMBER_PIECES = st.one_of(
    st.from_regex(r"-?(?:0|[1-9][0-9]?)(?:\.[05])?", fullmatch=True),
    st.sampled_from(["-", "to", "or", "through", "and", "near", "f", "mph", "x", "zero",
                     "below", "below zero", "degrees below zero", "degrees", "belowzero"]),
)
_NUMBER_GAPS = st.sampled_from(["", " ", "  ", "\n", " \n ", "\t", "\n\n", "\x0b"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_NUMBER_PIECES, _NUMBER_GAPS), max_size=16))
def test_number_reader_matches_the_two_loop_reader(pieces):
    folded = "temperatures: " + "".join(piece + gap for piece, gap in pieces)
    start = len("temperatures:")
    numbers = [m for m in textparse._TOKEN_RE.finditer(folded, start)
               if m.lastgroup == "number"]
    got = textparse._numbers(folded, numbers, start, len(folded))
    assert list(map(repr, got)) == list(map(repr, oracle_numbers(folded, numbers, start,
                                                                  len(folded))))


# The token pattern as it was while a sentence stop was a zero-width
# alternative (a lookbehind, or the block's end) and each number's ``below``
# was matched apart, kept verbatim as the oracle of the token scan.
ORACLE_TOKEN_RE = re.compile(
    r"-?[0-9]+(?:\.[0-9]+)?(?P<number>)|(?:(?<=[.!?])\s+|\Z)(?P<stop>)|\b(?:"
    r"temperatures?\s*:(?P<temp>)|wind\s+chills?\s*:(?P<chill>)|winds?\s*:(?P<wind>)"
    r"|gust(?:s|ing)?\b(?P<gust>)|likely\b(?P<likely>)|chance\b(?P<chance>)"
    r"|(?:flood|fog|visibility\b|whiteout\b)(?P<hazard>)|freezing\s+rain\b(?P<FREEZING_RAIN>)"
    r"|(?:wintry\s+mix|mixed\s+precipitation)\b(?P<MIXED>)"
    r"|(?:snow\s+showers|snowfall|flurries|snow)\b(?P<SNOW>)|sleet\b(?P<SLEET>)"
    r"|(?:rain\s+showers|rain)\b(?P<RAIN>))"
)
_BLOCK_PIECES = st.one_of(
    st.from_regex(r"-?[0-9]{1,3}(?:\.[0-9]{1,2})?", fullmatch=True),
    st.sampled_from([
        "-", "--", ".", "!", "?", "...", "?!", "to", "or", "x", "nw", "mph", "f",
        "below", "below zero", "degrees below zero", "degrees", "zero", "belowzero",
        "temperatures:", "temperature :", "winds:", "wind:", "wind chills:", "wind chill :",
        "gust", "gusts", "gusting", "gusty", "snow", "snow showers", "snowfall", "flurries",
        "freezing rain", "wintry mix", "mixed precipitation", "rain", "rain showers", "sleet",
        "likely", "chance", "fog", "flooding", "visibility", "whiteout",
    ]),
)
_BLOCK_GAPS = st.sampled_from(["", " ", "  ", "\n", " \n ", "\t", "\x0b", "\n\n"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_BLOCK_PIECES, _BLOCK_GAPS), max_size=20),
       st.sampled_from(["", ".", "!", "...", ". ", " ", "\n"]),
       st.sampled_from(["", "\n", "\ntonight: 5 below. ", " below zero", "0", ". "]))
def test_the_token_scan_reads_the_tokens_of_the_zero_width_stop_scan(pieces, last, after):
    # A block as the parser scans it: after its header's colon, with text
    # beyond its end that no token may reach into. Stops are compared at
    # their whitespace, and each number's ``below`` with _BELOW_RE's match.
    folded = "today:" + "".join(piece + gap for piece, gap in pieces) + last
    start, end = len("today:"), len(folded)
    folded += after

    def oracle_below(m):
        below = textparse._BELOW_RE.match(folded, m.end(), end)
        return below.span() if below else (-1, -1)

    want = [(m.lastgroup, m.start(), m.end(),
             oracle_below(m) if m.lastgroup == "number" else (-1, -1))
            for m in ORACLE_TOKEN_RE.finditer(folded, start, end)]
    scanned = [*textparse._TOKEN_RE.finditer(folded, start, end),
               textparse._BLOCK_END_RE.match(folded, end)]
    got = [(m.lastgroup, m.start("stop") if m.lastgroup == "stop" else m.start(), m.end(),
            m.span("below") if m.lastgroup == "number" else (-1, -1))
           for m in scanned]
    assert got == want


def test_token_pattern_never_matches_empty():
    # An alternative that can match empty is tried at every character of a
    # block; the block's last stop is read after the scan instead.
    assert textparse._TOKEN_RE.search("") is None


def test_stated_wind_chill_extraction():
    doc = parse_ok(
        mini("Temperatures: 0-10F. Winds: NW 40-60 mph. Wind chills: 25-40 below zero.")
    ).document
    chill = doc.periods[0].wind_chill
    assert (chill.low, chill.high) == (-40, -25)


# A line break inside a multi-word token reads as the space it replaces.
@pytest.mark.parametrize(
    "today, field, expected",
    [
        ("Temperatures: 10-15\nbelow. Winds: NW 10-20 mph.", "temperature", (-15, -10)),
        ("Temperatures: 0-10F. Winds: NW 40-60 mph. Wind\nchills: 35-50 below zero.",
         "wind_chill", (-50, -35)),
        ("Temperatures: 0-10F.\nWinds: NW 40-60 mph. Wind chills: 35-50\nbelow\nzero.",
         "wind_chill", (-50, -35)),
    ],
)
def test_a_line_break_inside_a_phrase_keeps_its_meaning(today, field, expected):
    value = getattr(parse_ok(mini(today)).document.periods[0], field)
    assert (value.low, value.high) == expected


def test_a_line_break_inside_freezing_rain_keeps_the_kind():
    doc = parse_ok(mini("Light freezing\nrain likely. Temperatures: 20-30F. Winds: NW 10-20 mph."))
    assert doc.document.periods[0].precip_events == (
        PrecipEvent(PrecipKind.FREEZING_RAIN, Certainty.LIKELY),
    )


def rewrap(text: str, width: int) -> str:
    """``text`` with every line but ``Issued:`` refilled to ``width`` columns."""
    lines = []
    for line in text.splitlines():
        if line.startswith("Issued:") or not line.strip():
            lines.append(line)
        else:
            lines.extend(textwrap.wrap(line, width, break_long_words=False,
                                       break_on_hyphens=False))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("width", range(16, 101))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_bulletin_means_the_same_at_any_wrap_width(fixture_texts, name, width):
    source = parse_ok(fixture_texts[name]).document
    wrapped = parse_ok(rewrap(fixture_texts[name], width)).document
    assert wrapped.issued_at == source.issued_at
    assert wrapped.periods == source.periods
    assert wrapped.summary_text.split() == source.summary_text.split()


@settings(max_examples=100, deadline=None)
@given(spellable_documents())
def test_a_written_bulletin_parses_back_to_its_document(doc):
    text = write_bulletin(doc)
    result = parse_forecast(text, source_id=doc.source_id)
    assert result.errors == (), [format_diagnostic(d, text) for d in result.errors]
    assert result.document == doc


# Metamorphic relation: refilling a bulletin to another width changes no
# period, the issue time, or the words of the summary.
@settings(max_examples=100, deadline=None)
@given(spellable_documents(), st.integers(16, 100))
def test_rewrapping_a_written_bulletin_keeps_its_meaning(doc, width):
    text = write_bulletin(doc)
    source = parse_ok(text).document
    wrapped = parse_ok(rewrap(text, width)).document
    assert wrapped.issued_at == source.issued_at
    assert wrapped.periods == source.periods
    assert wrapped.summary_text.split() == source.summary_text.split()


def test_keywords_are_ascii_letters_in_any_case():
    doc = parse_ok(mini("SNOW LIKELY. tEmPeRaTuReS: 20-30F. WINDS: nw 10-20 mph, GUSTS to 40 mph.")).document
    today = doc.periods[0]
    assert today.precip_events == (PrecipEvent(PrecipKind.SNOW, Certainty.LIKELY),)
    assert (today.temperature.low, today.temperature.high) == (20, 30)
    assert (today.wind.direction, today.wind.gust_high) == ("NW", 40)


# A letter that matches an ASCII one only under Unicode case folding
# (U+017F long s, U+212A Kelvin sign, U+0131 dotless i) is not a keyword
# letter: the word is narrative, as any other unknown word is.
@pytest.mark.parametrize(
    "today, field, expected",
    [
        ("Chance of \u017fnow. Temperatures: 20-30F. Winds: NW 10-20 mph.", "precip_events", ()),
        ("Chance of \u017fleet. Temperatures: 20-30F. Winds: NW 10-20 mph.", "precip_events", ()),
        ("Snow li\u212aely. Temperatures: 20-30F. Winds: NW 10-20 mph.", "precip_events",
         (PrecipEvent(PrecipKind.SNOW, Certainty.MENTIONED),)),
        ("Temperatures: 20-30F. Winds: NW 10-20 mph, gu\u017fts to 90 mph.", "wind", (10, 90, None)),
        ("Temperatures: 0-10F. Winds: NW 10-20 mph. Wind chill\u017f: 40 below.", "wind_chill", None),
        # Read as a temperature label once, since it does not start "wind".
        ("Temperatures: 20-30F. W\u0131nds: 50-60 mph. Winds: NW 10-20 mph.", "temperature", (20, 30)),
    ],
)
def test_a_look_alike_letter_is_not_a_keyword_letter(today, field, expected):
    value = getattr(parse_ok(mini(today)).document.periods[0], field)
    if field == "wind":
        value = (value.sustained.low, value.sustained.high, value.gust_high)
    elif field == "temperature":
        value = (value.low, value.high)
    assert value == expected


@pytest.mark.parametrize("old, new, message", [
    ("Temperatures:", "Temperature\u017f:", "period 1 ('Today'): no temperature found"),
    ("Tonight:", "\u017funday:", "expected 4 periods, found 3"),
])
def test_a_look_alike_label_or_header_is_not_one(old, new, message):
    text = mini("Temperatures: 20-30F. Winds: NW 10-20 mph.").replace(old, new, 1)
    assert [d.message for d in parse_forecast(text).errors] == [message]


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.characters(), st.sampled_from("\ud83d\ude00\ud800AZ\u017f\u212a"))))
def test_the_fold_maps_ascii_capitals_only_and_keeps_every_index(text):
    assert _fold(text) == "".join(c.lower() if "A" <= c <= "Z" else c for c in text)


def test_a_carriage_return_is_an_error_at_its_line_and_column():
    text = mini("Temperatures: 20-30F. Winds: NW 10-20 mph.")
    crlf = text.replace("\n", "\r\n")
    lone = text.replace("Winds:", "Winds:\r", 1)
    for bad, where in ((crlf, "1:28"), (lone, "4:36")):
        result = parse_forecast(bad)
        assert result.document is None
        assert [format_diagnostic(d, bad) for d in result.diagnostics] == [
            f"error:{where} carriage return in input; expected bare newlines"
        ]


def test_a_tab_in_the_source_id_is_an_error(fixture_texts):
    result = parse_forecast(fixture_texts["calm-day"], source_id="calm\tday")
    assert result.document is None
    assert [d.message for d in result.errors] == ["source_id: must not contain tabs"]


def test_a_long_whitespace_run_between_numbers_reads_in_linear_time():
    # A range gap may be any whitespace run; one that is not a pure gap must
    # be rejected without trying every split of the run.
    short = parse_ok(mini("Temperatures: 10 x 20 below. Winds: NW 10-20 mph.")).document
    started = time.perf_counter()
    long = parse_ok(mini(f"Temperatures: 10{' ' * 20_000}x 20 below. Winds: NW 10-20 mph.")).document
    assert time.perf_counter() - started < 0.5
    assert long.periods[0] == short.periods[0]
    assert (short.periods[0].temperature.low, short.periods[0].temperature.high) == (-20, 10)


def test_a_long_whitespace_run_after_a_stop_reads_in_linear_time():
    # A sentence stop reads its punctuation and the whole whitespace run after it.
    short = parse_ok(mini("Temperatures: 10-20. Fog likely. Winds: NW 10-20 mph.")).document
    started = time.perf_counter()
    run = " " * 20_000
    long = parse_ok(mini(f"Temperatures: 10-20.{run}Fog likely. Winds: NW 10-20 mph.")).document
    assert time.perf_counter() - started < 0.5
    assert long.periods[0] == short.periods[0]
    assert short.periods[0].extra_hazard_notes == ("Fog likely.",)


def test_a_long_whitespace_run_after_degrees_reads_in_linear_time():
    # A number looks ahead for ``degrees below``; a run that ends in anything
    # else must be given up without trying every split of the run.
    short = parse_ok(mini("Temperatures: 10 degrees x 20 below. Winds: NW 10-20 mph.")).document
    started = time.perf_counter()
    run = " " * 20_000
    long = parse_ok(mini(f"Temperatures: 10 degrees{run}x 20 below. Winds: NW 10-20 mph.")).document
    assert time.perf_counter() - started < 0.5
    assert long.periods[0] == short.periods[0]
    assert (short.periods[0].temperature.low, short.periods[0].temperature.high) == (-20, 10)


def test_expected_period_count_error():
    text = f"{MINI_HEADER}Today: Temperatures: 20-30F. Winds: NW 10-20 mph.\nTonight: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
    result = parse_forecast(text)
    assert result.document is None
    assert any("expected 4 periods, found 2" in d.message for d in result.errors)


def test_too_many_periods_error():
    extra = "Today: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
    text = mini("Temperatures: 20-30F. Winds: NW 10-20 mph.") + extra
    result = parse_forecast(text)
    assert any("expected 4 periods, found 5" in d.message for d in result.errors)


def test_missing_temperature_error():
    result = parse_forecast(mini("Winds: NW 10-20 mph."))
    assert result.document is None
    assert any(
        "period 1 ('Today'): no temperature found" in d.message for d in result.errors
    )


def test_missing_wind_error():
    result = parse_forecast(mini("Temperatures: 20-30F."))
    assert result.document is None
    assert any(
        "period 1 ('Today'): no wind prediction found" in d.message
        for d in result.errors
    )


def test_empty_input_error():
    result = parse_forecast("")
    assert result.document is None
    assert result.errors[0].message == "empty input"
    assert result.coverage == 0.0


def test_missing_summary_error():
    text = (
        "Issued: 2026-01-01T00:00:00\n"
        "Today: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
        "Tonight: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
        "Tomorrow: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
        "Tomorrow night: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
    )
    result = parse_forecast(text)
    assert result.document is None
    assert any("no summary narrative" in d.message for d in result.errors)


def test_missing_issued_line_is_info_and_epoch():
    text = mini("Temperatures: 20-30F. Winds: NW 10-20 mph.").replace(
        "Issued: 2026-01-01T00:00:00\n", ""
    )
    result = parse_ok(text)
    infos = [d for d in result.diagnostics if d.severity is Severity.INFO]
    assert any("Issued" in d.message for d in infos)
    assert result.document.issued_at == EPOCH


def test_unreadable_issued_line_is_warning_and_epoch():
    text = mini("Temperatures: 20-30F. Winds: NW 10-20 mph.").replace(
        "2026-01-01T00:00:00", "sometime soon"
    )
    result = parse_ok(text)
    warnings = [d for d in result.diagnostics if d.severity is Severity.WARNING]
    assert any("unreadable issue timestamp" in d.message for d in warnings)
    assert result.document.issued_at == EPOCH


def test_period_headers_must_start_a_line():
    text = mini("Temperatures: 20-30F. Winds: NW 10-20 mph. More about today later.")
    doc = parse_ok(text).document
    assert doc.periods[0].label == "Today"


def test_coverage_bounds_and_fixture_floor(fixture_texts):
    for name, text in fixture_texts.items():
        result = parse_forecast(text, source_id=name)
        assert 0.0 <= result.coverage <= 1.0
        assert result.coverage >= 0.75, (name, result.coverage)


def test_coverage_drops_with_unrecognized_text():
    base = mini("Temperatures: 20-30F. Winds: NW 10-20 mph.")
    noisy = mini(
        "Temperatures: 20-30F. Winds: NW 10-20 mph. "
        "Entirely unrelated chatter about nothing weatherlike goes here."
    )
    assert parse_ok(noisy).coverage < parse_ok(base).coverage


def test_diagnostic_format_is_line_and_column():
    text = mini("Winds: NW 10-20 mph.")
    result = parse_forecast(text)
    rendered = [format_diagnostic(d, text) for d in result.errors]
    assert rendered
    assert all(r.split(" ")[0].count(":") == 2 for r in rendered)
    severity, line, col = rendered[0].split(" ")[0].split(":")
    assert severity == "error"
    assert line.isdigit() and col.isdigit()


def test_parse_is_deterministic(fixture_texts):
    text = fixture_texts["severe-day"]
    assert parse_forecast(text) == parse_forecast(text)


def test_label_at_the_very_start_of_a_period_block():
    # No space after the header colon: the label opens the block and its
    # sentence, so the statement still stops at the sentence end.
    text = (
        f"{MINI_HEADER}"
        "Today:Temperatures: 20-30F. Highs near 90 in the valleys. Winds: NW 10-20 mph.\n"
        "Tonight:Winds: NW 10-20 mph. Temperatures: 5-15F.\n"
        "Tomorrow: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
        "Tomorrow night: Temperatures: 20-30F. Winds: NW 10-20 mph.\n"
    )
    today, tonight = parse_ok(text).document.periods[:2]
    assert (today.temperature.low, today.temperature.high) == (20, 30)
    assert (today.wind.sustained.low, today.wind.sustained.high) == (10, 20)
    assert (tonight.wind.sustained.low, tonight.wind.sustained.high) == (10, 20)
    assert (tonight.temperature.low, tonight.temperature.high) == (5, 15)


def test_narrative_sentence_right_after_a_labelled_segment():
    # Sentences split only at whitespace, so one character after a labelled
    # segment's end is the earliest a narrative sentence can start.
    doc = parse_ok(mini("Winds: NW 10-20 mph.\nFog at times. Temperatures: 20-30F. Fog again.")).document
    assert doc.periods[0].extra_hazard_notes == ("Fog at times.", "Fog again.")


def test_sentence_starting_at_a_label_is_not_narrative():
    doc = parse_ok(mini("Temperatures: 20-30F. Winds: NW 10-20 mph, fog at times.")).document
    assert doc.periods[0].extra_hazard_notes == ()
    assert (doc.periods[0].wind.sustained.low, doc.periods[0].wind.sustained.high) == (10, 20)


def test_hazard_note_cut_short_by_a_later_label():
    doc = parse_ok(mini("Temperatures: 20-30F. Dense fog then winds: NW 10-20 mph.")).document
    assert doc.periods[0].extra_hazard_notes == ("Dense fog then",)
    assert doc.periods[0].wind.direction == "NW"


# Every code point str.isspace() accepts (29 on Python 3.11), with letters and
# punctuation around them.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


def test_whitespace_table_is_complete_and_split_agrees():
    assert _WHITESPACE == "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
    for c in _WHITESPACE:
        assert f"a{c}b".split() == ["a", "b"]


def _coverage_by_character(scan: _Scan) -> float:
    """The per-character definition of coverage, for comparison."""
    text = scan.text
    total = sum(1 for ch in text if not ch.isspace())
    if total == 0:
        return 0.0
    merged: list[list[int]] = []
    for a, b in sorted(scan.recognized):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    covered = sum(1 for a, b in merged for ch in text[a:b] if not ch.isspace())
    return covered / total


@st.composite
def _scans(draw):
    text = draw(st.text(alphabet=st.sampled_from(_WHITESPACE + "aZé.9-"), max_size=80))
    spans = draw(st.lists(
        st.tuples(st.integers(0, len(text)), st.integers(0, len(text))), max_size=8,
    ))
    scan = _Scan(text=text)
    for a, b in spans:
        scan.mark(min(a, b), max(a, b))
    return scan


@settings(max_examples=500, deadline=None)
@given(_scans())
def test_coverage_matches_per_character_definition(scan):
    assert _coverage(scan) == _coverage_by_character(scan)


_LINEARITY_BODY = (
    "Temperatures: 20 to 30. Winds: NW 40 to 50 mph with gusts to 70. "
    "Snow likely. Fog at times. "
)


def _textparse_line_events(text: str) -> int:
    """Line events executed in textparse's own frames while parsing ``text``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename == textparse.__file__ else None

    previous = sys.gettrace()
    sys.settrace(global_)
    try:
        result = parse_forecast(text)
    finally:
        sys.settrace(previous)
    assert result.errors == ()
    return count


def test_parse_cost_grows_linearly_with_bulletin_length():
    def bulletin(repeats: int) -> str:
        body = _LINEARITY_BODY * repeats
        return (
            f"{MINI_HEADER}Today: {body}\nTonight: {body}\n"
            f"Tomorrow: {body}\nTomorrow night: {body}\n"
        )

    ratio = _textparse_line_events(bulletin(100)) / _textparse_line_events(bulletin(25))
    assert ratio <= 4.5, ratio
