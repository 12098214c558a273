import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, FIXTURE_NAMES, documents
from helpers import build_random_document, make_doc, make_period
from summitwx.canonical import SCHEMA, emit_canonical, parse_canonical
from summitwx.model import (
    Certainty,
    InvalidDocument,
    PrecipEvent,
    PrecipKind,
    with_periods,
)
from summitwx.textparse import format_diagnostic, parse_forecast


def test_emission_is_deterministic_and_ordered():
    doc = make_doc(
        (
            make_period(
                "Today",
                gust=40,
                chill=(-5, 0),
                precip=(PrecipEvent(PrecipKind.SNOW, Certainty.LIKELY),),
                notes=("Fog banks in the ravines.",),
            ),
            make_period("Tonight"),
            make_period("Tomorrow"),
            make_period("Tomorrow night"),
        )
    )
    text = emit_canonical(doc)
    assert text == emit_canonical(doc)
    lines = text.splitlines()
    assert lines[0] == f"schema: {SCHEMA}"
    assert lines[1] == "issued_at: 2026-01-10T04:30:00"
    assert lines[2] == "source_id: unit-test"
    assert lines[3] == "summary: | Quiet weather on the summits."
    assert lines[4] == "summary: | No hazards expected."
    assert lines[5] == "period:"
    assert lines[6] == "  label: Today"
    assert "  gust_high_mph: 40" in lines
    assert "  chill_low_f: -5" in lines
    assert "  precip: snow | likely" in lines
    assert "  hazard_note: Fog banks in the ravines." in lines
    assert text.endswith("\n")


def test_numbers_integral_when_whole_and_repr_otherwise():
    period = make_period(temp=(20.5, 30.25), wind=(10.0, 20.0))
    doc = make_doc((period,) + make_doc().periods[1:])
    text = emit_canonical(doc)
    assert "temp_low_f: 20.5" in text
    assert "temp_high_f: 30.25" in text
    assert "wind_low_mph: 10" in text
    assert "wind_high_mph: 20" in text


def test_emit_rejects_invalid_document():
    bad = with_periods(make_doc(), make_doc().periods[:2])
    with pytest.raises(InvalidDocument):
        emit_canonical(bad)


def test_round_trip_fixture_documents(fixture_texts):
    for name, raw in fixture_texts.items():
        doc = parse_forecast(raw, source_id=name).document
        result = parse_canonical(emit_canonical(doc))
        assert result.errors == ()
        assert result.document == doc
        assert result.coverage == 1.0


def test_round_trip_exhaustive_seeded_sample():
    rng = random.Random(20260816)
    for _ in range(250):
        doc = build_random_document(rng)
        result = parse_canonical(emit_canonical(doc))
        assert result.errors == ()
        assert result.document == doc


@settings(max_examples=300, deadline=None)
@given(documents())
def test_round_trip_is_identity(doc):
    result = parse_canonical(emit_canonical(doc))
    assert result.errors == ()
    assert result.document == doc
    assert result.coverage == 1.0


def test_whitespace_in_values_survives():
    period = replace(make_doc().periods[0], label="  padded label  ")
    doc = with_periods(make_doc(), (period,) + make_doc().periods[1:])
    doc = replace(doc, summary_text="  indented line\n\ntrailing space  ")
    result = parse_canonical(emit_canonical(doc))
    assert result.errors == ()
    assert result.document == doc


def test_comments_and_blank_lines_are_skipped():
    text = emit_canonical(make_doc())
    noisy = text.replace(
        "period:", "# a comment\n\nperiod:", 1
    )
    result = parse_canonical(noisy)
    assert result.errors == ()
    assert result.document == parse_canonical(text).document


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda s: s.replace(f"schema: {SCHEMA}\n", ""), "missing schema"),
        (lambda s: s.replace(SCHEMA, "hsf-canonical/9"), "unsupported schema"),
        (lambda s: s.replace("issued_at: ", "issue_time: "), "unknown key"),
        (lambda s: s.replace("issued_at: 2026", "issued_at: someday 2026"), "unreadable issued_at"),
        (lambda s: s + "period:\n  label: Extra\n", "expected 4 periods, found 5"),
        (lambda s: s.replace("  label: Tonight\n", ""), "missing required key 'label'"),
        (lambda s: s.replace("  temp_low_f: 20\n", "  temp_low_f: 20\n  temp_low_f: 21\n", 1), "duplicate key"),
        (lambda s: s.replace("summary: | Quiet", "summary: Quiet"), "must start with '|'"),
        (lambda s: s.replace("period:\n", "period: one\n", 1), "takes no value"),
        (lambda s: s.replace("  temp_low_f: 20", "  temp_low_f: chilly", 1), "not a number"),
        (lambda s: s.replace("  chill_low_f: -5\n", "", 1), "must appear together"),
        (lambda s: s.replace("snow | likely", "snow likely"), "expected 'kind | certainty'"),
        (lambda s: s.replace("snow | likely", "graupel | likely"), "unknown precipitation token"),
        (lambda s: s.replace("  label: Today", "  label Today"), "expected 'key: value'"),
    ],
)
def test_strict_parse_errors(mutate, fragment):
    doc = make_doc(
        (
            make_period("Today", chill=(-5, 0), precip=(PrecipEvent(PrecipKind.SNOW, Certainty.LIKELY),)),
            make_period("Tonight"),
            make_period("Tomorrow"),
            make_period("Tomorrow night"),
        )
    )
    broken = mutate(emit_canonical(doc))
    result = parse_canonical(broken)
    assert result.document is None
    assert any(fragment in d.message for d in result.errors), [
        d.message for d in result.errors
    ]


@pytest.mark.parametrize(
    "value",
    ["1_0", " 10", "10 ", "１０", "+10", ".5", "10.", "1E1", "1e1", "0x10",
     "nan", "-nan", "inf", "-inf", "Infinity", "1e999", "- 10", "10F", ""],
)
def test_loose_numbers_are_errors_on_their_line(value):
    text = emit_canonical(make_doc()).replace("  temp_low_f: 20\n", f"  temp_low_f: {value}\n", 1)
    result = parse_canonical(text)
    assert result.document is None
    messages = [format_diagnostic(d, text) for d in result.errors]
    line = text.split("\n").index(f"  temp_low_f: {value}") + 1
    assert messages == [f"error:{line}:1 period 1: temp_low_f is not a number: {value!r}"]


def test_overflowing_number_is_not_finite():
    text = emit_canonical(make_doc()).replace("  temp_low_f: 20\n", "  temp_low_f: 1e+999\n", 1)
    result = parse_canonical(text)
    assert result.document is None
    assert [d.message for d in result.errors] == ["period 1: temp_low_f is not finite: '1e+999'"]


@pytest.mark.parametrize(
    "value, expected",
    [("-40", -40.0), ("0", 0.0), ("-0", 0.0), ("12.25", 12.25), ("1.5e-07", 1.5e-07),
     ("-1e-05", -1e-05), ("2.5e+01", 25.0)],
)
def test_emitted_number_forms_parse(value, expected):
    text = emit_canonical(make_doc()).replace("  temp_low_f: 20\n", f"  temp_low_f: {value}\n", 1)
    result = parse_canonical(text)
    assert result.errors == ()
    assert result.document.periods[0].temperature.low == expected


def test_schema_line_must_come_first():
    text = emit_canonical(make_doc())
    lines = text.splitlines()
    reordered = "\n".join([lines[1], lines[0], *lines[2:]]) + "\n"
    result = parse_canonical(reordered)
    assert result.document is None
    assert any("first entry must be the schema declaration" in d.message for d in result.errors)


def test_period_key_outside_period_errors():
    text = f"schema: {SCHEMA}\nissued_at: 2026-01-01T00:00:00\n  label: stray\n"
    result = parse_canonical(text)
    assert any("before any 'period:' marker" in d.message for d in result.errors)


def test_carriage_return_rejected():
    text = emit_canonical(make_doc()).replace("\n", "\r\n", 1)
    result = parse_canonical(text)
    assert any("carriage return" in d.message for d in result.errors)


def test_semantic_violations_surface_as_errors():
    text = emit_canonical(make_doc()).replace("temp_high_f: 30", "temp_high_f: -99")
    result = parse_canonical(text)
    assert result.document is None
    assert any("must be <=" in d.message for d in result.errors)


def test_unknown_top_level_key():
    text = emit_canonical(make_doc()) + "footer: done\n"
    result = parse_canonical(text)
    assert any("unknown key 'footer'" in d.message for d in result.errors)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda s: s.replace("  temp_low_f: 20\n", "  temp_low_f: 20\n  visibility_mi: 3\n", 1),
         "error:9:1 unknown key 'visibility_mi'"),
        (lambda s: s.replace("source_id: unit-test\n", "source_id: unit-test\nsource_id: again\n"),
         "error:4:1 duplicate key 'source_id'"),
        (lambda s: s.replace("source_id: unit-test\n", "source_id: unit\ttest\n"),
         "error:3:1 source_id: must not contain tabs"),
        (lambda s: "".join(line for line in s.splitlines(True) if not line.startswith("summary:")),
         "error:1:1 summary_text: summary must be non-empty"),
        (lambda s: s.replace("issued_at: 2026-01-10T04:30:00", "issued_at: yesterday"),
         "error:2:1 unreadable issued_at 'yesterday'"),
        (lambda s: s.replace("  temp_high_f: 30\n", "", 1),
         "error:6:1 period 1: missing required key 'temp_high_f'"),
        (lambda s: s.replace("  temp_low_f: 20\n", "  temp_low_f: 20\n  chill_low_f: 5\n", 1),
         "error:6:1 period 1: chill_low_f and chill_high_f must appear together"),
        (lambda s: s.replace("summary: | Quiet", "summary: |A Quiet"),
         "error:4:1 summary value must start with '|' and a space, or be '|' alone, "
         "found '|A Quiet weather on the summits.'"),
        (lambda s: s.replace("  temp_low_f: 20\n  temp_high_f: 30\n",
                             "  temp_low_f: 900\n  temp_high_f: 10\n", 1),
         "error:6:1 period 1: temperature: low 900 must be <= high 10"),
        (lambda s: s.replace("  wind_high_mph: 20\n", "  wind_high_mph: 90\n  gust_high_mph: 1\n", 1),
         "error:6:1 period 1: wind.gust_high: gust 1 must be >= sustained high 90"),
    ],
)
def test_parse_errors_name_their_line(mutate, message):
    text = mutate(emit_canonical(make_doc()))
    result = parse_canonical(text)
    assert result.document is None
    assert [format_diagnostic(d, text) for d in result.diagnostics] == [message]


def test_coverage_counts_unrecognized_lines():
    text = emit_canonical(make_doc()) + "footer: done\n"
    result = parse_canonical(text)
    assert 0.0 < result.coverage < 1.0


@pytest.mark.parametrize(
    "after, line, fragment",
    [
        # `after` is the valid line the bad one goes under; None puts it first.
        ("schema: " + SCHEMA, "footer: done\r", "carriage return"),
        ("schema: " + SCHEMA, "footer", "expected 'key: value'"),
        (None, "source_id: early", "first entry must be the schema declaration"),
        (None, "schema: hsf-canonical/9", "unsupported schema"),
        ("schema: " + SCHEMA, "  label: stray", "before any 'period:' marker"),
        ("  label: Today", "  label: Again", "duplicate key 'label' in period 1"),
        ("  label: Today", "  precip: snow likely", "expected 'kind | certainty'"),
        ("  label: Today", "  precip: graupel | likely", "unknown precipitation token"),
        ("  label: Today", "  visibility_mi: 3", "unknown key 'visibility_mi'"),
        ("schema: " + SCHEMA, "schema: " + SCHEMA, "duplicate schema declaration"),
        ("issued_at: 2026-01-10T04:30:00", "issued_at: 2026-01-11T00:00:00",
         "duplicate key 'issued_at'"),
        ("source_id: unit-test", "summary: |A", "summary value must start with '|'"),
        ("  wind_dir: NW", "period: x", "'period:' takes no value"),
        ("  wind_dir: NW", "footer: done", "unknown key 'footer'"),
    ],
)
def test_a_line_with_a_problem_is_never_counted_as_read(after, line, fragment):
    lines = emit_canonical(make_doc()).split("\n")
    meaningful = sum(1 for raw in lines if raw.strip())
    at = 0 if after is None else lines.index(after) + 1
    lines.insert(at, line)
    text = "\n".join(lines)
    start = sum(len(raw) + 1 for raw in lines[:at])
    result = parse_canonical(text)
    assert result.document is None
    assert [d.span for d in result.diagnostics] == [(start, start + len(line))]
    assert fragment in result.diagnostics[0].message
    assert result.coverage == meaningful / (meaningful + 1)


_NUMBER = st.one_of(
    st.integers(-120, 160).map(str),
    st.floats(-200, 200, allow_nan=False).map(lambda x: f"{x:.2f}"),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "1_0", " 10", "10 ", "\uff11\uff10", ""]),
)
_HEADER = st.sampled_from([
    "Today:", "Tonight:", "This afternoon:", "Overnight:", "Tomorrow:",
    "Tomorrow night:", "Monday:", "Friday night:", "Issued: 2026-01-10T04:30:00",
    "Issued: soon", "\u017funday:",
])
_STATEMENT = st.one_of(
    st.builds(
        "{}: {}{}-{}{}.".format,
        st.sampled_from(["Temperatures", "Temperature", "Winds", "Wind", "Wind chills", "Wind chill"]),
        st.sampled_from(["", "NW ", "SSE ", "N/"]),
        _NUMBER,
        _NUMBER,
        st.sampled_from(["F", " mph", " below zero", " degrees below", ""]),
    ),
    st.builds("gusts to {} mph.".format, _NUMBER),
    st.sampled_from([
        "Snow likely.", "Chance of freezing rain.", "Sleet.", "Rain showers.",
        "Wintry mix.", "Flurries.", "Fog and low visibility.", "Flooding possible.",
        "Whiteout conditions.",
        # Letters that match ASCII ones only under Unicode case folding:
        # U+017F long s, U+212A Kelvin sign, U+0131 dotless i.
        "Chance of \u017fnow.", "\u017fleet likely.", "Snow li\u212aely.", "W\u0131nds: NW 10 mph.",
    ]),
)
_CANONICAL_LINE = st.one_of(
    st.builds(
        "{}{}: {}".format,
        st.sampled_from(["", "  ", "   "]),
        st.sampled_from([
            "schema", "issued_at", "source_id", "summary", "label", "temp_low_f",
            "temp_high_f", "wind_dir", "wind_low_mph", "wind_high_mph", "gust_high_mph",
            "chill_low_f", "chill_high_f", "precip", "hazard_note", "period",
        ]),
        st.one_of(_NUMBER, st.sampled_from(["| text", "|", "snow | likely", "NW", "2026-01-10"])),
    ),
    st.sampled_from(["period:", f"schema: {SCHEMA}", "schema: hsf-canonical/0"]),
)
_ANY_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
_SEPARATOR = st.sampled_from(["\n", " ", "\r\n", ""])
_FRAGMENTS = st.lists(
    st.tuples(st.one_of(_HEADER, _STATEMENT, _CANONICAL_LINE, _ANY_TEXT), _SEPARATOR)
    .map("".join),
    max_size=60,
).map("".join)
_VALID_TEXTS = [
    *((FIXTURE_DIR / f"{name}.txt").read_text(encoding="utf-8") for name in FIXTURE_NAMES),
    emit_canonical(make_doc()),
]


@st.composite
def _parser_inputs(draw):
    """Fragment soup, or a valid forecast with fragments spliced into its lines."""
    if draw(st.booleans()):
        return draw(_FRAGMENTS)[:4096]
    lines = draw(st.sampled_from(_VALID_TEXTS)).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            del lines[at]
        else:
            lines.insert(at, draw(_FRAGMENTS)[:512])
    return "\n".join(lines)[:4096]


@settings(max_examples=300, deadline=None)
@given(_parser_inputs())
def test_parsers_never_raise(text):
    for parse in (parse_forecast, parse_canonical):
        result = parse(text)
        assert (result.document is None) == bool(result.errors)
        assert 0.0 <= result.coverage <= 1.0
