from dataclasses import replace
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_doc, make_period
from summitwx.model import (
    Certainty,
    InvalidDocument,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
    _document,
    _key_values,
    _period,
    require_valid,
    validate,
)


def test_valid_document_has_no_violations():
    assert validate(make_doc()) == []


def test_wrong_period_count_is_a_violation():
    doc = replace(make_doc(), periods=make_doc().periods[:3])
    rules = [v.rule for v in validate(doc)]
    assert any("expected exactly 4 periods, found 3" in r for r in rules)


@pytest.mark.parametrize(
    "mutate, field_fragment",
    [
        (lambda p: replace(p, temperature=ValueRange(30, 20, "F")), "temperature"),
        (lambda p: replace(p, temperature=ValueRange(20, 30, "C")), "temperature"),
        (lambda p: replace(p, temperature=ValueRange(float("inf"), 30, "F")), "temperature"),
        (lambda p: replace(p, temperature=ValueRange(float("nan"), 30, "F")), "temperature"),
        (lambda p: replace(p, wind_chill=ValueRange(-10, -20, "F")), "wind_chill"),
        (
            lambda p: replace(
                p, wind=WindPrediction(sustained=ValueRange(-5, 10, "mph"))
            ),
            "wind.sustained",
        ),
        (
            lambda p: replace(
                p,
                wind=WindPrediction(sustained=ValueRange(10, 40, "mph"), gust_high=30),
            ),
            "gust",
        ),
        (
            lambda p: replace(
                p,
                wind=WindPrediction(
                    sustained=ValueRange(10, 40, "mph"), gust_high=float("inf")
                ),
            ),
            "gust",
        ),
        (
            lambda p: replace(
                p, wind=WindPrediction(sustained=ValueRange(10, 20, "mph"), direction="Q")
            ),
            "direction",
        ),
        (lambda p: replace(p, precip_events=(PrecipEvent("snow", Certainty.LIKELY),)), "precip"),
        (lambda p: replace(p, precip_events=(PrecipEvent(PrecipKind.SNOW, "likely"),)),
         "precip_events[0]"),
        (lambda p: replace(p, label="two\nlines"), "label"),
        (lambda p: replace(p, extra_hazard_notes=("ok", "bad\nnote")), "notes[1]"),
    ],
)
def test_period_violations(mutate, field_fragment):
    with pytest.raises(InvalidDocument) as exc:
        mutate(make_period())
    violations = exc.value.violations
    assert violations, "expected at least one violation"
    assert any(field_fragment.split(".")[-1] in v.field_name for v in violations)


def test_invalid_period_lists_every_violation():
    with pytest.raises(InvalidDocument) as exc:
        make_period(label="two\nlines", temp=(30, 20), direction="Q")
    assert [v.field_name for v in exc.value.violations] == [
        "period.label", "period.temperature", "period.wind.direction"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: replace(d, summary_text=""),
        lambda d: replace(d, summary_text="   \n  "),
        lambda d: replace(d, summary_text="line\r\nline"),
        lambda d: replace(d, source_id="a\nb"),
        lambda d: replace(d, source_id="a\tb"),
    ],
)
def test_document_violations(mutate):
    assert validate(mutate(make_doc()))


def test_require_valid_raises_with_every_violation_listed():
    doc = replace(make_doc(), periods=make_doc().periods[:2])
    doc = replace(doc, summary_text="")
    with pytest.raises(InvalidDocument) as exc:
        require_valid(doc)
    assert len(exc.value.violations) == 2
    assert "invalid forecast data" in str(exc.value)


def test_the_parse_boundary_reports_each_broken_rule_and_builds_nothing():
    reports = []

    def report(span, message):
        reports.append((span, message))

    period, doc = make_period(), make_doc()
    assert _period(report, (3, 9), "p1: ", **vars(period)) == period
    assert _document(report, str.upper, **vars(doc)) == doc
    assert reports == []
    assert _period(report, (3, 9), "p1: ",
                   **{**vars(period), "label": "a\nb", "temperature": ValueRange(9, 1)}) is None
    assert _document(report, str.upper, **{**vars(doc), "summary_text": " "}) is None
    assert reports == [
        ((3, 9), "p1: label: must not contain line breaks"),
        ((3, 9), "p1: temperature: low 9 must be <= high 1"),
        ("SUMMARY_TEXT", "summary_text: summary must be non-empty"),
    ]


def test_frozen_dataclasses_reject_mutation():
    doc = make_doc()
    with pytest.raises(AttributeError):
        doc.summary_text = "nope"
    with pytest.raises(AttributeError):
        doc.periods[0].label = "nope"


def test_document_equality_is_structural():
    assert make_doc() == make_doc()
    assert make_doc() != replace(make_doc(), issued_at=datetime(2020, 1, 1))


def oracle_key_values(text):
    """The line loop the scale-table and threshold readers each wrote before
    they shared model._key_values, kept verbatim as its oracle: the ``(line,
    key, value)`` of each line up to the first one without a colon, and that
    line's number and stripped text, where the scale-table reader stopped."""
    found = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            return found, (lineno, line)
        key = key.strip()
        value = value.strip()
        found.append((lineno, key, value))
    return found, None


#: Pieces of key-value lines: blank and padding runs (str.strip() also takes
#: \x0c and U+2028), comment marks, keys, colons and values holding colons.
_LINE_PIECES = st.sampled_from(
    ["", " ", "  ", "\t", "\x0c", "\u2028", "#", "# note", "key", " band ", "kind",
     ":", " : ", "a: b", "1 | 2 | #FF0000", "caf\xe9", "-10"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(_LINE_PIECES, max_size=6).map("".join), max_size=12).map("\n".join))
def test_key_values_matches_the_reader_loop(text):
    found, error = [], None
    for lineno, key, value in _key_values(text):
        if value is None:
            error = (lineno, key)
            break
        found.append((lineno, key, value))
    assert (found, error) == oracle_key_values(text)
