from dataclasses import replace
from datetime import datetime

import pytest

from helpers import make_doc, make_period
from summitwx.model import (
    Certainty,
    InvalidDocument,
    PrecipEvent,
    ValueRange,
    WindPrediction,
    require_valid,
    validate,
    with_periods,
)


def test_valid_document_has_no_violations():
    assert validate(make_doc()) == []


def test_wrong_period_count_is_a_violation():
    doc = with_periods(make_doc(), make_doc().periods[:3])
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
    doc = with_periods(make_doc(), make_doc().periods[:2])
    doc = replace(doc, summary_text="")
    with pytest.raises(InvalidDocument) as exc:
        require_valid(doc)
    assert len(exc.value.violations) == 2
    assert "invalid forecast data" in str(exc.value)


def test_with_periods_replaces_only_periods():
    doc = make_doc()
    swapped = with_periods(doc, tuple(reversed(doc.periods)))
    assert swapped.summary_text == doc.summary_text
    assert swapped.periods == tuple(reversed(doc.periods))


def test_frozen_dataclasses_reject_mutation():
    doc = make_doc()
    with pytest.raises(AttributeError):
        doc.summary_text = "nope"
    with pytest.raises(AttributeError):
        doc.periods[0].label = "nope"


def test_document_equality_is_structural():
    assert make_doc() == make_doc()
    assert make_doc() != replace(make_doc(), issued_at=datetime(2020, 1, 1))
