from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import strategies as st

from summitwx.model import (
    COMPASS_POINTS,
    Certainty,
    ForecastDocument,
    ForecastPeriod,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
)

FIXTURE_DIR = Path(__file__).parent / "fixtures"
GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_NAMES = ("calm-day", "flood-day", "freeze-snap", "mixed-precip", "severe-day")


@pytest.fixture(scope="session")
def fixture_texts() -> dict[str, str]:
    return {
        name: (FIXTURE_DIR / f"{name}.txt").read_text(encoding="utf-8")
        for name in FIXTURE_NAMES
    }


def _finite(lo: float, hi: float):
    return st.one_of(
        st.integers(int(lo), int(hi)).map(float),
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
    )


# Single-line text: anything goes except line separators the model rejects.
_line_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
)


@st.composite
def value_ranges(draw, lo: float, hi: float, unit: str, max_width: float = 40.0):
    low = draw(_finite(lo, hi))
    high = low + draw(_finite(0, max_width))
    return ValueRange(low=low, high=high, unit=unit)


@st.composite
def periods(draw) -> ForecastPeriod:
    temperature = draw(value_ranges(-80, 90, "F", 30))
    sustained = draw(value_ranges(0, 140, "mph", 60))
    gust = draw(st.none() | _finite(0, 80).map(lambda d: sustained.high + d))
    direction = draw(st.none() | st.sampled_from(sorted(COMPASS_POINTS)))
    chill = draw(st.none() | value_ranges(-110, 50, "F", 25))
    events = draw(
        st.tuples()
        | st.lists(
            st.builds(
                PrecipEvent,
                kind=st.sampled_from(PrecipKind),
                certainty=st.sampled_from(Certainty),
            ),
            max_size=4,
        ).map(tuple)
    )
    notes = draw(st.lists(_line_text, max_size=3).map(tuple))
    return ForecastPeriod(
        label=draw(_line_text),
        temperature=temperature,
        wind=WindPrediction(sustained=sustained, direction=direction, gust_high=gust),
        wind_chill=chill,
        precip_events=events,
        extra_hazard_notes=notes,
    )


#: Naive, or aware at an offset west or east of UTC, on the half hour or off
#: the minute. An aware time equals the same instant at any other offset, so
#: ``==`` alone misses a round trip that moved the offset.
_issue_zones = st.none() | st.sampled_from([
    timezone(timedelta(hours=-5)), timezone(timedelta(hours=5, minutes=30)),
    timezone(timedelta(seconds=30)), timezone.utc,
]) | st.integers(-86_399, 86_399).map(lambda s: timezone(timedelta(seconds=s)))


@st.composite
def documents(draw) -> ForecastDocument:
    summary = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters="\r", blacklist_categories=("Cs",)
                ),
                max_size=50,
            ).filter(lambda s: "\n" not in s),
            min_size=1,
            max_size=4,
        )
        .map("\n".join)
        .filter(lambda s: s.strip())
    )
    issued = draw(
        st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1),
                     timezones=_issue_zones)
    )
    return ForecastDocument(
        issued_at=issued,
        summary_text=summary,
        periods=tuple(draw(periods()) for _ in range(4)),
        source_id=draw(st.just("") | _line_text.filter(lambda s: "\t" not in s)),
    )


# Documents the raw bulletin grammar can spell (see helpers.write_bulletin).
_HEADER_LABELS = (
    "Today", "Tonight", "This afternoon", "Overnight", "Tomorrow", "Tomorrow night",
    "Monday", "Tuesday night", "Wednesday", "Thursday night", "Friday", "Saturday night",
    "Sunday",
)
_PLAIN_WORDS = (
    "ridge", "front", "clouds", "summits", "clearing", "arctic", "air", "flow",
    "rime", "undercast", "valley", "dense", "patchy", "near", "the", "ravines",
)
_HAZARD_WORDS = ("fog", "flooding", "visibility", "whiteout", "Fog", "flood")


def _tenths(lo: int, hi: int):
    return st.integers(lo * 10, hi * 10).map(lambda n: n / 10)


@st.composite
def _spellable_range(draw, lo: int, hi: int, unit: str) -> ValueRange:
    low, high = sorted((draw(_tenths(lo, hi)), draw(_tenths(lo, hi))))
    return ValueRange(low=low, high=high, unit=unit)


@st.composite
def _hazard_notes(draw) -> str:
    words = draw(st.lists(st.sampled_from(_PLAIN_WORDS), min_size=1, max_size=6))
    words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(_HAZARD_WORDS)))
    return " ".join(words).capitalize() + "."


@st.composite
def spellable_periods(draw, label: str) -> ForecastPeriod:
    sustained = draw(_spellable_range(0, 140, "mph"))
    gust = draw(st.none() | _tenths(0, 60).map(lambda d: sustained.high + d))
    events = draw(st.lists(
        st.builds(PrecipEvent, kind=st.sampled_from(PrecipKind), certainty=st.sampled_from(Certainty)),
        max_size=4, unique=True,
    ))
    return ForecastPeriod(
        label=label,
        temperature=draw(_spellable_range(-80, 90, "F")),
        wind=WindPrediction(
            sustained=sustained,
            direction=draw(st.none() | st.sampled_from(sorted(COMPASS_POINTS))),
            gust_high=gust,
        ),
        wind_chill=draw(st.none() | _spellable_range(-110, 50, "F")),
        precip_events=tuple(events),
        extra_hazard_notes=tuple(draw(st.lists(_hazard_notes(), max_size=2))),
    )


@st.composite
def spellable_documents(draw) -> ForecastDocument:
    lines = draw(st.lists(
        st.lists(st.sampled_from(_PLAIN_WORDS), min_size=1, max_size=12).map(" ".join),
        min_size=1, max_size=3,
    ))
    labels = draw(st.lists(st.sampled_from(_HEADER_LABELS), min_size=4, max_size=4))
    return ForecastDocument(
        issued_at=draw(st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2100, 1, 1))),
        summary_text="\n".join(line.capitalize() + "." for line in lines),
        periods=tuple(draw(spellable_periods(label)) for label in labels),
        source_id=draw(st.sampled_from(("", "hsf-sample"))),
    )
