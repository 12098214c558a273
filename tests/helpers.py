"""Shared oracle data and builders for the test suite.

The wind-chill grid below was transcribed from the published NWS chart as
a pre-build oracle and anchored against known cells (for example 0 F at
15 mph is -19 F). Tests compare library output against it; nothing here
imports from the code under test except the data model.
"""

from __future__ import annotations

import math
import random
import re
from datetime import datetime, timedelta

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

# Chart rows keyed by air temperature (F); columns are wind 5..60 step 5 mph.
WIND_CHILL_CHART: dict[int, tuple[int, ...]] = {
    40: (36, 34, 32, 30, 29, 28, 28, 27, 26, 26, 25, 25),
    35: (31, 27, 25, 24, 23, 22, 21, 20, 19, 19, 18, 17),
    30: (25, 21, 19, 17, 16, 15, 14, 13, 12, 12, 11, 10),
    25: (19, 15, 13, 11, 9, 8, 7, 6, 5, 4, 4, 3),
    20: (13, 9, 6, 4, 3, 1, 0, -1, -2, -3, -3, -4),
    15: (7, 3, 0, -2, -4, -5, -7, -8, -9, -10, -11, -11),
    10: (1, -4, -7, -9, -11, -12, -14, -15, -16, -17, -18, -19),
    5: (-5, -10, -13, -15, -17, -19, -21, -22, -23, -24, -25, -26),
    0: (-11, -16, -19, -22, -24, -26, -27, -29, -30, -31, -32, -33),
    -5: (-16, -22, -26, -29, -31, -33, -34, -36, -37, -38, -39, -40),
    -10: (-22, -28, -32, -35, -37, -39, -41, -43, -44, -45, -46, -48),
    -15: (-28, -35, -39, -42, -44, -46, -48, -50, -51, -52, -54, -55),
    -20: (-34, -41, -45, -48, -51, -53, -55, -57, -58, -60, -61, -62),
    -25: (-40, -47, -51, -55, -58, -60, -62, -64, -65, -67, -68, -69),
    -30: (-46, -53, -58, -61, -64, -67, -69, -71, -72, -74, -75, -76),
    -35: (-52, -59, -64, -68, -71, -73, -76, -78, -79, -81, -82, -84),
    -40: (-57, -66, -71, -74, -78, -80, -82, -84, -86, -88, -89, -91),
    -45: (-63, -72, -77, -81, -84, -87, -89, -91, -93, -95, -97, -98),
}

CHART_WINDS = tuple(range(5, 61, 5))


def chart_cells():
    for t, row in WIND_CHILL_CHART.items():
        for v, chill in zip(CHART_WINDS, row):
            yield t, v, chill


def frostbite_minutes(temp_f: float, wind_mph: float) -> float:
    """Exposed-skin freezing time from the published facial-tissue model."""
    t_c = (temp_f - 32.0) / 1.8
    v_kmh = wind_mph * 1.609344
    if t_c > -4.8:
        return math.inf
    return (-24.5 * (0.667 * v_kmh + 4.8) + 2111.0) * (-4.8 - t_c) ** -1.668


def frostbite_category(minutes: float) -> int:
    if minutes <= 5:
        return 3
    if minutes <= 10:
        return 2
    if minutes <= 30:
        return 1
    return 0


# Grid cells where the fitted chill thresholds (-16/-36/-60) disagree with
# the per-cell freezing-time model; both banding schemes follow the chart's
# shaded contours, which are coarser than the model along band edges. Keys
# are (temp F, wind mph); values are (freezing-time category, threshold
# category). Frozen so any drift in either model is loud.
FROSTBITE_MISMATCH: dict[tuple[int, int], tuple[int, int]] = {
    (5, 60): (2, 1),
    (0, 5): (1, 0),
    (0, 50): (2, 1),
    (0, 55): (2, 1),
    (0, 60): (2, 1),
    (-5, 60): (3, 2),
    (-10, 25): (1, 2),
    (-10, 55): (3, 2),
    (-10, 60): (3, 2),
    (-15, 45): (3, 2),
    (-15, 50): (3, 2),
    (-15, 55): (3, 2),
    (-15, 60): (3, 2),
    (-20, 5): (2, 1),
    (-20, 40): (3, 2),
    (-20, 45): (3, 2),
    (-30, 20): (2, 3),
    (-40, 5): (3, 2),
}

_LABELS = ("Today", "Tonight", "Tomorrow", "Tomorrow night")
_WORDS = (
    "ridge", "front", "clouds", "summits", "fog", "clearing", "arctic",
    "air", "flow", "gusty", "snowpack", "rime", "undercast", "valley",
)


def _rand_value(rng: random.Random, lo: float, hi: float) -> float:
    if rng.random() < 0.6:
        return float(rng.randint(int(lo), int(hi)))
    return round(rng.uniform(lo, hi), 1)


def build_random_period(rng: random.Random, label: str = "Today") -> ForecastPeriod:
    """One structurally valid period with every optional field randomized."""
    t_low = _rand_value(rng, -60, 70)
    t_high = t_low + _rand_value(rng, 0, 25)
    w_low = _rand_value(rng, 0, 120)
    w_high = w_low + _rand_value(rng, 0, 60)
    gust = None
    if rng.random() < 0.5:
        gust = w_high + _rand_value(rng, 0, 50)
    direction = rng.choice(sorted(COMPASS_POINTS)) if rng.random() < 0.7 else None
    chill = None
    if rng.random() < 0.4:
        c_low = _rand_value(rng, -100, 40)
        chill = ValueRange(c_low, c_low + _rand_value(rng, 0, 20), "F")
    events = tuple(
        PrecipEvent(rng.choice(list(PrecipKind)), rng.choice(list(Certainty)))
        for _ in range(rng.randint(0, 3))
    )
    notes = tuple(
        " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 5)))
        for _ in range(rng.randint(0, 2))
    )
    return ForecastPeriod(
        label=label,
        temperature=ValueRange(t_low, t_high, "F"),
        wind=WindPrediction(
            sustained=ValueRange(w_low, w_high, "mph"),
            direction=direction,
            gust_high=gust,
        ),
        wind_chill=chill,
        precip_events=events,
        extra_hazard_notes=notes,
    )


def build_random_document(rng: random.Random) -> ForecastDocument:
    """One structurally valid document; fast enough for thousand-doc loops."""
    summary_lines = [
        " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 8)))
        for _ in range(rng.randint(1, 3))
    ]
    issued = datetime(2026, 1, 1) + timedelta(
        minutes=rng.randint(0, 525_600), microseconds=rng.randint(0, 999_999)
    )
    return ForecastDocument(
        issued_at=issued,
        summary_text="\n".join(summary_lines),
        periods=tuple(build_random_period(rng, label) for label in _LABELS),
        source_id=rng.choice(("", "hsf-sample", "obs-2026")),
    )


def make_period(
    label: str = "Today",
    temp: tuple[float, float] = (20.0, 30.0),
    wind: tuple[float, float] = (10.0, 20.0),
    direction: str | None = "NW",
    gust: float | None = None,
    chill: tuple[float, float] | None = None,
    precip: tuple[PrecipEvent, ...] = (),
    notes: tuple[str, ...] = (),
) -> ForecastPeriod:
    return ForecastPeriod(
        label=label,
        temperature=ValueRange(temp[0], temp[1], "F"),
        wind=WindPrediction(
            sustained=ValueRange(wind[0], wind[1], "mph"),
            direction=direction,
            gust_high=gust,
        ),
        wind_chill=None if chill is None else ValueRange(chill[0], chill[1], "F"),
        precip_events=precip,
        extra_hazard_notes=notes,
    )


def make_doc(periods: tuple[ForecastPeriod, ...] | None = None) -> ForecastDocument:
    if periods is None:
        periods = tuple(make_period(label) for label in _LABELS)
    return ForecastDocument(
        issued_at=datetime(2026, 1, 10, 4, 30),
        summary_text="Quiet weather on the summits.\nNo hazards expected.",
        periods=periods,
        source_id="unit-test",
    )


def visible_text(payload: bytes, format: str) -> str:
    """Markup-free text content of a rendered payload, for containment checks."""
    text = payload.decode("utf-8")
    if format == "plain":
        return text
    text = re.sub(r"<style>.*?</style>", " ", text, flags=re.S)
    text = re.sub(r"<[^>]+>", " ", text)
    text = (
        text.replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&#x27;", "'")
    )
    return text


def squash(text: str) -> str:
    """Whitespace-normalized form used for sentence containment."""
    return " ".join(text.split())


# Raw-bulletin spellings, in the shapes perfbench's generator writes.
_PRECIP_PHRASES = {
    PrecipKind.SNOW: "snow",
    PrecipKind.SLEET: "sleet",
    PrecipKind.FREEZING_RAIN: "freezing rain",
    PrecipKind.RAIN: "rain",
    PrecipKind.MIXED: "wintry mix",
}
_CERTAINTY_SENTENCES = {
    Certainty.LIKELY: "{} likely.",
    Certainty.CHANCE: "A chance of {}.",
    Certainty.MENTIONED: "{} at times.",
}


def _raw_number(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def _raw_range(values: ValueRange, below: str) -> str:
    low, high = values.low, values.high
    if low == high:
        return f"around {_raw_number(low)}F" if low >= 0 else f"around {_raw_number(-low)}{below}"
    if low >= 0:
        return f"{_raw_number(low)}-{_raw_number(high)}F"
    if high < 0:
        return f"{_raw_number(-high)}-{_raw_number(-low)}{below}"
    return f"{_raw_number(-low)}{below} to {_raw_number(high)}F"


def _raw_period(period: ForecastPeriod) -> str:
    sentences = [f"Temperatures: {_raw_range(period.temperature, ' below')}."]
    wind = period.wind
    lead = f"{wind.direction} " if wind.direction else ""
    low, high = wind.sustained.low, wind.sustained.high
    speed = _raw_number(high) if low == high else f"{_raw_number(low)}-{_raw_number(high)}"
    gust = "" if wind.gust_high is None else f" with gusts to {_raw_number(wind.gust_high)} mph"
    sentences.append(f"Winds: {lead}{speed} mph{gust}.")
    if period.wind_chill is not None:
        sentences.append(f"Wind chills: {_raw_range(period.wind_chill, ' below zero')}.")
    for event in period.precip_events:
        sentence = _CERTAINTY_SENTENCES[event.certainty].format(_PRECIP_PHRASES[event.kind])
        sentences.append(sentence[0].upper() + sentence[1:])
    sentences.extend(period.extra_hazard_notes)
    return f"{period.label}: " + " ".join(sentences)


def write_bulletin(doc: ForecastDocument) -> str:
    """Raw bulletin text that states ``doc``: an ``Issued:`` line, the
    summary, then one line per period block.

    The inverse of ``parse_forecast`` for documents the raw grammar can
    spell: period labels are header words, values are written with
    ``repr``, precipitation events are distinct, and each hazard note is
    one sentence that holds a hazard keyword and no other grammar token.
    """
    text = f"Issued: {doc.issued_at.isoformat()}\n{doc.summary_text}\n\n"
    return text + "\n".join(_raw_period(p) for p in doc.periods) + "\n"
