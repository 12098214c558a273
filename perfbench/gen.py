"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data, so the
same seed always yields byte-identical inputs. Bulletins come with the
document the parser must produce from them (``expected``), built directly
from the generating values; the benchmark checks parser output against it.

Shapes:

* ``short``: a realistic four-period bulletin of roughly 0.5-3 KB, hazards
  from calm to severe, stated and computed wind chills, gusts, and every
  precipitation kind;
* ``canonical``: the same kind of document written as ``hsf-canonical/1``
  text, following the format's documented key order;
* ``malformed``: raw or canonical text that the parsers must reject with an
  error diagnostic;
* ``long``: a bulletin of a requested size (8-64 KB), mostly labelled
  statements with narrative and precipitation sentences in between.

Study CSVs come from ``scripts/simulate_study.py`` (see
``worker.write_study``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta

from summitwx.model import (
    Certainty,
    ForecastDocument,
    ForecastPeriod,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
)

LABEL_SETS = (
    ("Today", "Tonight", "Tomorrow", "Tomorrow night"),
    ("This afternoon", "Overnight", "Tomorrow", "Tomorrow night"),
    ("Saturday", "Saturday night", "Sunday", "Sunday night"),
    ("Monday", "Monday night", "Tuesday", "Tuesday night"),
    ("Thursday", "Thursday night", "Friday", "Friday night"),
)
DIRECTIONS = ("N", "NNE", "NE", "ENE", "E", "ESE", "SE", "SSE",
              "S", "SSW", "SW", "WSW", "W", "WNW", "NW", "NNW")

# Narrative that carries no keyword of the parser's grammar: no precipitation
# or hazard-note word, no field label, no compass token, no number.
FILLER = (
    "Mostly sunny.",
    "In the clouds for much of the day.",
    "Clouds thickening through the afternoon.",
    "Clearing late.",
    "Bitterly cold air settles over the range.",
    "Conditions improve slowly.",
    "Cloud cover breaking up by evening.",
    "Summits in and out of the clouds.",
    "Partly cloudy skies.",
    "Milder air arrives from the valleys.",
    "A strong front crosses the ridgeline.",
    "Rime ice builds on exposed surfaces.",
    "Quiet weather continues.",
    "Travel above treeline is strongly discouraged.",
)
SUMMARY = (
    "A dangerous arctic outbreak arrives behind a strong cold front.",
    "High pressure builds over the region with tranquil conditions.",
    "A messy late-season storm crosses the range.",
    "A slow-moving system lingers near the coast.",
    "Conditions on the higher summits change quickly through the period.",
    "Expect rapidly changing conditions above treeline.",
)
NOTES = (
    "Dense fog with visibility under a quarter mile.",
    "A flood watch is in effect for ravines and drainages.",
    "Whiteout conditions possible in the morning.",
    "Patchy fog near the summits.",
    "Blowing crystals reducing visibility at times.",
)
# Phrase the parser recognizes -> the kind it must report.
PRECIP_PHRASES = (
    ("snow", PrecipKind.SNOW),
    ("snow showers", PrecipKind.SNOW),
    ("snowfall", PrecipKind.SNOW),
    ("flurries", PrecipKind.SNOW),
    ("sleet", PrecipKind.SLEET),
    ("freezing rain", PrecipKind.FREEZING_RAIN),
    ("rain", PrecipKind.RAIN),
    ("rain showers", PrecipKind.RAIN),
    ("wintry mix", PrecipKind.MIXED),
    ("mixed precipitation", PrecipKind.MIXED),
)
PRECIP_TEMPLATES = (
    ("{a} likely.", Certainty.LIKELY),
    ("A chance of {a} late.", Certainty.CHANCE),
    ("{a} at times.", Certainty.MENTIONED),
    ("{a} changing to {b}.", Certainty.MENTIONED),
    ("{a} and {b} likely overnight.", Certainty.LIKELY),
)

# (temperature low range, span, sustained-wind high range, chance of a
# stated chill, chance of gusts, chance of precipitation), calm to severe.
REGIMES = (
    ((40, 60), 10, (5, 20), 0.0, 0.2, 0.2),
    ((20, 40), 10, (15, 35), 0.1, 0.4, 0.6),
    ((0, 25), 10, (25, 55), 0.3, 0.5, 0.7),
    ((-25, 5), 12, (40, 80), 0.5, 0.6, 0.6),
    ((-40, -10), 15, (60, 110), 0.7, 0.7, 0.5),
)
GUST_WORDS = (" with gusts to {g} mph", ", gusts to {g} mph", " with higher gusts {g0}-{g} mph")


@dataclass(frozen=True)
class Bulletin:
    """One generated input and what the parser must make of it."""

    name: str
    shape: str
    text: str
    expected: ForecastDocument | None  # None for malformed inputs


def _temp_text(low: int, high: int, zero_word: bool = False) -> str:
    below = " below zero" if zero_word else " below"
    if low == high:
        return f"around {low}F" if low >= 0 else f"around {-low}{below}"
    if low >= 0:
        return f"{low}-{high}F"
    if high < 0:
        return f"{-high}-{-low}{below}"
    return f"{-low}{below} to {high}F"


def _cap(text: str) -> str:
    return text[0].upper() + text[1:]


def _precip_sentence(rng: random.Random, kinds_out: list) -> str:
    template, certainty = rng.choice(PRECIP_TEMPLATES)
    (pa, ka), (pb, kb) = rng.sample(PRECIP_PHRASES, 2)
    if "{b}" not in template:
        pb, kb = None, None
    # "freezing rain" then "rain" in one sentence is still two kinds; a
    # repeated kind is reported once per sentence.
    sentence = _cap(template.format(a=pa, b=pb))
    for kind in (ka, kb):
        if kind is not None and (kind, certainty) not in kinds_out:
            kinds_out.append((kind, certainty))
    return sentence


def _issued(rng: random.Random) -> datetime:
    start = datetime(2026, 1, 1, 4, 0)
    return start + timedelta(days=rng.randrange(365), minutes=15 * rng.randrange(48))


def _summary(rng: random.Random) -> str:
    sentences = rng.sample(SUMMARY, rng.randint(1, 3))
    if len(sentences) == 1:
        return sentences[0]
    return sentences[0] + "\n" + " ".join(sentences[1:])


class _PeriodSpec:
    """Accumulates sentences of one period block and the values they state."""

    def __init__(self, label: str):
        self.label = label
        self.sentences: list[str] = []
        self.temps: list[int] = []
        self.winds: list[int] = []
        self.gusts: list[int] = []
        self.chills: list[int] = []
        self.direction: str | None = None
        self.precip: list[tuple[PrecipKind, Certainty]] = []
        self.notes: list[str] = []

    def temperature(self, low: int, high: int) -> None:
        self.sentences.append(f"Temperatures: {_temp_text(low, high)}.")
        self.temps += [low, high]

    def wind(self, rng: random.Random, low: int, high: int, direction: str | None, gust: int | None):
        lead = f"{direction} " if direction else ""
        speed = f"{low}-{high}" if low != high else f"{high}"
        text = f"Winds: {lead}{speed} mph"
        if gust is not None:
            words = rng.choice(GUST_WORDS)
            g0 = max(high + 1, gust - 10)
            text += words.format(g=gust, g0=g0)
            self.gusts.append(gust)
        self.sentences.append(text + ".")
        self.winds += [low, high]
        if self.direction is None:
            self.direction = direction

    def chill(self, low: int, high: int) -> None:
        self.sentences.append(f"Wind chills: {_temp_text(low, high, zero_word=True)}.")
        self.chills += [low, high]

    def narrative(self, rng: random.Random) -> None:
        self.sentences.append(rng.choice(FILLER))

    def note(self, rng: random.Random) -> None:
        note = rng.choice(NOTES)
        self.sentences.append(note)
        self.notes.append(note)

    def precipitation(self, rng: random.Random) -> None:
        self.sentences.append(_precip_sentence(rng, self.precip))

    def text(self) -> str:
        return f"{self.label}: " + " ".join(self.sentences)

    def expected(self) -> ForecastPeriod:
        gust = max(self.gusts) if self.gusts else None
        chill = ValueRange(min(self.chills), max(self.chills), "F") if self.chills else None
        return ForecastPeriod(
            label=self.label,
            temperature=ValueRange(min(self.temps), max(self.temps), "F"),
            wind=WindPrediction(
                sustained=ValueRange(min(self.winds), max(self.winds), "mph"),
                direction=self.direction,
                gust_high=gust,
            ),
            wind_chill=chill,
            precip_events=tuple(PrecipEvent(k, c) for k, c in self.precip),
            extra_hazard_notes=tuple(self.notes),
        )


def _regime_values(rng: random.Random, regime):
    (t_lo, t_hi), span, (w_lo, w_hi), _, _, _ = regime
    low = rng.randint(t_lo, t_hi)
    high = low + rng.randint(0, span)
    wind_high = rng.randint(w_lo, w_hi)
    wind_low = max(0, wind_high - rng.randint(0, 25))
    return low, high, wind_low, wind_high


def _stated_chill(rng: random.Random, low: int, wind_high: int) -> tuple[int, int]:
    # Roughly where the published chart puts it; the value is stated, so the
    # parser must take it as written whatever it is.
    chill_low = low - wind_high // 3 - rng.randint(5, 20)
    return chill_low, chill_low + rng.randint(0, 15)


def _short_period(rng: random.Random, label: str, regime) -> _PeriodSpec:
    _, _, _, p_chill, p_gust, p_precip = regime
    period = _PeriodSpec(label)
    for _ in range(rng.randint(1, 6)):
        period.narrative(rng)
    if rng.random() < p_precip:
        for _ in range(rng.randint(1, 2)):
            period.precipitation(rng)
    if rng.random() < 0.25:
        period.note(rng)
    low, high, wind_low, wind_high = _regime_values(rng, regime)
    period.temperature(low, high)
    gust = wind_high + rng.randint(5, 30) if rng.random() < p_gust else None
    direction = rng.choice(DIRECTIONS) if rng.random() < 0.9 else None
    period.wind(rng, wind_low, wind_high, direction, gust)
    if rng.random() < p_chill:
        period.chill(*_stated_chill(rng, low, wind_high))
    for _ in range(rng.randint(0, 6)):
        period.narrative(rng)
    return period


def _assemble(name: str, rng: random.Random, periods: list[_PeriodSpec],
              summary: str | None = None) -> tuple[str, ForecastDocument]:
    issued = _issued(rng)
    summary = summary if summary is not None else _summary(rng)
    text = f"Issued: {issued.isoformat()}\n{summary}\n\n"
    text += "\n".join(p.text() for p in periods) + "\n"
    doc = ForecastDocument(
        issued_at=issued,
        summary_text=summary,
        periods=tuple(p.expected() for p in periods),
        source_id=name,
    )
    return text, doc


def _short_periods(rng: random.Random) -> list[_PeriodSpec]:
    labels = rng.choice(LABEL_SETS)
    base = rng.randrange(len(REGIMES))
    return [
        _short_period(rng, label, REGIMES[min(len(REGIMES) - 1, max(0, base + rng.randint(-1, 1)))])
        for label in labels
    ]


def short_bulletin(rng: random.Random, name: str) -> Bulletin:
    text, doc = _assemble(name, rng, _short_periods(rng))
    return Bulletin(name, "short", text, doc)


def _num(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def canonical_text(doc: ForecastDocument) -> str:
    """``hsf-canonical/1`` text for a document, in the documented key order."""
    lines = ["schema: hsf-canonical/1", f"issued_at: {doc.issued_at.isoformat()}"]
    if doc.source_id:
        lines.append(f"source_id: {doc.source_id}")
    lines += [f"summary: | {raw}" if raw else "summary: |" for raw in doc.summary_text.split("\n")]
    for p in doc.periods:
        lines += ["period:", f"  label: {p.label}",
                  f"  temp_low_f: {_num(p.temperature.low)}", f"  temp_high_f: {_num(p.temperature.high)}",
                  f"  wind_low_mph: {_num(p.wind.sustained.low)}",
                  f"  wind_high_mph: {_num(p.wind.sustained.high)}"]
        if p.wind.direction is not None:
            lines.append(f"  wind_dir: {p.wind.direction}")
        if p.wind.gust_high is not None:
            lines.append(f"  gust_high_mph: {_num(p.wind.gust_high)}")
        if p.wind_chill is not None:
            lines += [f"  chill_low_f: {_num(p.wind_chill.low)}", f"  chill_high_f: {_num(p.wind_chill.high)}"]
        lines += [f"  precip: {ev.kind.value} | {ev.certainty.value}" for ev in p.precip_events]
        lines += [f"  hazard_note: {note}" for note in p.extra_hazard_notes]
    return "\n".join(lines) + "\n"


def canonical_bulletin(rng: random.Random, name: str) -> Bulletin:
    doc = short_bulletin(rng, name).expected
    return Bulletin(name, "canonical", canonical_text(doc), doc)


MALFORMED_KINDS = ("three-periods", "no-temperature", "no-wind", "no-summary",
                   "canonical-bad-number", "canonical-three-periods")


def malformed_bulletin(rng: random.Random, name: str, kind: str) -> Bulletin:
    periods = _short_periods(rng)
    if kind == "three-periods":
        text, _ = _assemble(name, rng, periods[:3])
    elif kind in ("no-temperature", "no-wind"):
        victim = periods[rng.randrange(4)]
        prefix = "Temperatures:" if kind == "no-temperature" else "Winds:"
        victim.sentences = [s for s in victim.sentences if not s.startswith(prefix)]
        text, _ = _assemble(name, rng, periods)
    elif kind == "no-summary":
        text, _ = _assemble(name, rng, periods, summary="")
    else:
        _, doc = _assemble(name, rng, periods)
        lines = canonical_text(doc).split("\n")
        if kind == "canonical-bad-number":
            at = next(i for i, line in enumerate(lines) if line.startswith("  temp_low_f:"))
            lines[at] = "  temp_low_f: ten"
        else:
            last = max(i for i, line in enumerate(lines) if line == "period:")
            lines = lines[:last] + [""]
        text = "\n".join(lines)
    return Bulletin(name, "malformed", text, None)


def long_bulletin(rng: random.Random, name: str, target_bytes: int, regime: int) -> Bulletin:
    """A bulletin of about ``target_bytes`` in hazard regime ``regime``
    (an index into ``REGIMES``), dense with labelled statements."""
    labels = rng.choice(LABEL_SETS)
    regime = REGIMES[regime]
    periods = []
    for label in labels:
        period = _PeriodSpec(label)
        size = len(label)
        while size < target_bytes // 4:
            before = len(period.sentences)
            for _ in range(rng.randint(0, 2)):
                period.narrative(rng)
            if rng.random() < 0.2:
                period.precipitation(rng)
            if rng.random() < 0.05:
                period.note(rng)
            low, high, wind_low, wind_high = _regime_values(rng, regime)
            period.temperature(low, high)
            # Above every sustained value of the regime, so no stated gust is
            # ever below the period's sustained high (the parser drops those).
            gust = regime[2][1] + rng.randint(5, 30) if rng.random() < 0.3 else None
            period.wind(rng, wind_low, wind_high, rng.choice(DIRECTIONS), gust)
            if rng.random() < 0.3:
                period.chill(*_stated_chill(rng, low, wind_high))
            size += sum(len(s) + 1 for s in period.sentences[before:])
        periods.append(period)
    text, doc = _assemble(name, rng, periods)
    return Bulletin(name, "long", text, doc)
