"""Shared oracle data and builders for the test suite.

The wind-chill grid below was transcribed from the published NWS chart as
a pre-build oracle and anchored against known cells (for example 0 F at
15 mph is -19 F). Tests compare library output against it. The layout
oracle at the end takes only the data model and the hazard kinds, glyph ids
and wind-chill rules from the package. ``line_events`` counts a call's cost
in one module's lines, for the cost gates, and ``traced_peak`` its peak of
traced memory, for the memory gates. The band lookup and the canonical
reader are kept as they were before they were tuned for speed, as their
oracles.
"""

from __future__ import annotations

import html
import math
import random
import re
import sys
import tracemalloc
from collections import namedtuple
from datetime import datetime, timedelta, timezone
from importlib import resources

from summitwx.canonical import SCHEMA
from summitwx.hazards import (
    GLYPH_IDS,
    KIND_ORDER,
    WIND_DISPLAY_FLOOR,
    HazardIcon,
    HazardKind,
    derive_icon_rows,
    period_wind_chill,
    round_half_away,
)
from summitwx.model import (
    COMPASS_POINTS,
    WINTER_PRECIP_KINDS,
    Certainty,
    ForecastDocument,
    ForecastPeriod,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
    _document,
    _fmt_num,
    _period,
    _read_number,
)
from summitwx.textparse import Diagnostic, ParseResult, Severity

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


#: Naive, or aware at a whole-hour offset, at +05:30, or at an offset with
#: seconds. An aware time equals the same instant at any other offset, so a
#: round trip compares the emitted text as well as ``==``.
_UTC_OFFSETS = (
    None, timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(hours=9)),
    timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(seconds=30)),
    timezone(timedelta(hours=-3, seconds=-17)),
)


def build_random_document(rng: random.Random) -> ForecastDocument:
    """One structurally valid document; fast enough for thousand-doc loops."""
    summary_lines = [
        " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 8)))
        for _ in range(rng.randint(1, 3))
    ]
    issued = datetime(2026, 1, 1, tzinfo=rng.choice(_UTC_OFFSETS)) + timedelta(
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


def period_row(period: ForecastPeriod) -> tuple[HazardIcon, ...]:
    """The icon row ``derive_icon_rows`` gives ``period`` in a document of
    four copies of it."""
    return derive_icon_rows(make_doc((period,) * 4))[1][0]


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


# ------------------------------------------------------------------ cost gates


def line_events(module, call):
    """``(events, result)``: the line events ``call()`` executes in frames of
    ``module``'s own file, and what it returns. A count of lines run does
    not swing with the machine's load, so a gate can bound how it grows."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename == module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(global_)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return count, result


def traced_peak(call):
    """``(peak, result)``: the most memory ``call()`` held at once, in bytes
    that ``tracemalloc`` traced above what was traced when it began, and what
    it returns. Tracing that was already running goes on afterwards, with its
    peak reset. Unlike a time, the peak does not swing with the machine's
    load, so a gate can bound what one input costs."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not running:
            tracemalloc.stop()
    return peak, result


# ---------------------------------------------------------------- layout oracle
#
# The layout writers as they were before a layout was written once per
# element: each render walks the elements and writes every line and icon
# again. Kept verbatim (the icon rules too, from ``hazards``) so that tests
# can hold the renderer to the same bytes and manifests.

_OracleTextElement = namedtuple("_OracleTextElement", "element_id source lines")
_OracleIconRow = namedtuple("_OracleIconRow", "element_id source heading icons")


def _oracle_icon_row(element_id, source, heading, icons):
    return _OracleIconRow(element_id, source, heading,
                          tuple((f"{element_id}-icon-{k}", icon) for k, icon in enumerate(icons, 1)))


def _icon(table, band, gust=None):
    return HazardIcon(
        kind=table.kind,
        level=band.level,
        color=band.color,
        scale_name=table.scale_name,
        glyph_id=GLYPH_IDS[table.kind],
        label=band.label,
        gust_annotation=gust,
    )


def _bands(period, tables):
    winter_kinds = {ev.kind for ev in period.precip_events if ev.kind in WINTER_PRECIP_KINDS}
    chill = period_wind_chill(period)  # -inf when too cold for a float
    return (
        tables[HazardKind.WIND].band_for(period.wind.sustained.high),
        tables[HazardKind.WIND_CHILL].band_for(
            round_half_away(chill) if math.isfinite(chill) else chill),
        tables[HazardKind.FREEZING_TEMP].band_for(period.temperature.low),
        tables[HazardKind.WINTER_PRECIP].band_for(len(winter_kinds)),
    )


def _icons(bands, gust: float | None, tables) -> tuple[HazardIcon, ...]:
    """Icons for one band per kind: wind at or above the display floor, badged
    with ``gust`` when that reaches a higher force; other kinds at level >= 1."""
    force, *others = bands
    icons: list[HazardIcon] = []
    wind_table = tables[HazardKind.WIND]
    if force.level >= WIND_DISPLAY_FLOOR:
        badge = gust if gust is not None and wind_table.level_for(gust) > force.level else None
        icons.append(_icon(wind_table, force, gust=badge))
    for kind, band in zip(KIND_ORDER[1:], others):
        if band.level >= 1:
            icons.append(_icon(tables[kind], band))
    return tuple(icons)


def oracle_icon_rows(doc, tables):
    """``(overall, per_period)`` icons of ``doc``, derived band by band."""
    periods = doc.periods
    worst = [max(column, key=lambda band: band.level)
             for column in zip(*(_bands(p, tables) for p in periods))]
    gust = max((p.wind.gust_high for p in periods if p.wind.gust_high is not None),
               default=None)
    return (_icons(worst, gust, tables),
            tuple(_icons(_bands(p, tables), p.wind.gust_high, tables) for p in periods))


_CHILL_SHORT = {1: "30 MIN", 2: "10 MIN", 3: "5 MIN"}
_ICON_WORDS = {
    HazardKind.WIND: ("WIND {label}", "F{level}"),
    HazardKind.WIND_CHILL: ("WIND CHILL {label}", "{chill}"),
    HazardKind.FREEZING_TEMP: ("FREEZING", "FREEZE"),
    HazardKind.WINTER_PRECIP: ("WINTER PRECIP", "WINTER"),
}


def _icon_words(kind, level):
    plain, short = _ICON_WORDS[kind]
    short = short.format(level=level, chill=_CHILL_SHORT.get(level, f"L{level}"))
    return plain.format(label=short.replace(" ", "")), short


def _short_label(icon):
    return _icon_words(icon.kind, icon.level)[1]


def _badge(icon):
    return f"G{_fmt_num(icon.gust_annotation)}"


def _accessible_label(icon):
    text = f"{icon.scale_name}: {icon.label}"
    if icon.gust_annotation is not None:
        text += f", gusts to {_fmt_num(icon.gust_annotation)} mph"
    return text


def _plain_icon(icon):
    inner = _icon_words(icon.kind, icon.level)[0]
    if icon.gust_annotation is not None:
        inner += f" {_badge(icon)}"
    return f"[{inner}]"


def _glyph_inner(glyph_id):
    path = resources.files("summitwx") / "assets" / "glyphs" / f"{glyph_id}.svg"
    text = path.read_text(encoding="utf-8").strip()
    open_end = text.index(">") + 1
    close_start = text.rindex("</svg>")
    return text[open_end:close_start]


def _glyph_color(background):
    r, g, b = (int(background[i:i + 2], 16) for i in (1, 3, 5))
    luminance = (0.2126 * r + 0.7152 * g + 0.0722 * b) / 255.0
    return "#FFFFFF" if luminance < 0.5 else "#1A1A2E"


def _esc(text: str) -> str:
    return html.escape(text, quote=True)


def _icon_svg(icon: HazardIcon, element_id: str | None = None) -> str:
    inner = _glyph_inner(icon.glyph_id)
    label = _esc(_accessible_label(icon))
    id_attr = f' id="{element_id}"' if element_id else ""
    color = _glyph_color(icon.color)
    badge = ""
    if icon.gust_annotation is not None:
        badge = (f'<text class="icon-badge" x="37" y="37" text-anchor="end" '
                 f'fill="{color}">{_badge(icon)}</text>')
    return (
        f'<g{id_attr} class="icon" role="img" aria-label="{label}">'
        f"<title>{label}</title>"
        f'<rect class="icon-bg" width="40" height="40" rx="6" fill="{icon.color}"/>'
        f'<g transform="translate(8 8)" style="color:{color}">{inner}</g>'
        f"{badge}"
        f'<text class="icon-label" x="20" y="51" text-anchor="middle">{_esc(_short_label(icon))}</text>'
        "</g>"
    )


def _icon_html(icon: HazardIcon, element_id: str | None = None) -> str:
    inner = _glyph_inner(icon.glyph_id)
    label = _esc(_accessible_label(icon))
    id_attr = f' id="{element_id}"' if element_id else ""
    badge = ""
    if icon.gust_annotation is not None:
        badge = f'<span class="icon-badge">{_badge(icon)}</span>'
    return (
        f'<span{id_attr} class="icon" role="img" aria-label="{label}" '
        f'style="background:{icon.color};color:{_glyph_color(icon.color)}">'
        f'<svg viewBox="0 0 24 24" width="28" height="28" aria-hidden="true">{inner}</svg>'
        f"{badge}"
        f'<span class="icon-label">{_esc(_short_label(icon))}</span>'
        f"</span>"
    )


def oracle_render_icon(icon, format):
    return {"plain": _plain_icon, "svg": _icon_svg, "html": _icon_html}[format](icon)


def _period_elements(index, period):
    t, wind, chill = period.temperature, period.wind, period.wind_chill
    direction = f"{wind.direction} " if wind.direction else ""
    wind_line = (f"  Winds: {direction}{_fmt_num(wind.sustained.low)} to "
                 f"{_fmt_num(wind.sustained.high)} mph")
    if wind.gust_high is not None:
        wind_line += f", gusts to {_fmt_num(wind.gust_high)} mph"
    rows = [
        ("label", "label", f"{period.label}:"),
        ("temperature", "temperature",
         f"  Temperatures: {_fmt_num(t.low)} to {_fmt_num(t.high)} F"),
        ("wind", "wind", wind_line),
    ]
    if chill is not None:
        rows.append(("wind-chill", "wind_chill",
                     f"  Wind chills: {_fmt_num(chill.low)} to {_fmt_num(chill.high)} F"))
    for k, event in enumerate(period.precip_events):
        rows.append((f"precip-{k + 1}", f"precip_events[{k}]", f"  Precipitation: "
                     f"{event.kind.value.replace('_', ' ')} ({event.certainty.value})"))
    for k, note in enumerate(period.extra_hazard_notes):
        rows.append((f"note-{k + 1}", f"extra_hazard_notes[{k}]", f"  Note: {note}"))
    return tuple(_OracleTextElement(f"period-{index + 1}-{suffix}", f"periods[{index}].{field}",
                                    (line,)) for suffix, field, line in rows)


def _oracle_groups(doc, condition, tables):
    overall_icons, per_period_icons = oracle_icon_rows(doc, tables)
    overall = (_oracle_icon_row("icons-overall", "derived:worst_case", "HAZARDS (48 HOURS):",
                                overall_icons),)
    masthead = (
        _OracleTextElement("title", "constant", ("HIGHER SUMMITS FORECAST",)),
        _OracleTextElement("issued", "issued_at", (f"Issued: {doc.issued_at.isoformat()}",)),
    )
    if doc.source_id:
        masthead += (_OracleTextElement("source", "source_id", (f"Source: {doc.source_id}",)),)
    summary = (_OracleTextElement("summary", "summary_text", tuple(doc.summary_text.split("\n"))),)
    periods = tuple(_period_elements(i, p) for i, p in enumerate(doc.periods))
    per_day = tuple(
        (elements[0],
         _oracle_icon_row(f"icons-period-{i + 1}", f"derived:periods[{i}]", "HAZARDS:", icons),
         *elements[1:])
        for i, (elements, icons) in enumerate(zip(periods, per_period_icons))
    )
    return {
        "baseline": (masthead, summary, *periods),
        "summary_last": (masthead, *periods, summary),
        "icons": (masthead, overall, summary, *periods),
        "per_day_icons": (masthead, *per_day, summary),
    }[condition.value]


def _manifest(groups) -> tuple[tuple[str, str], ...]:
    entries: list[tuple[str, str]] = []
    for group in groups:
        for el in group:
            entries.append((el.element_id, el.source))
            if isinstance(el, _OracleIconRow):
                entries.extend((icon_id, el.source) for icon_id, _ in el.icons)
    return tuple(entries)


def _render_plain(groups) -> str:
    blocks = []
    for group in groups:
        lines: list[str] = []
        for el in group:
            if isinstance(el, _OracleIconRow):
                lines.append(el.heading + "".join(f" {_plain_icon(i)}" for _, i in el.icons))
            else:
                lines.extend(el.lines)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


_STYLESHEET_VERSION = "hsf-layout/1"
_SVG_STYLE = (
    f"/* {_STYLESHEET_VERSION} */\n"
    "text { font-family: 'DejaVu Sans', Helvetica, Arial, sans-serif;"
    " font-size: 14px; fill: #1A1A2E; }\n"
    ".title { font-size: 16px; font-weight: bold; letter-spacing: 1px; }\n"
    ".row-heading { font-weight: bold; }\n"
    ".icon-label { font-size: 9px; }\n"
    ".icon-badge { font-size: 9px; font-weight: bold; }"
)

_PAD = 16
_LINE_H = 22
_ICON_CELL_H = 56
_ICON_PITCH = 48
_GROUP_GAP = 12


def _render_svg(groups) -> str:
    parts = ["", f"<style>{_SVG_STYLE}</style>"]  # the header waits for the height
    y = _PAD
    for group in groups:
        for el in group:
            parts.append(f'<g id="{el.element_id}">')
            if isinstance(el, _OracleIconRow):
                parts.append(f'<text class="row-heading" x="{_PAD}" y="{y + 16}">{_esc(el.heading)}</text>')
                y += _LINE_H
                x = _PAD
                for icon_id, icon in el.icons:
                    parts.append(f'<g transform="translate({x} {y})">')
                    parts.append(_icon_svg(icon, icon_id))
                    parts.append("</g>")
                    x += _ICON_PITCH
                if el.icons:
                    y += _ICON_CELL_H
            else:
                css = ' class="title"' if el.element_id == "title" else ""
                for line in el.lines:
                    parts.append(f'<text{css} x="{_PAD}" y="{y + 16}">{_esc(line)}</text>')
                    y += _LINE_H
            parts.append("</g>")
        y += _GROUP_GAP
    height = y + _PAD - _GROUP_GAP
    parts[0] = (f'<svg xmlns="http://www.w3.org/2000/svg" width="760" height="{height}" '
                f'viewBox="0 0 760 {height}">')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_HTML_STYLE = (
    f"/* {_STYLESHEET_VERSION} */\n"
    "body { font-family: 'DejaVu Sans', Helvetica, Arial, sans-serif;"
    " font-size: 15px; color: #1A1A2E; background: #FFFFFF; margin: 2rem; }\n"
    "main.forecast { max-width: 46rem; }\n"
    "section.group { margin-bottom: 1rem; }\n"
    "p { margin: 0 0 0.25rem 0; white-space: pre-wrap; }\n"
    "#title { font-weight: bold; letter-spacing: 1px; }\n"
    ".row-heading { font-weight: bold; }\n"
    ".icon-row { display: flex; gap: 8px; align-items: center; }\n"
    ".icon { display: inline-flex; flex-direction: column; align-items: center;"
    " border-radius: 6px; padding: 4px; min-width: 40px; }\n"
    ".icon-label, .icon-badge { font-size: 9px; font-weight: bold; }"
)


def _render_html(groups) -> str:
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        '<head><meta charset="utf-8"><title>Higher Summits Forecast</title>',
        f"<style>{_HTML_STYLE}</style></head>",
        "<body>",
        '<main class="forecast">',
    ]
    for group in groups:
        parts.append('<section class="group">')
        for el in group:
            if isinstance(el, _OracleIconRow):
                parts.append(f'<div class="icon-row" id="{el.element_id}">')
                parts.append(f'<span class="row-heading">{_esc(el.heading)}</span>')
                for icon_id, icon in el.icons:
                    parts.append(_icon_html(icon, icon_id))
                parts.append("</div>")
            else:
                body = "<br>".join(_esc(line) for line in el.lines)
                parts.append(f'<p id="{el.element_id}">{body}</p>')
        parts.append("</section>")
    parts.extend(["</main>", "</body>", "</html>"])
    return "\n".join(parts) + "\n"


def oracle_render(doc, condition, format, tables):
    """``(payload, manifest)`` of ``doc`` under ``condition`` and ``format``,
    written as the renderer wrote them element by element."""
    groups = _oracle_groups(doc, condition, tables)
    write = {"plain": _render_plain, "svg": _render_svg, "html": _render_html}[format]
    return write(groups).encode("utf-8"), _manifest(groups)


# ------------------------------------------------------------ band oracle


def oracle_position(table, value):
    """Index in ``table.bands`` of the band containing ``value``, found by the
    linear scan ``ScaleTable._position`` made before it bisected, kept
    verbatim as its oracle."""
    self = table
    x = min(max(value, self.domain_low), self.domain_high)
    bands = self.bands
    if self.closed_edge == "low":
        for i, band in enumerate(bands[:-1]):
            if band.low <= x < band.high:
                return i
        return len(bands) - 1
    for i in range(len(bands) - 1, 0, -1):
        band = bands[i]
        if band.low < x <= band.high:
            return i
    return 0


# -------------------------------------------------------- canonical oracle

_ORACLE_TOP_SCALARS = {"schema", "issued_at", "source_id"}
_ORACLE_PERIOD_SCALARS = {
    "label", "temp_low_f", "temp_high_f", "wind_dir",
    "wind_low_mph", "wind_high_mph", "gust_high_mph",
    "chill_low_f", "chill_high_f",
}
_ORACLE_PERIOD_REQUIRED = ("label", "temp_low_f", "temp_high_f", "wind_low_mph", "wind_high_mph")


class _OraclePeriodDraft:
    def __init__(self, span: tuple[int, int]) -> None:
        self.span = span  # of its 'period:' marker line
        self.scalars: dict[str, str] = {}
        self.spans: dict[str, tuple[int, int]] = {}
        self.precip: list[PrecipEvent] = []
        self.notes: list[str] = []


def oracle_parse_canonical(text: str) -> ParseResult:
    """``parse_canonical`` as it read a text through a ``take`` closure per
    line, kept verbatim as its oracle."""
    diags: list[Diagnostic] = []
    top: dict[str, str] = {}
    top_spans: dict[str, tuple[int, int]] = {}
    summary_lines: list[str] = []
    drafts: list[_OraclePeriodDraft] = []
    meaningful = 0
    recognized = 0

    def err(span: tuple[int, int], message: str) -> None:
        diags.append(Diagnostic(Severity.ERROR, span, message))

    def take(raw_line: str, span: tuple[int, int]) -> str | None:
        """Record one meaningful line; return its problem, or None."""
        if "\r" in raw_line:
            return "carriage return in input; expected bare newlines"
        in_period = raw_line.startswith("  ") and not raw_line[2:].startswith(" ")
        content = raw_line[2:] if in_period else raw_line
        key, colon, rest = content.partition(":")
        if not (key and colon) or rest[:1] not in ("", " "):
            return f"expected 'key: value', found {content!r}"
        value = rest[1:]

        if not top and (in_period or key != "schema"):
            return "first entry must be the schema declaration"

        if in_period:
            if not drafts:
                return f"period key {key!r} before any 'period:' marker"
            draft = drafts[-1]
            if key in _ORACLE_PERIOD_SCALARS:
                if key in draft.scalars:
                    return f"duplicate key {key!r} in period {len(drafts)}"
                draft.scalars[key] = value
                draft.spans[key] = span
            elif key == "precip":
                pieces = value.split(" | ")
                if len(pieces) != 2:
                    return f"expected 'kind | certainty', found {value!r}"
                try:
                    draft.precip.append(
                        PrecipEvent(PrecipKind(pieces[0]), Certainty(pieces[1]))
                    )
                except ValueError:
                    return f"unknown precipitation token in {value!r}"
            elif key == "hazard_note":
                draft.notes.append(value)
            else:
                return f"unknown key {key!r}"
        elif key == "schema":
            if top:
                return "duplicate schema declaration"
            if value != SCHEMA:
                return f"unsupported schema {value!r}; expected {SCHEMA!r}"
            top["schema"] = value
        elif key in _ORACLE_TOP_SCALARS:
            if key in top:
                return f"duplicate key {key!r}"
            top[key] = value
            top_spans[key] = span
        elif key == "summary":
            # '|' alone is an empty line, and "|"[2:] == "".
            if value[:2] not in ("|", "| "):
                return (f"summary value must start with '|' and a space, or be '|' alone, "
                        f"found {value!r}")
            top_spans.setdefault("summary_text", span)
            summary_lines.append(value[2:])
        elif key == "period":
            if value != "":
                return f"'period:' takes no value, found {value!r}"
            drafts.append(_OraclePeriodDraft(span))
        else:
            return f"unknown key {key!r}"
        return None

    offset = 0
    for raw_line in text.split("\n"):
        span = (offset, offset + len(raw_line))
        offset += len(raw_line) + 1
        if not raw_line.strip() or raw_line.lstrip().startswith("#"):
            continue
        meaningful += 1
        problem = take(raw_line, span)
        if problem is None:
            recognized += 1
        else:
            err(span, problem)

    whole = (0, len(text))
    if "schema" not in top:
        err(whole, "missing schema declaration")
    if "issued_at" not in top:
        err(whole, "missing issued_at")
    if len(drafts) != 4:
        err(whole, f"expected 4 periods, found {len(drafts)}")

    issued_at = None
    if "issued_at" in top:
        try:
            issued_at = datetime.fromisoformat(top["issued_at"])
        except ValueError:
            err(top_spans["issued_at"], f"unreadable issued_at {top['issued_at']!r}")

    periods = []
    for i, draft in enumerate(drafts):
        reported = len(diags)
        for key in _ORACLE_PERIOD_REQUIRED:
            if key not in draft.scalars:
                err(draft.span, f"period {i + 1}: missing required key {key!r}")
        nums: dict[str, float] = {}
        for key, value in draft.scalars.items():
            if key in ("label", "wind_dir"):
                continue
            try:
                nums[key] = _read_number(value)
            except ValueError as exc:
                err(draft.spans[key], f"period {i + 1}: {key} {exc}")
        if ("chill_low_f" in draft.scalars) != ("chill_high_f" in draft.scalars):
            err(draft.span, f"period {i + 1}: chill_low_f and chill_high_f must appear together")
        if len(diags) > reported:
            continue
        wind_chill = None
        if "chill_low_f" in nums:
            wind_chill = ValueRange(nums["chill_low_f"], nums["chill_high_f"], "F")
        period = _period(
            err, draft.span, f"period {i + 1}: ",
            label=draft.scalars["label"],
            temperature=ValueRange(nums["temp_low_f"], nums["temp_high_f"], "F"),
            wind=WindPrediction(
                sustained=ValueRange(nums["wind_low_mph"], nums["wind_high_mph"], "mph"),
                direction=draft.scalars.get("wind_dir"),
                gust_high=nums.get("gust_high_mph"),
            ),
            wind_chill=wind_chill,
            precip_events=tuple(draft.precip),
            extra_hazard_notes=tuple(draft.notes),
        )
        if period is not None:
            periods.append(period)

    doc = None
    # Every diagnostic this parser makes is an error, so any diagnostic means no document.
    if not diags:
        doc = _document(
            err, lambda field_name: top_spans.get(field_name, whole),
            issued_at=issued_at, summary_text="\n".join(summary_lines), periods=tuple(periods),
            source_id=top.get("source_id", ""),
        )
    return ParseResult(doc, tuple(diags), recognized / meaningful if meaningful else 0.0)
