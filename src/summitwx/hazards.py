"""Cold-weather hazard classification driven by shipped scale tables.

Every icon comes from :func:`derive_icon_rows`, which gives a document's
two rows: one per period, with at most one icon per hazard kind (wind,
wind chill, freezing temperature, winter precipitation) in a fixed order,
from that period's own fields and the scale tables; and the overall row,
the 48-hour worst case over the periods. Nothing else -- no clock,
network, or ambient configuration -- can affect the result.

The scale tables ship as data files under ``summitwx/scales`` so the band
edges and colors can be audited or re-transcribed against the published
standards they come from; each file carries a provenance note. Tables are
integrity-checked at load time and immutable afterwards.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from operator import attrgetter
from pathlib import Path, PurePath, PurePosixPath
from types import MappingProxyType
from typing import Mapping

from .model import (
    WINTER_PRECIP_KINDS,
    ForecastDocument,
    ForecastPeriod,
    _fmt_num,
    _fold,
    _key_values,
    _read_input,
    _read_number,
    require_valid,
)


class HazardKind(Enum):
    WIND = "wind"
    WIND_CHILL = "wind_chill"
    FREEZING_TEMP = "freezing_temp"
    WINTER_PRECIP = "winter_precip"
    __hash__ = object.__hash__  # by identity, as members compare; Enum's hash runs in Python


#: Icon emission order within a set. Fixed; never reordered by content.
KIND_ORDER = tuple(HazardKind)

GLYPH_IDS = {
    HazardKind.WIND: "wind",
    HazardKind.WIND_CHILL: "wind-chill",
    HazardKind.FREEZING_TEMP: "freezing-temp",
    HazardKind.WINTER_PRECIP: "winter-precip",
}

_TABLE_FILES = {
    HazardKind.WIND: "beaufort.table",
    HazardKind.WIND_CHILL: "wind_chill.table",
    HazardKind.FREEZING_TEMP: "freezing.table",
    HazardKind.WINTER_PRECIP: "winter_precip.table",
}

_COLOR_RE = re.compile(r"^#[0-9A-F]{6}$")
#: The header keys a scale table states once each.
_HEADER_KEYS = frozenset(("schema", "kind", "scale_name", "unit", "domain", "closed_edge"))


class ScaleTableError(ValueError):
    """A scale-table file is malformed or fails its integrity checks."""


@dataclass(frozen=True)
class ScaleBand:
    """One band of a scale: its level, its ``low``-``high`` edges, color and label."""

    level: int
    low: float
    high: float
    color: str
    label: str


@dataclass(frozen=True)
class ScaleTable:
    """One hazard's scale: contiguous bands across ``domain_low``-``domain_high``."""

    kind: HazardKind
    scale_name: str
    unit: str
    domain_low: float
    domain_high: float
    closed_edge: str  # "low": bands are [low, high); "high": bands are (low, high]
    provenance: str
    bands: tuple[ScaleBand, ...]

    def band_for(self, value: float) -> ScaleBand:
        """Band containing ``value``, for bands contiguous and ascending across the
        domain, as every loaded table's are; values beyond it take the end band."""
        return self.bands[self._position(value)]

    def _position(self, value: float) -> int:
        """Index in ``bands`` of the band containing ``value``."""
        if self.closed_edge == "low":
            return bisect_right(self._edges, value)
        return bisect_left(self._edges, value)

    @cached_property
    def _edges(self) -> tuple[float, ...]:
        """The interior band edges, ascending: each band's ``high`` but the last's."""
        return tuple(band.high for band in self.bands[:-1])

    @cached_property
    def _band_icons(self) -> tuple[HazardIcon, ...]:
        """Each band's icon without a gust badge, in band order: built once
        per table, and shared by every icon row that shows the band."""
        return tuple(_icon(self, band) for band in self.bands)

    def level_for(self, value: float) -> int:
        return self.band_for(value).level


def _number(text: str, name: str, where: str) -> float:
    try:
        return _read_number(text)
    except ValueError as exc:
        raise ScaleTableError(f"{where}: {name} {exc}") from None


def _read_scale_table(source, origin: str) -> ScaleTable:
    """The scale table in the file or package resource ``source``. A line's
    error names ``origin:line``, an error of the whole table ``origin``."""
    fields: dict[str, str] = {}
    at: dict[str, str] = {}  # where each key sits, as origin:line
    provenance: list[str] = []
    bands: list[ScaleBand] = []
    band_at: list[str] = []  # where each band sits, as origin:line
    for lineno, key, value in _key_values(_read_input(source, origin, ScaleTableError)):
        if value is None:
            raise ScaleTableError(f"{origin}:{lineno}: expected 'key: value', got {key!r}")
        if key == "provenance":
            provenance.append(value)
        elif key == "band":
            parts = [p.strip() for p in value.split("|")]
            if len(parts) != 5:
                raise ScaleTableError(f"{origin}:{lineno}: band needs 5 fields, got {len(parts)}")
            where = f"{origin}:{lineno}"
            level = _number(parts[0], "level", where)
            if not level.is_integer():
                raise ScaleTableError(f"{where}: level is not a whole number: {parts[0]!r}")
            bands.append(ScaleBand(
                level=round(level), low=_number(parts[1], "low", where),
                high=_number(parts[2], "high", where), color=parts[3], label=parts[4],
            ))
            band_at.append(where)
        elif key in _HEADER_KEYS:
            if key in fields:
                raise ScaleTableError(f"{origin}:{lineno}: duplicate key {key!r}")
            fields[key] = value
            at[key] = f"{origin}:{lineno}"
        else:
            raise ScaleTableError(f"{origin}:{lineno}: unknown key {key!r}")

    missing = _HEADER_KEYS - fields.keys()
    if missing:
        raise ScaleTableError(f"{origin}: missing keys: {', '.join(sorted(missing))}")
    if fields["schema"] != "hazard-scale/1":
        raise ScaleTableError(f"{at['schema']}: unsupported schema {fields['schema']!r}")
    try:
        kind = HazardKind(fields["kind"])
    except ValueError:
        raise ScaleTableError(f"{at['kind']}: unknown hazard kind {fields['kind']!r}") from None
    if fields["closed_edge"] not in {"low", "high"}:
        raise ScaleTableError(f"{at['closed_edge']}: closed_edge must be 'low' or 'high'")
    where = at["domain"]
    domain_parts = [p.strip() for p in fields["domain"].split("|")]
    if len(domain_parts) != 2:
        raise ScaleTableError(f"{where}: domain needs 'low | high'")
    domain_low, domain_high = (_number(part, "domain", where) for part in domain_parts)
    if not provenance:
        raise ScaleTableError(f"{origin}: provenance note is mandatory")

    table = ScaleTable(
        kind=kind,
        scale_name=fields["scale_name"],
        unit=fields["unit"],
        domain_low=domain_low,
        domain_high=domain_high,
        closed_edge=fields["closed_edge"],
        provenance=" ".join(provenance),
        bands=tuple(bands),
    )
    _check_integrity(table, origin, at["domain"], band_at)
    return table


def _check_integrity(table: ScaleTable, origin: str, domain_at: str, band_at: list[str]) -> None:
    """Raise ScaleTableError for the first broken rule. A band's error names
    its line in ``band_at``; a rule over two bands names the later band's."""
    if not table.bands:
        raise ScaleTableError(f"{origin}: no bands")
    if not table.domain_low < table.domain_high:
        raise ScaleTableError(f"{domain_at}: empty domain")
    if table.bands[0].low != table.domain_low or table.bands[-1].high != table.domain_high:
        raise ScaleTableError(f"{origin}: bands do not cover the declared domain")
    for band, where in zip(table.bands, band_at):
        if not band.low < band.high:
            raise ScaleTableError(f"{where}: level {band.level} band is empty or inverted")
        if not _COLOR_RE.match(band.color):
            raise ScaleTableError(f"{where}: level {band.level} color {band.color!r} is not #RRGGBB")
    pairs = list(zip(table.bands, table.bands[1:], band_at[1:]))
    for a, b, where in pairs:
        if a.high != b.low:
            raise ScaleTableError(f"{where}: gap or overlap between levels {a.level} and {b.level}")
    seen = set()
    for band, where in zip(table.bands, band_at):
        if band.level in seen:
            raise ScaleTableError(f"{where}: duplicate levels: level {band.level} is repeated")
        seen.add(band.level)
    rising = table.bands[0].level < table.bands[-1].level  # distinct levels, so not equal
    for a, b, where in pairs:
        if (a.level < b.level) is not rising:
            raise ScaleTableError(f"{where}: level {b.level} is out of order; levels must be "
                                  "strictly monotone across the domain")


def load_scale_table(path: Path) -> ScaleTable:
    return _read_scale_table(path, str(path))


def load_tables(directory: Path | None = None) -> Mapping[HazardKind, ScaleTable]:
    """Load and integrity-check all four scale tables.

    With no argument, loads the packaged tables (cached, immutable). A
    directory argument loads re-transcribed tables from disk instead; the
    same integrity checks apply.
    """
    if directory is None:
        return _packaged_tables()
    return _read_tables(directory, directory)


@lru_cache(maxsize=1)
def _packaged_tables() -> Mapping[HazardKind, ScaleTable]:
    scales = resources.files("summitwx") / "scales"
    return _read_tables(scales, PurePosixPath("summitwx/scales"))


def _read_tables(root, origin_root: PurePath) -> Mapping[HazardKind, ScaleTable]:
    """The four tables under ``root`` (a directory or package resource), each
    named ``origin_root / filename`` in diagnostics."""
    tables = {}
    for kind, filename in _TABLE_FILES.items():
        origin = str(origin_root / filename)
        table = _read_scale_table(root / filename, origin)
        if table.kind is not kind:
            raise ScaleTableError(f"{origin}: declares kind {table.kind.value!r}")
        tables[kind] = table
    return MappingProxyType(tables)


def round_half_away(x: float) -> int:
    """Round to the nearest integer, ties away from zero (chart granularity)."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def _chill_degrees(wc_f: float) -> float:
    """A wind chill rounded to the chart's whole degree; an infinite one (a
    computed chill too cold for a float) stays so, and takes an end band."""
    return round_half_away(wc_f) if math.isfinite(wc_f) else wc_f


def wind_chill(temperature_f: float, wind_mph: float) -> float:
    """Wind chill in degrees F per the national weather service model.

    Valid for temperatures at or below 50 F with wind above 3 mph; outside
    that envelope the model is undefined and the air temperature is
    returned unchanged. Coefficients are the published 2001 model constants.
    """
    if temperature_f > 50.0 or wind_mph <= 3.0:
        return temperature_f
    v16 = wind_mph ** 0.16
    return 35.74 + 0.6215 * temperature_f - 35.75 * v16 + 0.4275 * temperature_f * v16


def beaufort_force(sustained_high_mph: float, tables=None) -> int:
    """Beaufort force 0-12 for a sustained wind speed in mph."""
    if not sustained_high_mph >= 0:  # NaN too
        raise ValueError(f"wind speed must be >= 0, got {sustained_high_mph}")
    tables = tables or load_tables()
    return tables[HazardKind.WIND].level_for(sustained_high_mph)


def wind_chill_category(wc_f: float, tables=None) -> int:
    """Frostbite-time category 0-3 for a wind chill in degrees F.

    0: no frostbite hazard; 1: frostbite within 30 minutes; 2: within 10;
    3: within 5. The wind chill is rounded half-away-from-zero to a whole
    degree first, matching the hazard chart's granularity. A value exactly
    at a band threshold takes the more severe category; an infinite one takes
    the end band.
    """
    if math.isnan(wc_f):
        raise ValueError(f"wind chill must be a number, got {wc_f}")
    tables = tables or load_tables()
    return tables[HazardKind.WIND_CHILL].level_for(_chill_degrees(wc_f))


@dataclass(frozen=True)
class HazardIcon:
    """One derived hazard icon: kind, severity level, and standard color.

    ``color`` is a pure function of (kind, level) through the scale tables.
    ``gust_annotation`` rides along on wind icons when gusts reach a higher
    Beaufort band than the sustained wind; it never changes the level.
    """

    kind: HazardKind
    level: int
    color: str
    scale_name: str
    glyph_id: str
    label: str
    gust_annotation: float | None = None

    @property
    def short_label(self) -> str:
        """The label an icon graphic shows: ``F8``, ``10 MIN``, ``FREEZE``."""
        return _icon_words(self.kind, self.level)[1]

    @property
    def badge(self) -> str:
        """The gust badge of an icon that has a ``gust_annotation``: ``G75``."""
        return f"G{_fmt_num(self.gust_annotation)}"

    @property
    def plain_text(self) -> str:
        """The icon as plain text: ``[WIND F8 G75]``, ``[WIND CHILL 10MIN]``."""
        word = _icon_words(self.kind, self.level)[0]
        if self.gust_annotation is not None:
            word += f" {self.badge}"
        return f"[{word}]"


_CHILL_SHORT = {1: "30 MIN", 2: "10 MIN", 3: "5 MIN"}

#: Per kind: the plain-text word and the short label. ``{level}`` is the
#: icon's level, ``{chill}`` the frostbite time of a wind-chill level, and
#: ``{label}`` the short label without spaces.
_ICON_WORDS = {
    HazardKind.WIND: ("WIND {label}", "F{level}"),
    HazardKind.WIND_CHILL: ("WIND CHILL {label}", "{chill}"),
    HazardKind.FREEZING_TEMP: ("FREEZING", "FREEZE"),
    HazardKind.WINTER_PRECIP: ("WINTER PRECIP", "WINTER"),
}


@lru_cache(maxsize=128)
def _icon_words(kind: HazardKind, level: int) -> tuple[str, str]:
    """The plain-text word and the short label of ``kind`` at ``level``."""
    plain, short = _ICON_WORDS[kind]
    short = short.format(level=level, chill=_CHILL_SHORT.get(level, f"L{level}"))
    return plain.format(label=short.replace(" ", "")), short


#: Lowest Beaufort force that shows a wind icon. Every force has an icon, but
#: forces below 6 (strong breeze) are not hazards.
WIND_DISPLAY_FLOOR = 6


def _icon(table: ScaleTable, band: ScaleBand) -> HazardIcon:
    return HazardIcon(
        kind=table.kind,
        level=band.level,
        color=band.color,
        scale_name=table.scale_name,
        glyph_id=GLYPH_IDS[table.kind],
        label=band.label,
    )


def period_wind_chill(period: ForecastPeriod) -> float:
    """Worst (lowest) wind chill for a period.

    Uses the forecaster's stated wind-chill range when present; otherwise
    computes from the period's coldest temperature and highest sustained
    wind. Forecast content is never second-guessed when stated.
    """
    if period.wind_chill is not None:
        return period.wind_chill.low
    return wind_chill(period.temperature.low, period.wind.sustained.high)


def _bands(period: ForecastPeriod, scales) -> tuple[HazardIcon, ...]:
    """The unbadged icon of the period's band on each of ``scales``."""
    wind, chill, freezing, winter = scales
    winter_kinds = {ev.kind for ev in period.precip_events if ev.kind in WINTER_PRECIP_KINDS}
    return (
        wind._band_icons[wind._position(period.wind.sustained.high)],
        chill._band_icons[chill._position(_chill_degrees(period_wind_chill(period)))],
        freezing._band_icons[freezing._position(period.temperature.low)],
        winter._band_icons[winter._position(len(winter_kinds))],
    )


def _icons(bands, gust: float | None, wind_table: ScaleTable) -> tuple[HazardIcon, ...]:
    """The shown icons of one band icon per kind: wind at or above the display
    floor, badged with ``gust`` when that reaches a higher force; other kinds
    at level >= 1. Only a badged icon is a new object."""
    wind, *others = bands
    icons = [icon for icon in others if icon.level >= 1]
    if wind.level >= WIND_DISPLAY_FLOOR:
        if gust is not None and wind_table.level_for(gust) > wind.level:
            wind = replace(wind, gust_annotation=gust)
        icons.insert(0, wind)
    return tuple(icons)


_LEVEL = attrgetter("level")


def derive_icon_rows(
    doc: ForecastDocument,
    tables=None,
) -> tuple[tuple[HazardIcon, ...], tuple[tuple[HazardIcon, ...], ...]]:
    """Both icon rows of a document, ``(overall, per_period)``, each in fixed
    kind order, from one band lookup per period.

    A period's row takes only its own fields and the scale tables: a wind
    icon at or above Beaufort force :data:`WIND_DISPLAY_FLOOR`, a wind-chill
    icon for any frostbite-time category, a freezing icon for a low strictly
    below 32 F, and a winter-precipitation icon for any snow, sleet or
    freezing-rain event; at most one icon per kind. The overall row, the
    48-hour worst case, carries per kind the highest level any single period
    reaches, under the same rules, with the wind icon badged by the highest
    stated gust when that gust reaches a higher force.
    """
    periods = require_valid(doc).periods
    tables = tables or load_tables()
    scales = [tables[kind] for kind in KIND_ORDER]
    wind = scales[0]
    rows = [_bands(p, scales) for p in periods]
    gust = max((p.wind.gust_high for p in periods if p.wind.gust_high is not None),
               default=None)
    return (_icons([max(column, key=_LEVEL) for column in zip(*rows)], gust, wind),
            tuple(_icons(bands, p.wind.gust_high, wind) for bands, p in zip(rows, periods)))


def derive_document_icons(
    doc: ForecastDocument,
    mode: str = "overall",
    tables=None,
) -> tuple[tuple[HazardIcon, ...], ...]:
    """One of the two rows of :func:`derive_icon_rows`: ``overall`` yields
    ``(overall,)``, ``per_period`` the row of each period, in order."""
    overall, per_period = derive_icon_rows(doc, tables)
    if mode == "overall":
        return (overall,)
    if mode == "per_period":
        return per_period
    raise ValueError(f"mode must be 'overall' or 'per_period', got {mode!r}")


class TriadVerdict(Enum):
    GO = "go"
    CAUTION = "caution"
    NO_GO = "no_go"


@dataclass(frozen=True)
class TriadThresholds:
    """Danger cutoffs for the wind/visibility/temperature advisory.

    No defaults ship anywhere: the advisory encodes one workshop
    participant's rule of thumb, and the cutoffs are an explicit judgment
    call the caller must own.
    """

    wind_high_mph: float
    temperature_low_f: float


@dataclass(frozen=True)
class TriadAdvisory:
    """The triad factors at a dangerous level, and the verdict they give."""

    factors_dangerous: frozenset[str]
    verdict: TriadVerdict


# The parser's hazard words without ``flood``, matched on the folded note as
# the parser matches them: ``fog`` as a word prefix, the others whole.
_VISIBILITY_NOTE_RE = re.compile(r"\b(?:fog|visibility\b|whiteout\b)")


def triad_advisory(period: ForecastPeriod, thresholds: TriadThresholds) -> TriadAdvisory:
    """Go / caution / no-go verdict from the wind-visibility-temperature triad.

    One factor at a dangerous level means caution; two or more mean no-go.
    Visibility counts as dangerous when a hazard note holds a word starting
    ``fog`` or the word ``visibility`` or ``whiteout``, its ASCII letters in
    any case.
    """
    if thresholds is None:
        raise ValueError("triad thresholds must be supplied explicitly")
    dangerous = set()
    if period.wind.sustained.high >= thresholds.wind_high_mph:
        dangerous.add("wind")
    if period.temperature.low <= thresholds.temperature_low_f:
        dangerous.add("temperature")
    if any(_VISIBILITY_NOTE_RE.search(_fold(note)) for note in period.extra_hazard_notes):
        dangerous.add("visibility")
    verdict = (
        TriadVerdict.GO if not dangerous
        else TriadVerdict.CAUTION if len(dangerous) == 1
        else TriadVerdict.NO_GO
    )
    return TriadAdvisory(factors_dangerous=frozenset(dangerous), verdict=verdict)
