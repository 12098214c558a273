import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import documents, periods
from helpers import make_doc, make_period
from summitwx import hazards
from summitwx.hazards import (
    KIND_ORDER,
    WIND_DISPLAY_FLOOR,
    HazardKind,
    ScaleTableError,
    TriadThresholds,
    TriadVerdict,
    beaufort_force,
    derive_document_icons,
    derive_icons,
    load_scale_table,
    load_tables,
    period_wind_chill,
    triad_advisory,
    wind_chill,
    wind_chill_category,
)
from summitwx.model import (
    Certainty,
    PrecipEvent,
    PrecipKind,
    ValueRange,
    WindPrediction,
    with_periods,
)

SCALES = Path(__file__).parent.parent / "src" / "summitwx" / "scales"
BEAUFORT_EDGES = (1, 4, 8, 13, 19, 25, 32, 39, 47, 55, 64, 73)


def _kind_levels(icons):
    return {icon.kind: icon.level for icon in icons}


def test_beaufort_boundaries_exact_and_adjacent():
    for force, edge in enumerate(BEAUFORT_EDGES):
        assert beaufort_force(edge) == force + 1
        assert beaufort_force(edge - 0.1) == force
        assert beaufort_force(edge + 0.1) == force + 1
    assert beaufort_force(0) == 0
    assert beaufort_force(0.9) == 0
    assert beaufort_force(73) == 12
    assert beaufort_force(199) == 12
    assert beaufort_force(200) == 12


def test_beaufort_clamps_above_domain_and_rejects_negatives():
    assert beaufort_force(250) == 12
    with pytest.raises(ValueError, match=">= 0"):
        beaufort_force(-3)


def test_scalar_helpers_reject_nan_and_take_the_end_band_at_infinity():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="wind speed must be >= 0, got nan"):
        beaufort_force(nan)
    with pytest.raises(ValueError, match="wind chill must be a number, got nan"):
        wind_chill_category(nan)
    assert beaufort_force(inf) == 12
    assert wind_chill_category(inf) == 0
    assert wind_chill_category(-inf) == 3


def test_load_tables_is_complete_and_cached():
    tables = load_tables()
    assert set(tables) == set(HazardKind)
    assert tables is load_tables()
    with pytest.raises(TypeError):
        tables[HazardKind.WIND] = None


def test_icon_fields_come_from_the_table():
    icons = derive_icons(make_period(wind=(30, 60), temp=(40, 50)))
    assert [i.kind for i in icons] == [HazardKind.WIND]
    icon = icons[0]
    assert icon.level == 10
    assert icon.scale_name == "Beaufort"
    assert icon.color.startswith("#") and len(icon.color) == 7
    assert icon.label == "Storm"
    assert icon.glyph_id


def test_icons_follow_kind_order_and_at_most_one_per_kind():
    period = make_period(
        temp=(-10, 0),
        wind=(50, 80),
        gust=100,
        chill=(-70, -40),
        precip=(
            PrecipEvent(PrecipKind.SNOW, Certainty.LIKELY),
            PrecipEvent(PrecipKind.SLEET, Certainty.MENTIONED),
        ),
    )
    icons = derive_icons(period)
    kinds = [i.kind for i in icons]
    assert kinds == [k for k in KIND_ORDER if k in kinds]
    assert len(kinds) == len(set(kinds)) == 4


def test_freezing_icon_iff_low_below_32():
    assert HazardKind.FREEZING_TEMP in _kind_levels(derive_icons(make_period(temp=(31.9, 40))))
    assert HazardKind.FREEZING_TEMP not in _kind_levels(derive_icons(make_period(temp=(32, 40))))


def test_wind_icon_iff_force_at_display_floor():
    assert HazardKind.WIND not in _kind_levels(derive_icons(make_period(wind=(10, 24.9), temp=(40, 50))))
    levels = _kind_levels(derive_icons(make_period(wind=(10, 25), temp=(40, 50))))
    assert levels.get(HazardKind.WIND) == 6


def test_stated_chill_wins_over_computed():
    period = make_period(temp=(-20, -10), wind=(60, 80), chill=(-30, -20))
    assert period_wind_chill(period) == -30
    levels = _kind_levels(derive_icons(period))
    assert levels[HazardKind.WIND_CHILL] == 1


def test_computed_chill_used_when_not_stated():
    period = make_period(temp=(-20, -10), wind=(60, 80))
    assert period_wind_chill(period) == wind_chill(-20, 80)
    levels = _kind_levels(derive_icons(period))
    assert levels[HazardKind.WIND_CHILL] == 3


def test_no_chill_icon_when_category_zero():
    levels = _kind_levels(derive_icons(make_period(temp=(30, 40), wind=(5, 10))))
    assert HazardKind.WIND_CHILL not in levels


def test_winter_precip_iff_winter_kind():
    rain_only = make_period(precip=(PrecipEvent(PrecipKind.RAIN, Certainty.LIKELY),), temp=(40, 50))
    assert HazardKind.WINTER_PRECIP not in _kind_levels(derive_icons(rain_only))
    mixed_token = make_period(precip=(PrecipEvent(PrecipKind.MIXED, Certainty.CHANCE),), temp=(40, 50))
    assert HazardKind.WINTER_PRECIP not in _kind_levels(derive_icons(mixed_token))
    for kind in (PrecipKind.SNOW, PrecipKind.SLEET, PrecipKind.FREEZING_RAIN):
        period = make_period(precip=(PrecipEvent(kind, Certainty.MENTIONED),), temp=(40, 50))
        assert _kind_levels(derive_icons(period)).get(HazardKind.WINTER_PRECIP) == 1


def test_gust_annotation_only_when_gust_classifies_higher():
    no_cross = derive_icons(make_period(wind=(30, 40), gust=46, temp=(40, 50)))
    assert no_cross[0].gust_annotation is None
    cross = derive_icons(make_period(wind=(30, 40), gust=47, temp=(40, 50)))
    assert cross[0].gust_annotation == 47
    top_band = derive_icons(make_period(wind=(80, 90), gust=150, temp=(40, 50)))
    assert top_band[0].level == 12
    assert top_band[0].gust_annotation is None


@given(periods())
def test_icon_rules_hold_on_generated_periods(period):
    icons = derive_icons(period)
    levels = _kind_levels(icons)
    assert len(icons) == len(levels)
    assert (HazardKind.FREEZING_TEMP in levels) == (period.temperature.low < 32)
    winter = {ev.kind for ev in period.precip_events} & {
        PrecipKind.SNOW,
        PrecipKind.SLEET,
        PrecipKind.FREEZING_RAIN,
    }
    assert (HazardKind.WINTER_PRECIP in levels) == bool(winter)
    assert (HazardKind.WIND in levels) == (
        beaufort_force(period.wind.sustained.high) >= WIND_DISPLAY_FLOOR
    )
    for icon in icons:
        assert icon.level >= 1 or icon.kind is HazardKind.WIND


@given(periods(), st.floats(0.1, 60), st.floats(0.1, 60))
def test_icon_levels_monotone_under_worse_conditions(period, colder, windier):
    def level_map(p):
        return {k: _kind_levels(derive_icons(p)).get(k, 0) for k in HazardKind}

    before = level_map(period)

    colder_period = replace(
        period,
        temperature=ValueRange(
            period.temperature.low - colder, period.temperature.high - colder, "F"
        ),
        wind_chill=None
        if period.wind_chill is None
        else ValueRange(period.wind_chill.low - colder, period.wind_chill.high - colder, "F"),
    )
    after_cold = level_map(colder_period)
    for kind in HazardKind:
        assert after_cold[kind] >= before[kind]

    wind = period.wind
    windier_period = replace(
        period,
        wind=WindPrediction(
            sustained=ValueRange(wind.sustained.low, wind.sustained.high + windier, "mph"),
            direction=wind.direction,
            gust_high=None if wind.gust_high is None else wind.gust_high + windier,
        ),
    )
    after_wind = level_map(windier_period)
    for kind in HazardKind:
        assert after_wind[kind] >= before[kind]


def test_overall_wind_chill_pairs_each_period_with_its_own_wind():
    # Coldest air and strongest wind sit in different periods; the overall
    # row must not pair them into a chill no single period predicts.
    doc = make_doc(
        (
            make_period("Today", temp=(-10, 0), wind=(5, 10)),
            make_period("Tonight", temp=(20, 30), wind=(50, 60)),
            make_period("Tomorrow", temp=(15, 25), wind=(10, 20)),
            make_period("Tomorrow night", temp=(10, 20), wind=(10, 15)),
        )
    )
    (overall,) = derive_document_icons(doc, "overall")
    assert _kind_levels(overall)[HazardKind.WIND_CHILL] == 1
    # Cross-pairing the coldest air with the strongest wind would give 2.
    assert wind_chill_category(wind_chill(-10, 60)) == 2


def test_overall_mixed_stated_and_computed_chill():
    # A stated chill in one period must not mask a colder computed chill in
    # another: the overall icon reflects the worst per-period effective chill.
    doc = make_doc(
        (
            make_period("Today", temp=(0, 10), wind=(70, 90), chill=(-50, -35)),
            make_period("Tonight", temp=(-15, -10), wind=(85, 105)),
            make_period("Tomorrow", temp=(-5, 5), wind=(60, 80)),
            make_period("Tomorrow night", temp=(0, 10), wind=(45, 65)),
        )
    )
    (overall,) = derive_document_icons(doc, "overall")
    per_period = derive_document_icons(doc, "per_period")
    chill_levels = [
        _kind_levels(icons).get(HazardKind.WIND_CHILL, 0) for icons in per_period
    ]
    assert chill_levels == [2, 3, 2, 1]
    assert _kind_levels(overall)[HazardKind.WIND_CHILL] == 3


@given(documents())
def test_overall_level_equals_max_of_per_period_levels(doc):
    (overall,) = derive_document_icons(doc, "overall")
    per_period = derive_document_icons(doc, "per_period")
    overall_levels = {k: _kind_levels(overall).get(k, 0) for k in HazardKind}
    for kind in HazardKind:
        expected = max(_kind_levels(icons).get(kind, 0) for icons in per_period)
        assert overall_levels[kind] == expected, kind
    assert list(per_period) == [derive_icons(p) for p in doc.periods]

    # The wind icon shows exactly when the windiest period reaches the floor,
    # and its badge is the highest stated gust, exactly when its force is higher.
    beaufort = load_tables()[HazardKind.WIND]
    force = max(beaufort.level_for(p.wind.sustained.high) for p in doc.periods)
    wind = [icon for icon in overall if icon.kind is HazardKind.WIND]
    assert len(wind) == (force >= WIND_DISPLAY_FLOOR)
    gusts = [p.wind.gust_high for p in doc.periods if p.wind.gust_high is not None]
    badged = bool(gusts) and beaufort.level_for(max(gusts)) > force
    for icon in wind:
        assert icon.gust_annotation == (max(gusts) if badged else None)


def test_document_icons_rejects_unknown_mode():
    with pytest.raises(ValueError, match="per_period"):
        derive_document_icons(make_doc(), "weekly")


def test_triad_advisory_counts_dangerous_factors():
    thresholds = TriadThresholds(wind_high_mph=50, temperature_low_f=10)
    calm = make_period(wind=(10, 20), temp=(40, 50))
    assert triad_advisory(calm, thresholds).verdict is TriadVerdict.GO
    windy = make_period(wind=(30, 50), temp=(40, 50))
    one = triad_advisory(windy, thresholds)
    assert one.verdict is TriadVerdict.CAUTION
    assert one.factors_dangerous == frozenset({"wind"})
    windy_cold = make_period(wind=(30, 55), temp=(5, 20))
    two = triad_advisory(windy_cold, thresholds)
    assert two.verdict is TriadVerdict.NO_GO
    assert two.factors_dangerous == frozenset({"wind", "temperature"})
    foggy = make_period(wind=(5, 10), temp=(40, 50), notes=("Dense fog on the ridge.",))
    assert triad_advisory(foggy, thresholds).factors_dangerous == frozenset({"visibility"})
    whiteout = make_period(
        wind=(30, 55), temp=(5, 20), notes=("Whiteout conditions at times.",)
    )
    assert triad_advisory(whiteout, thresholds).factors_dangerous == frozenset(
        {"wind", "temperature", "visibility"}
    )


def test_triad_advisory_needs_explicit_thresholds():
    with pytest.raises(ValueError, match="triad thresholds must be supplied explicitly"):
        triad_advisory(make_period(), None)


def _tamper(tmp_path: Path, name: str, transform) -> Path:
    target = tmp_path / "scales"
    shutil.copytree(SCALES, target)
    path = target / name
    path.write_text(transform(path.read_text(encoding="utf-8")), encoding="utf-8")
    return target


@pytest.mark.parametrize(
    "transform, message",
    [
        (lambda s: s.replace("schema: hazard-scale/1", "schema: hazard-scale/2"), "schema"),
        (lambda s: s.replace("band: 2 | -60 | -36", "band: 2 | -58 | -36"), "gap or overlap"),
        (lambda s: s.replace("band: 2 | -60 | -36", "band: 2 | -62 | -36"), "gap or overlap"),
        (lambda s: s.replace("band: 3 | -120 | -60", "band: 3 | -118 | -60"), "domain"),
        (lambda s: s.replace("band: 2 |", "band: 5 |"), "monotone"),
        (lambda s: s.replace("band: 1 |", "band: 0 |"), "duplicate levels"),
        (lambda s: s.replace("#6FA8DC", "blue"), "color"),
        (lambda s: s.replace("closed_edge: high", "closed_edge: middle"), "closed_edge"),
        (lambda s: s.replace("unit: F\n", ""), "missing"),
        (lambda s: s + "extra: nonsense\n", "unknown"),
        (
            lambda s: s.replace(
                "band: 2 | -60 | -36 | #6FA8DC | Frostbite in 10 minutes\n", ""
            ),
            "gap or overlap",
        ),
        (lambda s: s.replace("kind: wind_chill", "kind: wind"), "declares kind"),
        # Every number follows the canonical grammar and names its line.
        (lambda s: s.replace("band: 2 | -60 | -36", "band: 2 | -60 | -3_6"),
         r"wind_chill\.table:\d+: high is not a number: '-3_6'"),
        (lambda s: s.replace("band: 1 |", "band: ١ |"),
         r"wind_chill\.table:\d+: level is not a number"),
        (lambda s: s.replace("band: 3 |", "band: +3 |"),
         r"wind_chill\.table:\d+: level is not a number: '\+3'"),
        (lambda s: s.replace("band: 2 |", "band: 2.5 |"),
         r"wind_chill\.table:\d+: level is not a whole number: '2.5'"),
        (lambda s: s.replace("domain: -120 | 50", "domain: -120 | abc"),
         r"wind_chill\.table:\d+: domain is not a number: 'abc'"),
        # A key's error names the line the key sits on.
        (lambda s: s.replace("schema: hazard-scale/1", "schema: hazard-scale/2"),
         r"wind_chill\.table:2: unsupported schema 'hazard-scale/2'"),
        (lambda s: s.replace("kind: wind_chill", "kind: hail"),
         r"wind_chill\.table:3: unknown hazard kind 'hail'"),
        (lambda s: s.replace("closed_edge: high", "closed_edge: middle"),
         r"wind_chill\.table:7: closed_edge must be 'low' or 'high'"),
        (lambda s: s.replace("unit: F\n", "unit: F\nunit: C\n"),
         r"wind_chill\.table:6: duplicate key 'unit'"),
        # Errors of the whole file name no line.
        (lambda s: s.replace("unit: F\n", ""), r"wind_chill\.table: missing keys: unit"),
        (lambda s: "\n".join(line for line in s.splitlines()
                             if not line.startswith("provenance")) + "\n",
         r"wind_chill\.table: provenance note is mandatory"),
        (lambda s: s.replace("band: 3 | -120 | -60", "band: 3 | -118 | -60"),
         r"wind_chill\.table: bands do not cover the declared domain"),
        # Malformed lines name their line too.
        (lambda s: s.replace("unit: F\n", "unit F\n"),
         r"wind_chill\.table:5: expected 'key: value', got 'unit F'"),
        (lambda s: s.replace("band: 2 | -60 | -36 | #6FA8DC | Frostbite in 10 minutes",
                             "band: 2 | -60 | -36 | #6FA8DC"),
         r"wind_chill\.table:20: band needs 5 fields, got 4"),
        (lambda s: s.replace("domain: -120 | 50", "domain: 5"),
         r"wind_chill\.table:6: domain needs 'low \| high'"),
        # Integrity errors of the table as a whole.
        (lambda s: "\n".join(line for line in s.splitlines()
                             if not line.startswith("band:")) + "\n",
         r"wind_chill\.table: no bands$"),
        (lambda s: s.replace("domain: -120 | 50", "domain: 5 | 5"),
         r"wind_chill\.table: empty domain$"),
        (lambda s: s.replace("band: 1 | -36 | -16", "band: 1 | -16 | -36"),
         r"wind_chill\.table: level 1 band is empty or inverted$"),
        # A line ends at "\n" only: a comment with a form feed (or any other
        # character str.splitlines() breaks at) is one line, line 8.
        *[(lambda s, c=c: s.replace("closed_edge: high\n", f"closed_edge: high\n# a{c}b\n")
           .replace("| #6FA8DC | Frostbite in 10 minutes", "| #6FA8DC"),
           r"wind_chill\.table:21: band needs 5 fields, got 4$")
          for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"],
    ],
)
def test_tampered_table_fails_integrity(tmp_path, transform, message):
    directory = _tamper(tmp_path, "wind_chill.table", transform)
    with pytest.raises(ScaleTableError, match=message):
        load_tables(directory)


def _levels_by_kind(icons):
    return [_kind_levels(icons).get(kind, 0) for kind in KIND_ORDER]


def _row_levels(doc, tables):
    """Per-period and overall icon levels, one list in kind order each."""
    (overall,) = derive_document_icons(doc, "overall", tables=tables)
    per_period = derive_document_icons(doc, "per_period", tables=tables)
    return [_levels_by_kind(icons) for icons in per_period], _levels_by_kind(overall)


def test_overall_row_is_max_of_periods_under_an_inverted_freezing_table(tmp_path):
    # Valid but inverted: the icon fires at or above 32 F. The coldest low
    # is then not the period with the highest level.
    directory = _tamper(
        tmp_path,
        "freezing.table",
        lambda s: s.replace("band: 1 | -150 | 32", "band: 0 | -150 | 32")
        .replace("band: 0 | 32 | 150", "band: 1 | 32 | 150"),
    )
    tables = load_tables(directory)
    doc = make_doc(
        tuple(make_period(label, temp=(low, low + 10))
              for label, low in zip(("Today", "Tonight", "Tomorrow", "Tomorrow night"),
                                    (20, 40, 20, 20)))
    )
    per_period, overall = _row_levels(doc, tables)
    assert overall == [max(column) for column in zip(*per_period)]
    freezing = KIND_ORDER.index(HazardKind.FREEZING_TEMP)
    assert [levels[freezing] for levels in per_period] == [0, 1, 0, 0]
    assert overall[freezing] == 1


def test_overall_row_is_max_of_periods_under_a_three_band_winter_table(tmp_path):
    # Snow in one period and sleet in another is one winter kind per
    # period, so no period reaches level 2.
    directory = _tamper(
        tmp_path,
        "winter_precip.table",
        lambda s: s.replace(
            "band: 1 | 1 | 5 | #7B68EE | Winter precipitation",
            "band: 1 | 1 | 2 | #7B68EE | Winter precipitation\n"
            "band: 2 | 2 | 5 | #4B0082 | Mixed winter precipitation",
        ),
    )
    tables = load_tables(directory)
    doc = make_doc(
        (
            make_period("Today", precip=(PrecipEvent(PrecipKind.SNOW, Certainty.LIKELY),)),
            make_period("Tonight", precip=(PrecipEvent(PrecipKind.SLEET, Certainty.CHANCE),)),
            make_period("Tomorrow"),
            make_period("Tomorrow night"),
        )
    )
    per_period, overall = _row_levels(doc, tables)
    assert overall == [max(column) for column in zip(*per_period)]
    winter = KIND_ORDER.index(HazardKind.WINTER_PRECIP)
    assert [levels[winter] for levels in per_period] == [1, 1, 0, 0]
    assert overall[winter] == 1


def test_table_diagnostics_name_the_file_they_came_from(tmp_path):
    directory = _tamper(
        tmp_path, "wind_chill.table", lambda s: s.replace("kind: wind_chill", "kind: wind")
    )
    with pytest.raises(ScaleTableError) as err:
        load_tables(directory)
    assert str(err.value) == f"{directory / 'wind_chill.table'}: declares kind 'wind'"


def test_packaged_tables_get_the_kind_check(monkeypatch):
    swapped = {**hazards._TABLE_FILES, HazardKind.WIND_CHILL: "beaufort.table"}
    monkeypatch.setattr(hazards, "_TABLE_FILES", swapped)
    with pytest.raises(ScaleTableError) as err:
        hazards._packaged_tables.__wrapped__()
    assert str(err.value) == "summitwx/scales/beaufort.table: declares kind 'wind'"


def test_band_lookup_respects_closed_edge(tmp_path):
    tables = load_tables()
    chill = tables[HazardKind.WIND_CHILL]
    assert chill.level_for(-16) == 1
    assert chill.level_for(-15.99) == 0
    beaufort = tables[HazardKind.WIND]
    assert beaufort.level_for(13) == 4
    assert beaufort.level_for(12.99) == 3


def test_load_scale_table_single_file():
    table = load_scale_table(SCALES / "freezing.table")
    assert table.kind is HazardKind.FREEZING_TEMP
    assert table.level_for(31.9) == 1
    assert table.level_for(32) == 0


def test_icons_require_valid_period():
    # An invalid period cannot be built, so no icon can come from one.
    from summitwx.model import InvalidDocument

    with pytest.raises(InvalidDocument, match="period.temperature"):
        make_period(temp=(50, 40))


def test_overall_wind_chill_on_fully_stated_docs_takes_the_coldest_stated_chill():
    doc = make_doc(
        (
            make_period("Today", chill=(-20, -10)),
            make_period("Tonight", chill=(-44, -30)),
            make_period("Tomorrow", chill=(-12, -2)),
            make_period("Tomorrow night", chill=(-5, 0)),
        )
    )
    (overall,) = derive_document_icons(doc, "overall")
    assert _kind_levels(overall)[HazardKind.WIND_CHILL] == 2
