"""Study pipeline against independent oracles.

Every inferential number is checked two ways: once against a hand-worked
example computed from the defining sums of squares, and once against scipy
on randomized inputs. The loader tests exercise the documented failure
contract line by line.
"""

import csv
import hashlib
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_stats = pytest.importorskip("scipy.stats")

from summitwx import stats
from summitwx.distributions import t_ppf
from summitwx.layout import LayoutCondition, condition_from_token
from summitwx.model import _fmt_num
from summitwx.stats import (
    ACTIVITIES,
    RATING_MAX,
    RATING_MIN,
    AnovaResult,
    Participant,
    StudyDataError,
    build_report,
    emit_plot_spec,
    emit_report,
    format_report,
    grips_regression,
    load_study,
    one_way_anova,
    pairwise_t_tests,
    percentage,
    t_ci95,
    _csv_rows,
    _RATINGS_RE,
    _read_field,
    _RESPONSE_COLUMNS,
)

TOL = 1e-9


def record(
    pid: str = "p1",
    condition: LayoutCondition = LayoutCondition.BASELINE,
    mean_risk: float = 210.0,
    grips: float = 3.0,
    per_day: bool = True,
    summary_only: bool = False,
) -> Participant:
    return Participant(
        participant_id=pid,
        condition=condition,
        grips_score=grips,
        mentioned_per_day_info=per_day,
        mentioned_summary_only_info=summary_only,
        mean_risk=mean_risk,
    )


def random_groups(seed: int, k: int, max_n: int = 30) -> list[list[float]]:
    rng = random.Random(seed)
    return [
        [rng.uniform(0.0, 600.0) for _ in range(rng.randint(3, max_n))]
        for _ in range(k)
    ]


# ---------------------------------------------------------------- aggregation


def load_one_participant(tmp_path, *rows):
    """Load a one-participant study whose response rows hold ``rows``."""
    responses = [f"p1,f{k},{','.join(map(str, r))}" for k, r in enumerate(rows, start=1)]
    return load_study(*write_study(tmp_path, participants=GOOD_PARTICIPANTS[:1],
                                   responses=responses))


def test_aggregate_risk_sums_all_activity_ratings(tmp_path):
    (p1,) = load_one_participant(tmp_path, (0, 12.5, 100, 37.5, 50, 0))
    assert p1.mean_risk == 200.0


def test_aggregate_risk_bounds(tmp_path):
    (low,) = load_one_participant(tmp_path, (0,) * 6, (0,) * 6)
    assert low.mean_risk == 0.0
    (high,) = load_one_participant(tmp_path, (100,) * 6, (100,) * 6)
    assert high.mean_risk == 600.0


def test_participant_mean_risk_averages_over_forecasts(tmp_path):
    rows = [(10.1, 20.2, 30.3, 40.4, 50.5, 60.6),
            (0.7, 99.9, 33.3, 66.6, 12.3, 45.6),
            (1.1, 2.2, 3.3, 4.4, 5.5, 6.6)]
    (p1,) = load_one_participant(tmp_path, *rows)
    # Bit for bit: each row's builtin sum, then their builtin sum over 3.
    assert p1.mean_risk == sum(sum(r) for r in rows) / 3
    assert p1.mean_risk == pytest.approx((212.1 + 258.4 + 23.1) / 3, abs=1e-9)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"mean_risk": math.nan}, "participant 'p1': mean_risk nan outside [0, 600]"),
        ({"mean_risk": 600.5}, "participant 'p1': mean_risk 600.5 outside [0, 600]"),
        ({"mean_risk": -1.0}, "participant 'p1': mean_risk -1 outside [0, 600]"),
        ({"grips": math.inf}, "participant 'p1': grips_score inf is not finite"),
    ],
    ids=["nan-risk", "risk-above-600", "negative-risk", "infinite-grips"],
)
def test_participant_rejects_impossible_values(fields, message):
    with pytest.raises(StudyDataError) as err:
        record(**fields)
    assert str(err.value) == message


# ---------------------------------------------------------------------- ANOVA


def test_anova_hand_worked_example():
    # Groups {1,2,3}, {2,3,4}, {3,4,5}: grand mean 3, SS_between = 6,
    # SS_within = 6, df = (2, 6), so F = (6/2)/(6/6) = 3 exactly, and for
    # df1 = 2 the tail has the closed form (1 + F/3)^-3 = 1/8.
    result = one_way_anova([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
    assert result.df_between == 2
    assert result.df_within == 6
    assert result.f_statistic == pytest.approx(3.0, abs=TOL)
    assert result.p_value == pytest.approx(0.125, abs=TOL)


def anova_oracle(groups: list[list[float]]) -> AnovaResult:
    """ANOVA recomputed from the textbook definitions, tails from scipy."""
    everything = [v for g in groups for v in g]
    grand = sum(everything) / len(everything)
    means = [sum(g) / len(g) for g in groups]
    ssb = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ssw = sum((v - m) ** 2 for g, m in zip(groups, means) for v in g)
    dfb = len(groups) - 1
    dfw = len(everything) - len(groups)
    f = (ssb / dfb) / (ssw / dfw)
    return AnovaResult(f, dfb, dfw, float(scipy_stats.f.sf(f, dfb, dfw)))


@pytest.mark.parametrize("seed", range(12))
def test_anova_matches_brute_force_and_scipy(seed):
    groups = random_groups(seed, k=3 + seed % 3)
    ours = one_way_anova(groups)
    ref = anova_oracle(groups)
    assert ours.df_between == ref.df_between
    assert ours.df_within == ref.df_within
    assert ours.f_statistic == pytest.approx(ref.f_statistic, rel=TOL, abs=TOL)
    assert ours.p_value == pytest.approx(ref.p_value, abs=TOL)
    scipy_ref = scipy_stats.f_oneway(*groups)
    assert ours.f_statistic == pytest.approx(float(scipy_ref.statistic), rel=TOL)
    assert ours.p_value == pytest.approx(float(scipy_ref.pvalue), abs=TOL)


def test_anova_zero_between_variance_is_f_zero():
    # Same mean in every group, but spread within them.
    result = one_way_anova([[1.0, 3.0], [0.0, 4.0], [2.0, 2.0]])
    assert result.f_statistic == 0.0
    assert result.p_value == 1.0


def test_anova_zero_within_variance_is_f_infinity():
    result = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    assert math.isinf(result.f_statistic)
    assert result.p_value == 0.0


def test_anova_rejects_degenerate_shapes():
    with pytest.raises(StudyDataError, match="at least 2 groups"):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(StudyDataError, match="at least 2 values"):
        one_way_anova([[1.0, 2.0], [3.0]])


# ------------------------------------------------------------------- pairwise


@pytest.mark.parametrize("seed", range(8))
def test_pairwise_matches_scipy_ttest_ind(seed):
    groups = random_groups(seed + 100, k=4)
    named = [(f"g{i}", g) for i, g in enumerate(groups)]
    results = pairwise_t_tests(named)
    assert len(results) == 6  # C(4, 2)
    by_pair = {(r.group_a, r.group_b): r for r in results}
    for i in range(4):
        for j in range(i + 1, 4):
            ours = by_pair[(f"g{i}", f"g{j}")]
            ref = scipy_stats.ttest_ind(groups[i], groups[j], equal_var=True)
            assert ours.df == len(groups[i]) + len(groups[j]) - 2
            assert ours.t_statistic == pytest.approx(float(ref.statistic), rel=TOL, abs=TOL)
            assert ours.p_raw == pytest.approx(float(ref.pvalue), abs=TOL)
            assert ours.p_adjusted == min(1.0, ours.p_raw * 6)


@pytest.mark.parametrize("seed", range(4))
def test_statistics_equal_the_defining_sums_to_the_last_bit(seed):
    # The full-precision report prints these floats, so the per-group sums
    # must keep the defining expressions' order of operations exactly.
    groups = random_groups(seed + 300, k=4, max_n=200)

    def mean(g):
        return sum(g) / len(g)

    grand = mean([v for g in groups for v in g])
    ss_between = sum(len(g) * (mean(g) - grand) ** 2 for g in groups)
    ss_within = sum((v - mean(g)) ** 2 for g in groups for v in g)
    df_within = sum(len(g) for g in groups) - len(groups)
    assert one_way_anova(groups).f_statistic == (ss_between / 3) / (ss_within / df_within)

    a, b = groups[:2]
    df = len(a) + len(b) - 2
    pooled = (sum((v - mean(a)) ** 2 for v in a) + sum((v - mean(b)) ** 2 for v in b)) / df
    t = (mean(a) - mean(b)) / math.sqrt(pooled * (1.0 / len(a) + 1.0 / len(b)))
    (pair,) = pairwise_t_tests([("a", a), ("b", b)])
    assert pair.t_statistic == t


@pytest.mark.parametrize("seed", range(6))
def test_f_equals_t_squared_for_two_groups(seed):
    a, b = random_groups(seed + 200, k=2)
    anova = one_way_anova([a, b])
    (pair,) = pairwise_t_tests([("a", a), ("b", b)])
    assert anova.f_statistic == pytest.approx(pair.t_statistic**2, rel=TOL, abs=TOL)
    assert anova.p_value == pytest.approx(pair.p_raw, abs=TOL)


def test_bonferroni_cap_and_override():
    rng = random.Random(42)
    # Overlapping samples give large raw p; the adjusted value must never
    # leave [0, 1] regardless of the multiplier.
    base = [rng.gauss(50.0, 5.0) for _ in range(12)]
    groups = [(f"g{i}", [v + rng.gauss(0.0, 0.5) for v in base]) for i in range(4)]
    for result in pairwise_t_tests(groups):
        assert result.p_adjusted == min(1.0, result.p_raw * 6)
        assert 0.0 <= result.p_adjusted <= 1.0
    for result in pairwise_t_tests(groups, correction_count=50):
        assert result.p_adjusted == min(1.0, result.p_raw * 50)
    saw_cap = any(r.p_adjusted == 1.0 for r in pairwise_t_tests(groups, correction_count=50))
    assert saw_cap


def test_pairwise_identical_groups_is_t_zero():
    (pair,) = pairwise_t_tests([("a", [1.0, 2.0, 3.0]), ("b", [3.0, 2.0, 1.0])])
    assert pair.t_statistic == 0.0
    assert pair.p_raw == 1.0
    assert pair.p_adjusted == 1.0


def test_pairwise_zero_pooled_variance_is_signed_infinity():
    (pair,) = pairwise_t_tests([("a", [1.0, 1.0]), ("b", [2.0, 2.0])])
    assert pair.t_statistic == -math.inf
    assert pair.p_raw == 0.0
    (pair,) = pairwise_t_tests([("a", [2.0, 2.0]), ("b", [1.0, 1.0])])
    assert pair.t_statistic == math.inf


def test_pairwise_rejects_degenerate_shapes():
    with pytest.raises(StudyDataError, match="at least 2 groups"):
        pairwise_t_tests([("a", [1.0, 2.0])])
    with pytest.raises(StudyDataError, match="at least 2 values"):
        pairwise_t_tests([("a", [1.0, 2.0]), ("b", [3.0])])
    with pytest.raises(StudyDataError, match="correction count"):
        pairwise_t_tests([("a", [1.0, 2.0]), ("b", [3.0, 4.0])], correction_count=0)


# ----------------------------------------------------------------- interval


def test_t_ci95_hand_worked_example():
    # Mean 2, sd 1, n 3: half-width is t_{0.975, 2} / sqrt(3) with
    # t_{0.975, 2} = 4.302652729911275.
    half = 4.302652729911275 / math.sqrt(3.0)
    low, high = t_ci95([1.0, 2.0, 3.0])
    assert low == pytest.approx(2.0 - half, abs=1e-9)
    assert high == pytest.approx(2.0 + half, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_t_ci95_matches_scipy(seed):
    rng = random.Random(seed + 300)
    values = [rng.uniform(0.0, 600.0) for _ in range(rng.randint(2, 30))]
    n = len(values)
    mean = sum(values) / n
    sem = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) / math.sqrt(n)
    ref_low, ref_high = scipy_stats.t.interval(0.95, df=n - 1, loc=mean, scale=sem)
    low, high = t_ci95(values)
    assert low == pytest.approx(float(ref_low), rel=TOL, abs=TOL)
    assert high == pytest.approx(float(ref_high), rel=TOL, abs=TOL)


def test_t_ci95_constant_sample_collapses_to_a_point():
    assert t_ci95([7.0, 7.0, 7.0]) == (7.0, 7.0)


def test_t_ci95_needs_two_values():
    with pytest.raises(StudyDataError, match="at least 2 values"):
        t_ci95([5.0])


# ---------------------------------------------------------------- regression


@pytest.mark.parametrize("seed", range(10))
def test_regression_matches_scipy_linregress(seed):
    rng = random.Random(seed + 400)
    n = rng.randint(3, 30)
    xs = [rng.uniform(1.0, 5.0) for _ in range(n)]
    ys = [200.0 - 8.0 * x + rng.gauss(0.0, 40.0) for x in xs]
    ours = grips_regression(list(zip(xs, ys)))
    ref = scipy_stats.linregress(xs, ys)
    assert ours.slope == pytest.approx(float(ref.slope), rel=TOL, abs=TOL)
    assert ours.intercept == pytest.approx(float(ref.intercept), rel=TOL, abs=TOL)
    assert ours.r_squared == pytest.approx(float(ref.rvalue) ** 2, rel=TOL, abs=TOL)
    assert ours.p_value == pytest.approx(float(ref.pvalue), abs=TOL)


def test_regression_collinear_points_have_unit_r_squared():
    result = grips_regression([(1.0, 3.0), (2.0, 5.0), (3.0, 7.0), (4.0, 9.0)])
    assert result.slope == pytest.approx(2.0, abs=TOL)
    assert result.intercept == pytest.approx(1.0, abs=TOL)
    assert result.r_squared == 1.0
    assert result.p_value == 0.0


def test_regression_constant_response_is_flat():
    result = grips_regression([(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)])
    assert result.slope == 0.0
    assert result.intercept == 4.0
    assert result.r_squared == 0.0
    assert result.p_value == 1.0


def test_regression_rejects_constant_predictor_and_short_input():
    with pytest.raises(StudyDataError, match="zero variance"):
        grips_regression([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])
    with pytest.raises(StudyDataError, match="at least 3 pairs"):
        grips_regression([(1.0, 1.0), (2.0, 2.0)])


# ---------------------------------------------------------------- percentage


@pytest.mark.parametrize(
    "count, total, expected",
    [
        (124, 128, "96.88"),  # 96.875 rounds half up
        (67, 128, "52.34"),
        (17, 29, "58.62"),
        (1, 3, "33.33"),
        (2, 3, "66.67"),
        (1, 8, "12.50"),
        (1, 800, "0.13"),  # 0.125 rounds half up
        (0, 5, "0.00"),
        (5, 5, "100.00"),
    ],
)
def test_percentage_decimal_rounding(count, total, expected):
    assert percentage(count, total) == expected


def test_percentage_rejects_empty_total():
    with pytest.raises(StudyDataError, match="empty total"):
        percentage(3, 0)


# -------------------------------------------------------------------- loader

PARTICIPANT_HEADER = (
    "participant_id,condition,grips_score,"
    "mentioned_per_day_info,mentioned_summary_only_info"
)
RESPONSE_HEADER = "participant_id,forecast_id," + ",".join(ACTIVITIES)

GOOD_PARTICIPANTS = [
    "p1,baseline,3.5,true,false",
    "p2,icons,2.1,false,true",
]
GOOD_RESPONSES = [
    "p1,f1,10,20,30,40,50,60",
    "p1,f2,15,25,35,45,55,65",
    "p2,f1,5,5,5,5,5,5",
    "p2,f2,90,90,90,90,90,90",
]


def write_study(tmp_path, participants=GOOD_PARTICIPANTS, responses=GOOD_RESPONSES,
                participant_header=PARTICIPANT_HEADER, response_header=RESPONSE_HEADER):
    p_path = tmp_path / "participants.csv"
    r_path = tmp_path / "responses.csv"
    p_path.write_text("\n".join([participant_header, *participants]) + "\n", encoding="utf-8")
    r_path.write_text("\n".join([response_header, *responses]) + "\n", encoding="utf-8")
    return r_path, p_path


def test_load_study_joins_participant_metadata(tmp_path):
    p1, p2 = load_study(*write_study(tmp_path))
    assert p1 == Participant("p1", LayoutCondition.BASELINE, 3.5, True, False,
                             mean_risk=(210.0 + 240.0) / 2)
    assert p2 == Participant("p2", LayoutCondition.ICONS, 2.1, False, True,
                             mean_risk=(30.0 + 540.0) / 2)


def test_load_study_orders_participants_by_first_response(tmp_path):
    responses = [GOOD_RESPONSES[2], GOOD_RESPONSES[0], GOOD_RESPONSES[3], GOOD_RESPONSES[1]]
    loaded = load_study(*write_study(tmp_path, responses=responses))
    assert [p.participant_id for p in loaded] == ["p2", "p1"]


def test_load_study_accepts_numeric_bool_tokens(tmp_path):
    paths = write_study(tmp_path, participants=["p1,baseline,3.0,1,0"],
                        responses=["p1,f1,10,10,10,10,10,10"])
    (rec,) = load_study(*paths)
    assert rec.mentioned_per_day_info is True
    assert rec.mentioned_summary_only_info is False


@pytest.mark.parametrize(
    "participants, responses, fragment",
    [
        (["p1,baseline,3.0,true,false", "p1,icons,2.0,true,false"],
         ["p1,f1,1,2,3,4,5,6"], "duplicate participant 'p1'"),
        ([",baseline,3.0,true,false"], ["p1,f1,1,2,3,4,5,6"], "empty participant_id"),
        (["p1,sideways,3.0,true,false"], ["p1,f1,1,2,3,4,5,6"],
         "unknown condition 'sideways'"),
        (["p1,baseline,soon,true,false"], ["p1,f1,1,2,3,4,5,6"],
         "grips_score is not a number: 'soon'"),
        (["p1,baseline,nan,true,false"], ["p1,f1,1,2,3,4,5,6"],
         "grips_score is not a number: 'nan'"),
        (["p1,baseline,3.0,maybe,false"], ["p1,f1,1,2,3,4,5,6"],
         "mentioned_per_day_info must be true/false"),
        (["p1,baseline,3.0,true"], ["p1,f1,1,2,3,4,5,6"], "expected 5 fields, found 4"),
        (GOOD_PARTICIPANTS, ["p9,f1,1,2,3,4,5,6"], "unknown participant 'p9'"),
        (GOOD_PARTICIPANTS,
         GOOD_RESPONSES + ["p1,f1,9,9,9,9,9,9"],
         "duplicate response for participant 'p1', forecast 'f1'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5"], "expected 8 fields, found 7"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,six", "p2,f1,1,2,3,4,5,6"],
         "multi_night_camping is not a number: 'six'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,nan", "p2,f1,1,2,3,4,5,6"],
         "multi_night_camping is not a number: 'nan'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,101", "p2,f1,1,2,3,4,5,6"],
         "outside [0, 100]"),
        (GOOD_PARTICIPANTS, ["p1,f1,-1,2,3,4,5,6", "p2,f1,1,2,3,4,5,6"],
         "outside [0, 100]"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,6"],
         "participants with no responses: p2"),
        ([], ["p1,f1,1,2,3,4,5,6"], "no records"),
        (GOOD_PARTICIPANTS, [], "no records"),
        (["p1,baseline,inf,true,false"], ["p1,f1,1,2,3,4,5,6"],
         "participants.csv:2: grips_score is not a number: 'inf'"),
        (["p1,baseline,1e999,true,false"], ["p1,f1,1,2,3,4,5,6"],
         "participants.csv:2: grips_score is not a number: '1e999'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,inf,5,6", "p2,f1,1,2,3,4,5,6"],
         "responses.csv:2: backcountry_skiing is not a number: 'inf'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,101", "p2,f1,1,2,3,4,5,6"],
         "responses.csv:2: participant 'p1', forecast 'f1': "
         "multi_night_camping rating 101 outside [0, 100]"),
        (GOOD_PARTICIPANTS, ["p1,f1,-1,2,3,4,5,6", "p2,f1,1,2,3,4,5,6"],
         "responses.csv:2: participant 'p1', forecast 'f1': car_trip rating -1 outside"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,6", "p2,f1,1,2,3,4,100.5,6"],
         "responses.csv:3: participant 'p2', forecast 'f1': single_night_camping rating"),
        # Line 3 has the wrong field count, but line 2 is wrong first.
        (["p1,baseline,soon,true,false", "p2,icons,2.0,true"], GOOD_RESPONSES,
         "participants.csv:2: grips_score is not a number: 'soon'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,six", "p2,f1,1,2,3,4,5"],
         "responses.csv:2: multi_night_camping is not a number: 'six'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,4,5,101", "p2,f1,1,2,3,4,5"],
         "responses.csv:2: participant 'p1', forecast 'f1': multi_night_camping rating"),
        # A quoted newline makes one record of lines 2-3; lines are physical.
        (['"p\n1",baseline,3.0,true,false', "p2,icons,soon,true,false"], GOOD_RESPONSES,
         "participants.csv:4: grips_score is not a number: 'soon'"),
        (['"p\n1",baseline,soon,true,false', "p2,icons,2.0,true,false"], GOOD_RESPONSES,
         "participants.csv:2: grips_score is not a number: 'soon'"),
        # The number grammar admits 1e+999, which overflows.
        (["p1,baseline,1e+999,true,false"], ["p1,f1,1,2,3,4,5,6"],
         "participants.csv:2: grips_score is not finite: '1e+999'"),
        (GOOD_PARTICIPANTS, ["p1,f1,1,2,3,1e+999,5,6", "p2,f1,1,2,3,4,5,6"],
         "responses.csv:2: participant 'p1', forecast 'f1': "
         "backcountry_skiing rating inf outside [0, 100]"),
        # The ratings are matched joined by commas; a quoted comma in one
        # field makes a seventh part, and the field is not a number.
        (GOOD_PARTICIPANTS, ['p1,f1,1,"2,3",4,5,6,7', "p2,f1,x,5,5,5,5,5"],
         "responses.csv:2: day_hike is not a number: '2,3'"),
    ],
)
def test_load_study_rejects_schema_violations(tmp_path, participants, responses, fragment):
    paths = write_study(tmp_path, participants=participants, responses=responses)
    with pytest.raises(StudyDataError) as err:
        load_study(*paths)
    assert fragment in str(err.value)


# float() accepts each of these; the model number grammar accepts none.
LOOSE_NUMBERS = (" 1_0", "+5", ".5", "10.", "1E1", "\uff11\uff10")


@pytest.mark.parametrize("text", LOOSE_NUMBERS)
def test_load_study_reads_grips_score_in_the_number_grammar(tmp_path, text):
    paths = write_study(tmp_path, participants=[f"p1,baseline,{text},true,false",
                                                GOOD_PARTICIPANTS[1]])
    with pytest.raises(StudyDataError) as err:
        load_study(*paths)
    assert str(err.value) == f"{paths[1]}:2: grips_score is not a number: {text!r}"


@pytest.mark.parametrize("text", LOOSE_NUMBERS)
def test_load_study_reads_ratings_in_the_number_grammar(tmp_path, text):
    paths = write_study(tmp_path, responses=GOOD_RESPONSES[:2] + [f"p2,f1,5,5,{text},5,5,5"])
    with pytest.raises(StudyDataError) as err:
        load_study(*paths)
    assert str(err.value) == f"{paths[0]}:4: mountaineering is not a number: {text!r}"


def test_load_study_skips_a_byte_order_mark(tmp_path):
    paths = write_study(tmp_path)
    expected = load_study(*paths)
    for path in paths:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_study(*paths) == expected


def test_load_study_rejects_wrong_headers(tmp_path):
    paths = write_study(tmp_path, participant_header="id,condition,grips,a,b")
    with pytest.raises(StudyDataError, match="header mismatch"):
        load_study(*paths)
    paths = write_study(tmp_path, response_header="participant_id,forecast_id,only_one")
    with pytest.raises(StudyDataError, match="header mismatch"):
        load_study(*paths)


def test_load_study_rejects_empty_files(tmp_path):
    r_path, p_path = write_study(tmp_path)
    p_path.write_text("", encoding="utf-8")
    with pytest.raises(StudyDataError, match="empty file"):
        load_study(r_path, p_path)
    r_path, p_path = write_study(tmp_path)
    r_path.write_text("", encoding="utf-8")
    with pytest.raises(StudyDataError, match="empty file"):
        load_study(r_path, p_path)


def test_load_study_error_messages_carry_file_and_line(tmp_path):
    paths = write_study(
        tmp_path,
        participants=["p1,baseline,3.0,true,false", "p1,icons,2.0,true,false"],
    )
    with pytest.raises(StudyDataError) as err:
        load_study(*paths)
    assert "participants.csv:3" in str(err.value)


def test_participants_are_checked_once(paper_study, monkeypatch):
    calls = []
    check = Participant.__post_init__

    def counting(self):
        calls.append(self.participant_id)
        check(self)

    monkeypatch.setattr(Participant, "__post_init__", counting)
    participants = load_study(*paper_study)
    build_report(participants)
    assert len(participants) == 128
    assert calls == [p.participant_id for p in participants]


def test_each_rating_spelling_is_read_once_per_load(paper_study, tmp_path, monkeypatch):
    # One read per grips score and per distinct rating spelling; every
    # response row again, under new forecast ids, reads nothing more.
    responses, participants = paper_study
    reads = []
    read = stats._read_number

    def counting(text):
        reads.append(text)
        return read(text)

    monkeypatch.setattr(stats, "_read_number", counting)
    with open(responses, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    spellings = {field for row in rows for field in row[2:]}
    assert len(spellings) < stats._KNOWN_RATINGS_MAX
    load_study(*paper_study)
    assert len(reads) == 128 + len(spellings)
    doubled = tmp_path / "responses.csv"
    with open(doubled, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header, *rows, *([pid, f"{fid}-again", *ratings] for pid, fid, *ratings in rows)])
    reads.clear()
    load_study(doubled, participants)
    assert len(reads) == 128 + len(spellings)


def oracle_load_responses(responses_path, participants_path, participants):
    """The response loop of ``load_study`` as it was before the loader kept
    each rating spelling's value, kept verbatim as the loader's oracle:
    every row is matched, converted and range-checked on its own.
    ``participants`` is the participant table, pid -> metadata tuple."""
    row_sums: dict[str, list[float]] = {}
    seen: set[tuple[str, str]] = set()
    for line, row in _csv_rows(responses_path, _RESPONSE_COLUMNS):
        pid, forecast_id = row[0], row[1]
        fields = row[2:]
        try:
            if pid not in participants:
                raise StudyDataError(f"unknown participant {pid!r}")
            if (pid, forecast_id) in seen:
                raise StudyDataError(
                    f"duplicate response for participant {pid!r}, forecast {forecast_id!r}")
            seen.add((pid, forecast_id))
            if _RATINGS_RE.fullmatch(",".join(fields)):
                ratings = tuple(map(float, fields))
            else:
                ratings = tuple(map(_read_field, ACTIVITIES, fields))
            for name, value in zip(ACTIVITIES, ratings):
                if not RATING_MIN <= value <= RATING_MAX:
                    raise StudyDataError(
                        f"participant {pid!r}, forecast {forecast_id!r}: {name} rating "
                        f"{_fmt_num(value)} outside [{RATING_MIN:g}, {RATING_MAX:g}]"
                    )
            row_sums.setdefault(pid, []).append(sum(ratings))
        except StudyDataError as exc:
            raise StudyDataError(f"{responses_path}:{line}: {exc}") from None
    if not row_sums:
        raise StudyDataError(f"{responses_path}: no records")
    silent = sorted(set(participants) - row_sums.keys())
    if silent:
        raise StudyDataError(
            f"{participants_path}: participants with no responses: {', '.join(silent)}"
        )
    return tuple(Participant(pid, *participants[pid], mean_risk=sum(sums) / len(sums))
                 for pid, sums in row_sums.items())


ORACLE_TABLE = {
    "p1": (LayoutCondition.BASELINE, 3.5, True, False),
    "p2": (LayoutCondition.ICONS, 2.1, False, True),
}


def assert_loads_as_the_oracle(directory, rows):
    """``load_study`` on a study of response ``rows`` (lists of fields) either
    returns the oracle's participants, ``mean_risk`` to the bit, or raises
    the oracle's exact message, which it returns without the directory."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = write_study(directory, participants=GOOD_PARTICIPANTS, responses=[])
    with open(paths[0], "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    try:
        expected = oracle_load_responses(*paths, ORACLE_TABLE)
    except StudyDataError as exc:
        with pytest.raises(StudyDataError) as err:
            load_study(*paths)
        assert str(err.value) == str(exc)
        return str(exc).removeprefix(f"{directory}{os.sep}")
    loaded = load_study(*paths)
    assert loaded == expected
    assert [p.mean_risk.hex() for p in loaded] == [p.mean_risk.hex() for p in expected]
    return None


def response(pid, fid, *ratings):
    return [pid, fid, *ratings]


@pytest.mark.parametrize(
    "rows, message",
    [
        # Equivalent spellings each keep the value their own first row read.
        ([response("p1", "f1", "5", "5.0", "05", "-0", "1e+1", "0"),
          response("p2", "f1", "-0", "05", "5.0", "5", "0", "1e+1"),
          response("p1", "f2", "1e+1", "-0", "0", "05", "5", "5.0")], None),
        # A bad text after known spellings in the same row.
        ([response("p1", "f1", *["5"] * 6), response("p2", "f1", *["5"] * 5, "six")],
         "responses.csv:3: multi_night_camping is not a number: 'six'"),
        ([response("p1", "f1", *["5"] * 6), response("p2", "f1", "5", "5", "101", "5", "5", "5")],
         "responses.csv:3: participant 'p2', forecast 'f1': "
         "mountaineering rating 101 outside [0, 100]"),
        ([response("p1", "f1", *["5"] * 6), response("p2", "f1", *["5"] * 5, " 5")],
         "responses.csv:3: multi_night_camping is not a number: ' 5'"),
        # A quoted comma between two known spellings is still one field.
        ([response("p1", "f1", "2", "3", "4", "5", "6", "7"),
          response("p2", "f1", "1", "2,3", "4", "5", "6", "7")],
         "responses.csv:3: day_hike is not a number: '2,3'"),
        # New valid spellings before a bad one in the same row.
        ([response("p1", "f1", "7", "8", "9", "10.5", "11", "six")],
         "responses.csv:2: multi_night_camping is not a number: 'six'"),
        # Out of range before a non-number: the non-number is reported.
        ([response("p1", "f1", "101", "six", "5", "5", "5", "5")],
         "responses.csv:2: day_hike is not a number: 'six'"),
        # Not finite before a non-number: the first unreadable field wins.
        ([response("p1", "f1", "1e+999", "six", "5", "5", "5", "5")],
         "responses.csv:2: car_trip is not finite: '1e+999'"),
        # Among spellings that read, an overflowing one is out of range.
        ([response("p1", "f1", "5", "5", "1e+999", "5", "5", "5")],
         "responses.csv:2: participant 'p1', forecast 'f1': "
         "mountaineering rating inf outside [0, 100]"),
        ([response("p1", "f1", *["5"] * 6), response("p1", "f1", *["5"] * 6)],
         "responses.csv:3: duplicate response for participant 'p1', forecast 'f1'"),
        ([response("p1", "f1", *["5"] * 6), response("p9", "f1", *["5"] * 6)],
         "responses.csv:3: unknown participant 'p9'"),
    ],
    ids=["equivalent-spellings", "non-number-after-known", "out-of-range-after-known",
         "padded-known-spelling",
         "quoted-comma", "new-spellings-then-non-number", "out-of-range-then-non-number",
         "not-finite-then-non-number", "not-finite-among-numbers",
         "duplicate", "unknown-participant"],
)
def test_load_study_matches_the_oracle(tmp_path, rows, message):
    assert assert_loads_as_the_oracle(tmp_path, rows) == message


def test_load_study_matches_the_oracle_past_the_spelling_bound(tmp_path):
    # 6 000 distinct spellings, 4 096 of them remembered; the second pass
    # reads each row again under a new forecast id, known or not.
    spellings = [f"{k / 60:.6f}" for k in range(6000)]
    assert len(set(spellings)) > stats._KNOWN_RATINGS_MAX
    chunks = [spellings[k:k + 6] for k in range(0, len(spellings), 6)]
    rows = [response(f"p{1 + k % 2}", f"f{k}", *chunk) for k, chunk in enumerate(chunks)]
    rows += [response(f"p{1 + k % 2}", f"g{k}", *chunk) for k, chunk in enumerate(chunks)]
    assert assert_loads_as_the_oracle(tmp_path, rows) is None
    rows.append(response("p1", "h", *spellings[-5:], "1e+999"))
    assert assert_loads_as_the_oracle(tmp_path, rows) == (
        f"responses.csv:{len(rows) + 1}: participant 'p1', forecast 'h': "
        "multi_night_camping rating inf outside [0, 100]")


# A small vocabulary, with equivalent spellings of 0, 5 and 10.
COMMON_RATINGS = ("5", "5.0", "05", "-0", "0", "1e+1", "10", "10.00", "100", "0.5")
BAD_RATINGS = ("101", "-1", "100.5", "1e+999", "six", "nan", "", " 5", "1E1", "2,3", "5,0")


@st.composite
def response_rows(draw):
    fresh = st.integers(0, 10**6).map(lambda k: f"{k // 10**4}.{k % 10**4:04d}")
    known = st.sampled_from(COMMON_RATINGS)
    field = st.one_of(known, known, known, fresh)  # mostly spellings seen before
    rows = []
    for k in range(draw(st.integers(1, 24))):
        fields = draw(st.lists(field, min_size=6, max_size=6))
        if draw(st.integers(0, 15)) == 0:
            fields[draw(st.integers(0, 5))] = draw(st.sampled_from(BAD_RATINGS))
        pid = "p9" if draw(st.integers(0, 100)) == 0 else draw(st.sampled_from(["p1", "p2"]))
        # Now and then a forecast id the row before already used.
        fid = f"f{k - 1 if k and draw(st.integers(0, 25)) == 0 else k}"
        rows.append([pid, fid, *fields])
    return rows


@settings(max_examples=200, deadline=None)
@given(rows=response_rows(), bound=st.sampled_from([0, 3, 40, 4096]))
def test_load_study_agrees_with_the_oracle(tmp_path_factory, rows, bound):
    directory = tmp_path_factory.getbasetemp() / "oracle-study"
    with mock.patch.object(stats, "_KNOWN_RATINGS_MAX", bound):
        assert_loads_as_the_oracle(directory, rows)


# ------------------------------------------------------------------- report


def study_records() -> list[Participant]:
    """Two conditions, three participants each, two forecasts per person."""
    spec = [
        ("a1", LayoutCondition.BASELINE, 2.0, True, False, (20.0, 30.0)),
        ("a2", LayoutCondition.BASELINE, 3.0, True, True, (30.0, 40.0)),
        ("a3", LayoutCondition.BASELINE, 4.0, False, False, (40.0, 50.0)),
        ("b1", LayoutCondition.ICONS, 2.5, True, False, (50.0, 60.0)),
        ("b2", LayoutCondition.ICONS, 3.5, True, False, (60.0, 70.0)),
        ("b3", LayoutCondition.ICONS, 4.5, False, True, (70.0, 90.0)),
    ]
    # Each forecast rates all six activities at one level.
    return [
        record(pid=pid, condition=condition, mean_risk=6 * sum(levels) / len(levels),
               grips=grips, per_day=per_day, summary_only=summary_only)
        for pid, condition, grips, per_day, summary_only, levels in spec
    ]


def test_build_report_aggregates_then_infers():
    report = build_report(study_records())
    assert [g.condition for g in report.groups] == [
        LayoutCondition.BASELINE,
        LayoutCondition.ICONS,
    ]
    baseline, icons = report.groups
    # Participant means: 6 * mean(levels) -> 150/210/270 and 330/390/480.
    assert baseline.n == 3 and icons.n == 3
    assert baseline.mean == pytest.approx(210.0, abs=TOL)
    assert icons.mean == pytest.approx(400.0, abs=TOL)
    low, high = t_ci95([150.0, 210.0, 270.0])
    assert baseline.ci_low == pytest.approx(low, abs=TOL)
    assert baseline.ci_high == pytest.approx(high, abs=TOL)
    ref = anova_oracle([[150.0, 210.0, 270.0], [330.0, 390.0, 480.0]])
    assert report.anova.df_between == 1
    assert report.anova.df_within == 4
    assert report.anova.f_statistic == pytest.approx(ref.f_statistic, rel=TOL)
    assert report.anova.p_value == pytest.approx(ref.p_value, abs=TOL)
    (pair,) = report.pairwise
    assert (pair.group_a, pair.group_b) == ("baseline", "icons")
    assert report.anova.f_statistic == pytest.approx(pair.t_statistic**2, rel=TOL)
    ref_reg = scipy_stats.linregress(
        [2.0, 3.0, 4.0, 2.5, 3.5, 4.5], [150.0, 210.0, 270.0, 330.0, 390.0, 480.0]
    )
    assert report.regression.slope == pytest.approx(float(ref_reg.slope), rel=TOL)
    assert report.regression.p_value == pytest.approx(float(ref_reg.pvalue), abs=TOL)


def test_build_report_coding_counts_participants_once():
    report = build_report(study_records())
    per_day = {cell.scope: cell for cell in report.coding.per_day}
    assert per_day["overall"].count == 4
    assert per_day["overall"].total == 6
    assert per_day["overall"].percent == "66.67"
    assert per_day["baseline"].count == 2 and per_day["baseline"].total == 3
    assert per_day["icons"].count == 2 and per_day["icons"].total == 3
    summary_only = {cell.scope: cell for cell in report.coding.summary_only}
    assert summary_only["overall"].count == 2
    assert summary_only["baseline"].percent == "33.33"
    assert summary_only["icons"].percent == "33.33"


def test_build_report_orders_groups_by_condition_not_by_data():
    report = build_report(list(reversed(study_records())))
    assert [g.condition for g in report.groups] == [
        LayoutCondition.BASELINE,
        LayoutCondition.ICONS,
    ]
    assert [g.n for g in report.groups] == [3, 3]
    assert report.groups[0].mean == pytest.approx(210.0, abs=TOL)
    assert [(pw.group_a, pw.group_b) for pw in report.pairwise] == [("baseline", "icons")]
    assert [cell.scope for cell in report.coding.per_day] == ["overall", "baseline", "icons"]


def groups_of_sizes(seed, sizes) -> list[Participant]:
    rng = random.Random(seed)
    return [
        record(pid=f"{condition.value}-{k}", condition=condition,
               mean_risk=rng.uniform(0.0, 600.0), grips=rng.uniform(1.0, 5.0))
        for condition, n in zip(LayoutCondition, sizes)
        for k in range(n)
    ]


@pytest.mark.parametrize("sizes, dfs", [((32, 32, 32, 32), [31]), ((3, 3, 4), [2, 3])])
def test_build_report_reads_one_t_quantile_per_group_size(monkeypatch, sizes, dfs):
    participants = groups_of_sizes(7, sizes)
    calls = []

    def counting(p, df):
        calls.append(df)
        return t_ppf(p, df)

    monkeypatch.setattr(stats, "t_ppf", counting)
    report = build_report(participants)
    assert calls == dfs
    for g in report.groups:
        values = [p.mean_risk for p in participants if p.condition is g.condition]
        mean = sum(values) / len(values)
        assert (g.n, g.mean) == (len(values), mean)
        assert g.sd == math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        assert (g.ci_low, g.ci_high) == t_ci95(values)


def test_build_report_is_deterministic():
    assert build_report(study_records()) == build_report(study_records())


def test_build_report_passes_correction_count_through():
    report = build_report(study_records(), correction_count=6)
    (pair,) = report.pairwise
    assert pair.p_adjusted == min(1.0, pair.p_raw * 6)


def test_build_report_reports_the_multiplier_it_applied():
    report = build_report(study_records(), correction_count=12)
    (pair,) = report.pairwise
    assert pair.multiplier == 12
    assert pair.p_adjusted == min(1.0, pair.p_raw * 12)
    assert "Pairwise comparisons (Bonferroni multiplier 12):\n" in format_report(report)
    (default,) = build_report(study_records()).pairwise
    assert default.multiplier == 1


def test_build_report_rejects_thin_designs():
    with pytest.raises(StudyDataError, match="at least 2 conditions, found 0"):
        build_report([])
    single_condition = [r for r in study_records() if r.condition is LayoutCondition.BASELINE]
    with pytest.raises(StudyDataError, match="at least 2 conditions"):
        build_report(single_condition)
    lonely = [r for r in study_records() if r.participant_id != "b2" and r.participant_id != "b3"]
    with pytest.raises(StudyDataError, match="fewer than 2 participants"):
        build_report(lonely)


def test_format_report_shows_the_headline_numbers():
    report = build_report(study_records())
    text = format_report(report)
    assert text.startswith("Perceived-risk study report\n")
    assert "One-way ANOVA: F(1, 4) = " in text
    assert "Bonferroni multiplier 1" in text
    assert "baseline vs icons: t(4) = " in text
    assert "Risk propensity regression: slope = " in text
    assert "4/6 = 66.67%" in text
    assert text.endswith("\n")


def two_group_records(baseline_levels, icons_levels) -> list[Participant]:
    """Three participants per group, each rating every activity at one level."""
    return [
        record(pid=f"{condition.value}-{k}", condition=condition, mean_risk=6 * level,
               grips=2.0 + k)
        for condition, levels in ((LayoutCondition.BASELINE, baseline_levels),
                                  (LayoutCondition.ICONS, icons_levels))
        for k, level in enumerate(levels)
    ]


def test_format_report_prints_an_infinite_statistic():
    # No spread within either group: F and t are infinite and p is 0.
    text = format_report(build_report(two_group_records((20.0,) * 3, (50.0,) * 3)))
    assert "One-way ANOVA: F(1, 4) = inf, p = 0.00e+00\n" in text
    assert "  baseline vs icons: t(4) = -inf, raw p = 0.00e+00, adjusted p = 0.00e+00\n" in text


def test_format_report_prints_a_tiny_p_in_scientific_form():
    text = format_report(build_report(two_group_records((20.0, 21.0, 22.0), (80.0, 81.0, 82.0))))
    assert "One-way ANOVA: F(1, 4) = 5400.000, p = 2.06e-07\n" in text
    assert "  baseline vs icons: t(4) = -73.485, raw p = 2.06e-07, adjusted p = 2.06e-07\n" in text


def test_emit_report_round_trips_floats():
    report = build_report(study_records())
    lines = emit_report(report).splitlines()
    assert lines[0] == "schema: hsf-stats/1"
    group_lines = [ln for ln in lines if ln.startswith("group: ")]
    assert len(group_lines) == 2
    fields = dict(
        part.split("=", 1) for part in group_lines[0].split(" | ")[1:]
    )
    assert float(fields["mean"]) == report.groups[0].mean
    assert float(fields["ci_low"]) == report.groups[0].ci_low
    anova_line = next(ln for ln in lines if ln.startswith("anova: "))
    assert f"F={report.anova.f_statistic!r}" in anova_line
    assert "df_between=1 | df_within=4" in anova_line
    assert sum(ln.startswith("pairwise: ") for ln in lines) == 1
    assert sum(ln.startswith("coding: ") for ln in lines) == 6  # 2 flags x 3 scopes
    regression_line = next(ln for ln in lines if ln.startswith("regression: "))
    assert f"slope={report.regression.slope!r}" in regression_line


def test_emit_plot_spec_is_tab_separated():
    report = build_report(study_records())
    lines = emit_plot_spec(report).splitlines()
    assert lines[0] == "schema: hsf-plot/1"
    assert lines[1] == "# condition\tmean\tci_low\tci_high"
    assert len(lines) == 2 + len(report.groups)
    condition, mean, ci_low, ci_high = lines[2].split("\t")
    assert condition == "baseline"
    assert float(mean) == report.groups[0].mean
    assert float(ci_low) == report.groups[0].ci_low
    assert float(ci_high) == report.groups[0].ci_high


# --------------------------------------------------------- simulated dataset


@pytest.fixture(scope="module")
def paper_study(tmp_path_factory) -> tuple[Path, Path]:
    """The seed-49 simulated study: 128 participants, 640 responses."""
    out = tmp_path_factory.mktemp("paper-study")
    script = Path(__file__).resolve().parents[1] / "scripts" / "simulate_study.py"
    subprocess.run(
        [sys.executable, str(script), "--out-dir", str(out), "--seed", "49"],
        check=True,
        capture_output=True,
    )
    return out / "responses.csv", out / "participants.csv"


def shuffled_copy(paths: tuple[Path, Path], out: Path) -> tuple[Path, Path]:
    """The same study with its response rows in a seeded random order."""
    responses, participants = paths
    header, *rows = responses.read_text(encoding="utf-8").splitlines()
    random.Random(5).shuffle(rows)
    out.mkdir()
    (out / "responses.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    shutil.copy(participants, out / "participants.csv")
    return out / "responses.csv", out / "participants.csv"


# SHA-256 of format_report, emit_report and emit_plot_spec. A change to the
# grouping or to the order of any addition shows here as a new digest. They
# were recorded where the builtin sum() of floats is plain left-to-right
# addition (CPython 3.10 and 3.11); from 3.12 it is compensated, so the last
# bits of the statistics, and the digests, can differ there.
PINNED_DIGESTS = {
    (False, None): (
        "18c5581fb8689409c21a8adafdf23a8f2577d4362d4ae65b262d7a8aff260cf9",
        "e988b425b5cfe01a5ecbd30e4ac4cf7c2d3c577f4ba7f10ac51e37a1038c09a1",
        "3fe851fbc254f3a7ade935f5a8691638906b323f2321a35aa5ff264a54da302c",
    ),
    (False, 12): (
        "30f787aafe12cc84913f5634538a3cc85f7ab9d716ce65d7e51505f61c958d2f",
        "94314847ef9508b75fc2c7100aa8b4921b6230bce6db26f19b15de4d0dc7bfc2",
        "3fe851fbc254f3a7ade935f5a8691638906b323f2321a35aa5ff264a54da302c",
    ),
    (True, None): (
        "18c5581fb8689409c21a8adafdf23a8f2577d4362d4ae65b262d7a8aff260cf9",
        "a8eec83e2f7921f14db6e1da4a268b346062e50dd8672cbbf7b3d4ec1cbc55bc",
        "273851278549a69e6b28fccf95f5acbf922ee19a5962dcd7540500338a4bb6f6",
    ),
    (True, 12): (
        "30f787aafe12cc84913f5634538a3cc85f7ab9d716ce65d7e51505f61c958d2f",
        "ac59d68b1f88f18012c45149ba65d98a2c4b69145f7a687b1a50f63ff7a9fd9e",
        "273851278549a69e6b28fccf95f5acbf922ee19a5962dcd7540500338a4bb6f6",
    ),
}


@pytest.mark.skipif(sum([1.0, 1e100, 1.0, -1e100]) != 0.0,
                    reason="digests recorded with an uncompensated float sum()")
@pytest.mark.parametrize("shuffled, correction", list(PINNED_DIGESTS))
def test_study_report_bytes_are_pinned(paper_study, tmp_path, shuffled, correction):
    paths = shuffled_copy(paper_study, tmp_path / "shuffled") if shuffled else paper_study
    report = build_report(load_study(*paths), correction_count=correction)
    digests = tuple(hashlib.sha256(emit(report).encode("utf-8")).hexdigest()
                    for emit in (format_report, emit_report, emit_plot_spec))
    assert digests == PINNED_DIGESTS[shuffled, correction]


def test_simulated_study_end_to_end(paper_study):
    participants = load_study(*paper_study)
    assert len(participants) == 128

    report = build_report(participants)
    assert [g.n for g in report.groups] == [32, 32, 32, 32]
    assert report.anova.df_between == 3
    assert report.anova.df_within == 124
    assert len(report.pairwise) == 6

    # Reconstruct the per-participant means from the CSVs and hand the
    # groups to scipy: the report must match the external computation.
    responses_path, participants_path = paper_study
    with open(participants_path, newline="", encoding="utf-8") as fh:
        meta = {row["participant_id"]: row for row in csv.DictReader(fh)}
    totals: dict[str, list[float]] = {}
    with open(responses_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            totals.setdefault(row["participant_id"], []).append(
                sum(float(row[name]) for name in ACTIVITIES))
    groups: dict[LayoutCondition, list[float]] = {}
    pairs = []
    for pid, sums in totals.items():
        mean_risk = sum(sums) / len(sums)
        groups.setdefault(condition_from_token(meta[pid]["condition"]), []).append(mean_risk)
        pairs.append((float(meta[pid]["grips_score"]), mean_risk))
    ordered = [groups[g.condition] for g in report.groups]
    ref = scipy_stats.f_oneway(*ordered)
    assert report.anova.f_statistic == pytest.approx(float(ref.statistic), rel=TOL)
    assert report.anova.p_value == pytest.approx(float(ref.pvalue), abs=TOL)

    ref_reg = scipy_stats.linregress([x for x, _ in pairs], [y for _, y in pairs])
    assert report.regression.slope == pytest.approx(float(ref_reg.slope), rel=TOL)
    assert report.regression.r_squared == pytest.approx(float(ref_reg.rvalue) ** 2, rel=TOL)

    # The generator builds in higher risk under icon layouts and a negative
    # propensity slope; with the default seed the sample recovers both.
    means = [g.mean for g in report.groups]
    assert means == sorted(means)
    assert report.anova.p_value < 0.05
    assert report.regression.slope < 0

    for pair in report.pairwise:
        assert pair.p_adjusted == min(1.0, pair.p_raw * 6)

    overall = report.coding.per_day[0]
    assert overall.scope == "overall"
    assert overall.total == 128
    assert emit_report(report).splitlines()[0] == "schema: hsf-stats/1"
    plot_lines = emit_plot_spec(report).splitlines()
    assert plot_lines[0] == "schema: hsf-plot/1"
    assert len(plot_lines) == 6
