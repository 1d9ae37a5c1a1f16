"""Parsing, death-count reconstruction and the Gini summary."""

import io

import numpy as np
import pytest

from codaboot import (
    CompletenessError,
    DegenerateInputError,
    DomainError,
    LifeTableGrid,
    LifeTableRow,
    ParseError,
    SchemaError,
    gini_coefficient,
    parse_lifetable,
    rebuild_deaths,
)
from codaboot.lifetable import _survivorship_deaths

COLUMNAR = """\
Australia, Females  Life tables (period 1x1)

  Year  Age  mx  qx  ax  lx  dx  Lx  Tx  ex
  1950  0  0.02230  0.02190  0.18  100000  2190  98212  7185211  71.85
  1950  1  0.00142  0.00142  0.50  97810  139  97741  7086999  72.46
  1950  110+  0.71113  1.00000  1.24  12  12  15  19  1.24
"""

CSV = """\
Year,Age,qx,Sex
1950,0,0.021,female
1950,0,0.025,male
1951,110+,1.0,female
1951,110+,1.0,male
"""


def test_columnar_parse_skips_preamble_and_folds_open_age():
    rows = parse_lifetable(io.StringIO(COLUMNAR))
    assert rows == [
        LifeTableRow(1950, 0, 0.0219),
        LifeTableRow(1950, 1, 0.00142),
        LifeTableRow(1950, 110, 1.0),
    ]


def test_csv_parse_and_sex_filter():
    female = parse_lifetable(io.StringIO(CSV), sex_filter="female")
    assert female == [LifeTableRow(1950, 0, 0.021), LifeTableRow(1951, 110, 1.0)]
    male = parse_lifetable(io.StringIO(CSV), sex_filter="male")
    assert male[0].qx == 0.025
    both = parse_lifetable(io.StringIO(CSV))
    assert len(both) == 4


@pytest.mark.parametrize("alias", ["female", "Female", "FEMALE", "f", "F"])
def test_sex_aliases(alias):
    rows = parse_lifetable(io.StringIO(CSV), sex_filter=alias)
    assert [r.qx for r in rows] == [0.021, 1.0]


def test_sex_filter_without_sex_column_passes_through():
    text = "Year Age qx\n1950 0 0.1\n1950 110+ 1.0\n"
    assert len(parse_lifetable(io.StringIO(text), sex_filter="female")) == 2


def test_missing_value_token_is_an_error_with_line_number():
    text = "Year Age qx\n1950 0 0.1\n1950 1 .\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_lifetable(io.StringIO(text))


def test_short_line_is_a_parse_error():
    text = "Year Age qx\n1950 0\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_lifetable(io.StringIO(text))


def test_unparseable_age_names_its_line():
    text = "Year Age qx\n1950 x1 0.1\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_lifetable(io.StringIO(text))


def test_missing_header_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_lifetable(io.StringIO("1950 0 0.1\n1950 1 0.2\n"))
    with pytest.raises(SchemaError):
        parse_lifetable(io.StringIO("Year,Age,mx\n1950,0,0.1\n"))


@pytest.mark.parametrize("bad", ["-0.1", "1.5", "nan", "inf"])
def test_qx_outside_unit_interval_is_a_domain_error(bad):
    text = f"Year Age qx\n1950 0 {bad}\n"
    with pytest.raises((DomainError, ParseError)):
        parse_lifetable(io.StringIO(text))


def test_unknown_sex_value_rejected():
    with pytest.raises(DomainError):
        parse_lifetable(io.StringIO(CSV), sex_filter="unknown")


def test_parse_from_path(tmp_path):
    target = tmp_path / "table.txt"
    target.write_text("Year Age qx\n1950 0 0.5\n", encoding="utf-8")
    assert parse_lifetable(target) == [LifeTableRow(1950, 0, 0.5)]


def test_survivorship_toy_table():
    # l = (1000, 900, 450), d_u = l_u q_u, terminal takes the survivors.
    deaths = _survivorship_deaths(np.array([0.1, 0.5, 1.0]), 1000.0)
    np.testing.assert_allclose(deaths, [100.0, 450.0, 450.0], rtol=0, atol=1e-12)
    assert deaths.sum() == pytest.approx(1000.0, abs=1e-9)


def test_survivorship_sums_to_radix_even_without_terminal_closure_in_qx():
    rng = np.random.default_rng(11)
    for _ in range(50):
        qx = rng.uniform(0.0, 0.5, size=30)
        qx[-1] = 1.0
        deaths = _survivorship_deaths(qx, 100000.0)
        assert deaths.sum() == pytest.approx(100000.0, rel=1e-12)
        assert np.all(deaths >= 0.0)


def _full_rows(year, qx_flat, terminal=110):
    qx = np.full(terminal + 1, qx_flat)
    qx[-1] = 1.0
    return [LifeTableRow(year, age, qx[age]) for age in range(terminal + 1)]


def test_rebuild_matches_closed_form_geometric_table():
    grid = rebuild_deaths(_full_rows(2000, 0.05))
    # Constant hazard: d_u = R q (1-q)^u, with the open group absorbing the tail.
    expected = np.array([100000.0 * 0.05 * 0.95**u for u in range(110)] + [100000.0 * 0.95**110])
    np.testing.assert_allclose(grid.deaths[0], expected, rtol=0, atol=1e-4)
    assert grid.deaths[0].sum() == pytest.approx(100000.0, abs=1e-6)
    assert grid.years.tolist() == [2000]
    assert grid.ages.tolist() == list(range(111))


def test_rebuild_sorts_years_and_accepts_shuffled_rows():
    rows = _full_rows(2001, 0.04) + _full_rows(1999, 0.05)
    rng = np.random.default_rng(3)
    rows = [rows[i] for i in rng.permutation(len(rows))]
    grid = rebuild_deaths(rows)
    assert grid.years.tolist() == [1999, 2001]
    reference = rebuild_deaths(_full_rows(1999, 0.05))
    np.testing.assert_array_equal(grid.deaths[0], reference.deaths[0])


def test_rebuild_applies_positivity_floor():
    # qx = 0.9 drives late ages to ~1e5 * 0.1^110, far below the floor.  The
    # floor is applied before the final renormalisation, which can shave a
    # relative 1e-9 off floored entries but never produces zeros.
    grid = rebuild_deaths(_full_rows(2000, 0.9))
    assert grid.deaths.min() >= 1e-6 * (1.0 - 1e-6)
    assert grid.deaths.min() > 0.0
    assert grid.deaths[0].sum() == pytest.approx(100000.0, abs=1e-6)


def test_rebuild_rejects_duplicate_age():
    rows = _full_rows(2000, 0.05) + [LifeTableRow(2000, 50, 0.05)]
    with pytest.raises(CompletenessError, match="duplicate"):
        rebuild_deaths(rows)


def test_rebuild_rejects_missing_age():
    rows = [r for r in _full_rows(2000, 0.05) if r.age != 30]
    with pytest.raises(CompletenessError, match="2000"):
        rebuild_deaths(rows)


def test_rebuild_takes_the_terminal_age_from_the_rows():
    # A table that closes with "100+" rebuilds on ages 0..100, with the
    # open group absorbing the tail as the 110+ tables do.
    text = "Year Age qx\n" + "".join(
        f"{year} {age}{'+' if age == 100 else ''} {1.0 if age == 100 else 0.05}\n"
        for year in (2000, 2001)
        for age in range(101)
    )
    grid = rebuild_deaths(parse_lifetable(io.StringIO(text)))
    assert grid.ages.tolist() == list(range(101))
    expected = [100000.0 * 0.05 * 0.95**u for u in range(100)] + [100000.0 * 0.95**100]
    np.testing.assert_allclose(grid.deaths, [expected, expected], rtol=0, atol=1e-4)
    rows = _full_rows(2000, 0.05, terminal=100) + _full_rows(2001, 0.05, terminal=100)
    np.testing.assert_array_equal(grid.deaths, rebuild_deaths(rows).deaths)


def test_rebuild_rejects_years_with_different_terminal_ages():
    rows = _full_rows(2000, 0.05, terminal=100) + _full_rows(2001, 0.05)
    with pytest.raises(CompletenessError, match="2000.*0..110"):
        rebuild_deaths(rows)
    rows = _full_rows(2000, 0.05) + _full_rows(2001, 0.05, terminal=100)
    with pytest.raises(CompletenessError, match="2001"):
        rebuild_deaths(rows)


def test_rebuild_rejects_open_terminal_group():
    rows = _full_rows(2000, 0.05)
    rows[-1] = LifeTableRow(2000, 110, 0.97)
    with pytest.raises(DomainError, match="terminal"):
        rebuild_deaths(rows)


def test_rebuild_rejects_empty_and_bad_radix():
    with pytest.raises(CompletenessError):
        rebuild_deaths([])
    with pytest.raises(DomainError):
        rebuild_deaths(_full_rows(2000, 0.05), radix=0.0)


def test_grid_validation_rejects_broken_rows():
    years = np.array([2000])
    ages = np.arange(3)
    with pytest.raises(DomainError):
        LifeTableGrid(years=years, ages=ages, deaths=np.array([[1.0, 2.0, 3.0]]), radix=100.0)
    with pytest.raises(DomainError):
        LifeTableGrid(
            years=years, ages=ages, deaths=np.array([[50.0, 50.0, 0.0]]), radix=100.0
        )


def _gini_by_mean_difference(x):
    # Independent oracle: G = sum_{i,j} |x_i - x_j| / (2 D^2 mean).
    x = np.asarray(x, dtype=float)
    diffs = np.abs(x[:, None] - x[None, :]).sum()
    return diffs / (2.0 * x.size**2 * x.mean())


def test_gini_hand_values():
    assert gini_coefficient([1.0, 3.0]) == pytest.approx(0.25, abs=1e-15)
    assert gini_coefficient([5.0, 5.0, 5.0, 5.0]) == 0.0


@pytest.mark.parametrize("size", [2, 3, 7, 111])
def test_gini_single_atom_reaches_upper_bound(size):
    counts = np.zeros(size)
    counts[0] = 42.0
    assert gini_coefficient(counts) == pytest.approx(1.0 - 1.0 / size, abs=1e-15)


def test_gini_matches_mean_difference_oracle():
    rng = np.random.default_rng(7)
    for _ in range(250):
        size = rng.integers(2, 60)
        counts = rng.gamma(shape=0.7, scale=10.0, size=size)
        if rng.random() < 0.3:
            counts[rng.random(size) < 0.4] = 0.0
        if counts.sum() == 0.0:
            counts[0] = 1.0
        expected = _gini_by_mean_difference(counts)
        assert gini_coefficient(counts) == pytest.approx(expected, abs=1e-10)


def test_gini_invariances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        counts = rng.gamma(1.0, 5.0, size=rng.integers(2, 40))
        value = gini_coefficient(counts)
        assert gini_coefficient(counts * 17.5) == pytest.approx(value, abs=1e-12)
        assert gini_coefficient(rng.permutation(counts)) == pytest.approx(value, abs=1e-12)
        assert 0.0 <= value <= 1.0 - 1.0 / counts.size


def test_gini_rejects_degenerate_input():
    with pytest.raises(DomainError):
        gini_coefficient([1.0])
    with pytest.raises(DomainError):
        gini_coefficient([1.0, -2.0])
    with pytest.raises(DegenerateInputError):
        gini_coefficient([0.0, 0.0, 0.0])
