"""Parsing, death-count reconstruction and the Gini summary."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codaboot import (
    CodabootError,
    CompletenessError,
    DegenerateInputError,
    DomainError,
    LifeTableColumns,
    LifeTableGrid,
    ParseError,
    SchemaError,
    gini_coefficient,
    parse_lifetable,
    rebuild_deaths,
)
from codaboot.lifetable import (
    POSITIVITY_FLOOR,
    _find_header,
    _normalize_sex,
    _parse_age,
    _parse_int,
    _parse_qx,
    _survivorship_deaths,
)

# The per-record parser and the per-year rebuild that the columnar ones
# replaced, kept as reference oracles: the same header rule and token
# helpers, applied one record and one year at a time.


def _reference_parse(text, sex_filter=None):
    """``(year, age, qx)`` tuples of the records kept, in file order."""
    wanted = _normalize_sex(sex_filter) if sex_filter is not None else None
    lines = text.splitlines()
    header, tokenise, (year_col, age_col, qx_col), sex_col = _find_header(lines)
    width = 1 + max(year_col, age_col, qx_col, -1 if sex_col is None else sex_col)
    rows = []
    records = tokenise(lines[header + 1 :])
    for line_number, record in enumerate(records, start=header + 2):
        if not any(map(str.strip, record)):
            continue
        if len(record) < width:
            raise ParseError(
                f"expected at least {width} columns, got {len(record)}", line_number
            )
        if wanted is not None and sex_col is not None:
            if _normalize_sex(record[sex_col]) != wanted:
                continue
        rows.append(
            (
                _parse_int(record[year_col], "year", line_number),
                _parse_age(record[age_col], line_number),
                _parse_qx(record[qx_col], line_number),
            )
        )
    return rows


def _reference_survivorship(qx, radix):
    survivors = radix * np.concatenate([[1.0], np.cumprod(1.0 - qx[:-1])])
    deaths = survivors * qx
    deaths[-1] = survivors[-1]
    return deaths


def _reference_rebuild(rows, radix=100000.0):
    if radix <= 0.0:
        raise DomainError("radix must be positive")
    by_year = {}
    for year, age, qx in rows:
        ages = by_year.setdefault(year, {})
        if age in ages:
            raise CompletenessError(f"year {year}: duplicate age {age}")
        ages[age] = qx
    if not by_year:
        raise CompletenessError("no rows to rebuild from")
    terminal = max(max(ages) for ages in by_year.values())
    expected = list(range(terminal + 1))
    years = sorted(by_year)
    deaths = np.empty((len(years), len(expected)))
    for i, year in enumerate(years):
        ages = by_year[year]
        if sorted(ages) != expected:
            missing = sorted(set(expected) - set(ages))
            extra = sorted(set(ages) - set(expected))
            raise CompletenessError(
                f"year {year}: ages must cover 0..{terminal} exactly once"
                f" (missing {missing[:5]}, unexpected {extra[:5]})"
            )
        qx = np.array([ages[a] for a in expected])
        if qx[-1] != 1.0:
            raise DomainError(
                f"year {year}: terminal age group must have qx = 1, got {qx[-1]}"
            )
        deaths[i] = _reference_survivorship(qx, radix)
    deaths = np.round(deaths, 6)
    deaths = np.maximum(deaths, POSITIVITY_FLOOR)
    deaths *= radix / deaths.sum(axis=1, keepdims=True)
    return LifeTableGrid(
        years=np.array(years), ages=np.array(expected), deaths=deaths, radix=radix
    )


def _rows(table):
    """The records of a parsed table as ``(year, age, qx)`` tuples."""
    assert isinstance(table, LifeTableColumns)
    assert table.years.dtype.kind == table.ages.dtype.kind == "i"
    assert table.qx.dtype == np.float64
    assert table.years.shape == table.ages.shape == table.qx.shape
    return list(zip(table.years.tolist(), table.ages.tolist(), table.qx.tolist()))


def _columns(rows):
    years, ages, qx = zip(*rows) if rows else ((), (), ())
    return LifeTableColumns(
        np.array(years, dtype=int), np.array(ages, dtype=int), np.array(qx, dtype=float)
    )


def _outcome(call):
    """What a call returns, or the class, message and line of its error."""
    try:
        return "ok", call()
    except CodabootError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


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
    table = parse_lifetable(io.StringIO(COLUMNAR))
    assert _rows(table) == [(1950, 0, 0.0219), (1950, 1, 0.00142), (1950, 110, 1.0)]


def test_csv_parse_and_sex_filter():
    female = parse_lifetable(io.StringIO(CSV), sex_filter="female")
    assert _rows(female) == [(1950, 0, 0.021), (1951, 110, 1.0)]
    male = parse_lifetable(io.StringIO(CSV), sex_filter="male")
    assert male.qx[0] == 0.025
    both = parse_lifetable(io.StringIO(CSV))
    assert len(both.years) == 4


@pytest.mark.parametrize("alias", ["female", "Female", "FEMALE", "f", "F"])
def test_sex_aliases(alias):
    table = parse_lifetable(io.StringIO(CSV), sex_filter=alias)
    assert table.qx.tolist() == [0.021, 1.0]


def test_sex_filter_without_sex_column_passes_through():
    text = "Year Age qx\n1950 0 0.1\n1950 110+ 1.0\n"
    assert len(parse_lifetable(io.StringIO(text), sex_filter="female").qx) == 2


def test_csv_preamble_is_skipped_and_counted_in_line_numbers():
    text = "Australia, Females\n" + CSV
    female = parse_lifetable(io.StringIO(text), sex_filter="female")
    assert _rows(female) == [(1950, 0, 0.021), (1951, 110, 1.0)]
    with pytest.raises(ParseError, match="line 3:") as excinfo:
        parse_lifetable(io.StringIO("Australia, Females\nYear,Age,qx\n1950,0\n"))
    assert excinfo.value.line_number == 3


def test_blank_csv_cells_are_a_blank_record():
    text = "Year,Age,qx\n,,\n1950,0,0.5\n , \n"
    assert _rows(parse_lifetable(io.StringIO(text))) == [(1950, 0, 0.5)]


def test_padded_csv_cells_read_as_their_stripped_values():
    # "5+ " does not convert in bulk; the record-by-record reading of the
    # token helpers accepts it, as it always did.
    text = "Year,Age,qx\n 1950 , 5+ , 0.5 \n1950,6,1\n"
    assert _rows(parse_lifetable(io.StringIO(text))) == [(1950, 5, 0.5), (1950, 6, 1.0)]


def test_an_empty_body_parses_to_empty_columns():
    table = parse_lifetable(io.StringIO("Year Age qx\n\n"))
    assert _rows(table) == []
    with pytest.raises(CompletenessError, match="no rows"):
        rebuild_deaths(table)


def _table(layout, *records):
    join = " ".join if layout == "columnar" else ",".join
    lines = [join(record) + "\n" for record in (("Year", "Age", "qx"),) + records]
    return io.StringIO("".join(lines))


LAYOUTS = ["columnar", "csv"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_missing_value_token_is_an_error_with_line_number(layout):
    text = _table(layout, ("1950", "0", "0.1"), ("1950", "1", "."))
    with pytest.raises(ParseError, match="line 3:") as excinfo:
        parse_lifetable(text)
    assert excinfo.value.line_number == 3


@pytest.mark.parametrize("layout", LAYOUTS)
def test_short_line_is_a_parse_error(layout):
    with pytest.raises(ParseError, match="line 2:") as excinfo:
        parse_lifetable(_table(layout, ("1950", "0")))
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize("layout", LAYOUTS)
def test_unparseable_age_names_its_line(layout):
    with pytest.raises(ParseError, match="line 2:") as excinfo:
        parse_lifetable(_table(layout, ("1950", "x1", "0.1")))
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize("layout", LAYOUTS)
def test_the_first_bad_record_raises_whatever_comes_after_it(layout):
    # The bad year on line 3 is reported although a later line is short.
    text = _table(layout, ("1950", "0", "0.1"), ("19x0", "1", "0.1"), ("1950",))
    with pytest.raises(ParseError, match="line 3: cannot parse year"):
        parse_lifetable(text)


# Preamble text built from letters that cannot spell a Year/Age/qx header,
# with commas so that a preamble line also splits into several CSV cells.
_PREAMBLE_LINES = st.one_of(
    st.just("Australia, Females"),
    st.text(alphabet="ABCDEFabcdef ,.()1", max_size=30),
)
_SEX_TOKENS = st.sampled_from([("female", "male"), ("F", "M"), ("f", "m")])


@st.composite
def _qx_tables(draw, n_ages=st.integers(3, 12)):
    """A random qx table as ``(rows by sex, header, records, preamble)``.

    ``rows`` maps each sex (``None`` without a ``Sex`` column) to the
    ``(year, age, qx)`` records the table holds for it; ``records`` are
    the cells of every data line, in the column order of ``header``.
    """
    n_years = draw(st.integers(2, 6))
    n_ages = draw(n_ages)
    first_year = draw(st.integers(1800, 2020))
    open_group = draw(st.booleans())
    sexes = draw(st.none() | _SEX_TOKENS)
    columns = ["Year", "Age", "qx", "mx"] + (["Sex"] if sexes else [])
    columns = draw(st.permutations(columns))
    qx_values = st.floats(0.0, 0.9).map(lambda value: f"{value:.5f}")
    rows = {}
    records = []
    for sex_token in sexes or (None,):
        sex = None if sex_token is None else ("female", "male")[sexes.index(sex_token)]
        rows[sex] = []
        for year in range(first_year, first_year + n_years):
            for age in range(n_ages):
                terminal = age == n_ages - 1
                qx = "1.00000" if terminal else draw(qx_values)
                cells = {
                    "Year": str(year),
                    "Age": f"{age}+" if terminal and open_group else str(age),
                    "qx": qx,
                    "mx": "0.01000",
                    "Sex": sex_token,
                }
                records.append([cells[name] for name in columns])
                rows[sex].append((year, age, float(qx)))
    preamble = draw(st.lists(_PREAMBLE_LINES, max_size=3))
    return rows, columns, records, preamble


@settings(max_examples=60, deadline=None)
@given(_qx_tables())
def test_both_layouts_parse_to_the_same_rows_and_grid(table):
    rows, header, records, preamble = table

    def render(separator):
        lines = preamble + [separator.join(cells) for cells in [header] + records]
        return "\n".join(lines) + "\n"

    columnar, csv_text = render("  "), render(",")
    both = [row for sex_rows in rows.values() for row in sex_rows]
    assert _rows(parse_lifetable(io.StringIO(columnar))) == both
    assert _rows(parse_lifetable(io.StringIO(csv_text))) == both
    if None in rows:
        # A sex filter passes a table without a Sex column through.
        assert _rows(parse_lifetable(io.StringIO(columnar), sex_filter="male")) == both
    for sex, expected in rows.items():
        from_columnar = parse_lifetable(io.StringIO(columnar), sex_filter=sex)
        from_csv = parse_lifetable(io.StringIO(csv_text), sex_filter=sex)
        assert _rows(from_columnar) == _rows(from_csv) == expected
        np.testing.assert_array_equal(
            rebuild_deaths(from_columnar).deaths, rebuild_deaths(from_csv).deaths
        )


_FAULTS = (
    "short",
    "missing_value",
    "bad_age",
    "qx_outside",
    "unknown_sex",
    "duplicate_age",
    "missing_age",
    "open_terminal",
)


@st.composite
def _ingest_cases(draw):
    """A rendered table, the sex filter to read it with, and its faults.

    On top of :func:`_qx_tables` the records may be shuffled, padded (in
    CSV) and interleaved with blank records, the table may close at 100 or
    110, and up to two faults are injected into random records.
    """
    rows, header, records, preamble = draw(
        _qx_tables(n_ages=st.integers(3, 12) | st.sampled_from([101, 111]))
    )
    layout = draw(st.sampled_from(LAYOUTS))
    # Reading a two-sex table without a filter duplicates every age.
    sexes = [sex for sex in rows if sex is not None]
    sex_filter = draw(st.sampled_from([*sexes, None] if sexes else [None, "total"]))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        rng.shuffle(records)
    faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=2))
    column = {name.lower(): header.index(name) for name in header}
    # A record is cut short last, so that no later fault reads past its end.
    for fault in sorted(faults, key=lambda fault: fault == "short"):
        at = rng.randrange(len(records))
        record = records[at]
        if fault == "short":
            records[at] = record[:1]
        elif fault == "missing_value":
            record[column["qx"]] = "."
        elif fault == "bad_age":
            record[column["age"]] = rng.choice(["x1", "1+0", "5++", "", "1.5"])
        elif fault == "qx_outside":
            record[column["qx"]] = rng.choice(["-0.1", "1.5", "nan", "inf"])
        elif fault == "unknown_sex" and "sex" in column:
            record[column["sex"]] = "X"
        elif fault == "duplicate_age":
            records.insert(rng.randrange(len(records) + 1), list(record))
        elif fault == "missing_age":
            del records[at]
        elif fault == "open_terminal":
            terminal = [r for r in records if r[column["qx"]] == "1.00000"]
            if terminal:
                rng.choice(terminal)[column["qx"]] = "0.97000"
    if layout == "csv" and draw(st.booleans()):
        records = [[f" {cell} " for cell in record] for record in records]
    blank = "   " if layout == "columnar" else rng.choice(["", ",,", " , "])
    for _ in range(draw(st.integers(0, 3))):
        records.insert(rng.randrange(len(records) + 1), [blank])
    separator = "  " if layout == "columnar" else ","
    lines = preamble + [separator.join(cells) for cells in [header] + records]
    return "\n".join(lines) + "\n", sex_filter, faults


@settings(max_examples=150, deadline=None)
@given(_ingest_cases())
def test_columnar_ingest_matches_the_per_record_reference(case):
    text, sex_filter, _ = case
    parsed = _outcome(lambda: parse_lifetable(io.StringIO(text), sex_filter=sex_filter))
    reference = _outcome(lambda: _reference_parse(text, sex_filter=sex_filter))
    if parsed[0] != "ok":
        assert parsed == reference
        return
    assert reference[0] == "ok"
    assert _rows(parsed[1]) == reference[1]
    grid = _outcome(lambda: rebuild_deaths(parsed[1]))
    expected = _outcome(lambda: _reference_rebuild(reference[1]))
    if grid[0] != "ok":
        assert grid == expected
        return
    assert expected[0] == "ok"
    grid, expected = grid[1], expected[1]
    np.testing.assert_array_equal(grid.years, expected.years)
    np.testing.assert_array_equal(grid.ages, expected.ages)
    assert grid.deaths.tobytes() == expected.deaths.tobytes()


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
    assert _rows(parse_lifetable(target)) == [(1950, 0, 0.5)]


def test_survivorship_toy_table():
    # l = (1000, 900, 450), d_u = l_u q_u, terminal takes the survivors.
    deaths = _survivorship_deaths(np.array([0.1, 0.5, 1.0]), 1000.0)
    np.testing.assert_allclose(deaths, [100.0, 450.0, 450.0], rtol=0, atol=1e-12)
    assert deaths.sum() == pytest.approx(1000.0, abs=1e-9)


def test_survivorship_sums_to_radix_even_without_terminal_closure_in_qx():
    rng = np.random.default_rng(11)
    qx = rng.uniform(0.0, 0.5, size=(50, 30))
    qx[:, -1] = 1.0
    deaths = _survivorship_deaths(qx, 100000.0)
    for row, table in zip(deaths, qx):
        assert row.sum() == pytest.approx(100000.0, rel=1e-12)
        assert np.all(row >= 0.0)
        # Each row runs the one-year recursion, to the bit.
        assert row.tobytes() == _reference_survivorship(table, 100000.0).tobytes()


def _full_rows(year, qx_flat, terminal=110):
    qx = np.full(terminal + 1, qx_flat)
    qx[-1] = 1.0
    return [(year, age, qx[age]) for age in range(terminal + 1)]


def test_rebuild_matches_closed_form_geometric_table():
    grid = rebuild_deaths(_columns(_full_rows(2000, 0.05)))
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
    grid = rebuild_deaths(_columns(rows))
    assert grid.years.tolist() == [1999, 2001]
    reference = rebuild_deaths(_columns(_full_rows(1999, 0.05)))
    np.testing.assert_array_equal(grid.deaths[0], reference.deaths[0])
    assert grid.deaths.tobytes() == _reference_rebuild(rows).deaths.tobytes()


def test_rebuild_applies_positivity_floor():
    # qx = 0.9 drives late ages to ~1e5 * 0.1^110, far below the floor.  The
    # floor is applied before the final renormalisation, which can shave a
    # relative 1e-9 off floored entries but never produces zeros.
    grid = rebuild_deaths(_columns(_full_rows(2000, 0.9)))
    assert grid.deaths.min() >= 1e-6 * (1.0 - 1e-6)
    assert grid.deaths.min() > 0.0
    assert grid.deaths[0].sum() == pytest.approx(100000.0, abs=1e-6)


def test_rebuild_rejects_duplicate_age():
    rows = _full_rows(2000, 0.05) + [(2000, 50, 0.05)]
    with pytest.raises(CompletenessError, match="duplicate"):
        rebuild_deaths(_columns(rows))


def test_rebuild_reports_the_earliest_repeated_record():
    # Record order decides which duplicate is named, as it decides which
    # parse error is, even when a later year is also incomplete.
    rows = _full_rows(2001, 0.05)[:-1] + _full_rows(2000, 0.05)
    rows += [(2000, 7, 0.1), (2001, 3, 0.1), (2000, -1, 0.1)]
    with pytest.raises(CompletenessError, match="^year 2000: duplicate age 7$"):
        rebuild_deaths(_columns(rows))
    with pytest.raises(CompletenessError, match="^year 2000: duplicate age 7$"):
        _reference_rebuild(rows)


def test_rebuild_rejects_missing_age():
    rows = [r for r in _full_rows(2000, 0.05) if r[1] != 30]
    with pytest.raises(CompletenessError, match="2000"):
        rebuild_deaths(_columns(rows))


def test_rebuild_names_missing_and_unexpected_ages():
    rows = [r for r in _full_rows(2000, 0.05, terminal=20) if r[1] not in (3, 9)]
    rows += [(2000, -2, 0.1), (2000, -5, 0.1)]
    message = (
        "year 2000: ages must cover 0..20 exactly once"
        " (missing [3, 9], unexpected [-5, -2])"
    )
    for rebuild in (rebuild_deaths, _reference_rebuild):
        with pytest.raises(CompletenessError) as excinfo:
            rebuild(_columns(rows) if rebuild is rebuild_deaths else rows)
        assert str(excinfo.value) == message


def test_a_stray_huge_age_is_reported_without_building_its_range():
    # One mistyped age makes T huge; the report lists the first missing
    # ages without materialising 0..T.
    rows = _full_rows(2000, 0.05, terminal=5) + [(2000, 10**12, 1.0)]
    with pytest.raises(CompletenessError) as excinfo:
        rebuild_deaths(_columns(rows))
    assert str(excinfo.value) == (
        f"year 2000: ages must cover 0..{10**12} exactly once"
        " (missing [6, 7, 8, 9, 10], unexpected [])"
    )


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
    np.testing.assert_array_equal(grid.deaths, rebuild_deaths(_columns(rows)).deaths)


def test_rebuild_rejects_years_with_different_terminal_ages():
    rows = _full_rows(2000, 0.05, terminal=100) + _full_rows(2001, 0.05)
    with pytest.raises(CompletenessError, match="2000.*0..110"):
        rebuild_deaths(_columns(rows))
    rows = _full_rows(2000, 0.05) + _full_rows(2001, 0.05, terminal=100)
    with pytest.raises(CompletenessError, match="2001"):
        rebuild_deaths(_columns(rows))


def test_rebuild_rejects_open_terminal_group():
    rows = _full_rows(2000, 0.05)
    rows[-1] = (2000, 110, 0.97)
    with pytest.raises(DomainError, match="terminal"):
        rebuild_deaths(_columns(rows))


def test_rebuild_reports_the_earliest_year_at_fault():
    # Years are checked in order: an open terminal group in 1999 is
    # reported before the missing age of 2000, and vice versa.
    open_1999 = _full_rows(1999, 0.05)
    open_1999[-1] = (1999, 110, 0.5)
    gap_2000 = _full_rows(2000, 0.05)[1:]
    for rows, error, message in (
        (gap_2000 + open_1999, DomainError, "year 1999: terminal age group must have qx = 1, got 0.5"),
        (
            [(1998, age, qx) for _, age, qx in gap_2000] + open_1999,
            CompletenessError,
            "year 1998: ages must cover 0..110 exactly once (missing [0], unexpected [])",
        ),
    ):
        for result in (
            _outcome(lambda: rebuild_deaths(_columns(rows))),
            _outcome(lambda: _reference_rebuild(rows)),
        ):
            assert result == (error, message, None)


def test_rebuild_rejects_empty_and_bad_radix():
    with pytest.raises(CompletenessError):
        rebuild_deaths(_columns([]))
    with pytest.raises(DomainError):
        rebuild_deaths(_columns(_full_rows(2000, 0.05)), radix=0.0)


@pytest.mark.parametrize("radix", [np.nan, np.inf, -np.inf, -1.0])
def test_rebuild_rejects_a_radix_that_is_not_finite_and_positive(radix):
    with pytest.raises(DomainError, match="radix must be finite and positive"):
        rebuild_deaths(_columns(_full_rows(2000, 0.05)), radix=radix)


@pytest.mark.parametrize("radix", [np.nan, np.inf, 0.0])
def test_grid_rejects_a_radix_that_is_not_finite_and_positive(radix):
    # Rows that sum to 100 fail a NaN radix only through the radix check:
    # the row-sum comparison against NaN is false.
    with pytest.raises(DomainError, match="radix must be finite and positive"):
        LifeTableGrid(
            years=[2000], ages=np.arange(3), deaths=[[20.0, 30.0, 50.0]], radix=radix
        )


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
