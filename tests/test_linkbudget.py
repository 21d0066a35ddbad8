"""FER table ingestion, interpolation, and operating-point composition."""

import math
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdlsic.channel import SnrSpec
from pdlsic.cli import main
from pdlsic.linkbudget import (
    FER_COLUMNS,
    SNAP_TOL_DB,
    FerPoint,
    FerTable,
    FerTableError,
    SnrOutOfRangeError,
    evaluate_operating_point,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def write_table(path, rows, header="snr_db,fer,rate_bits_per_real_dim,label"):
    lines = [header] + rows
    # a lone surrogate drawn into a cell reaches the file as invalid UTF-8
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
    return path


@pytest.fixture
def reference_tables(tmp_path):
    t1 = write_table(tmp_path / "code1.csv", ["11.08,1.2e-3,1.8,8ASK-R3/4-PAS"])
    t2 = write_table(tmp_path / "code2.csv", ["13.01,1.3e-3,2.1,16ASK-R5/6-PAS"])
    return FerTable.from_csv(t1), FerTable.from_csv(t2)


class TestFerTable:
    def test_csv_round_trip(self, tmp_path):
        path = write_table(
            tmp_path / "t.csv",
            ["10.0,1e-2,1.5,codeA", "12.0,1e-4,1.5,codeA"],
        )
        table = FerTable.from_csv(path)
        assert len(table.points) == 2
        assert (table.points[0].snr_db, table.points[-1].snr_db) == (10.0, 12.0)
        assert table.points[0].label == "codeA"

    def test_sorts_rows(self):
        table = FerTable(
            (
                FerPoint(12.0, 1e-4, 1.5, "a"),
                FerPoint(10.0, 1e-2, 1.5, "a"),
            )
        )
        assert [p.snr_db for p in table.points] == [10.0, 12.0]

    def test_rejects_bad_header(self, tmp_path):
        path = write_table(tmp_path / "t.csv", ["10,1e-2,1.5,x"], header="snr,fer,rate,label")
        with pytest.raises(FerTableError):
            FerTable.from_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FerTableError):
            FerTable.from_csv(path)
        path2 = write_table(tmp_path / "header_only.csv", [])
        with pytest.raises(FerTableError):
            FerTable.from_csv(path2)

    def test_rejects_bad_values(self, tmp_path):
        with pytest.raises(FerTableError):
            FerTable.from_csv(write_table(tmp_path / "a.csv", ["10,1.5,1.5,x"]))
        with pytest.raises(FerTableError):
            FerTable.from_csv(write_table(tmp_path / "b.csv", ["10,1e-2,-1,x"]))
        with pytest.raises(FerTableError):
            FerTable.from_csv(write_table(tmp_path / "c.csv", ["10,abc,1,x"]))
        with pytest.raises(FerTableError):
            FerTable.from_csv(write_table(tmp_path / "d.csv", ["10,1e-2,1"]))
        for row in ("nan,1e-2,1.5,x", "inf,1e-2,1.5,x", "10,nan,1.5,x", "10,1e-2,inf,x"):
            with pytest.raises(FerTableError):
                FerTable.from_csv(write_table(tmp_path / "e.csv", ["9,1e-2,1.5,x", row]))

    @pytest.mark.parametrize("cell", ["1_0.0", "\u0661\u0660", "\uff11\uff10.5", "0x10", "1e", "1.2.3"])
    @pytest.mark.parametrize("col", [0, 1, 2])
    def test_rejects_numbers_that_are_not_plain_decimal(self, tmp_path, capsys, cell, col):
        # float() would read 1_0.0 and the Arabic-Indic digits as 10, the fullwidth ones as 10.5
        cells = ["10", "1e-2", "1.5", "x"]
        cells[col] = cell
        path = write_table(tmp_path / "t.csv", [",".join(cells)])
        with pytest.raises(FerTableError, match="decimal"):
            FerTable.from_csv(path)
        code = main(["fer", "--alpha", "0.599", "--snr-db", "13.01", "--table1", str(path),
                     "--table2", str(DATA / "fer_code2_16ask_pas.csv")])
        assert code == 2 and "decimal" in capsys.readouterr().err

    def test_rejects_invalid_utf8(self, tmp_path, capsys):
        # the lone surrogate is written as the bytes ED A0 80, which no UTF-8 reader accepts
        path = write_table(tmp_path / "t.csv", ["10,1e-2,1.5,\ud800"])
        with pytest.raises(FerTableError, match="cannot parse"):
            FerTable.from_csv(path)
        code = main(["fer", "--alpha", "0.599", "--snr-db", "13.01", "--table1", str(path),
                     "--table2", str(DATA / "fer_code2_16ask_pas.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "error" in captured.err

    def test_reads_plain_decimal_forms(self, tmp_path):
        rows = ["+10,1.2e-3,1.5,a", "11.,1E+0,1.5,a", " 12.5 ,\t.5e-1,2,a", "-13,0.0,1.5e0,a"]
        table = FerTable.from_csv(write_table(tmp_path / "t.csv", rows))
        assert [(p.snr_db, p.fer, p.rate_bits_per_real_dim) for p in table.points] == [
            (-13.0, 0.0, 1.5), (10.0, 1.2e-3, 1.5), (11.0, 1.0, 1.5), (12.5, 0.05, 2.0)]

    def test_rejects_duplicate_snr(self):
        with pytest.raises(FerTableError):
            FerTable((FerPoint(10.0, 1e-2, 1.5, "a"), FerPoint(10.0, 1e-3, 1.5, "a")))

    def test_log_linear_interpolation(self):
        table = FerTable((FerPoint(10.0, 1e-2, 1.5, "a"), FerPoint(12.0, 1e-4, 1.5, "a")))
        # halfway in dB means halfway in log10(FER)
        assert table.fer_at(11.0) == pytest.approx(1e-3, rel=1e-12)
        assert table.fer_at(10.5) == pytest.approx(10 ** (-2.5), rel=1e-12)

    def test_snap_tolerance(self):
        table = FerTable((FerPoint(11.08, 1.2e-3, 1.8, "a"),))
        assert table.fer_at(11.08 - 8e-4) == 1.2e-3
        assert table.fer_at(11.08 + 8e-4) == 1.2e-3
        with pytest.raises(SnrOutOfRangeError):
            table.fer_at(11.09)

    def test_out_of_range_names_required_snr(self):
        table = FerTable((FerPoint(10.0, 1e-2, 1.5, "a"), FerPoint(12.0, 1e-4, 1.5, "a")))
        with pytest.raises(SnrOutOfRangeError, match="13.5"):
            table.fer_at(13.5)
        with pytest.raises(SnrOutOfRangeError):
            table.fer_at(9.0)

    def test_zero_fer_linear_fallback(self):
        table = FerTable((FerPoint(10.0, 1e-2, 1.5, "a"), FerPoint(12.0, 0.0, 1.5, "a")))
        assert table.fer_at(11.0) == pytest.approx(0.5e-2)

    def test_rate_at_nearest_row(self):
        table = FerTable((FerPoint(10.0, 1e-2, 1.5, "a"), FerPoint(12.0, 1e-4, 2.5, "a")))
        assert table.rate_at(10.4) == 1.5
        assert table.rate_at(11.9) == 2.5


@st.composite
def fer_points(draw):
    """2 to 8 valid rows, at least 0.01 dB apart (ten snap tolerances)."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    snrs = draw(st.floats(-10.0, 30.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    return [
        FerPoint(
            float(snr),
            draw(st.floats(1e-9, 1.0)),
            draw(st.floats(0.01, 5.0)),
            draw(st.text(string.ascii_letters + string.digits + "-/", min_size=1, max_size=8)),
        )
        for snr in snrs
    ]


def csv_rows(points):
    return [f"{p.snr_db!r},{p.fer!r},{p.rate_bits_per_real_dim!r},{p.label}" for p in points]


def finite_float(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


# Characters that cannot change how the csv module splits a row.
NO_CSV_SYNTAX = st.characters(blacklist_characters=',"\r\n')

# Multi-row tables written to disk: the bundled tables have one row each.
PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestFerTableProperties:
    @PROPERTY_SETTINGS
    @given(points=fer_points(), data=st.data())
    def test_csv_round_trip(self, points, data, tmp_path):
        shuffled = data.draw(st.permutations(points))
        table = FerTable.from_csv(write_table(tmp_path / "t.csv", csv_rows(shuffled)))
        assert table.points == tuple(points)

    @PROPERTY_SETTINGS
    @given(points=fer_points(), data=st.data())
    def test_log_linear_between_rows(self, points, data, tmp_path):
        table = FerTable.from_csv(write_table(tmp_path / "t.csv", csv_rows(points)))
        i = data.draw(st.integers(0, len(points) - 2))
        lo, hi = points[i], points[i + 1]
        # at least 0.002 dB from either row, and off the rate_at midpoint
        w = data.draw(st.floats(0.2, 0.45) | st.floats(0.55, 0.8))
        snr_db = lo.snr_db + w * (hi.snr_db - lo.snr_db)
        w = (snr_db - lo.snr_db) / (hi.snr_db - lo.snr_db)
        expect = 10.0 ** ((1.0 - w) * math.log10(lo.fer) + w * math.log10(hi.fer))
        fer = table.fer_at(snr_db)
        assert fer == pytest.approx(expect, rel=1e-9)
        assert min(lo.fer, hi.fer) * (1 - 1e-12) <= fer <= max(lo.fer, hi.fer) * (1 + 1e-12)
        assert table.rate_at(snr_db) == (lo if w < 0.5 else hi).rate_bits_per_real_dim

    @PROPERTY_SETTINGS
    @given(points=fer_points(), data=st.data())
    def test_snaps_to_a_row_within_tolerance(self, points, data, tmp_path):
        table = FerTable.from_csv(write_table(tmp_path / "t.csv", csv_rows(points)))
        row = data.draw(st.sampled_from(points))
        snr_db = row.snr_db + data.draw(st.floats(-0.9 * SNAP_TOL_DB, 0.9 * SNAP_TOL_DB))
        assert table.fer_at(snr_db) == row.fer
        assert table.rate_at(snr_db) == row.rate_bits_per_real_dim

    @PROPERTY_SETTINGS
    @given(points=fer_points(), beyond=st.floats(1.01 * SNAP_TOL_DB, 50.0))
    def test_never_extrapolates(self, points, beyond, tmp_path):
        table = FerTable.from_csv(write_table(tmp_path / "t.csv", csv_rows(points)))
        for snr_db in (points[0].snr_db - beyond, points[-1].snr_db + beyond):
            with pytest.raises(SnrOutOfRangeError) as exc:
                table.fer_at(snr_db)
            assert exc.value.required_snr_db == snr_db
            with pytest.raises(SnrOutOfRangeError):
                table.rate_at(snr_db)

    @PROPERTY_SETTINGS
    @given(points=fer_points(), data=st.data())
    def test_cli_rejects_malformed_csv(self, points, data, tmp_path, capsys):
        rows = csv_rows(points)
        header = ",".join(FER_COLUMNS)
        r = data.draw(st.integers(0, len(rows) - 1))
        cells = rows[r].split(",")
        defect = data.draw(st.sampled_from(
            ["token", "out_of_range", "missing_cell", "extra_cell", "header", "duplicate"]))
        if defect == "token":  # a cell that is not a finite number
            col = data.draw(st.integers(0, 2))
            cells[col] = data.draw(
                st.text(NO_CSV_SYNTAX, max_size=6)
                .filter(lambda t: not finite_float(t))
                | st.sampled_from(["nan", "inf", "-inf", "1e999"])
            )
        elif defect == "out_of_range":
            col, bad = data.draw(st.sampled_from([
                (1, st.floats(1.0, 1e6, exclude_min=True)),
                (1, st.floats(-1e6, -1e-12)),
                (2, st.floats(-1e6, 0.0)),
            ]))
            cells[col] = repr(data.draw(bad))
        elif defect == "missing_cell":
            del cells[data.draw(st.integers(0, 3))]
        elif defect == "extra_cell":
            cells.append(data.draw(st.text(NO_CSV_SYNTAX, max_size=4)))
        elif defect == "header":
            header = data.draw(
                st.text(st.characters(blacklist_characters='"\r\n'), max_size=40)
                .filter(lambda t: tuple(c.strip() for c in t.split(",")) != FER_COLUMNS)
            )
        else:  # a second row closer than the snap tolerance
            shift = data.draw(st.floats(0.0, 0.9 * SNAP_TOL_DB))
            rows.append(",".join([repr(points[r].snr_db + shift), *cells[1:]]))
        rows[r] = ",".join(cells)
        path = write_table(tmp_path / "bad.csv", rows, header=header)
        with pytest.raises(FerTableError):  # refused when read, not by a later lookup
            FerTable.from_csv(path)
        code = main(["fer", "--alpha", "0.599", "--snr-db", "13.01", "--table1", str(path),
                     "--table2", str(DATA / "fer_code2_16ask_pas.csv")])
        captured = capsys.readouterr()
        assert code == 2, (defect, path.read_text())
        assert captured.out == "" and "error" in captured.err


def single_row(snr_db, fer, rate):
    return FerTable((FerPoint(snr_db, fer, rate, "synthetic"),))


def rate_for_gap(snr_db, gap_db):
    """The rate whose Shannon SNR sits ``gap_db`` below ``snr_db``."""
    return 0.5 * math.log2(1.0 + 10.0 ** ((snr_db - gap_db) / 10.0))


def compose(f1, f2, g1=1.0, g2=1.0, alpha=0.599, snr_db=13.01):
    """The operating point of one-row tables with FERs f1, f2 and code gaps g1, g2 dB."""
    snr = SnrSpec.from_db(snr_db)
    snr1_db = 10.0 * math.log10((1.0 - alpha**2) * snr.snr_linear)
    table1 = single_row(snr1_db, f1, rate_for_gap(snr1_db, g1))
    table2 = single_row(snr.snr_db, f2, rate_for_gap(snr.snr_db, g2))
    return evaluate_operating_point(alpha, snr, table1, table2)


class TestCompose:
    """The end-to-end FER and composed gap of evaluate_operating_point on synthetic tables."""

    def test_gap_examples(self):
        assert compose(1e-3, 1e-3, 1.0, 1.0).composed_gap_db == pytest.approx(1.0, abs=1e-12)
        assert compose(1e-3, 1e-3, 0.8, 1.2).composed_gap_db == pytest.approx(1.0, abs=1e-12)

    def test_gap_symmetry(self):
        # at alpha = 0 both codes see the same SNR, so swapping them swaps the gaps
        a = compose(1e-3, 1e-3, 0.3, 0.9, alpha=0.0)
        b = compose(1e-3, 1e-3, 0.9, 0.3, alpha=0.0)
        assert a.composed_gap_db == b.composed_gap_db

    def test_gap_domain(self):
        # a rate above the Shannon limit of its code's SNR is a negative gap
        with pytest.raises(FerTableError):
            compose(1e-3, 1e-3, g1=-0.1)

    def test_fer_examples(self):
        point = compose(1.2e-3, 1.3e-3)
        assert point.fer_bound == pytest.approx(2.5e-3, rel=1e-12)
        assert point.fer_exact == pytest.approx(2.49844e-3, rel=1e-9)
        assert point.fer_exact <= point.fer_bound

    def test_fer_edge_cases(self):
        point = compose(0.0, 0.37)
        assert point.fer_exact == point.fer_bound == 0.37
        assert compose(0.9, 0.9).fer_bound == 1.0

    def test_bound_minus_exact_is_product(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f1, f2 = rng.uniform(0, 0.4, size=2)
            point = compose(f1, f2)
            assert point.fer_bound - point.fer_exact == pytest.approx(f1 * f2, rel=1e-10)

    def test_fer_domain(self):
        # a table cannot hold an FER outside [0, 1], so none reaches the composition
        with pytest.raises(FerTableError):
            compose(-0.1, 0.5)
        with pytest.raises(FerTableError):
            compose(0.5, 1.1)

    @settings(max_examples=100, deadline=None)
    @given(
        f1=st.floats(0.0, 1.0),
        f2=st.floats(0.0, 1.0),
        g1=st.floats(0.01, 3.0),
        g2=st.floats(0.01, 3.0),
        alpha=st.floats(0.0, 0.9),
        snr_db=st.floats(0.0, 30.0),
    )
    def test_composition_laws(self, f1, f2, g1, g2, alpha, snr_db):
        point = compose(f1, f2, g1, g2, alpha, snr_db)
        assert (point.code1.fer, point.code2.fer) == (f1, f2)
        assert point.fer_exact == f1 + f2 - f1 * f2
        assert point.fer_bound == min(f1 + f2, 1.0)
        assert point.composed_gap_db == (point.code1.gap_db + point.code2.gap_db) / 2.0
        assert point.composed_gap_db == pytest.approx((g1 + g2) / 2.0, abs=1e-9)


class TestOperatingPoint:
    def test_reference_point(self, reference_tables):
        t1, t2 = reference_tables
        point = evaluate_operating_point(0.599, SnrSpec.from_db(13.01), t1, t2)
        assert point.total_rate_bits_per_real_dim == pytest.approx(1.95, abs=1e-12)
        assert point.fer_bound == pytest.approx(2.5e-3, abs=1e-5)
        assert point.fer_exact <= point.fer_bound
        assert point.composed_gap_db < 0.7
        assert point.gap_to_capacity_db < 0.7
        assert point.code1.fer == 1.2e-3
        assert point.code2.fer == 1.3e-3

    def test_tabulated_rates_imply_sub_db_gaps(self, reference_tables):
        # the per-code gaps invert C at the tabulated rates 1.8 and 2.1
        point = evaluate_operating_point(0.599, SnrSpec(20.0), *reference_tables)
        assert point.code1.gap_db == pytest.approx(0.6169, abs=1e-4)
        assert point.code2.gap_db == pytest.approx(0.6100, abs=1e-4)
        assert point.code1.gap_db == pytest.approx(
            10 * math.log10((1 - 0.599**2) * 20.0 / (2 ** (2 * 1.8) - 1)), rel=1e-12
        )

    def test_alpha_zero_same_query(self, tmp_path):
        path = write_table(
            tmp_path / "t.csv", ["9.0,1e-2,1.0,c", "11.0,1e-4,1.0,c"]
        )
        table = FerTable.from_csv(path)
        point = evaluate_operating_point(0.0, SnrSpec.from_db(10.0), table, table)
        assert point.code1.snr_db == pytest.approx(point.code2.snr_db, rel=1e-12)
        assert point.code1.fer == pytest.approx(point.code2.fer, rel=1e-12)

    def test_monotone_fer_in_snr(self, tmp_path):
        rows = [f"{snr},{10 ** (-1 - 0.8 * (snr - 8)):.6e},1.2,c" for snr in range(8, 17)]
        table = FerTable.from_csv(write_table(tmp_path / "t.csv", rows))
        fers = []
        for snr_db in np.linspace(12.0, 14.5, 11):
            point = evaluate_operating_point(0.3, SnrSpec.from_db(snr_db), table, table)
            fers.append(point.fer_bound)
        assert all(a >= b for a, b in zip(fers, fers[1:]))

    def test_out_of_range_propagates(self, reference_tables):
        t1, t2 = reference_tables
        with pytest.raises(SnrOutOfRangeError):
            evaluate_operating_point(0.599, SnrSpec.from_db(12.0), t1, t2)

    def test_super_shannon_table_rejected(self, tmp_path):
        # a row claiming 3 bits/dim at 10 dB (Shannon needs ~18 dB) is unphysical
        table = FerTable.from_csv(
            write_table(tmp_path / "t.csv", ["10.0,1e-3,3.0,bogus"])
        )
        with pytest.raises(FerTableError):
            evaluate_operating_point(0.0, SnrSpec.from_db(10.0), table, table)
