"""MMS flat-file ingestion tests — fixtures mirror the reference's inline
unit tests (/root/reference/src/flatfile.rs:644-773) and exercise the full
parse -> segment -> typed pivot -> route pipeline."""

import io
import zipfile

import pyarrow as pa
import pytest

from nem_mms_ray.mms import parse_flatfile_bytes
from nem_mms_ray.mms.depository import (
    DepositoryState,
    HistoricFilename,
    NonHistoricFilename,
    filename_from_path,
)
from nem_mms_ray.mms.flatfile import MmsParseError
from nem_mms_ray.mms.schemas import PACKAGES, package_for_header, package_info
from nem_mms_ray.mms.sources import expand_paths, iter_zip_csv_bytes
from nem_mms_ray.mms.typed_cast import (
    MmsNullError,
    cast_bool,
    cast_float64,
    cast_int8,
    cast_int16,
    cast_string,
    cast_timestamp_s,
)

SCADA_CSV = b"""C,NEMP.WORLD,DISPATCHSCADA,AEMO,PUBLIC,2021/04/01,04:43:39,339145123,DISPATCHSCADA,339145118
I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE
D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,UNIT1,135.1
D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,UNIT2,
D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:45:00,UNIT1,137.25
C,END OF REPORT,6
"""

# column order shuffled + an extra column the schema doesn't list
SCADA_CSV_SHUFFLED = b"""I,DISPATCH,UNIT_SCADA,1,SCADAVALUE,EXTRA,DUID,SETTLEMENTDATE
D,DISPATCH,UNIT_SCADA,1,135.1,junk,UNIT1,2021/04/01 04:40:00
C,END OF REPORT,3
"""

TWO_TABLE_CSV = b"""I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE
D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,UNIT1,1.5
I,DISPATCH,LOCAL_PRICE,1,SETTLEMENTDATE,DUID,LOCAL_PRICE_ADJUSTMENT,LOCALLY_CONSTRAINED
D,DISPATCH,LOCAL_PRICE,1,2021/04/01 04:40:00,UNIT1,0.0,1
D,DISPATCH,LOCAL_PRICE,1,2021/04/01 04:40:00,UNIT2,2.5,0
C,END OF REPORT,6
"""

UNKNOWN_PKG_CSV = b"""I,BID,BIDDAYOFFER_D,2,SETTLEMENTDATE,DUID
D,BID,BIDDAYOFFER_D,2,2021/03/31 00:00,DUID1
C,END OF REPORT,3
"""


def test_segmentation_and_typed_pivot():
    parsed = parse_flatfile_bytes(SCADA_CSV)
    assert len(parsed.tables) == 1
    t = parsed.tables[0].to_arrow()
    assert t.schema.equals(PACKAGES["DISPATCH_UNIT_SCADA"].schema)
    assert t.num_rows == 3
    assert t.column("DUID").to_pylist() == ["UNIT1", "UNIT2", "UNIT1"]
    assert t.column("SCADAVALUE").to_pylist() == [135.1, None, 137.25]
    ts = t.column("SETTLEMENTDATE").cast(pa.int64()).to_pylist()
    assert ts[0] == ts[1] != ts[2]
    assert parsed.end_of_report_count() == 6


def test_column_binding_by_name_not_position():
    parsed = parse_flatfile_bytes(SCADA_CSV_SHUFFLED)
    t = parsed.tables[0].to_arrow()
    # schema order restored; EXTRA dropped silently
    assert t.column_names == ["DUID", "SETTLEMENTDATE", "SCADAVALUE"]
    assert t.column("DUID").to_pylist() == ["UNIT1"]
    assert t.column("SCADAVALUE").to_pylist() == [135.1]


def test_missing_header_errors():
    csv = b"I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,SCADAVALUE\nD,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,1.0\n"
    with pytest.raises(MmsParseError, match="DUID"):
        parse_flatfile_bytes(csv).tables[0].to_arrow()


def test_null_in_non_nullable_errors():
    csv = b"I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE\nD,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,,1.0\n"
    with pytest.raises(MmsNullError, match="DUID"):
        parse_flatfile_bytes(csv).tables[0].to_arrow()


def test_data_before_header_skipped_and_unknown_tag_errors():
    parsed = parse_flatfile_bytes(b"D,DISPATCH,UNIT_SCADA,1,x,y,z\nC,END OF REPORT,2\n")
    assert parsed.tables == []
    with pytest.raises(MmsParseError, match="unrecognized record tag"):
        parse_flatfile_bytes(b"X,foo\n")


def test_caret_underline_rendering_parity():
    """Mirror of the reference's display tests
    (/root/reference/src/error.rs:173-206), minus ANSI color."""
    from nem_mms_ray.mms.flatfile import underline_record

    row = ["one", "two", "three"]
    assert underline_record(row, 1) == "\n\n\tone,two,three\n\t    ^^^\n\n"
    assert underline_record(row, 2) == "\n\n\tone,two,three\n\t        ^^^^^\n\n"
    assert underline_record(row, 2, ["four", "five"]) == (
        "\n\n\tone,two,three\n\t        ^^^^^\n\n"
        'Expected one of ["four", "five"]\n')
    assert underline_record(row, 8) == "\n\n\tone,two,three\n\t             ^^^\n\n"
    # parse errors carry the rendering
    with pytest.raises(MmsParseError) as ei:
        parse_flatfile_bytes(b"X,foo\n")
    assert "\tX,foo\n\t^\n" in str(ei.value)
    assert 'Expected one of ["C", "I", "D"]' in str(ei.value)


def test_fast_path_requires_exact_tag_field():
    """Quote-free lines whose first FIELD merely starts with I/C/D must raise
    like the row path (flatfile.rs:292-294), not silently parse."""
    hdr = b"I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE\n"
    for bad in (b"INFO,DISPATCH,UNIT_SCADA,1,a,b,c\n",
                b"COMMENTX,END OF REPORT,2\n",
                b"DUMMY,DISPATCH,UNIT_SCADA,1,x,y,z\n"):
        with pytest.raises(MmsParseError, match="unrecognized record tag"):
            parse_flatfile_bytes(hdr + bad)
    # lone "D" line: short data record both paths
    with pytest.raises(MmsParseError):
        parse_flatfile_bytes(hdr + b"D\n")


def test_unknown_package_detected():
    parsed = parse_flatfile_bytes(UNKNOWN_PKG_CSV)
    assert parsed.tables[0].package is None
    assert package_for_header("BID", "BIDDAYOFFER_D") is None
    assert package_for_header("DISPATCH", "UNIT_SCADA").name == "DISPATCH_UNIT_SCADA"


def test_comment_subdispatch():
    parsed = parse_flatfile_bytes(SCADA_CSV)
    kinds = [c.kind for c in parsed.comments]
    assert kinds == ["EMMS", "EOR"]
    but = parse_flatfile_bytes(
        b"C,PRODUCTION,BLIND_UPDATE_SUBMISSION,PARTICIPANTID,NEMMCO,2021/09/03,22:04:05,,,,NEM,123ABC-002,324-BB321\n"
    )
    assert but.comments[0].kind == "BUT"


def test_dispatchprice_schema_shape():
    s = PACKAGES["DISPATCHPRICE"].schema
    assert len(s) == 56
    assert s.field("RAISEREGAPCFLAG").type == pa.int16()
    assert s.field("CUMUL_PRE_AP_LOWERREG_PRICE").type == pa.float64()
    assert s.field("MII_STATUS").type == pa.string()
    assert [f.name for f in s][:5] == [
        "SETTLEMENTDATE", "RUNNO", "REGIONID", "DISPATCHINTERVAL", "INTERVENTION"
    ]


# ---------------------------------------------------------------------------
# typed casts (the DataValue cascade, vectorized)
# ---------------------------------------------------------------------------


def test_cast_string_integer_canonicalization():
    # the reference's "241" case: Integer-inferred then stringified back
    out = cast_string(["241", "0241", "+5", "1054 F PB1 & PB10 LOSS FACTOR", ""], True)
    assert out.to_pylist() == ["241", "241", "5", "1054 F PB1 & PB10 LOSS FACTOR", None]


def test_cast_float_int_widening():
    assert cast_float64(["1.5", "2", "", "abc"], True).to_pylist() == [1.5, 2.0, None, None]


def test_cast_narrow_ints_checked():
    assert cast_int16(["1", "32767", "32768", "-32769", ""], True).to_pylist() == \
        [1, 32767, None, None, None]
    assert cast_int8(["127", "128", "-128"], True).to_pylist() == [127, None, -128]


def test_cast_bool_int_eq_1():
    assert cast_bool(["1", "0", "2", "x", ""], True).to_pylist() == \
        [True, False, False, None, None]


def test_cast_timestamp_formats_and_date_midnight():
    out = cast_timestamp_s(
        ["2021/03/31 00:00:05", "2021/03/31 00:12", "2021/04/03", ""], True
    ).cast(pa.int64()).to_pylist()
    import datetime as dt

    def ep(*a):
        return int(dt.datetime(*a, tzinfo=dt.timezone.utc).timestamp())

    assert out == [ep(2021, 3, 31, 0, 0, 5), ep(2021, 3, 31, 0, 12), ep(2021, 4, 3), None]


# ---------------------------------------------------------------------------
# sources: zip-of-zips, directory walk
# ---------------------------------------------------------------------------


def _make_zip(entries: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in entries.items():
            zf.writestr(name, data)
    return buf.getvalue()


def test_nested_zip_recursion():
    inner = _make_zip({"inner.csv": SCADA_CSV, "ignore.txt": b"x"})
    outer = _make_zip({"nested.zip": inner, "top.CSV": TWO_TABLE_CSV})
    got = dict(iter_zip_csv_bytes(outer))
    assert set(got) == {"inner.csv", "top.CSV"}
    assert got["inner.csv"] == SCADA_CSV


def test_expand_paths(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.csv").write_bytes(SCADA_CSV)
    (tmp_path / "sub" / "b.ZIP").write_bytes(_make_zip({"x.csv": SCADA_CSV}))
    (tmp_path / "noise.parquet").write_bytes(b"")
    files = expand_paths(tmp_path)
    assert [f.name for f in files] == ["a.csv", "b.ZIP"]


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------


def test_parse_to_parquet_partitioned(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from nem_mms_ray.mms.pipeline import parse_to_parquet

    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "one.csv").write_bytes(SCADA_CSV)
    (indir / "two.zip").write_bytes(_make_zip({"t.csv": TWO_TABLE_CSV}))
    (indir / "unk.csv").write_bytes(UNKNOWN_PKG_CSV)
    out = tmp_path / "out"
    summary = parse_to_parquet(indir, out)
    assert summary["files"] == 3
    assert summary["packages"]["DISPATCH_UNIT_SCADA"]["rows"] == 4
    assert summary["packages"]["DISPATCH_LOCAL_PRICE"]["rows"] == 2
    assert summary["skipped"] == ["BID,BIDDAYOFFER_D"]
    # workers write one part per (file, member, table); read the package dir
    parts = sorted((out / "DISPATCH_UNIT_SCADA").glob("part-*.parquet"))
    assert len(parts) == 2  # one.csv table + two.zip's first table
    t = pq.read_table(out / "DISPATCH_UNIT_SCADA")
    assert t.column("DUID").to_pylist()[:3] == ["UNIT1", "UNIT2", "UNIT1"]


def test_parse_to_parquet_reference_naming(ray_session, tmp_path):
    from nem_mms_ray.mms.pipeline import parse_to_parquet

    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "multi.csv").write_bytes(TWO_TABLE_CSV)
    out = tmp_path / "multi.parquet"
    summary = parse_to_parquet(indir, out, layout="reference")
    # >1 package -> stem_PKG.parquet naming (mod.rs:224-233)
    assert sorted(p["path"].split("/")[-1] for p in summary["packages"].values()) == [
        "multi_DISPATCH_LOCAL_PRICE.parquet",
        "multi_DISPATCH_UNIT_SCADA.parquet",
    ]
    # create-new semantics: refuse to clobber (mod.rs:116-120)
    with pytest.raises(FileExistsError):
        parse_to_parquet(indir, out, layout="reference")


def test_eor_control_total_verified(ray_session, tmp_path):
    """SURVEY §2 P5/G3: the declared END OF REPORT total is checked against
    the observed C+I+D record count and surfaced per member."""
    from nem_mms_ray.mms.pipeline import parse_to_parquet

    indir = tmp_path / "in"
    indir.mkdir()
    (indir / "good.csv").write_bytes(SCADA_CSV)  # declares 6, observes 6
    bad = SCADA_CSV.replace(b"C,END OF REPORT,6", b"C,END OF REPORT,99")
    (indir / "bad.csv").write_bytes(bad)
    summary = parse_to_parquet(indir, tmp_path / "out")
    assert len(summary["eor_mismatches"]) == 1
    assert summary["eor_mismatches"][0]["declared"] == 99


# ---------------------------------------------------------------------------
# depository / filename round-trip (state.rs:155-191 analog)
# ---------------------------------------------------------------------------


def test_filename_roundtrip():
    h = HistoricFilename("DISPATCH_UNIT_SCADA", 2021, 4)
    assert filename_from_path(h.as_path()) == h
    n = NonHistoricFilename("DISPATCHPRICE", "2021-04-03", "339145123")
    assert filename_from_path(n.as_path()) == n
    with pytest.raises(ValueError):
        filename_from_path(HistoricFilename("NOT_A_PKG", 2021, 4).as_path())
    with pytest.raises(ValueError):
        filename_from_path(NonHistoricFilename("DISPATCHPRICE", "garbage", "x").as_path())


def test_depository_init_and_rescan(tmp_path):
    st = DepositoryState.init(tmp_path / "dep")
    assert (tmp_path / "dep" / "data").is_dir()
    assert (tmp_path / "dep" / ".raw").is_dir()
    d = tmp_path / "dep" / "data" / "DISPATCH_UNIT_SCADA"
    d.mkdir(parents=True)
    (d / "historic_2021-04.parquet").write_bytes(b"")
    st2 = DepositoryState.from_path(tmp_path / "dep")
    assert st2.files == [HistoricFilename("DISPATCH_UNIT_SCADA", 2021, 4)]
    assert st2.config == st.config


def test_package_info_renders():
    s = package_info("DISPATCH_UNIT_SCADA")
    assert "DUID: string NOT NULL" in s
    assert "Dispatch: I,DISPATCH,UNIT_SCADA,*" in s


def test_fast_path_matches_row_path():
    """The bulk pyarrow.csv path must produce byte-identical tables to the
    row-by-row reference-semantics path, incl. shuffled columns, dropped
    extra columns, unknown packages and the EOR control total."""
    from nem_mms_ray.mms.flatfile import _parse_rows
    from nem_mms_ray.mms.fixture import scada_csv

    multi = (b"I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE\n"
             b"D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,UNIT1,1.5\n"
             b"I,DISPATCH,LOCAL_PRICE,1,SCADAVALUE,EXTRA,DUID,SETTLEMENTDATE,"
             b"LOCAL_PRICE_ADJUSTMENT,LOCALLY_CONSTRAINED\n"
             b"D,DISPATCH,LOCAL_PRICE,1,9,junk,UNIT1,2021/04/01 04:40:00,0.0,1\n"
             b"I,BID,BIDDAYOFFER_D,2,SETTLEMENTDATE,DUID\n"
             b"D,BID,BIDDAYOFFER_D,2,2021/03/31 00:00,DUID1\n"
             b"C,END OF REPORT,7\n")
    for data in (scada_csv(500, seed=3), multi):
        fast, slow = parse_flatfile_bytes(data), _parse_rows(data)
        assert fast.end_of_report_count() == slow.end_of_report_count()
        assert len(fast.tables) == len(slow.tables)
        for a, b in zip(fast.tables, slow.tables):
            assert a.num_data_rows == b.num_data_rows
            if a.package is not None:
                assert a.to_arrow().equals(b.to_arrow())
    # quoted fields force the row path and still parse
    quoted = (b'I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE\n'
              b'D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,"UNIT,1",1.5\n'
              b'C,END OF REPORT,3\n')
    p = parse_flatfile_bytes(quoted)
    assert p.tables[0].to_arrow().column("DUID").to_pylist() == ["UNIT,1"]


def test_fast_path_edge_cases_match_row_path():
    """No trailing newline, CRLF, blank line inside a D run, trailing table
    without EOR, empty input — all parity with the row-by-row path."""
    from nem_mms_ray.mms.flatfile import _parse_rows

    base = (b"I,DISPATCH,UNIT_SCADA,1,SETTLEMENTDATE,DUID,SCADAVALUE\n"
            b"D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:40:00,UNIT1,1.5\n"
            b"D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:45:00,UNIT2,2.5\n"
            b"C,END OF REPORT,4\n")
    cases = [
        base.rstrip(b"\n"),
        base.replace(b"\n", b"\r\n"),
        base.replace(b"D,DISPATCH,UNIT_SCADA,1,2021/04/01 04:45:00",
                     b"\nD,DISPATCH,UNIT_SCADA,1,2021/04/01 04:45:00"),
        base.rsplit(b"C,", 1)[0],   # trailing table closed by EOF
        b"",
        b"C,END OF REPORT,1\n",
    ]
    for data in cases:
        fast, slow = parse_flatfile_bytes(data), _parse_rows(data)
        assert len(fast.tables) == len(slow.tables)
        for a, b in zip(fast.tables, slow.tables):
            assert a.num_data_rows == b.num_data_rows
            if a.package is not None:
                assert a.to_arrow().equals(b.to_arrow())


def test_mms_parse_then_encode_roundtrip(ray_session, tmp_path):
    """The two halves composed: MMS flat files -> typed package parquet ->
    codec engine encode -> bit-identical verify.  A reference user's full
    pipeline (parse + archive) in one pass."""
    from nem_mms_ray.mms.fixture import make_scada_corpus
    from nem_mms_ray.mms.pipeline import parse_to_parquet
    from nem_mms_ray.pipelines.decode import verify_files
    from nem_mms_ray.pipelines.encode import encode_files

    indir = tmp_path / "mms"
    make_scada_corpus(indir, n_files=2, rows_per_file=2000)
    out = tmp_path / "pkg"
    summary = parse_to_parquet(indir, out)
    assert summary["packages"]["DISPATCH_UNIT_SCADA"]["rows"] == 4000

    parts = sorted(str(p) for p in (out / "DISPATCH_UNIT_SCADA").glob("*.parquet"))
    enc = tmp_path / "enc"
    metrics = encode_files(parts, enc, target_bytes=1 << 20).to_pandas()
    assert metrics["rows"].sum() == 4000
    v = verify_files(parts, enc, target_bytes=1 << 20).to_pandas()
    assert v["ok"].all()
