"""Fetch-layer logic tests — URL/validation parity with the reference's
fetch layer."""

from nem_mms_ray.mms.fetch import (
    historic_url,
    listing_url,
    validate_month,
    validate_year,
)

def test_year_month_validation():
    assert validate_year("2021") == "2021"
    assert validate_year("21") == "2021"
    assert validate_year("202") is None
    assert validate_year("20x1") is None
    assert validate_month("01") == "01"
    assert validate_month("12") == "12"
    assert validate_month("13") is None
    assert validate_month("0") is None
    assert validate_month("00") is None


def test_listing_urls():
    assert listing_url("DISPATCH_UNIT_SCADA", "current") == \
        "https://www.nemweb.com.au/Reports/Current/Dispatch_SCADA"
    assert listing_url("ROOFTOP_PV_ACTUAL", "archive") == \
        "https://www.nemweb.com.au/Reports/Archive/ROOFTOP_PV/ACTUAL"
    assert listing_url("NOPE", "current") is None
    assert listing_url("DISPATCH_UNIT_SCADA", "bogus") is None


def test_historic_url_template_and_support_matrix():
    url = historic_url("DISPATCH_UNIT_SCADA", "21", "04")
    assert url == (
        "https://www.nemweb.com.au/Data_Archive/Wholesale_Electricity/MMSDM/2021/"
        "MMSDM_2021_04/MMSDM_Historical_Data_SQLLoader/DATA/"
        "PUBLIC_DVD_DISPATCH_UNIT_SCADA_202104010000.zip"
    )
    # 3 of 6 packages support historic (fetch.rs:133-146)
    assert historic_url("DISPATCHPRICE", "2021", "04") is None
    assert historic_url("DISPATCH_LOCAL_PRICE", "2021", "04") is None
    assert historic_url("DISPATCH_NEGATIVE_RESIDUE", "2021", "04") is None
    assert historic_url("ROOFTOP_PV_FORECAST", "2021", "04") is not None
    assert historic_url("DISPATCH_UNIT_SCADA", "2021", "13") is None


def test_cli_info_and_packages(capsys):
    from nem_mms_ray.mms.__main__ import main

    assert main(["packages"]) == 0
    out = capsys.readouterr().out
    assert "DISPATCHPRICE" in out and len(out.splitlines()) == 6
    assert main(["info", "DISPATCH_LOCAL_PRICE"]) == 0
    assert "LOCALLY_CONSTRAINED: int8" in capsys.readouterr().out
    assert main(["info", "BOGUS"]) == 2
    assert main(["fetch", "DISPATCH_UNIT_SCADA", "historic", "--year", "21", "--month", "04"]) == 0
    assert "PUBLIC_DVD_DISPATCH_UNIT_SCADA_202104010000.zip" in capsys.readouterr().out
    assert main(["fetch", "DISPATCHPRICE", "historic"]) == 2
