"""Source-discovery logic of the reference's fetch layer — everything except
the network itself (this environment has none, and BASELINE.json forbids
external data).

Parity targets: package→url-part table (/root/reference/src/packages/
fetch.rs:13-23), current/archive listing URLs (:205-213), the historic MMSDM
URL template (:133-146), Year/Month validation (:41-103, incl. 2-digit year
expansion "21"→"2021").
"""

from __future__ import annotations

import re

BASE_URL = "https://www.nemweb.com.au"

_PACKAGE_URL_PART = {
    "DISPATCH_UNIT_SCADA": "Dispatch_SCADA",
    "DISPATCH_NEGATIVE_RESIDUE": "DISPATCH_NEGATIVE_RESIDUE",
    "DISPATCH_LOCAL_PRICE": "DispatchIS_Reports",
    "ROOFTOP_PV_ACTUAL": "ROOFTOP_PV/ACTUAL",
    "ROOFTOP_PV_FORECAST": "ROOFTOP_PV/FORECAST",
    "DISPATCHPRICE": "DispatchIS_Reports",
}

# historic MMSDM filename stems; None = unsupported (fetch.rs:133-146)
_HISTORIC_STEM = {
    "DISPATCH_UNIT_SCADA": "PUBLIC_DVD_DISPATCH_UNIT_SCADA",
    "ROOFTOP_PV_ACTUAL": "PUBLIC_DVD_ROOFTOP_PV_ACTUAL",
    "ROOFTOP_PV_FORECAST": "PUBLIC_DVD_ROOFTOP_PV_FORECAST",
    "DISPATCH_NEGATIVE_RESIDUE": None,
    "DISPATCH_LOCAL_PRICE": None,
    "DISPATCHPRICE": None,
}


def validate_year(s: str) -> str | None:
    """yyyy as-is; 2-digit yy expands to 20yy; else None (fetch.rs:87-95)."""
    if re.fullmatch(r"\d{4}", s):
        return s
    if re.fullmatch(r"\d{2}", s):
        return f"20{s}"
    return None


def validate_month(s: str) -> str | None:
    """Strictly "01".."12" (fetch.rs:42-58)."""
    return s if re.fullmatch(r"0[1-9]|1[0-2]", s) else None


def listing_url(package: str, archive: str) -> str | None:
    """Current/archive listing page for a package; None if unsupported."""
    part = _PACKAGE_URL_PART.get(package)
    if part is None or archive not in ("current", "archive"):
        return None
    return f"{BASE_URL}/Reports/{archive.capitalize()}/{part}"


def historic_url(package: str, year: str, month: str) -> str | None:
    """MMSDM archive URL for (package, year, month); None if unsupported."""
    y = validate_year(year)
    m = validate_month(month)
    stem = _HISTORIC_STEM.get(package)
    if y is None or m is None or stem is None:
        return None
    filename = f"{stem}_{y}{m}010000.zip"
    return (
        f"{BASE_URL}/Data_Archive/Wholesale_Electricity/MMSDM/{y}/"
        f"MMSDM_{y}_{m}/MMSDM_Historical_Data_SQLLoader/DATA/{filename}"
    )
