"""Every driver row (`__ray_entry__.queries()`) against its DuckDB oracle
(`oracle_sql()`) on sf0.01, through `tools/check_oracle.py`'s own loop
and comparison, so a change that breaks a driver row fails here."""

import importlib.util
from pathlib import Path

import pytest

SF_DIR = "/root/testdata/sf0.01"
_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_oracle.py"


def _check_oracle():
    spec = importlib.util.spec_from_file_location("check_oracle", _TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.skipif(not Path(SF_DIR).is_dir(), reason=f"{SF_DIR} missing")
def test_every_driver_row_matches_its_oracle(ray_session):
    import __ray_entry__ as E

    results = list(_check_oracle().check_rows(SF_DIR))
    assert len(results) == len(E.queries()) == 50
    no_oracle = [name for name, problems, _, _ in results if problems is None]
    bad = {name: problems for name, problems, _, _ in results if problems}
    assert not no_oracle, f"rows without an oracle: {no_oracle}"
    assert not bad, "\n".join(f"{n}: {'; '.join(p)}" for n, p in bad.items())
