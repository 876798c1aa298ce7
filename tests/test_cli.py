"""Engine CLI tests (the reference's CLI surface, /root/reference/src/main.rs)."""

import argparse
import json
import re
from pathlib import Path

from nem_mms_ray import __main__ as cli
from nem_mms_ray.__main__ import main

_CMD_LINE = r"^\s*python -m nem_mms_ray (\S+)"


def test_subcommands_match_usage():
    """The subcommands argparse defines are exactly the commands of the
    `python -m nem_mms_ray <cmd>` lines of the usage docstring, one line
    each, and of README's command lines."""
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    defined = sorted(sub.choices)
    usage = sorted(re.findall(_CMD_LINE, cli.__doc__, re.M))
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert usage == defined
    assert sorted(set(re.findall(_CMD_LINE, readme, re.M))) == defined


def test_cli_gen_encode_verify_describe(ray_session, tmp_path, capsys):
    web = tmp_path / "web"
    out = tmp_path / "enc"

    assert main(["gen", "-o", str(web), "--rows", "2000", "--shard-rows", "1000"]) == 0
    gen = json.loads(capsys.readouterr().out.strip())
    assert gen["rows"] == 2000 and gen["files"] == 2

    inputs = sorted(str(p) for p in web.glob("*.parquet"))
    assert main(["encode", *inputs, "-o", str(out), "--target-mb", "1"]) == 0
    enc = json.loads(capsys.readouterr().out.strip())
    assert enc["rows"] == 2000 and enc["done"] == enc["partitions"] > 1

    assert main(["verify", *inputs, "-o", str(out)]) == 0
    ver = json.loads(capsys.readouterr().out.strip())
    assert ver["ok"] is True and ver["mismatches"] == []

    assert main(["describe", str(out)]) == 0
    desc = json.loads(capsys.readouterr().out.strip())
    assert set(desc["codecs"]) == {"plain", "for", "delta", "alp", "dict", "rle", "fsst"}
    assert desc["manifest"]["rows"] == 2000
    assert desc["columns"]["lang"]["codec"] == "dict"
    assert set(desc["native"]) == {"bitpack_kernel", "fsst_kernel", "langid_kernel",
                                   "setops_kernel", "webextract_kernel", "winnow_kernel"}
    assert all(isinstance(v, bool) for v in desc["native"].values())

    # decode back to plain parquet; full content equality with the input
    import pyarrow.parquet as pq

    plain = tmp_path / "plain"
    assert main(["decode", str(out), "-o", str(plain)]) == 0
    dec = json.loads(capsys.readouterr().out.strip())
    assert dec["rows"] == 2000
    a = pq.read_table(web).sort_by("url")
    b = pq.read_table(plain).sort_by("url").select(a.column_names).cast(a.schema)
    assert a.equals(b)

    # decode resume: second run skips every existing part
    assert main(["decode", str(out), "-o", str(plain)]) == 0
    dec2 = json.loads(capsys.readouterr().out.strip())
    assert dec2["rows"] == 2000
    from nem_mms_ray.pipelines.decode import decode_files

    assert decode_files(out, plain).to_pandas()["skipped"].all()

    # resume: re-encode skips every done partition
    assert main(["encode", *inputs, "-o", str(out), "--target-mb", "1"]) == 0
    again = json.loads(capsys.readouterr().out.strip())
    assert again["skipped"] == enc["partitions"]

    # CLI must not tear down the caller's (the test session's) ray
    import ray

    assert ray.is_initialized()


def test_cli_curate(ray_session, tmp_path, capsys):
    main(["curate", "/root/testdata/sf0.001/documents.parquet",
          "-o", str(tmp_path / "cur"), "--quality-min", "0.5"])
    res = json.loads(capsys.readouterr().out.strip())
    assert res["input_rows"] == 500 and 0 < res["curated_rows"] <= 500


def test_cli_scan(ray_session, tmp_path, capsys):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nem_mms_ray.pipelines.encode import encode_files

    src = tmp_path / "t.parquet"
    pq.write_table(pa.table({"k": pa.array(np.arange(5000, dtype=np.int64))}),
                   src, row_group_size=1000)
    enc = tmp_path / "enc"
    encode_files([str(src)], enc, target_bytes=1 << 16).to_pandas()
    assert main(["scan", str(enc), "-o", str(tmp_path / "out"),
                 "--columns", "k", "--range", "k", "100", "200"]) == 0
    res = json.loads(capsys.readouterr().out.strip())
    assert res["rows"] == 101


def test_cli_curate_with_text(ray_session, tmp_path, capsys):
    import json

    import pyarrow.parquet as pq

    from nem_mms_ray.__main__ import main

    main(["curate", "/root/testdata/sf0.001/documents.parquet",
          "-o", str(tmp_path / "cur"), "--lang", "en", "--with-text"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0 < res["curated_rows"] <= 500
    t = pq.read_table(str(tmp_path / "cur"))
    assert set(t.column_names) >= {"doc_id", "text", "lang_pred", "quality"}
    assert t.num_rows == res["curated_rows"]


def test_cli_near_dedup(ray_session, tmp_path, capsys):
    import json

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    import pyarrow as pa

    from nem_mms_ray.__main__ import main

    rng = np.random.default_rng(8)
    vocab = [f"w{i}" for i in range(4000)]
    texts = [" ".join(rng.choice(vocab, 30)) for _ in range(120)]
    texts[50] = texts[10]
    texts[51] = texts[10]
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                             "text": pa.array(texts)}), str(src))
    main(["near-dedup", str(src), "-o", str(tmp_path / "nd"), "--threshold", "0.9"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["near_dup_nodes"] == 3 and res["clusters"] == 1
    t = pq.read_table(str(tmp_path / "nd")).to_pandas()
    assert dict(zip(t["id"], t["component"])) == {10: 10, 50: 10, 51: 10}


def test_cli_scrub(ray_session, tmp_path, capsys):
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nem_mms_ray.__main__ import main

    texts = ["mail a@b.co now", "ip 10.0.0.1 and 10.0.0.2", "clean words"]
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(3, dtype=np.int64)),
                             "text": pa.array(texts)}), str(src))
    assert main(["scrub", str(src), "-o", str(tmp_path / "sc")]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["rows"] == 3
    assert res["redactions"] == {"email": 1, "ipv4": 2, "ssn": 0,
                                 "phone": 0, "card": 0}
    t = pq.read_table(str(tmp_path / "sc")).to_pandas().set_index("doc_id")
    assert t.loc[0, "text"] == "mail <EMAIL> now"
    assert t.loc[1, "text"] == "ip <IP> and <IP>"
    assert t.loc[2, "text"] == "clean words"


def test_cli_decontam(ray_session, tmp_path, capsys):
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from nem_mms_ray.__main__ import main

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(rng.choice(vocab, 25)) for _ in range(40)]
    bench_texts = [texts[5], " ".join(rng.choice(vocab, 25))]
    src = tmp_path / "docs.parquet"
    bench = tmp_path / "bench.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(40, dtype=np.int64)),
                             "text": pa.array(texts)}), str(src))
    pq.write_table(pa.table({"text": pa.array(bench_texts)}), str(bench))
    assert main(["decontam", str(src), "-o", str(tmp_path / "dc"),
                 "--benchmark", str(bench)]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["rows"] == 40 and res["contaminated"] == 1
    t = pq.read_table(str(tmp_path / "dc")).to_pandas().set_index("doc_id")
    assert bool(t.loc[5, "contaminated"]) and t.loc[5, "overlap"] == 1.0


def test_cli_lm(ray_session, tmp_path, capsys):
    """The lm arm end to end: scoring writes (doc_id, lm_bits) with sane
    stats JSON."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    core = " ".join(f"core{i:03d}" for i in range(60))
    rng = np.random.default_rng(2)
    vocab = [f"v{i}" for i in range(200)]
    texts = [core, f"pre {core}", " ".join(rng.choice(vocab, 80)),
             " ".join(rng.choice(vocab, 80))]
    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(range(4), pa.int64()),
                             "text": pa.array(texts)}), src)

    assert main(["lm", str(src), "-o", str(tmp_path / "scored")]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["rows"] == 4 and out["ngram_types"] > 0
    scored = pq.read_table(sorted((tmp_path / "scored").glob("*.parquet")))
    assert scored.column_names == ["doc_id", "lm_bits"]
    assert out["bits_mean"] > 0


def test_cli_lm_all_docs_shorter_than_n_prints_null(ray_session, tmp_path, capsys):
    """No doc reaches n characters, so none is scored: the stats line must
    stay strict JSON (null), never a bare NaN token."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "short.parquet"
    pq.write_table(pa.table({"doc_id": pa.array(range(3), pa.int64()),
                             "text": pa.array(["a", "bc", ""])}), src)
    assert main(["lm", str(src), "-o", str(tmp_path / "scored")]) == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    out = json.loads(capsys.readouterr().out.strip(), parse_constant=reject)
    assert out["rows"] == 3
    assert out["bits_mean"] is None and out["bits_p90"] is None


def test_cli_shard(ray_session, tmp_path, capsys):
    import json

    import numpy as np
    import pyarrow.parquet as pq
    import pyarrow as pa

    from nem_mms_ray.__main__ import main

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(300, dtype=np.int64)),
        "text": pa.array([f"d{i}" for i in range(300)]),
    }), str(src))
    main(["shard", str(src), "-o", str(tmp_path / "sh"),
          "--shards", "3", "--seed", "5"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res == {"rows": 300, "n_shards": 3}
    dirs = sorted(p.name for p in (tmp_path / "sh").iterdir() if p.is_dir())
    assert dirs == ["shard_id=0", "shard_id=1", "shard_id=2"]


def test_cli_session_owner_shuts_down_when_command_raises(monkeypatch):
    """`main` starts a Ray session only when none is running and shuts
    down the one it started even when the command raises; a session the
    caller started stays up.  describe starts none."""
    import pytest
    import ray

    from nem_mms_ray import __main__ as cli

    up = {"ray": False}
    calls = []

    def fake_init(**kw):
        calls.append(("init", kw.get("num_cpus")))
        up["ray"] = True

    def fake_shutdown():
        calls.append(("shutdown",))
        up["ray"] = False

    def boom(args):
        raise RuntimeError("command failed")

    monkeypatch.setattr(ray, "init", fake_init)
    monkeypatch.setattr(ray, "shutdown", fake_shutdown)
    monkeypatch.setattr(ray, "is_initialized", lambda: up["ray"])
    monkeypatch.setattr(cli, "cmd_encode", boom)

    with pytest.raises(RuntimeError, match="command failed"):
        cli.main(["encode", "in.parquet", "-o", "out", "--num-cpus", "2"])
    assert calls == [("init", 2), ("shutdown",)] and not up["ray"]

    calls.clear()
    up["ray"] = True  # the caller's session
    with pytest.raises(RuntimeError, match="command failed"):
        cli.main(["encode", "--num-cpus", "2", "in.parquet", "-o", "out"])
    assert calls == [] and up["ray"]

    up["ray"] = False
    assert cli.main(["describe"]) == 0
    assert calls == []
