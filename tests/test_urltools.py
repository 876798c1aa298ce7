"""URL/domain ops: vectorized host extraction + bucketed per-domain cap."""
import numpy as np
import pandas as pd
import pyarrow as pa

from nem_mms_ray.ops.urltools import domain_cap, domain_of

CASES = [
    ("https://WWW.Example.com/path?q=1", "www.example.com"),
    ("http://a.b.co:8080/x", "a.b.co"),
    ("ftp://user:pw@Host.Net/file", "host.net"),
    ("example.org/bare", "example.org"),
    ("mailto:someone@example.com", "example.com"),
    ("//rel.com/x", "rel.com"),
    ("http://a@b@c.com/x", "c.com"),          # last @ delimits, like a browser
    ("http://host.com/p@th", "host.com"),     # path @ never reaches userinfo
    ("https://192.168.0.1:443/a", "192.168.0.1"),
    ("", None),
    (None, None),
]


def test_domain_of_cases():
    got = domain_of(pa.array([u for u, _ in CASES], pa.string())).to_pylist()
    assert got == [d for _, d in CASES]


def _url_corpus():
    rng = np.random.default_rng(3)
    hosts = [f"site{i}.com" for i in range(10)]
    # skew: host 0 holds half the corpus
    picks = np.where(rng.random(400) < 0.5, 0, rng.integers(0, 10, 400))
    urls = [f"https://{hosts[p]}/page{i}" for i, p in enumerate(picks)]
    urls[7] = None  # null url -> null domain group, still capped
    return urls


def test_domain_cap_matches_pandas_mirror(ray_session):
    import ray.data as rd

    urls = _url_corpus()
    t = pa.table({"doc_id": pa.array(range(len(urls)), pa.int64()),
                  "url": pa.array(urls, pa.string())})
    # several blocks so combiner + shuffle both engage
    ds = rd.from_arrow(t).repartition(7)
    got = (domain_cap(ds, cap=5).to_pandas()
           .sort_values(["domain", "doc_id"], na_position="last")
           .reset_index(drop=True))
    mirror_dom = domain_of(t.column("url")).to_pylist()
    mdf = pd.DataFrame({"domain": mirror_dom,
                        "doc_id": range(len(urls))})
    want = (mdf.sort_values(["domain", "doc_id"])
            .groupby("domain", sort=False, dropna=False).head(5)
            .sort_values(["domain", "doc_id"], na_position="last")
            .reset_index(drop=True))
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["domain"].where(got["domain"].notna(), None).tolist() == \
        want["domain"].where(want["domain"].notna(), None).tolist()
    # every domain capped at 5, skewed host included
    assert (got.groupby("domain", dropna=False).size() <= 5).all()


def test_domain_cap_batch_invariant(ray_session):
    import ray.data as rd

    urls = _url_corpus()
    t = pa.table({"doc_id": pa.array(range(len(urls)), pa.int64()),
                  "url": pa.array(urls, pa.string())})
    a = (domain_cap(rd.from_arrow(t).repartition(3), cap=4).to_pandas()
         .sort_values(["domain", "doc_id"], na_position="last"))
    b = (domain_cap(rd.from_arrow(t).repartition(11), cap=4).to_pandas()
         .sort_values(["domain", "doc_id"], na_position="last"))
    assert a["doc_id"].tolist() == b["doc_id"].tolist()


def test_domain_cap_extra_columns(ray_session):
    import ray.data as rd

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "url": pa.array(["https://a.com/x", "https://b.com/y"]),
                  "lang": pa.array(["en", "de"])})
    capped = domain_cap(rd.from_arrow(t), cap=1,
                        columns=("lang",)).to_pandas().sort_values("doc_id")
    assert capped.columns.tolist() == ["domain", "doc_id", "lang"]
    assert capped["lang"].tolist() == ["en", "de"]
