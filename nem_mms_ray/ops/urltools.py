"""URL/domain operators: vectorized host extraction + per-domain doc caps.

The Common-Crawl curation step `stratified_cap`'s docstring gestures at
("per-source/domain quota") but whose shape can't reuse directly: domains
are web-scale HIGH-cardinality keys (millions of hosts), so a groupby on
the raw domain would create millions of Ray groups.  `domain_cap` instead
hash-buckets domains coarsely (the repo's standard skew shape): the
per-batch combiner bounds every domain's contribution per batch, the
shuffle key is `hash(domain) % n_buckets` so the group count stays flat at
any corpus size, and the per-bucket final pass is one vectorized pandas
groupby-head.  A mega-domain (half the crawl from one host) concentrates
at most `cap x n_batches` of ITS rows in one bucket — bounded by the
combiner, same as `stratified_cap`.

Host extraction is one Arrow RE2 `extract_regex` call per batch (no
Python loop): scheme and userinfo optional, host ends at the first of
`:/?#`, lowercased.  Host-level granularity, not eTLD+1 — collapsing
subdomains to a registered domain needs the public-suffix list, which
this sandbox doesn't carry; the docstring contract is the host.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# optional scheme (or protocol-relative //), optional userinfo@ — greedy
# through any number of '@'s so the LAST one delimits, like a browser —
# then the host: everything up to the first port/path/query/fragment
# delimiter
_HOST_PATTERN = (r"^(?:[A-Za-z][A-Za-z0-9+.\-]*://|//)?"
                 r"(?:[^/?#]*@)?(?P<host>[^/@:?#]+)")


def domain_of(col) -> pa.Array:
    """Lowercased host of each url (null where no host can be parsed)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    m = pc.extract_regex(col, _HOST_PATTERN)
    return pc.utf8_lower(pc.struct_field(m, "host"))


def domain_cap(ds, cap: int, url_col: str = "url",
               order_col: str = "doc_id", columns: tuple = (),
               n_buckets: int = 256):
    """First `cap` rows per domain ordered by `order_col` — the standard
    per-host quota against crawl skew (one forum mirror dominating the
    corpus).  Returns Dataset[(domain, order_col, *columns)].

    Deterministic: winners depend only on (domain, order_col), never on
    batch boundaries — the combiner keeps a superset of every batch's
    winners, and the final per-bucket pass applies the same sort.
    """
    keep = [order_col, *columns]

    def tag_and_partial(t: pa.Table) -> pa.Table:
        dom = domain_of(t.column(url_col))
        df = t.select(keep).to_pandas()
        df["domain"] = dom.to_pandas()
        w = (df.sort_values(["domain", order_col])
               .groupby("domain", sort=False, dropna=False).head(cap))
        h = pd.util.hash_array(w["domain"].to_numpy(object)).astype(np.int64)
        w["bucket"] = np.abs(h) % n_buckets
        return pa.Table.from_pandas(w, preserve_index=False)

    def final_cap(g: pd.DataFrame) -> pd.DataFrame:
        w = (g.sort_values(["domain", order_col])
              .groupby("domain", sort=False, dropna=False).head(cap))
        return w[["domain", *keep]]

    return (ds.map_batches(tag_and_partial, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(final_cap, batch_format="pandas"))
