"""URL/domain operators: vectorized host extraction + per-domain doc caps.

The Common-Crawl per-domain quota is `sampling.stratified_cap` over the
extracted host: `domain_cap` adds a `domain` column and caps on it.
Domains are web-scale HIGH-cardinality keys (millions of hosts), which
`stratified_cap` handles through `readutil.keyed_map_groups`: the shuffle
groups coarse domain-hash buckets, so the Ray group count stays flat at
any corpus size.  A mega-domain (half the crawl from one host)
concentrates at most `cap x n_batches` of ITS rows in one bucket —
bounded by the per-batch combiner.

Host extraction is one Arrow RE2 `extract_regex` call per batch (no
Python loop): scheme and userinfo optional, host ends at the first of
`:/?#`, lowercased.  Host-level granularity, not eTLD+1 — collapsing
subdomains to a registered domain needs the public-suffix list, which
this sandbox doesn't carry; the docstring contract is the host.
"""

from __future__ import annotations

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
               order_col: str = "doc_id", columns: tuple = ()):
    """First `cap` rows per domain ordered by `order_col` — the standard
    per-host quota against crawl skew (one forum mirror dominating the
    corpus).  Returns Dataset[(domain, order_col, *columns)]; a null url
    gives a null domain, one group like any other.

    Deterministic: winners depend only on (domain, order_col), never on
    batch boundaries (see `stratified_cap`).
    """
    from nem_mms_ray.ops.sampling import stratified_cap

    keep = [order_col, *columns]

    def tag(t: pa.Table) -> pa.Table:
        return t.select(keep).append_column("domain",
                                            domain_of(t.column(url_col)))

    return stratified_cap(ds.map_batches(tag, batch_format="pyarrow"), cap,
                          group_col="domain", order_col=order_col,
                          columns=columns)
