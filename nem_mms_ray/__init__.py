"""nem_mms_ray — a Ray-Data-native per-column lightweight-compression engine.

Built from scratch on ray.data.Dataset + map_batches over zero-copy Arrow
batches.  The reference semantics (schema-driven typed columnar encode, exact
typed round-trip, header-driven format dispatch, manifest bookkeeping) come
from mattswoon/nem-mms (see SURVEY.md for file:line citations); the execution
model is Ray Data: streaming blocks, actor pools for stateful stages,
shuffle-free per-partition encode in one Ray task per CPU slot.

Layout:
  codecs/     pure encode/decode kernels over pyarrow Arrays
              (plain, for+gcd, delta, dict, rle, alp, fsst)
  stats.py    column sketches from each partition's own sample (KMV ndv, runs, sizes)
  selector.py sketch -> codec plan (the Package::from_information_record analog)
  pipelines/  end-to-end Ray pipelines (encode with zone maps,
              decode/verify, predicate-pushdown scan)
  state/      checkpoint manifest with per-partition + run-level lineage
  ops/        large-scale training-data operators (dedup with distributed
              pair verify, ann incl. persisted IVF index, text stats,
              composed curation, real-kernel multimodal stages)
  _native.py  the one build/cache/load routine for the C kernels
  webtable.py deterministic Common-Crawl-style input synthesis (FIXTURES.md F1)
"""

__version__ = "0.1.0"
