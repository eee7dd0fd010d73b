"""The unified chunked execution core.

Every replay path of this reproduction -- the single- and multi-source
frequency simulations (the paper's Q1-Q3) and the discrete-event DSPE
cluster (:mod:`repro.dspe`) -- executes through this package:

* :mod:`repro.core.chunks` -- stream chunking and key encoding
  (non-integer keys are factorised to int64 ids so hashing is paid
  once per *distinct* key);
* :mod:`repro.core.metrics` -- the imbalance definition and its
  streaming checkpoint accumulation, so replays never need the full
  assignment array, plus the routing-agreement and memory statistics;
* :mod:`repro.core.engine` -- the chunked replay engine, the only API
  of the frequency path, with :class:`~repro.core.engine.ReplayResult`
  as its result type (and the discrete-event loop the DSPE executors
  schedule on directly);
* :mod:`repro.core.parallel` -- the deterministic multi-process sweep
  executor (order-preserving :func:`~repro.core.parallel.parallel_map`
  plus the shared-memory materialized stream cache) that experiment
  grids fan out on.

Stateless partitioners vectorise whole chunks; stateful ones run a
precomputed-hash chunk loop whose per-key work is an argmin over d
candidate loads -- accelerated by the optional C kernels in
:mod:`repro._native` when a compiler is available.
"""

from repro.core.chunks import (
    DEFAULT_CHUNK_SIZE,
    ArrayChunkSource,
    ChunkSource,
    EncodedKeys,
    counting_scatter,
    encode_keys,
    factorize,
    hashed_buckets,
    hashed_choices,
    iter_chunks,
    iter_keyed_chunks,
    stream_length,
)
from repro.core.engine import (
    EventLoop,
    ReplayResult,
    assign_sources,
    replay_interleaved,
    replay_per_source,
    replay_stream,
    route_chunked,
)
from repro.core.metrics import StreamingLoadSeries, checkpoint_positions
from repro.core.parallel import (
    dataset_stream_cached,
    edge_stream_cached,
    materialized_stream,
    parallel_map,
    resolve_jobs,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ArrayChunkSource",
    "ChunkSource",
    "EncodedKeys",
    "counting_scatter",
    "encode_keys",
    "factorize",
    "hashed_buckets",
    "hashed_choices",
    "iter_chunks",
    "iter_keyed_chunks",
    "stream_length",
    "EventLoop",
    "ReplayResult",
    "assign_sources",
    "replay_interleaved",
    "replay_per_source",
    "replay_stream",
    "route_chunked",
    "StreamingLoadSeries",
    "checkpoint_positions",
    "dataset_stream_cached",
    "edge_stream_cached",
    "materialized_stream",
    "parallel_map",
    "resolve_jobs",
]
