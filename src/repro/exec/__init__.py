"""Parallel query execution: the shard fan-out engine.

The batch engine's per-shard candidate fetches are embarrassingly
parallel -- each shard owns a disjoint slice of the candidate union, its
own simulated disk file and its own mirrored
:class:`~repro.storage.io_stats.DiskAccessTracker` -- but until this
subsystem they ran strictly sequentially.  :class:`ShardExecutor` fans
them out across a configurable thread pool
(:attr:`~repro.core.config.BrePartitionConfig.shard_workers`).

The overlap pipeline
--------------------

One fan-out task per shard does the fetch slice of the staged
pipeline's Fetch stage (:class:`repro.pipeline.FetchStage`):

1. **charge** the shard's distinct candidate pages
   (:meth:`~repro.storage.sharded.ShardedDataStore.charge_shard`, the
   per-shard tracker mirroring into the shared aggregate under locks so
   totals still sum exactly);
2. **wait** out the modeled device latency for those pages when an
   :class:`~repro.storage.io_stats.IOCostModel` is configured
   (``time.sleep`` releases the GIL, so concurrent shard I/O waits
   overlap each other -- exactly like outstanding reads on independent
   disks);
3. **peek** the shard's slab of union rows into disjoint slices of the
   union-ordered vector array, which the Refine stage then scores as
   one union slab.

The win is the overlap of step 2 across shards: parallel workers wait
out all modeled disk latencies together instead of one after another.
With one worker the executor degrades to an inline loop: the
*sequential fan-out* baseline that ``benchmarks/bench_parallel_fanout.py``
measures against.

The Refine stage reuses the executor for compute: NumPy's ``einsum``
contraction, the dense kernel's main cost, releases the GIL, so Refine
scores contiguous row slices of a multi-block union on up to one
thread per usable CPU (see :mod:`repro.pipeline.refine`).  On a 2-vCPU
host the full 7950 x 400 x 64 fonts-batch contraction takes 79-81 ms on
one thread and 48-53 ms split over two, with bitwise-equal output.

Determinism: tasks write to disjoint output slices and every kernel is
row/pair-bitwise independent, so results are bit-for-bit identical for
any worker count -- the single/batch parity contract survives
parallelism untouched.

Replication-aware routing (PR 8): on a store with
``replication_factor > 1`` each fan-out task routes through
:meth:`ShardExecutor.call_with_failover` -- health-ordered replicas,
per-disk circuit breakers (:class:`ShardHealthRegistry`), failover on
permanent failure and optional hedged reads -- keeping results bitwise
identical with any ``R - 1`` replicas of each shard dead.
"""

from .executor import ShardExecutor, ShardHealthRegistry

__all__ = [
    "ShardExecutor",
    "ShardHealthRegistry",
]
