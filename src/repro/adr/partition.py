"""Static dataset partitioning for the Active Data Repository baseline.

ADR expects the dataset "uniformly partitioned over the nodes in use"
(paper Section 4.2) and cannot rebalance at run time — the property that
makes it degrade under heterogeneity.  Chunks are dealt to nodes in Hilbert
order (locality parity with the DataCutter declustering) and, within a
node, round-robin across its disks.
"""

from __future__ import annotations

from repro.data.chunks import ChunkSpec
from repro.data.hilbert import hilbert_index
from repro.errors import ConfigurationError

__all__ = ["weighted_static_partition"]


def weighted_static_partition(
    chunks: list[ChunkSpec],
    nodes: list[str],
    weights: list[float] | None = None,
) -> dict[str, list[ChunkSpec]]:
    """Deal chunks proportionally to per-node ``weights`` in Hilbert order.

    Returns node -> chunk list.  With the default equal weights the chunks
    are dealt uniformly (list lengths differ by at most one), as ADR
    expects.  Other weights are an obvious repair to ADR's homogeneity
    assumption: if Blue nodes are known to be faster than Rogue nodes,
    give them proportionally more chunks.  This fixes *static, known* heterogeneity but remains a
    compile-time decision — it cannot react to background load, which is
    what the DataCutter policies exploit (see
    ``benchmarks/test_extension_weighted_adr.py``).
    """
    if not nodes:
        raise ConfigurationError("ADR partition needs at least one node")
    if weights is None:
        weights = [1.0] * len(nodes)
    if not chunks:
        raise ConfigurationError("ADR partition needs at least one chunk")
    if len(weights) != len(nodes):
        raise ConfigurationError("need exactly one weight per node")
    if any(w <= 0 for w in weights):
        raise ConfigurationError("weights must be > 0")
    total = float(sum(weights))
    order = max(1, max(max(c.index) for c in chunks).bit_length())
    ordered = sorted(chunks, key=lambda c: hilbert_index(c.index, order))
    assignment: dict[str, list[ChunkSpec]] = {node: [] for node in nodes}
    # Largest-remainder apportionment over the Hilbert order: walk the
    # chunks once, always assigning to the node furthest behind its quota.
    quotas = [w / total for w in weights]
    given = [0] * len(nodes)
    for pos, chunk in enumerate(ordered, start=1):
        deficits = [pos * q - g for q, g in zip(quotas, given)]
        winner = deficits.index(max(deficits))
        assignment[nodes[winner]].append(chunk)
        given[winner] += 1
    return assignment
