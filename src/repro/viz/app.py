"""Isosurface application builder: filter graphs for every configuration.

:class:`IsosurfaceApp` assembles the paper's four decompositions
(Figure 2b / Figure 3) as :class:`~repro.core.graph.FilterGraph` objects:

- ``R-E-Ra-M``  — all four filters separate (baseline, Tables 1-2);
- ``RE-Ra-M``   — read+extract combined (the usual best performer);
- ``R-ERa-M``   — extract+raster combined (decouples retrieval);
- ``RERa-M``    — everything but merge combined (SPMD-like).

The configuration name *is* the topology
(:func:`repro.configurations.parse_configuration`): each group of stage
names becomes one filter, built from the stage table below with
:func:`~repro.core.fuse.fuse` — so there is one graph builder, and R, E
and Ra are each defined once however they are grouped.

Each graph carries *simulated* factories (cost models over a
:class:`~repro.viz.profile.DatasetProfile`) and, when a real
:class:`~repro.data.parssim.ParSSimDataset` is supplied, *real* factories
too — so the same graph runs on either engine.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis.effects import Effect
from repro.configurations import (
    CONFIGURATIONS,
    check_algorithm,
    parse_configuration,
    stage_name,
)
from repro.core.filter import Filter
from repro.core.fuse import StageModel, fuse, fuse_models
from repro.core.graph import FilterGraph
from repro.core.negotiate import declare_bounds, negotiate
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, make_policy_factory
from repro.core.tiles import TileMap
from repro.data.chunks import ChunkSource
from repro.data.storage import StorageMap
from repro.errors import ConfigurationError
from repro.viz import filters as real
from repro.viz import models as sim
from repro.viz import tiled
from repro.viz.camera import Camera
from repro.viz.models import BufferSizes, CostParams
from repro.viz.profile import DatasetProfile

__all__ = ["IsosurfaceApp", "CONFIGURATIONS", "owner_hosts"]


@dataclass(frozen=True)
class _Stage:
    """One fusable pipeline stage, defined once for both engines.

    ``effects`` is the declared effects class of the real filter (a fused
    stage declares the worst of its parts'); ``output`` names the buffer
    knob (``read`` / ``triangles`` / ``merge``) the stream leaving the
    stage carries in the buffer-size negotiation.
    """

    effects: str
    output: str
    real: Callable[["IsosurfaceApp"], Filter]
    model: Callable[["IsosurfaceApp", BufferSizes], StageModel]


#: R, E and Ra.  Merge is not here: it is never fused, and its shape
#: (one sink, or tile-merge copies plus a gather) is ``_attach_merge``'s.
_STAGES = {
    "R": _Stage(
        "io",
        "read",
        lambda app: real.ReadFilter(
            app._require_dataset(), app.storage, app.timestep,
            isovalue=app.isovalue,
        ),
        lambda app, buffers: sim.ReadSourceModel(
            app.profile, app.storage, app.timestep, app.costs, buffers
        ),
    ),
    "E": _Stage(
        "pure",
        "triangles",
        lambda app: real.ExtractFilter(app.isovalue),
        lambda app, buffers: sim.ExtractModel(app.costs, buffers),
    ),
    "Ra": _Stage(
        "stateful",
        "merge",
        lambda app: real.raster_filter(
            app.algorithm, app.camera(), app.tile_map()
        ),
        lambda app, buffers: sim.raster_model(
            app.algorithm, app.costs, buffers, app.width, app.height,
            app.tile_map(),
        ),
    ),
}


def owner_hosts(owners: int, compute_hosts: list[str], anchor: str) -> list[str]:
    """One distinct host label per tile owner, in owner order.

    A tile-routed consumer runs one single-copy set per owner (copies
    sharing a host share one queue, breaking owner routing), so a testbed
    with fewer hosts than owners is padded with virtual ``anchor:mN``
    labels.
    """
    hosts = list(compute_hosts[:owners])
    index = 0
    while len(hosts) < owners:
        label = f"{anchor}:m{index}"
        if label not in hosts:
            hosts.append(label)
        index += 1
    return hosts


@dataclass
class IsosurfaceApp:
    """One rendering scenario: dataset + storage + view + algorithm.

    Parameters
    ----------
    profile:
        Dataset description for the simulated engine.
    storage:
        File -> (host, disk) placement; source filters read from it.
    width / height:
        Output image size (the paper uses 512^2 and 2048^2).
    algorithm:
        ``"zbuffer"`` or ``"active"``.
    timestep:
        Which stored timestep to render.
    costs / buffers:
        Cost-model calibration and stream buffer sizes.
    dataset / isovalue:
        Optional real dataset enabling threaded execution: any
        :class:`~repro.data.chunks.ChunkSource` — the synthetic
        generators or an on-disk :class:`~repro.data.diskstore.
        DeclusteredStore`.  ``isovalue`` is the rendered surface level.
    merge_copies / merge_tiles:
        ``merge_copies > 1`` replaces the single Merge sink with the
        distributed tile framebuffer: ``merge_tiles`` row-band tiles
        (default: one per copy) owned round-robin by ``merge_copies``
        tile-merge copies behind a ``TileRouted`` writer, gathered by a
        lightweight single-copy sink.  ``merge_copies=1`` is exactly the
        classic single-merge pipeline.
    """

    profile: DatasetProfile
    storage: StorageMap
    width: int = 2048
    height: int = 2048
    algorithm: str = "active"
    timestep: int = 0
    costs: CostParams = field(default_factory=CostParams)
    buffers: BufferSizes = field(default_factory=BufferSizes)
    dataset: ChunkSource | None = None
    isovalue: float = 0.5
    #: Optional explicit camera (e.g. an animation frame's viewpoint);
    #: ``None`` means a default camera framing the whole grid.
    view: Camera | None = None
    #: Distributed-framebuffer fan-out: number of tile-merge copies.
    merge_copies: int = 1
    #: Tiles in the tile map (>= merge_copies); ``None`` = one per copy.
    merge_tiles: int | None = None

    def __post_init__(self) -> None:
        check_algorithm(self.algorithm)
        if not 0 <= self.timestep < self.profile.timesteps:
            raise ConfigurationError(
                f"timestep {self.timestep} outside [0, {self.profile.timesteps})"
            )
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"image dimensions must be >= 1, got {self.width}x{self.height}"
            )
        if self.merge_copies < 1:
            raise ConfigurationError(
                f"merge_copies must be >= 1, got {self.merge_copies}"
            )
        if self.merge_tiles is not None and self.merge_tiles < self.merge_copies:
            raise ConfigurationError(
                f"merge_tiles ({self.merge_tiles}) must be >= merge_copies "
                f"({self.merge_copies})"
            )

    # -- real-mode helpers -------------------------------------------------
    def camera(self) -> Camera:
        """The rendering camera: ``view`` if given, else a fitted default."""
        if self.view is not None:
            return self.view
        return Camera.fit_grid(
            self.profile.grid_shape, width=self.width, height=self.height
        )

    def _require_dataset(self):
        if self.dataset is None:
            raise ConfigurationError(
                "real factories need a dataset (a chunk_field provider); "
                "this app is simulation-only"
            )
        return self.dataset

    # -- distributed tile framebuffer ----------------------------------------
    def tile_map(self) -> TileMap | None:
        """The viewport partition, or ``None`` for the single-merge sink."""
        if self.merge_copies == 1:
            return None
        return TileMap.rows(
            self.width,
            self.height,
            self.merge_tiles or self.merge_copies,
            self.merge_copies,
        )

    def merge_stream(self, configuration: str) -> str:
        """The stream carrying raster output into the merge stage."""
        upstream = stage_name(parse_configuration(configuration)[-2])
        dst = "TM" if self.merge_copies > 1 else "M"
        return f"{upstream}->{dst}"

    def policy_overrides(
        self, configuration: str
    ) -> dict[str, PolicyFactory]:
        """Per-stream writer-policy overrides the engines need.

        A tiled pipeline routes the raster -> merge stream by buffer
        content (``TileRouted``) regardless of the session-wide policy;
        every other stream keeps the engine default.
        """
        if self.merge_copies == 1:
            return {}
        return {self.merge_stream(configuration): make_policy_factory("TILE")}

    # -- graph builder ---------------------------------------------------------
    def graph(self, configuration: str) -> FilterGraph:
        """Build the filter graph for one of :data:`CONFIGURATIONS`.

        One filter per stage group of the name, in pipeline order, each
        the :func:`~repro.core.fuse.fuse` of its stages' parts; the merge
        stage is appended by :meth:`_attach_merge`.
        """
        *groups, _merge = parse_configuration(configuration)
        names = [stage_name(group) for group in groups]
        g = FilterGraph()
        roles: dict[str, str] = {}
        for i, (name, group) in enumerate(zip(names, groups)):
            g.add_filter(
                name,
                is_source=i == 0,
                effects=max(
                    Effect.parse(_STAGES[stage].effects) for stage in group
                ).label,
            )
            if i:
                stream = g.connect(names[i - 1], name)
                roles[stream.name] = _STAGES[groups[i - 1][-1]].output
        self._attach_merge(g, names[-1])
        roles[self.merge_stream(configuration)] = "merge"
        buffers = self._negotiate(g, roles)
        for name, group in zip(names, groups):
            spec = g.filters[name]
            spec.factory = self._real_or_none(
                lambda group=group: fuse(
                    *(_STAGES[stage].real(self) for stage in group)
                )
            )
            spec.sim_factory = lambda group=group: fuse_models(
                *(_STAGES[stage].model(self, buffers) for stage in group)
            )
        self._bind_merge(g)
        return g

    def _attach_merge(self, g: FilterGraph, upstream: str) -> None:
        """Append the merge stage after ``upstream``: single sink or TM->M.

        With ``merge_copies == 1`` this is today's phase behaviour exactly;
        otherwise the tile-merge copies and the gather are both
        phase-synchronised (they emit/complete only at end-of-work).
        """
        tmap = self.tile_map()
        if tmap is None:
            g.add_filter(
                # The z-buffer merge is a phase-synchronised accumulator: it
                # only emits at the end-of-work phase boundary (verifier
                # Z401).
                "M",
                phase_synchronised=self.algorithm == "zbuffer",
                effects="stateful",
            )
            g.connect(upstream, "M")
            return
        g.add_filter(
            "TM", phase_synchronised=True, tile_map=tmap, effects="stateful"
        )
        g.add_filter("M", phase_synchronised=True, effects="stateful")
        g.connect(upstream, "TM")
        g.connect("TM", "M")

    def _bind_merge(self, g: FilterGraph) -> None:
        """Install the merge-stage factories (single or tiled)."""
        tmap = self.tile_map()
        if tmap is None:
            g.filters["M"].factory = self._real_or_none(
                lambda: real.merge_filter(self.algorithm, self.width, self.height)
            )
            g.filters["M"].sim_factory = lambda: sim.MergeModel(
                self.costs, self.algorithm, self.width, self.height
            )
            return
        g.filters["TM"].factory = self._real_or_none(
            lambda: tiled.TileMergeFilter(tmap, self.algorithm)
        )
        g.filters["TM"].sim_factory = lambda: sim.TileMergeModel(
            self.costs, self.algorithm, tmap
        )
        g.filters["M"].factory = self._real_or_none(
            lambda: tiled.TileGatherFilter(self.width, self.height)
        )
        g.filters["M"].sim_factory = lambda: sim.TileGatherModel(
            self.costs, self.algorithm, self.width, self.height
        )

    def _real_or_none(self, factory):
        return factory if self.dataset is not None else None

    #: protocol floor every producer discloses as its minimum buffer size
    _MIN_BUFFER = 16 * 1024

    def _negotiate(self, graph: FilterGraph, roles: dict[str, str]) -> BufferSizes:
        """Run the paper's buffer-size negotiation over ``graph``.

        ``roles`` maps each stream to the buffer knob it carries (``read``/
        ``triangles``/``merge``).  Producers disclose a protocol-floor
        minimum; consumers disclose this app's requested size as their
        minimum; the z-buffer raster pins its merge stream to fixed slabs
        (min == max).  The negotiated sizes feed the simulated models.
        """
        merge_size = (
            self.buffers.zbuffer_slab
            if self.algorithm == "zbuffer"
            else self.buffers.wpa
        )
        requested = {
            "read": self.buffers.read,
            "triangles": self.buffers.triangles,
            "merge": merge_size,
        }
        for stream, role in roles.items():
            spec = graph.streams[stream]
            want = requested[role]
            if role == "merge" and self.algorithm == "zbuffer":
                # Fixed-size slabs: the raster serialises the whole buffer.
                declare_bounds(graph, spec.src, stream, want, want)
            else:
                declare_bounds(graph, spec.src, stream, self._MIN_BUFFER)
            declare_bounds(graph, spec.dst, stream, want)
        sizes = negotiate(graph, default=self._MIN_BUFFER)
        # Streams without a role (e.g. the TM->M gather stream) keep the
        # negotiated default and don't feed back into the knobs.
        by_role = {
            roles[stream]: size
            for stream, size in sizes.items()
            if stream in roles
        }
        return BufferSizes(
            read=by_role.get("read", self.buffers.read),
            triangles=by_role.get("triangles", self.buffers.triangles),
            zbuffer_slab=(
                by_role["merge"]
                if self.algorithm == "zbuffer" and "merge" in by_role
                else self.buffers.zbuffer_slab
            ),
            wpa=(
                by_role["merge"]
                if self.algorithm == "active" and "merge" in by_role
                else self.buffers.wpa
            ),
        )

    # -- placement helpers -------------------------------------------------------
    def placement(
        self,
        configuration: str,
        compute_hosts: list[str] | None = None,
        merge_host: str | None = None,
        copies_per_host: int | dict[str, int] = 1,
        merge_hosts: list[str] | None = None,
    ) -> Placement:
        """A standard placement for ``configuration``.

        Source filters go on every host holding data (one copy per host by
        default); non-source worker filters spread over ``compute_hosts``
        (default: the data hosts); Merge runs once on ``merge_host``
        (default: the first compute host).  ``copies_per_host`` may be an
        int or a per-host dict and applies to the worker filters.

        With ``merge_copies > 1`` the tile-merge filter runs as
        ``merge_copies`` single-copy sets, one per owner index *in order*
        (the ``TileRouted`` routing invariant), on ``merge_hosts`` when
        given, else on the first compute hosts (padded with synthesized
        ``host:mN`` labels on a single-host testbed); the gather keeps the
        classic single-copy placement on ``merge_host``.
        """
        graph = self.graph(configuration)
        data_hosts = self.storage.hosts()
        if not data_hosts:
            raise ConfigurationError("storage map is empty")
        compute_hosts = list(compute_hosts or data_hosts)
        merge_host = merge_host or compute_hosts[0]
        placement = Placement()
        for spec in graph.filters.values():
            if spec.is_source:
                placement.spread(spec.name, data_hosts)
            elif spec.name == "TM":
                placement.place("TM", self._merge_copy_hosts(
                    compute_hosts, merge_host, merge_hosts
                ))
            elif spec.name == "M":
                placement.place("M", [merge_host])
            else:
                if isinstance(copies_per_host, dict):
                    placement.place(
                        spec.name,
                        [(h, copies_per_host.get(h, 1)) for h in compute_hosts],
                    )
                else:
                    placement.spread(
                        spec.name, compute_hosts, copies_per_host=copies_per_host
                    )
        return placement

    def _merge_copy_hosts(
        self,
        compute_hosts: list[str],
        merge_host: str,
        merge_hosts: list[str] | None,
    ) -> list[str]:
        """One distinct host label per tile-merge copy, in owner order."""
        if merge_hosts is not None:
            if len(merge_hosts) != self.merge_copies:
                raise ConfigurationError(
                    f"merge_hosts must list exactly merge_copies="
                    f"{self.merge_copies} hosts, got {len(merge_hosts)}"
                )
            return list(merge_hosts)
        return owner_hosts(self.merge_copies, compute_hosts, merge_host)
