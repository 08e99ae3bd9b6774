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
too — so the same graph runs on either engine.  Every configuration ends
in one Merge sink; the merge-free alternative the paper proposes, image
space split among the rasters, is :mod:`repro.viz.partitioned`.
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
from repro.data.chunks import ChunkSource
from repro.data.storage import StorageMap
from repro.errors import ConfigurationError
from repro.viz import filters as real
from repro.viz import models as sim
from repro.viz.camera import Camera
from repro.viz.models import BufferSizes, CostParams
from repro.viz.profile import DatasetProfile

__all__ = ["IsosurfaceApp", "CONFIGURATIONS"]


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


#: R, E and Ra.  Merge is not here: it is never fused, so the graph
#: builder appends it as the one sink of every configuration.
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
        lambda app: real.raster_filter(app.algorithm, app.camera()),
        lambda app, buffers: sim.raster_model(
            app.algorithm, app.costs, buffers, app.width, app.height
        ),
    ),
}


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

    # -- graph builder ---------------------------------------------------------
    def graph(self, configuration: str) -> FilterGraph:
        """Build the filter graph for one of :data:`CONFIGURATIONS`.

        One filter per stage group of the name, in pipeline order, each
        the :func:`~repro.core.fuse.fuse` of its stages' parts, then the
        one Merge sink.
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
        # The z-buffer merge is a phase-synchronised accumulator: it only
        # emits at the end-of-work phase boundary (verifier Z401).
        g.add_filter(
            "M",
            factory=self._real_or_none(
                lambda: real.merge_filter(self.algorithm, self.width, self.height)
            ),
            sim_factory=lambda: sim.MergeModel(
                self.costs, self.algorithm, self.width, self.height
            ),
            phase_synchronised=self.algorithm == "zbuffer",
            effects="stateful",
        )
        roles[g.connect(names[-1], "M").name] = "merge"
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
        return g

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
        by_role = {roles[stream]: size for stream, size in sizes.items()}
        return BufferSizes(
            read=by_role.get("read", self.buffers.read),
            triangles=by_role.get("triangles", self.buffers.triangles),
            zbuffer_slab=(
                by_role["merge"]
                if self.algorithm == "zbuffer"
                else self.buffers.zbuffer_slab
            ),
            wpa=(
                by_role["merge"]
                if self.algorithm == "active"
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
    ) -> Placement:
        """A standard placement for ``configuration``.

        Source filters go on every host holding data (one copy per host by
        default); non-source worker filters spread over ``compute_hosts``
        (default: the data hosts); Merge runs once on ``merge_host``
        (default: the first compute host).  ``copies_per_host`` may be an
        int or a per-host dict and applies to the worker filters.
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

