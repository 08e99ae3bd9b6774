"""Simulated execution engine.

Runs a placed :class:`repro.core.graph.FilterGraph` over a
:class:`repro.sim.cluster.Cluster`: every transparent copy becomes a DES
process that pulls buffers from its copy set's shared queue, charges CPU via
its host's processor-sharing CPU, and routes output buffers through a writer
policy (RR / WRR / DD) to downstream copy sets over the simulated network.

Fidelity notes (mapped to the paper):

- *Copy sets share one queue per host* — demand-based balance within a host
  (Section 2): all copies of a filter on one host pull from one Store.
- *End-of-work markers* — each producer copy, once done, sends a zero-byte
  message to every consumer copy set; a copy set closes after one marker per
  producer copy per input stream.
- *Demand-driven acks* — a consumer sends a small acknowledgment message to
  the producing copy when it dequeues a buffer (i.e. when processing starts),
  paying network latency and per-message overhead; the producer's DD window
  blocks it when all copy sets have a full window.
- *Backpressure* — queues are bounded; a producer's send blocks until the
  destination queue accepts the buffer, so a slow consumer throttles the
  whole pipeline exactly as a TCP stream would.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.core.buffer import DataBuffer
from repro.core.filter import FilterContext, SimFilter, SimSource
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, CopyStats, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Target
from repro.core.tracing import Tracer
from repro.engines.base import Engine, emit_analysis_events, validate_run_setup
from repro.errors import EngineError, StreamClosedError
from repro.sim.cluster import Cluster
from repro.sim.kernel import Environment, Event
from repro.sim.store import Store

__all__ = ["SimulatedEngine", "PendingRun", "run_concurrent"]

#: Default per-copy-set queue capacity (buffers).
DEFAULT_QUEUE_CAPACITY = 8

#: Conservative per-queued-buffer memory estimate for the audit (the
#: largest default stream buffer is the 2 MiB z-buffer slab).
_QUEUE_BUFFER_ESTIMATE = 2 * 1024 * 1024


@dataclass
class _Envelope:
    """A buffer in flight, with the routing info the consumer needs."""

    buffer: DataBuffer
    stream: str
    writer: "_Writer | None"  # ack destination (None unless policy needs acks)
    target: Target | None
    sent_at: float = 0.0  # producer clock at send, for ack-latency tracing


class _Writer:
    """Producer-side router for one (copy, output stream) pair."""

    __slots__ = ("env", "policy", "targets", "copysets", "ack_event", "host", "label")

    def __init__(self, env: Environment, host: str, policy, copysets, label: str = ""):
        self.env = env
        self.host = host
        self.label = label or host
        self.policy = policy
        policy.clock = lambda: env.now  # time-aware policies see sim time
        self.copysets = copysets  # parallel to policy targets
        targets = [
            Target(i, cs.host, cs.copies, local=(cs.host == host))
            for i, cs in enumerate(copysets)
        ]
        policy.bind(targets)
        self.targets = targets
        self.ack_event = Event(env)

    def copyset_for(self, target: Target):
        """The copy-set runtime behind a policy target."""
        return self.copysets[target.index]

    def deliver_ack(self, target: Target) -> None:
        """Called when an ack message arrives back at the producer host."""
        self.policy.on_ack(target)
        pending = self.ack_event
        self.ack_event = Event(self.env)
        pending.succeed(None)


class _CopySetRuntime:
    """Per-(filter, host) state: the shared queue and EOW accounting."""

    def __init__(
        self,
        env: Environment,
        filter_name: str,
        host: str,
        copies: int,
        capacity: int,
        expected_eow: int,
    ):
        self.filter_name = filter_name
        self.host = host
        self.copies = copies
        self.store = Store(env, capacity=capacity, name=f"{filter_name}@{host}")
        self.expected_eow = expected_eow
        self.eow_seen = 0

    def producer_finished(self) -> None:
        """Count one upstream end-of-work marker; close when all arrived."""
        self.eow_seen += 1
        if self.eow_seen > self.expected_eow:  # pragma: no cover - protocol bug
            raise EngineError(
                f"{self.filter_name}@{self.host}: more EOW markers than producers"
            )
        if self.eow_seen == self.expected_eow:
            self.store.close()


class SimulatedEngine(Engine):
    """Execute a filter graph on the simulated cluster.

    Parameters
    ----------
    cluster:
        A finalized :class:`Cluster`; its environment provides the clock.
    graph:
        The logical filter graph.  Every non-source filter needs a
        ``sim_factory`` building a :class:`SimFilter`; every source needs one
        building a :class:`SimSource`.
    placement:
        Filter-to-host mapping with copy counts.
    policy:
        Writer policy for all streams: a name (``"RR"``/``"WRR"``/``"DD"``)
        or a :data:`PolicyFactory`.
    policy_overrides:
        Optional per-stream policy (stream name -> name or factory).
    queue_capacity:
        Bounded copy-set queue size in buffers (backpressure depth).
    ack_nbytes:
        Wire size of a DD acknowledgment message.
    tracer:
        Optional :class:`repro.core.tracing.Tracer` recording per-copy
        events in the unified schema (recv / compute / io / send / ack /
        flush / done / blocked) plus queue-depth samples, timestamped in
        simulated seconds.
    """

    def __init__(
        self,
        cluster: Cluster,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        policy_overrides: dict[str, str | PolicyFactory] | None = None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        ack_nbytes: int = DEFAULT_ACK_BYTES,
        tracer: "Tracer | None" = None,
    ):
        self._set_policies(policy, policy_overrides)
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "simulated",
            policy_for=self._policy_for, known_hosts=cluster.hosts,
            factory_slot="sim_factory",
        )
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.ack_nbytes = ack_nbytes
        self.tracer = tracer

    # -- planning ----------------------------------------------------------
    def memory_audit(self) -> dict[str, int]:
        """Estimate per-host resident memory of this placement.

        Sums each copy's model-declared footprint
        (:meth:`repro.core.filter.SimFilter.memory_bytes` — accumulators
        such as z-buffers dominate) plus the bounded copy-set queues.
        Compare against ``cluster.host(h).memory``: the paper's Rogue nodes
        have 128 MB, so a few 2048^2 z-buffer copies already oversubscribe
        them, while active-pixel copies stay small.
        """
        audit: dict[str, int] = {name: 0 for name in self.cluster.hosts}
        for name, spec in self.graph.filters.items():
            probe = spec.sim_factory()
            per_copy = int(getattr(probe, "memory_bytes", lambda: 0)())
            for cs in self.placement.copysets(name):
                audit[cs.host] += per_copy * cs.copies
                if spec.inputs:
                    # Shared bounded queue; buffers up to the largest
                    # stream buffer the app uses.
                    audit[cs.host] += self.queue_capacity * _QUEUE_BUFFER_ESTIMATE
        return audit

    def oversubscribed_hosts(self) -> list[str]:
        """Hosts whose estimated footprint exceeds their RAM."""
        audit = self.memory_audit()
        return [
            host
            for host, used in audit.items()
            if used > self.cluster.host(host).memory
        ]

    # -- execution ---------------------------------------------------------
    def launch(self) -> "PendingRun":
        """Spawn this unit of work's processes without driving the clock.

        Use for concurrent workloads: launch several engines on the same
        cluster, then drive them together with :func:`run_concurrent` (or
        ``env.run(until=pending.done)`` manually) and call
        :meth:`PendingRun.finalize` on each.  :meth:`run` is the
        launch-and-drive convenience for a single unit of work.
        """
        env = self.env
        start = env.now
        metrics = RunMetrics()
        metrics.ack_nbytes = self.ack_nbytes
        if self.tracer is not None and not self.tracer.clock:
            self.tracer.clock = "sim"
        emit_analysis_events(self.tracer, self._analysis_report, start)

        # Copy-set runtimes, keyed by (filter, host).
        copysets: dict[str, list[_CopySetRuntime]] = {}
        for name, spec in self.graph.filters.items():
            expected = sum(
                self.placement.total_copies(stream.src) for stream in spec.inputs
            )
            copysets[name] = [
                _CopySetRuntime(
                    env,
                    name,
                    cs.host,
                    cs.copies,
                    capacity=self.queue_capacity,
                    expected_eow=expected,
                )
                for cs in self.placement.copysets(name)
            ]

        results: list[Any] = []
        done_events: list[Event] = []
        for name, spec in self.graph.filters.items():
            sets = copysets[name]
            total_copies = self.placement.total_copies(name)
            for cs_runtime in sets:
                for copy_index in range(cs_runtime.copies):
                    ctx = FilterContext(
                        filter_name=name,
                        host=cs_runtime.host,
                        copy_index=copy_index,
                        copies_on_host=cs_runtime.copies,
                        total_copies=total_copies,
                        output_streams=[s.name for s in spec.outputs],
                        write_fn=_reject_ctx_write,
                    )
                    stats = metrics.new_copy(name, cs_runtime.host, copy_index)
                    label = f"{name}@{cs_runtime.host}#{copy_index}"
                    writers = {
                        s.name: _Writer(
                            env,
                            cs_runtime.host,
                            self._policy_for(s.name)(),
                            copysets[s.dst],
                            label=label,
                        )
                        for s in spec.outputs
                    }
                    if spec.inputs:
                        gen = self._copy_proc(
                            spec, cs_runtime, ctx, stats, writers, metrics, results
                        )
                    else:
                        gen = self._source_proc(
                            spec, cs_runtime, ctx, stats, writers, metrics
                        )
                    done_events.append(
                        env.process(gen, name=f"{name}@{cs_runtime.host}#{copy_index}")
                    )

        finished = env.all_of(done_events)
        return PendingRun(env, finished, metrics, results, start)

    def run(self) -> RunMetrics:
        """Execute one unit of work; returns the run's metrics.

        The engine may be run repeatedly on the same cluster (consecutive
        timesteps); simulated time accumulates, makespan is per-run.
        """
        pending = self.launch()
        self.env.run(until=pending.done)
        return pending.finalize()

    def run_many(self, count: int) -> list[RunMetrics]:
        """Run ``count`` consecutive units of work (e.g. timesteps)."""
        return [self.run() for _ in range(count)]

    # -- copy processes ------------------------------------------------------
    def _source_proc(
        self,
        spec,
        cs_runtime: _CopySetRuntime,
        ctx: FilterContext,
        stats: CopyStats,
        writers: dict[str, _Writer],
        metrics: RunMetrics,
    ) -> Generator[Event, Any, None]:
        state: SimSource = self.graph.filters[spec.name].sim_factory()
        host = self.cluster.host(cs_runtime.host)
        env = self.env
        label = f"{spec.name}@{ctx.host}#{ctx.copy_index}"
        tracer = self.tracer
        for item in state.items(ctx):
            if item.read_bytes:
                t0 = env.now
                if tracer:
                    tracer.record(t0, label, "io", "start")
                yield host.read_disk(
                    item.read_bytes, item.disk_index, sequential=item.sequential
                )
                stats.io_time += env.now - t0
                if tracer:
                    tracer.record(env.now, label, "io", "end")
            if item.cpu:
                t0 = env.now
                if tracer:
                    tracer.record(t0, label, "compute", "start")
                yield host.compute(item.cpu)
                stats.busy_time += env.now - t0
                if tracer:
                    tracer.record(env.now, label, "compute", "end")
            for out in item.outputs:
                yield from self._send(
                    spec.name, ctx.host, stats, writers, out, metrics, label=label
                )
        fcost = state.flush_cost()
        t0 = env.now
        if tracer:
            # Always mark the flush transition (zero-length without cost)
            # so both engines trace the same copy lifecycle.
            tracer.record(t0, label, "flush", "start")
        if fcost:
            yield host.compute(fcost)
            stats.busy_time += env.now - t0
        if tracer:
            tracer.record(env.now, label, "flush", "end")
        for out in state.flush_outputs():
            yield from self._send(
                spec.name, ctx.host, stats, writers, out, metrics, label=label
            )
        yield from self._announce_done(ctx.host, writers)
        stats.finished_at = env.now
        if tracer:
            tracer.record(env.now, label, "done")

    def _copy_proc(
        self,
        spec,
        cs_runtime: _CopySetRuntime,
        ctx: FilterContext,
        stats: CopyStats,
        writers: dict[str, _Writer],
        metrics: RunMetrics,
        results: list[Any],
    ) -> Generator[Event, Any, None]:
        state: SimFilter = self.graph.filters[spec.name].sim_factory()
        state.start(ctx)
        host = self.cluster.host(cs_runtime.host)
        env = self.env
        label = f"{spec.name}@{ctx.host}#{ctx.copy_index}"
        tracer = self.tracer
        while True:
            try:
                envelope: _Envelope = yield cs_runtime.store.get()
            except StreamClosedError:
                break
            stats.buffers_in += 1
            if tracer:
                tracer.record(env.now, label, "recv", envelope.stream)
                tracer.sample_queue(
                    env.now,
                    f"{cs_runtime.filter_name}@{cs_runtime.host}",
                    len(cs_runtime.store),
                )
            if envelope.writer is not None:
                self._send_ack(ctx.host, envelope, metrics)
            cost = state.cost(envelope.buffer)
            if cost:
                t0 = env.now
                if tracer:
                    tracer.record(t0, label, "compute", "start")
                yield host.compute(cost)
                stats.busy_time += env.now - t0
                if tracer:
                    tracer.record(env.now, label, "compute", "end")
            for out in state.react(envelope.buffer):
                yield from self._send(
                    spec.name, ctx.host, stats, writers, out, metrics, label=label
                )
        fcost = state.flush_cost()
        t0 = env.now
        if tracer:
            # Always mark the flush transition (zero-length without cost)
            # so both engines trace the same copy lifecycle.
            tracer.record(t0, label, "flush", "start")
        if fcost:
            yield host.compute(fcost)
            stats.busy_time += env.now - t0
        if tracer:
            tracer.record(env.now, label, "flush", "end")
        for out in state.flush_outputs():
            yield from self._send(
                spec.name, ctx.host, stats, writers, out, metrics, label=label
            )
        yield from self._announce_done(ctx.host, writers)
        if not spec.outputs:
            value = state.result()
            if value is not None:
                results.append(value)
        stats.finished_at = env.now
        if tracer:
            tracer.record(env.now, label, "done")

    # -- buffer movement ------------------------------------------------------
    def _send(
        self,
        filter_name: str,
        src_host: str,
        stats: CopyStats,
        writers: dict[str, _Writer],
        buffer: DataBuffer,
        metrics: RunMetrics,
        stream: str | None = None,
        label: str | None = None,
    ) -> Generator[Event, Any, None]:
        """Route one buffer: pick a copy set, transfer, enqueue."""
        if stream is None:
            stream = buffer.tags.get("stream")
            if stream is None:
                if len(writers) != 1:
                    raise EngineError(
                        f"filter {filter_name!r} has {len(writers)} output "
                        f"streams; model outputs must carry a 'stream' tag"
                    )
                stream = next(iter(writers))
            elif stream not in writers:
                raise EngineError(
                    f"filter {filter_name!r} has no output stream {stream!r}"
                )
        writer = writers[stream]
        tracer = self.tracer
        if label is None:
            label = writer.label
        target = writer.policy.route(buffer.tags)
        if target is None:
            # All windows full: the writer stalls until an ack returns.
            if tracer:
                tracer.record(self.env.now, label, "blocked", "start")
            while target is None:
                pending = writer.ack_event
                yield pending
                target = writer.policy.route(buffer.tags)
            if tracer:
                tracer.record(self.env.now, label, "blocked", "end")
        writer.policy.on_sent(target)
        sent_at = self.env.now
        dst = writer.copyset_for(target)
        yield self.cluster.transfer(src_host, dst.host, buffer.nbytes)
        envelope = _Envelope(
            buffer,
            stream,
            writer if writer.policy.needs_ack else None,
            target if writer.policy.needs_ack else None,
            sent_at=sent_at,
        )
        yield dst.store.put(envelope)
        stats.buffers_out += 1
        # Account traffic at delivery.
        metrics.streams[stream].record(src_host, dst.host, buffer.nbytes)
        if tracer:
            tracer.record(
                self.env.now, label, "send", f"{stream}->{dst.host}"
            )
            tracer.sample_queue(
                self.env.now, f"{dst.filter_name}@{dst.host}", len(dst.store)
            )

    def _send_ack(
        self, consumer_host: str, envelope: _Envelope, metrics: RunMetrics
    ) -> None:
        """Fire-and-forget acknowledgment back to the producing copy."""
        metrics.ack_messages += 1
        metrics.ack_bytes += self.ack_nbytes
        writer, target = envelope.writer, envelope.target
        sent_at = envelope.sent_at
        transfer = self.cluster.transfer(consumer_host, writer.host, self.ack_nbytes)

        def _deliver(_ev: Event) -> None:
            writer.deliver_ack(target)
            if self.tracer:
                # Round-trip latency: producer send to ack delivery.
                self.tracer.record(
                    self.env.now,
                    writer.label,
                    "ack",
                    f"{self.env.now - sent_at:.9f}",
                )

        transfer.callbacks.append(_deliver)

    def _announce_done(
        self, src_host: str, writers: dict[str, _Writer]
    ) -> Generator[Event, Any, None]:
        """Send an end-of-work marker to every downstream copy set."""
        for writer in writers.values():
            for dst in writer.copysets:
                yield self.cluster.transfer(src_host, dst.host, 0)
                dst.producer_finished()


def _reject_ctx_write(stream: str, buffer: DataBuffer) -> None:
    raise EngineError(
        "simulated filter models return outputs from react()/flush_outputs() "
        "instead of calling ctx.write()"
    )


class PendingRun:
    """A launched-but-not-yet-driven unit of work (see ``launch``)."""

    def __init__(self, env, done: Event, metrics: RunMetrics, results, start: float):
        self.env = env
        self.done = done
        self._metrics = metrics
        self._results = results
        self._start = start
        self._finalized = False

    def finalize(self) -> RunMetrics:
        """Seal and return the metrics; call once ``done`` has triggered."""
        if not self.done.triggered:
            raise EngineError("finalize() before the run completed")
        metrics = self._metrics
        if not self._finalized:
            self._finalized = True
            # Makespan ends when this run's last copy finished, not when
            # the whole batch of concurrent runs did.
            finished = max(
                (c.finished_at for c in metrics.copies), default=self.env.now
            )
            metrics.makespan = finished - self._start
            results = self._results
            metrics.result = results[0] if len(results) == 1 else results or None
        return metrics


def run_concurrent(engines: "list[SimulatedEngine]") -> list[RunMetrics]:
    """Run several units of work concurrently on one shared cluster.

    All engines must share the same environment (cluster).  The queries
    contend for CPUs, disks and links exactly as co-scheduled queries
    would; each returned :class:`RunMetrics` has its own makespan
    (launch-to-last-copy-finished).
    """
    if not engines:
        raise EngineError("run_concurrent() needs at least one engine")
    env = engines[0].env
    for engine in engines:
        if engine.env is not env:
            raise EngineError("concurrent engines must share one cluster")
    pending = [engine.launch() for engine in engines]
    env.run(until=env.all_of([p.done for p in pending]))
    return [p.finalize() for p in pending]
