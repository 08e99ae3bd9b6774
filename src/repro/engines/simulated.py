"""Simulated execution engine.

Runs a placed :class:`repro.core.graph.FilterGraph` over a
:class:`repro.sim.cluster.Cluster`.  Every transparent copy runs the one work
cycle of :func:`repro.engines.runtime.execute_cycle` as a DES process whose
driver, :meth:`SimulatedEngine._drive`, turns each effect into the simulation
events it costs: receives pull from the copy set's shared queue, work and
flush charge the CPU the copy's :class:`repro.core.fuse.StageModel` prices
(one ``step`` per unit or input buffer, one ``flush_step``) on the host's
processor-sharing CPU, sends route through a writer policy (RR / WRR / DD)
to downstream copy sets over the simulated network.

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
from typing import Any

from repro.core.buffer import DataBuffer
from repro.core.filter import FilterContext
from repro.core.graph import FilterGraph
from repro.core.instrument import DEFAULT_ACK_BYTES, RunMetrics
from repro.core.placement import Placement
from repro.core.policies import PolicyFactory, Target, make_policy_factory
from repro.core.tracing import Tracer
from repro.engines import runtime
from repro.engines.base import Engine, emit_analysis_events, validate_run_setup
from repro.errors import EngineError, StreamClosedError
from repro.sim.cluster import Cluster
from repro.sim.kernel import Environment, Event
from repro.sim.store import Store

__all__ = ["SimulatedEngine"]

#: Default per-copy-set queue capacity (buffers).
DEFAULT_QUEUE_CAPACITY = 8

#: Conservative per-queued-buffer memory estimate for the audit (the
#: largest default stream buffer is the 2 MiB z-buffer slab).
_QUEUE_BUFFER_ESTIMATE = 2 * 1024 * 1024


class _Writer:
    """Producer-side router for one (copy, output stream) pair."""

    __slots__ = ("env", "policy", "copysets", "ack_event", "host", "label")

    def __init__(self, env: Environment, host: str, policy, copysets, label: str):
        self.env = env
        self.host = host
        self.label = label
        self.policy = policy
        self.copysets = copysets  # parallel to policy targets
        policy.bind([
            Target(i, cs.host, cs.copies, local=(cs.host == host))
            for i, cs in enumerate(copysets)
        ])
        self.ack_event = Event(env)

    def deliver_ack(self, target: Target) -> None:
        """Called when an ack message arrives back at the producer host."""
        self.policy.on_ack(target)
        pending = self.ack_event
        self.ack_event = Event(self.env)
        pending.succeed(None)


class _CopySetRuntime:
    """Per-(filter, host) state: the shared queue and EOW accounting.

    The close protocol stays out of band here: the final marker closes the
    Store, where in-band markers would cost DES events.
    """

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
        The logical filter graph.  Every filter needs a ``sim_factory``
        building a :class:`repro.core.fuse.StageModel`; a source's defines
        ``units``.
    placement:
        Filter-to-host mapping with copy counts.
    policy:
        Session writer policy: a name (``"RR"``/``"WRR"``/``"DD"``) or a
        :data:`PolicyFactory`; every stream runs it.
    queue_capacity:
        Bounded copy-set queue size in buffers (backpressure depth).
    tracer:
        Optional :class:`repro.core.tracing.Tracer` receiving one span per
        effect each copy performs, the writers' ``blocked`` and ``acked``
        spans and queue-depth samples, timestamped in simulated seconds.
    """

    def __init__(
        self,
        cluster: Cluster,
        graph: FilterGraph,
        placement: Placement,
        policy: str | PolicyFactory = "DD",
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        tracer: "Tracer | None" = None,
    ):
        self._policy = make_policy_factory(policy)
        self._analysis_report = validate_run_setup(
            graph, placement, queue_capacity, "simulated",
            policy=self._policy, known_hosts=cluster.hosts,
            factory_slot="sim_factory",
        )
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.graph = graph
        self.placement = placement
        self.queue_capacity = queue_capacity
        self.tracer = tracer

    # -- planning ----------------------------------------------------------
    def memory_audit(self) -> dict[str, int]:
        """Estimate per-host resident memory of this placement.

        Sums each copy's model-declared footprint
        (:meth:`repro.core.fuse.StageModel.memory_bytes` — accumulators
        such as z-buffers dominate) plus the bounded copy-set queues.
        Compare against ``cluster.host(h).memory``: the paper's Rogue nodes
        have 128 MB, so a few 2048^2 z-buffer copies already oversubscribe
        them, while active-pixel copies stay small.
        """
        audit: dict[str, int] = {name: 0 for name in self.cluster.hosts}
        for name, spec in self.graph.filters.items():
            per_copy = spec.sim_factory().memory_bytes()
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
    def run(self) -> RunMetrics:
        """Execute one unit of work; returns the run's metrics.

        The engine may be run repeatedly on the same cluster (consecutive
        timesteps); simulated time accumulates, and makespan and finish
        times are per-run.  A copy that fails raises :class:`EngineError`
        once every copy has finished, naming the copy and carrying the
        run's metrics, as the real engines do.
        """
        env = self.env
        start = env.now
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
        plan = runtime.copy_plan(self.graph, self.placement)
        writers = [
            {
                s.name: _Writer(env, copy.host, self._policy(),
                                copysets[s.dst], copy.label)
                for s in copy.spec.outputs
            }
            for copy in plan
        ]
        reports = [runtime.CycleReport(copy.cid, 0) for copy in plan]
        done = [
            env.process(self._drive(copy, report, copysets, writers), copy.label)
            for copy, report in zip(plan, reports)
        ]
        env.run(until=env.all_of(done))
        metrics, errors = runtime.fold_cycle(reports, plan, start)
        if errors:
            raise runtime.copies_failed(errors, [metrics])
        return metrics

    def run_many(self, count: int) -> list[RunMetrics]:
        """Run ``count`` consecutive units of work (e.g. timesteps)."""
        return [self.run() for _ in range(count)]

    # -- the DES driver ------------------------------------------------------
    def _drive(
        self,
        copy: runtime.CopyPlan,
        report: runtime.CycleReport,
        copysets: dict[str, list[_CopySetRuntime]],
        writers_of: list[dict[str, _Writer]],
    ) -> Generator[Event, Any, None]:
        """Perform one copy's cycle in simulated time.

        Each effect becomes the events it costs, yielded in the order the
        cycle asks for them, and one trace span; it adds no process and no
        event of its own, so equal-time steps keep their order.  Busy
        seconds exclude disk reads, transfers and DD waits; a source's disk
        reads are charged to ``io_time`` while producing a unit, outside its
        work span.
        """
        env, cluster, tracer = self.env, self.cluster, self.tracer
        spec, label = copy.spec, copy.label
        host = cluster.host(copy.host)
        my_set = copysets[spec.name][copy.set_idx]
        writers = writers_of[copy.cid]
        model: Any = None
        units: Any = None
        sink = not spec.outputs
        steps = runtime.execute_cycle(copy, 0, report, lambda: env.now)
        value: Any = None
        thrown: "Exception | None" = None
        while True:
            try:
                effect, arg = steps.send(value) if thrown is None else steps.throw(thrown)
            except StopIteration:
                return
            value = thrown = None
            start = env.now
            try:
                if effect is runtime.RECV:
                    try:
                        value = yield my_set.store.get()
                    except StreamClosedError:
                        pass
                elif effect is runtime.ACK:
                    self._ack(copy.host, arg, writers_of)
                    value = True
                elif effect is runtime.WORK:
                    # A source works on the unit of its SourceUnit.
                    unit = model.unit_of(arg.payload) if spec.inputs else arg[3]
                    cost, emitted = model.step(unit, 0.0)
                    if cost:
                        yield host.compute(cost)
                        report.busy_time += env.now - start
                    value = [] if sink or emitted is None else model.packets(emitted)
                elif effect is runtime.SEND:
                    stream = arg.tags.get("stream")
                    if stream is None and len(writers) == 1:
                        stream = next(iter(writers))
                    if stream not in writers:
                        raise EngineError(
                            f"filter {spec.name!r} has output streams {sorted(writers)}; "
                            f"a model output must name one in a 'stream' tag"
                        )
                    writer = writers[stream]
                    target = writer.policy.select()
                    if target is None:
                        # All windows full: the writer stalls until an ack returns.
                        while target is None:
                            yield writer.ack_event
                            target = writer.policy.select()
                        if tracer:
                            tracer.record(start, label, "blocked", end=env.now)
                    writer.policy.on_sent(target)
                    sent_at = env.now
                    dst = writer.copysets[target.index]
                    yield cluster.transfer(copy.host, dst.host, arg.nbytes)
                    yield dst.store.put(runtime.Envelope(
                        0, stream, copy.cid, target.index, sent_at,
                        writer.policy.needs_ack, arg,
                    ))
                    if tracer:
                        tracer.sample_queue(env.now, dst.store.name, len(dst.store))
                    value = stream, dst.host
                elif effect is runtime.PRODUCE:
                    value = next(units, None)
                    if value is not None and value[0]:
                        # (read_bytes, disk_index, sequential, unit)
                        yield host.read_disk(*value[:3])
                        report.io_time += env.now - start
                elif effect is runtime.FLUSH:
                    cost, emitted = model.flush_step(0.0)
                    if cost:
                        yield host.compute(cost)
                        report.busy_time += env.now - start
                    value = [] if sink or emitted is None else model.packets(emitted)
                elif effect is runtime.INIT:
                    model = spec.sim_factory()
                    if not spec.inputs:
                        units = iter(model.units(FilterContext(
                            spec.name, copy.host, copy.copy_index,
                            copy.copies_on_host, copy.total,
                            [s.name for s in spec.outputs], _reject_ctx_write,
                        )))
                elif effect is runtime.FINISH:
                    value = model.result() if arg else None
                elif effect is runtime.ANNOUNCE:
                    for writer in writers.values():
                        for dst in writer.copysets:
                            yield cluster.transfer(copy.host, dst.host, 0)
                            dst.producer_finished()
                elif effect is runtime.DISCARD and arg.needs_ack:
                    self._ack(copy.host, arg, writers_of)
            except Exception as exc:  # noqa: BLE001 - the cycle reports it
                thrown = exc
            if tracer:
                detail = "" if thrown else runtime.span_detail(effect, value)
                tracer.record(start, label, effect, detail, end=env.now)

    def _ack(
        self,
        consumer_host: str,
        wire: runtime.Envelope,
        writers_of: list[dict[str, _Writer]],
    ) -> None:
        """Fire-and-forget acknowledgment back to the producing copy."""
        env, tracer = self.env, self.tracer
        writer = writers_of[wire.producer][wire.stream]
        transfer = self.cluster.transfer(consumer_host, writer.host, DEFAULT_ACK_BYTES)

        def _deliver(_ev: Event) -> None:
            writer.deliver_ack(writer.policy.targets[wire.target_index])
            if tracer:
                tracer.record(wire.sent_at, writer.label, "acked", end=env.now)

        transfer.callbacks.append(_deliver)


def _reject_ctx_write(stream: str, buffer: DataBuffer) -> None:
    raise EngineError(
        "simulated stage models emit units from step()/flush_step() "
        "instead of calling ctx.write()"
    )
