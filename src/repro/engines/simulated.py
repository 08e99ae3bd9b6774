"""Simulated execution engine.

Runs a placed :class:`repro.core.graph.FilterGraph` over a
:class:`repro.sim.cluster.Cluster`.  Every transparent copy runs the one work
cycle of :func:`repro.engines.runtime.execute_cycle` as a DES process whose
driver, :meth:`SimulatedEngine._drive`, turns each effect into the simulation
events it costs: receives pull from the copy set's shared queue, work and
flush charge the CPU the copy's :class:`repro.core.fuse.StageModel` prices
(one ``step`` per unit or input buffer, one ``flush_step``) on the host's
processor-sharing CPU, sends route through the producer's
:class:`repro.core.policies.Router` (RR / WRR / DD) to downstream copy sets
over the simulated network.  Routing and the copy-set close are the real
engines' objects; only the I/O around them is simulated.

Fidelity notes (mapped to the paper):

- *Copy sets share one queue per host* — demand-based balance within a host
  (Section 2): all copies of a filter on one host pull from one Store.
- *End-of-work markers* — each producer copy, once done, sends a zero-byte
  message to every consumer copy set, counted by the set's
  :class:`repro.engines.runtime.CloseCount`; the final marker closes the
  Store out of band (no ``STOP`` events).
- *Demand-driven acks* — a consumer sends a small acknowledgment message to
  the producing copy when it dequeues a buffer (i.e. when processing starts),
  paying network latency and per-message overhead; on arrival the writer's
  router counts it and a writer whose every window is full wakes.
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
from repro.core.policies import PolicyFactory, Router, make_policy_factory
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

        # Per filter, per copy set: its host, shared queue and close count.
        sets: dict[str, list[tuple[str, Store, runtime.CloseCount]]] = {}
        for name, spec in self.graph.filters.items():
            expected = sum(
                self.placement.total_copies(stream.src) for stream in spec.inputs
            )
            sets[name] = [
                (cs.host,
                 Store(env, capacity=self.queue_capacity, name=f"{name}@{cs.host}"),
                 runtime.CloseCount(cs.copies, expected))
                for cs in self.placement.copysets(name)
            ]
        plan = runtime.copy_plan(self.graph, self.placement)
        # Per (copy, output stream): its router and the event an ack fires.
        routers = {
            (copy.cid, s.name): Router(
                copy.host, [(cs.host, cs.copies) for cs in self.placement.copysets(s.dst)],
                self._policy(),
            )
            for copy in plan for s in copy.spec.outputs
        }
        bells = {key: Event(env) for key in routers}
        reports = [runtime.CycleReport(copy.cid, 0) for copy in plan]
        done = [
            env.process(
                self._drive(copy, report, plan, sets, routers, bells), copy.label
            )
            for copy, report in zip(plan, reports)
        ]
        env.run(until=env.all_of(done))
        metrics, errors = runtime.fold_cycle(reports, plan, start)
        if errors:
            raise runtime.copies_failed(errors, [metrics])
        return metrics

    # -- the DES driver ------------------------------------------------------
    def _drive(
        self,
        copy: runtime.CopyPlan,
        report: runtime.CycleReport,
        plan: list[runtime.CopyPlan],
        sets: dict[str, list[tuple[str, Store, runtime.CloseCount]]],
        routers: dict[tuple[int, str], Router],
        bells: dict[tuple[int, str], Event],
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
        my_store = sets[spec.name][copy.set_idx][1]
        outputs = {s.name: s.dst for s in spec.outputs}
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
                        value = yield my_store.get()
                    except StreamClosedError:
                        pass
                elif effect is runtime.ACK:
                    self._ack(copy.host, arg, plan, routers, bells)
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
                    if stream is None and len(outputs) == 1:
                        stream = next(iter(outputs))
                    if stream not in outputs:
                        raise EngineError(
                            f"filter {spec.name!r} has output streams {sorted(outputs)}; "
                            f"a model output must name one in a 'stream' tag"
                        )
                    router = routers[copy.cid, stream]
                    target = router.route()
                    if target is None:
                        # All windows full: the writer stalls until an ack returns.
                        while target is None:
                            yield bells[copy.cid, stream]
                            target = router.route()
                        if tracer:
                            tracer.record(start, label, "blocked", end=env.now)
                    sent_at = env.now
                    store = sets[outputs[stream]][target.index][1]
                    yield cluster.transfer(copy.host, target.host, arg.nbytes)
                    yield store.put(runtime.Envelope(
                        0, stream, copy.cid, target.index, sent_at,
                        router.policy.needs_ack, arg,
                    ))
                    if tracer:
                        tracer.sample_queue(env.now, store.name, len(store))
                    value = stream, target.host
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
                    # Out of band: the final marker closes the Store, where
                    # in-band markers would cost events.
                    for dst in outputs.values():
                        for dst_host, store, close in sets[dst]:
                            yield cluster.transfer(copy.host, dst_host, 0)
                            if close.take(runtime.EOW)[0] == runtime.FINAL:
                                store.close()
                elif effect is runtime.DISCARD and arg.needs_ack:
                    self._ack(copy.host, arg, plan, routers, bells)
            except Exception as exc:  # noqa: BLE001 - the cycle reports it
                thrown = exc
            if tracer:
                detail = "" if thrown else runtime.span_detail(effect, value)
                tracer.record(start, label, effect, detail, end=env.now)

    def _ack(
        self,
        consumer_host: str,
        wire: runtime.Envelope,
        plan: list[runtime.CopyPlan],
        routers: dict[tuple[int, str], Router],
        bells: dict[tuple[int, str], Event],
    ) -> None:
        """Fire-and-forget acknowledgment back to the producing copy: its
        router counts it and its bell rings for a writer that waits."""
        env, tracer = self.env, self.tracer
        producer, key = plan[wire.producer], (wire.producer, wire.stream)
        transfer = self.cluster.transfer(consumer_host, producer.host, DEFAULT_ACK_BYTES)

        def _deliver(_ev: Event) -> None:
            routers[key].ack(wire.target_index)
            if bells[key].callbacks:  # a writer waits on it
                pending, bells[key] = bells[key], Event(env)
                pending.succeed(None)
            if tracer:
                tracer.record(wire.sent_at, producer.label, "acked", end=env.now)

        transfer.callbacks.append(_deliver)


def _reject_ctx_write(stream: str, buffer: DataBuffer) -> None:
    raise EngineError(
        "simulated stage models emit units from step()/flush_step() "
        "instead of calling ctx.write()"
    )
