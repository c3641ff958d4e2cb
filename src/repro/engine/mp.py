"""Multiprocessing fleet backend: devices sharded across processes.

:class:`ProcessFleet` is the second execution substrate under the
fleet engine.  The thread backend (:class:`~repro.engine.fleet.Fleet`)
scales exactly as far as the GIL lets it — which is far for sleeping
I/O latency and not at all for CPU-bound request mixes.  The process
backend shards the *devices* across worker processes instead: each
worker owns its devices' complete Devil runtime — a private bus slice
with only its devices mapped (at their global slots), bound stubs,
shadow caches, transaction contexts, span collector — so the hot path
crosses no process boundary and takes no cross-process lock at all.

IPC is kept off the per-request path twice over:

* **Request batching** — ``submit`` buffers placements per worker and
  ships up to ``batch_size`` of them in one queue message (flushed on
  the size watermark, a small time watermark, and unconditionally at
  every sync point); :meth:`submit_batch` groups a whole iterable in
  one pass.  Placement still happens at submit time in the parent, so
  batching changes the *transport*, never the schedule.
* **Shared-memory result rings** — each worker appends span batches
  and its sync reports (accounting shards, per-device completion
  counts, device states, trace payloads) to a per-worker
  :class:`~repro.engine.shm.ShmRing`; the parent drains the ring
  exactly at sync points and the reply queue carries only a small
  completion record (an offset, error summaries).  A full ring spills
  to the queue, so exactness never depends on ring capacity.

Design rules (the same exactness contract the thread fleet obeys, see
``docs/CONCURRENCY.md``):

* **Sharding is a pure function of the device list.**  Device
  ``index % workers`` picks the owning worker; labels and port slots
  come from :func:`~repro.engine.fleet.fleet_layout`, shared with the
  thread backend, so a device's mapping names and absolute ports are
  identical in every backend — which is what makes end-state and span
  signatures byte-comparable across substrates.
* **Placement is a pure function of submission order.**  ``submit``
  runs the scheduling policy in the parent, exactly like the thread
  fleet; only :data:`~repro.engine.scheduler.DETERMINISTIC_POLICIES`
  are allowed (``least-loaded`` needs completion feedback that would
  reintroduce timing dependence).  Each worker executes its stream in
  FIFO order — batched or not — so per-device request order equals
  submission order.
* **Requests travel by reference.**  ``submit`` encodes the request
  callable with :func:`~repro.engine.requests.encode_request` — a
  validated ``module:qualname`` token, or a partial-application token
  whose bound arguments travel by value — so both backends execute
  the identical function and unpicklable callables fail loudly in the
  submitting process.  Tokens and their worker-side resolutions are
  memoized, so a hot request pays the validation round-trip once.
* **Merging is exact.**  At every sync the workers report absolute
  per-device accounting shards, pickled device end-state
  (:meth:`repro.bus.Bus.state_snapshot`), their trace rings (block
  groups contiguous, per-device program order preserved) and their
  span buffers.  The parent merges shards by label union (labels are
  globally unique), concatenates traces in worker order and ingests
  spans into its collector (:meth:`repro.obs.Collector.ingest`), so
  ``accounting``/``accounting_by_device()``/``device_states()`` answer
  with the same exact totals the thread fleet computes from its shared
  bus.

Worker failures mirror the thread pool: request exceptions are
captured with their tracebacks and re-raised in the parent as one
:class:`~repro.engine.pool.WorkerError` at ``drain``/``shutdown``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass

from ..bus import IoAccounting
from .fleet import LatencyBus, fleet_layout, map_fleet_device, \
    session_weight
from .pool import WorkerError
from .requests import decode_request, encode_request
from .scheduler import DETERMINISTIC_POLICIES, SCHEDULERS
from .shm import DEFAULT_RING_BYTES, MIN_RING_BYTES, HeartbeatSlot, \
    ShmRing, attach_ring_memory, create_heartbeat_memory, \
    create_ring_memory

#: Default seconds to wait for one worker's sync report before
#: declaring it wedged (each report is one queue message; a healthy
#: worker answers as soon as it reaches the sync marker).
SYNC_TIMEOUT = 120.0

#: ``batch_size="auto"`` without a calibrated workload profile: big
#: enough to amortize a queue round-trip to a few percent of a typical
#: shipped request, small enough to keep sync latency low.  The
#: adaptive selector (:mod:`repro.engine.select`) computes a measured
#: value instead when given a workload.
DEFAULT_AUTO_BATCH = 8

#: Default flush watermark for a partially filled batch, microseconds.
#: A buffered placement never waits longer than this behind later
#: submissions (it is always flushed at sync points regardless).
DEFAULT_FLUSH_US = 500.0

#: Cap on the parent-side token memo (distinct request callables).
_TOKEN_CACHE_LIMIT = 1024


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to build its fleet slice."""

    worker_id: int
    #: ``(spec, label, slot)`` triples, in global fleet order.
    devices: tuple
    strategy: str
    shadow_cache: bool
    tracing: bool
    trace_limit: int | None
    op_latency_us: float
    word_latency_us: float
    #: Instrument stubs and collect spans in the worker.
    observe: bool
    #: Shared-memory result ring name (None: reports ride the queue).
    ring_name: str | None = None
    #: Memoize token -> callable resolutions (off reproduces the
    #: original per-request decode, for benchmark baselines).
    codec_cache: bool = True
    #: Shared-memory heartbeat slot name (None: live telemetry off —
    #: the worker publishes nothing and observes no latencies).
    heartbeat_name: str | None = None


@dataclass
class ProcessSession:
    """Parent-side handle for one device owned by a worker process.

    The scheduling policy runs against these proxies exactly as it
    runs against :class:`~repro.engine.fleet.DeviceSession` objects in
    the thread backend — it only reads ``spec`` and ``weight``.
    ``assigned`` counts submit-time placements; ``completed`` is the
    worker-reported execution count (equal after a clean drain).
    """

    label: str
    spec: str
    slot: int
    worker: int
    #: Index into the owning worker's local session list.
    local_index: int
    weight: int = 1
    assigned: int = 0
    completed: int = 0


def _build_worker_bus(config: _WorkerConfig):
    """The worker's private bus slice with its devices mapped.

    A :class:`LatencyBus`/``ThreadSafeBus`` for exact interface parity
    with the thread backend (same accounting shards, same
    ``accounting_by_device``); its locks are process-local and
    uncontended — the worker is single-threaded — so the hot path
    stays lock-free in every way that matters.
    """
    from ..bus import ThreadSafeBus

    if config.op_latency_us or config.word_latency_us:
        return LatencyBus(op_latency_us=config.op_latency_us,
                          word_latency_us=config.word_latency_us,
                          tracing=config.tracing,
                          trace_limit=config.trace_limit)
    return ThreadSafeBus(tracing=config.tracing,
                         trace_limit=config.trace_limit)


def _token_label(token) -> str:
    """Cheap human-readable name for a wire token (heartbeats only)."""
    if isinstance(token, tuple):
        return _token_label(token[1]) + "(...)"
    return token.rpartition(":")[2]


def _worker_main(config: _WorkerConfig, requests, results) -> None:
    """Worker process entry point: build the slice, serve the queue.

    Protocol (all messages tuples, first element the kind):

    * ``("req", local_index, token)`` — decode and execute.
    * ``("batch", ((local_index, token), ...))`` — execute the whole
      group in order: one IPC message, N requests.
    * ``("sync", sync_id)`` — reply ``("report", worker_id, sync_id,
      payload)`` on ``results``; queue FIFO guarantees every earlier
      request is finished, so the report is a quiesced snapshot.  With
      a result ring the bulk report travels through shared memory and
      ``payload`` carries only the ring offset, spilled records and
      error summaries.
    * ``("ack", offset)`` — the parent drained the ring up to
      ``offset``; that space is reclaimable.
    * ``("stop",)`` — exit the loop.

    A failure *outside* request execution (a corrupt message, a bus
    mapping bug) is reported as ``("crash", worker_id, traceback)`` so
    the parent fails fast instead of timing out.
    """
    ring = None
    pulse_slot = None
    try:
        from .. import obs

        collector = None
        if config.observe:
            obs.enable()
            collector = obs.Collector()
        bus = _build_worker_bus(config)
        if collector is not None:
            bus.collector = collector
        if config.ring_name is not None:
            ring = ShmRing(attach_ring_memory(config.ring_name))

        from ..obs.workloads import bind_stubs

        sessions = []
        completed: dict[str, int] = {}
        for spec, label, slot in config.devices:
            aux, bases = map_fleet_device(bus, spec, slot, label)
            stubs = bind_stubs(spec, config.strategy, bus, bases,
                               shadow_cache=config.shadow_cache)
            if collector is not None:
                collector.register_ports(
                    spec, getattr(stubs, "_obs_ports", {}))
            sessions.append((label, spec, stubs, aux))
            completed[label] = 0

        name = f"pfleet-w{config.worker_id}"
        pulse = None
        latency: dict[str, object] = {}
        if config.heartbeat_name is not None:
            from ..obs.live import WorkerPulse
            from ..obs.metrics import LATENCY_BUCKETS_US, Histogram

            pulse_slot = HeartbeatSlot(
                attach_ring_memory(config.heartbeat_name))
            pulse = WorkerPulse(pulse_slot, name, "process")
            pulse.idle()  # visible before the first request arrives
        errors: list[tuple[str, str, str]] = []
        #: Records that did not fit the ring since the last sync; once
        #: one spills, everything after it spills too, so the parent
        #: replays ring records then spilled records in true order.
        spilled: list = []
        #: Worker-side resolution memo: token -> callable.
        resolutions: dict = {}

        def resolve(token):
            if not config.codec_cache:
                return decode_request(token)
            try:
                request = resolutions.get(token)
            except TypeError:  # unhashable token (never produced today)
                return decode_request(token)
            if request is None:
                request = decode_request(token)
                resolutions[token] = request
            return request

        def execute(local_index, token) -> None:
            label, spec, stubs, aux = sessions[local_index]
            if pulse is None:
                try:
                    resolve(token)(stubs, aux)
                    completed[label] += 1
                except BaseException as exc:  # noqa: BLE001 - at drain
                    errors.append((f"{name}/{label}", repr(exc),
                                   traceback.format_exc()))
                return
            # Telemetry path: bracket the request with heartbeats and
            # observe its execution latency into a per-spec histogram
            # shipped at the next sync.  Device work is untouched.
            pulse.begin(_token_label(token))
            started = time.perf_counter()
            failed = False
            try:
                resolve(token)(stubs, aux)
                completed[label] += 1
            except BaseException as exc:  # noqa: BLE001 - at drain
                failed = True
                errors.append((f"{name}/{label}", repr(exc),
                               traceback.format_exc()))
            elapsed_us = (time.perf_counter() - started) * 1e6
            histogram = latency.get(spec)
            if histogram is None:
                histogram = latency[spec] = Histogram(
                    "fleet.request_us", {}, LATENCY_BUCKETS_US)
            histogram.observe(elapsed_us)
            pulse.done(elapsed_us, error=failed,
                       trace_dropped=bus.trace_dropped)

        def ship(record) -> None:
            """Ring if possible, in-order spill to the queue if not."""
            if ring is None or spilled or not ring.put(record):
                spilled.append(record)

        def flush_spans() -> None:
            if collector is None or ring is None:
                return
            spans = collector.spans
            if spans:
                collector.clear()
                ship(("spans", spans))

        while True:
            message = requests.get()
            kind = message[0]
            if kind == "req":
                execute(message[1], message[2])
                flush_spans()
                continue
            if kind == "batch":
                for local_index, token in message[1]:
                    execute(local_index, token)
                flush_spans()
                continue
            if kind == "ack":
                if ring is not None:
                    ring.ack(message[1])
                continue
            if kind == "stop":
                return
            if kind == "sync":
                if ring is not None:
                    flush_spans()
                    spans = []
                else:
                    spans = collector.spans \
                        if collector is not None else []
                    if collector is not None:
                        collector.clear()
                bulk = {
                    "completed": dict(completed),
                    "accounting": bus.accounting,
                    "by_device": bus.accounting_by_device(),
                    "states": bus.state_snapshot(),
                    "trace": list(bus.trace),
                    "trace_dropped": bus.trace_dropped,
                    "spans": spans,
                    # Latency histograms observed since the last sync
                    # (deltas, so the parent's merge never double
                    # counts); empty without live telemetry.
                    "latency": {spec: histogram.snapshot()
                                for spec, histogram
                                in latency.items()},
                }
                latency.clear()
                payload = {"errors": list(errors), "report": None,
                           "ring_end": None, "spilled": ()}
                errors.clear()
                if ring is not None:
                    ship(("sync_report", message[1], bulk))
                    payload["ring_end"] = ring.written
                    payload["spilled"] = tuple(spilled)
                    spilled.clear()
                else:
                    payload["report"] = bulk
                results.put(("report", config.worker_id,
                             message[1], payload))
                continue
            raise RuntimeError(f"unknown fleet message kind {kind!r}")
    except BaseException:  # noqa: BLE001 - the parent re-raises
        results.put(("crash", config.worker_id,
                     traceback.format_exc()))
    finally:
        if ring is not None:
            ring.close()
        if pulse_slot is not None:
            pulse_slot.close()


class ProcessFleet:
    """N shipped devices sharded across worker processes.

    Drop-in for :class:`~repro.engine.fleet.Fleet` for every
    inspection surface the exactness harnesses use — ``submit``,
    ``submit_batch``, ``run``, ``drain``, ``accounting``,
    ``accounting_by_device()``, ``device_states()``, ``completed()``,
    context management — with requests restricted to picklable
    module-level callables (or partials over them) and the policy
    restricted to the deterministic schedulers.

    ``workers`` is the number of *processes* (clamped to the device
    count: a device is owned by exactly one process).  ``mp_context``
    selects the start method (default: ``fork`` where the platform
    offers it — it inherits the parent's warm spec/model caches — else
    ``spawn``; spawn requires ``repro`` to be importable from the
    child, i.e. installed or on ``PYTHONPATH``).

    ``batch_size`` groups that many consecutive placements per worker
    into one IPC message (``1`` restores one-message-per-request;
    ``"auto"`` picks :data:`DEFAULT_AUTO_BATCH`); ``flush_us`` bounds
    how long a partial batch may sit buffered behind later traffic.
    ``ring_bytes`` sizes the per-worker shared-memory result ring
    (``0`` disables it and reports ride the reply queue, the pre-ring
    transport).

    Telemetry: pass a :class:`repro.obs.Collector` (or enable
    :mod:`repro.obs` before construction) and every worker instruments
    its stubs, collects spans locally, and ships them back through the
    result ring as they complete, where they are merged into
    :attr:`collector` with backend-agnostic metrics rollups.
    """

    backend = "process"

    def __init__(self, devices, strategy: str = "specialize",
                 policy: str = "round-robin", workers: int = 2,
                 queue_depth: int = 64, shadow_cache: bool = False,
                 tracing: bool = False, trace_limit: int | None = None,
                 op_latency_us: float = 0.0,
                 word_latency_us: float = 0.0,
                 weights: dict | None = None,
                 collector=None,
                 mp_context: str | None = None,
                 sync_timeout: float = SYNC_TIMEOUT,
                 batch_size: int | str = 1,
                 flush_us: float = DEFAULT_FLUSH_US,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 codec_cache: bool = True,
                 telemetry=None):
        from .. import obs

        if not devices:
            raise ValueError("a fleet needs at least one device")
        if workers < 1:
            raise ValueError(f"need at least one worker (got {workers})")
        if policy not in SCHEDULERS:
            raise ValueError(
                f"unknown policy {policy!r} "
                f"(have: {', '.join(sorted(SCHEDULERS))})")
        if policy not in DETERMINISTIC_POLICIES:
            raise ValueError(
                f"policy {policy!r} is not deterministic at submit "
                f"time; the process backend requires one of: "
                f"{', '.join(DETERMINISTIC_POLICIES)}")
        if batch_size == "auto":
            batch_size = DEFAULT_AUTO_BATCH
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ValueError(
                f"batch_size must be a positive integer or 'auto', "
                f"got {batch_size!r}")
        if flush_us <= 0:
            raise ValueError(f"flush_us must be positive, got {flush_us}")
        if ring_bytes < 0:
            raise ValueError(
                f"ring_bytes must be non-negative, got {ring_bytes}")
        self.strategy = strategy
        self.policy = policy
        self.workers = min(workers, len(devices))
        self.batch_size = batch_size
        self.flush_us = flush_us
        self.submitted = 0
        self._sync_timeout = sync_timeout
        self._dirty = False
        self._closed = False
        self._failures: list[tuple[str, object, str]] = []
        self._sync_ids = itertools.count(1)
        self._reports: dict[int, dict] = {}
        self._codec_cache = codec_cache
        self._tokens: dict = {}

        observe = collector is not None or obs.is_enabled()
        self.collector = (collector or obs.Collector()) if observe \
            else None

        #: Live telemetry plane (``None`` = off; ``True`` builds one).
        if telemetry is True:
            from ..obs.live import FleetTelemetry

            telemetry = FleetTelemetry()
        self.telemetry = telemetry or None
        self._health = None
        self._heartbeat_slots: list[HeartbeatSlot] = []

        # Shard devices across workers; layout (labels, slots) is the
        # global one, shared with the thread backend.
        per_worker: list[list] = [[] for _ in range(self.workers)]
        self.sessions: list[ProcessSession] = []
        for index, (spec, label, slot) in \
                enumerate(fleet_layout(devices)):
            worker = index % self.workers
            self.sessions.append(ProcessSession(
                label=label, spec=spec, slot=slot, worker=worker,
                local_index=len(per_worker[worker]),
                weight=session_weight(weights, label, spec)))
            per_worker[worker].append((spec, label, slot))
        self.scheduler = SCHEDULERS[policy](self.sessions)

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(mp_context)
        self.mp_context = mp_context
        self._results = context.Queue()
        self._queues = []
        self._processes = []
        self._rings: list[ShmRing] | None = None
        if ring_bytes:
            self._rings = [
                ShmRing(create_ring_memory(
                    max(ring_bytes, MIN_RING_BYTES)))
                for _ in range(self.workers)]
        self._pending: list[list] = [[] for _ in range(self.workers)]
        self._pending_since: list[float | None] = \
            [None] * self.workers
        for worker_id in range(self.workers):
            heartbeat_name = None
            if self.telemetry is not None:
                slot = HeartbeatSlot(create_heartbeat_memory())
                self._heartbeat_slots.append(slot)
                self.telemetry.attach_reader(f"pfleet-w{worker_id}",
                                             slot)
                heartbeat_name = slot.memory.name
            config = _WorkerConfig(
                worker_id=worker_id,
                devices=tuple(per_worker[worker_id]),
                strategy=strategy, shadow_cache=shadow_cache,
                tracing=tracing, trace_limit=trace_limit,
                op_latency_us=op_latency_us,
                word_latency_us=word_latency_us,
                observe=observe,
                ring_name=self._rings[worker_id].memory.name
                if self._rings is not None else None,
                codec_cache=codec_cache,
                heartbeat_name=heartbeat_name)
            requests = context.Queue(maxsize=queue_depth)
            process = context.Process(
                target=_worker_main,
                args=(config, requests, self._results),
                name=f"pfleet-w{worker_id}", daemon=True)
            process.start()
            self._queues.append(requests)
            self._processes.append(process)

    # -- request flow ---------------------------------------------------

    def _encode(self, request):
        if not self._codec_cache:
            return encode_request(request)
        token = self._tokens.get(request)
        if token is None:
            token = encode_request(request)
            if len(self._tokens) >= _TOKEN_CACHE_LIMIT:
                self._tokens.clear()
            self._tokens[request] = token
        return token

    def _place(self, spec: str, request) -> ProcessSession:
        """Route one request (deterministic, in the caller's process)
        and buffer its placement for the owning worker."""
        token = self._encode(request)
        session = self.scheduler.acquire(spec)
        self.scheduler.release(session)
        self._pending[session.worker].append(
            (session.local_index, token))
        session.assigned += 1
        self.submitted += 1
        self._dirty = True
        if self.telemetry is not None:
            self.telemetry.note_submit("process", spec, session.label,
                                       _token_label(token))
        return session

    def _flush_worker(self, worker: int) -> None:
        pending = self._pending[worker]
        if not pending:
            return
        if len(pending) == 1:
            local_index, token = pending[0]
            self._queues[worker].put(("req", local_index, token))
        else:
            self._queues[worker].put(("batch", tuple(pending)))
            if self.telemetry is not None:
                self.telemetry.recorder.record(
                    "batch-flush", worker=f"pfleet-w{worker}",
                    count=len(pending))
        pending.clear()
        self._pending_since[worker] = None

    def _flush_pending(self) -> None:
        for worker in range(self.workers):
            self._flush_worker(worker)

    def submit(self, spec: str, request) -> None:
        """Route one request and ship it to the owning worker process.

        The session is picked *here*, in the caller's process, by the
        deterministic policy — so placement is a pure function of
        submission order, byte-for-byte the same function the thread
        backend computes.  With ``batch_size > 1`` the placement is
        buffered and shipped once the worker's batch fills, the
        ``flush_us`` watermark expires, or a sync point arrives —
        transport only; per-device execution order is still submission
        order.  Blocks when the worker's queue is full (backpressure,
        exactly like the thread pool's bounded queue).
        """
        if self._closed:
            raise RuntimeError("fleet is shut down")
        session = self._place(spec, request)
        worker = session.worker
        if self.batch_size <= 1:
            self._flush_worker(worker)
            return
        now = time.monotonic()
        if self._pending_since[worker] is None:
            self._pending_since[worker] = now
        if len(self._pending[worker]) >= self.batch_size:
            self._flush_worker(worker)
        deadline = self.flush_us * 1e-6
        for other in range(self.workers):
            since = self._pending_since[other]
            if since is not None and now - since >= deadline:
                self._flush_worker(other)

    def submit_batch(self, requests) -> int:
        """Submit every ``(spec, request)`` pair, batched per worker.

        Placement runs per request in submission order (identical to
        N ``submit`` calls); transport is one IPC message per worker
        shard regardless of ``batch_size``.  Returns the count.
        """
        if self._closed:
            raise RuntimeError("fleet is shut down")
        count = 0
        for spec, request in requests:
            self._place(spec, request)
            count += 1
        self._flush_pending()
        return count

    def run(self, requests) -> int:
        """Submit every ``(spec, request)`` pair, then drain."""
        count = 0
        for spec, request in requests:
            self.submit(spec, request)
            count += 1
        self.drain()
        return count

    def drain(self) -> None:
        """Quiesce every worker and merge its report; re-raise errors."""
        if self._dirty or not self._reports:
            self._collect_reports()
        try:
            self._raise_failures()
        except WorkerError as exc:
            if self.telemetry is not None:
                self.telemetry.recorder.record("drain",
                                               error=repr(exc))
                self.telemetry.dump("drain-error")
            raise

    def _absorb_ring(self, worker_id: int, sync_id: int,
                     payload: dict):
        """Drain one worker's result ring (plus spilled records) and
        return its sync report for ``sync_id`` (None when stale).

        Ring records and spilled records replay in production order —
        the worker stops ringing the moment one record spills.  Span
        batches are ingested as encountered, so their completion order
        is preserved; the ring space is acknowledged immediately.
        """
        ring = self._rings[worker_id]
        records = ring.read_to(payload["ring_end"])
        records.extend(payload["spilled"])
        bulk = None
        for record in records:
            kind = record[0]
            if kind == "spans":
                if self.collector is not None:
                    self.collector.ingest(record[1])
            elif kind == "sync_report" and record[1] == sync_id:
                bulk = record[2]
        self._queues[worker_id].put(("ack", ring.consumed))
        return bulk

    def _collect_reports(self) -> None:
        self._flush_pending()
        sync_id = next(self._sync_ids)
        if self.telemetry is not None:
            self.telemetry.recorder.record("sync", sync_id=sync_id)
        for requests in self._queues:
            requests.put(("sync", sync_id))
        pending = set(range(self.workers))
        while pending:
            try:
                message = self._results.get(timeout=self._sync_timeout)
            except queue_module.Empty:
                dead = [f"pfleet-w{i}" for i in pending
                        if not self._processes[i].is_alive()]
                if self.telemetry is not None:
                    self.telemetry.recorder.record(
                        "worker-error",
                        worker=", ".join(dead) or None,
                        error="sync timeout",
                        pending=len(pending))
                    self.telemetry.dump("sync-timeout")
                raise WorkerError([(
                    ", ".join(dead) or f"pfleet ({len(pending)} pending)",
                    RuntimeError(
                        "worker process died or wedged before "
                        "acknowledging sync"
                        if dead else
                        f"no sync report within {self._sync_timeout}s"),
                    "")]) from None
            kind = message[0]
            if kind == "crash":
                _, worker_id, formatted = message
                pending.discard(worker_id)
                self._failures.append(
                    (f"pfleet-w{worker_id}",
                     RuntimeError("worker process crashed"), formatted))
                if self.telemetry is not None:
                    self.telemetry.recorder.record(
                        "worker-error", worker=f"pfleet-w{worker_id}",
                        error="worker process crashed")
                    self.telemetry.dump(f"crash:pfleet-w{worker_id}")
                continue
            _, worker_id, got_sync, payload = message
            if self._rings is not None \
                    and payload.get("ring_end") is not None:
                report = self._absorb_ring(worker_id, got_sync, payload)
            else:
                report = payload["report"]
            if got_sync != sync_id or report is None:
                continue  # stale report from an aborted earlier sync
            pending.discard(worker_id)
            self._reports[worker_id] = report
            for failure in payload["errors"]:
                self._failures.append(failure)
            if self.collector is not None and report["spans"]:
                self.collector.ingest(report["spans"])
            if self.telemetry is not None:
                for spec, snapshot in report.get("latency",
                                                 {}).items():
                    self.telemetry.merge_latency(spec, "process",
                                                 snapshot)
        for session in self.sessions:
            report = self._reports.get(session.worker)
            if report is not None:
                session.completed = \
                    report["completed"].get(session.label, 0)
        self._dirty = False
        if self.collector is not None:
            self.collector.record_trace_drops(
                sum(report["trace_dropped"]
                    for report in self._reports.values()))

    def _raise_failures(self) -> None:
        if self._failures:
            failures, self._failures = self._failures, []
            raise WorkerError(failures)

    # -- lifecycle ------------------------------------------------------

    def shutdown(self) -> None:
        """Drain, stop every worker process, and join them."""
        if self._closed:
            return
        self._closed = True
        sync_error = None
        try:
            if self._dirty or not self._reports:
                self._collect_reports()
        except WorkerError as error:
            sync_error = error
        for requests in self._queues:
            try:
                requests.put(("stop",))
            except ValueError:  # queue already closed
                pass
        for process in self._processes:
            process.join(timeout=self._sync_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        if self._rings is not None:
            for ring in self._rings:
                ring.close()
                ring.unlink()
            self._rings = None
        for slot in self._heartbeat_slots:
            slot.close()
            slot.unlink()
        self._heartbeat_slots = []
        if self.telemetry is not None:
            self.telemetry.recorder.record("shutdown",
                                           submitted=self.submitted)
        if sync_error is not None:
            raise sync_error
        self._raise_failures()

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
            return
        # Error path: still stop the workers, but don't mask the
        # propagating exception with queued-work failures.
        try:
            self.shutdown()
        except WorkerError:
            pass

    # -- inspection (exact, post-drain) ---------------------------------

    def _synced_reports(self) -> list[dict]:
        if self._dirty or not self._reports:
            self.drain()
        return [self._reports[worker_id]
                for worker_id in sorted(self._reports)]

    @property
    def accounting(self) -> IoAccounting:
        """Exact merged totals across every worker's bus slice."""
        total = IoAccounting()
        for report in self._synced_reports():
            total.add(report["accounting"])
        return total

    def accounting_by_device(self) -> dict:
        """Label union of every worker's per-device shards (exact)."""
        merged: dict = {}
        for report in self._synced_reports():
            for name, shard in report["by_device"].items():
                if name in merged:
                    merged[name].add(shard)
                else:
                    merged[name] = shard.snapshot()
        return merged

    def device_states(self) -> dict[str, bytes]:
        """Byte-comparable per-mapping end-state across all workers."""
        states: dict[str, bytes] = {}
        for report in self._synced_reports():
            states.update(report["states"])
        return states

    @property
    def trace(self) -> list:
        """Worker traces concatenated in worker order.

        Per-device program order and block-group contiguity hold
        within each worker's segment (each worker is single-threaded);
        cross-worker interleaving is not meaningful and not modelled.
        """
        entries: list = []
        for report in self._synced_reports():
            entries.extend(report["trace"])
        return entries

    @property
    def trace_dropped(self) -> int:
        return sum(report["trace_dropped"]
                   for report in self._synced_reports())

    @property
    def spans(self) -> list:
        """Merged spans (requires a collector; empty list otherwise)."""
        if self.collector is None:
            return []
        self._synced_reports()
        return self.collector.spans

    def completed(self) -> int:
        self._synced_reports()
        return sum(session.completed for session in self.sessions)

    def completed_by_device(self) -> dict[str, int]:
        self._synced_reports()
        return {session.label: session.completed
                for session in self.sessions}

    def sessions_of(self, spec: str) -> list[ProcessSession]:
        return [s for s in self.sessions if s.spec == spec]

    # -- live telemetry plumbing ----------------------------------------

    def worker_liveness(self) -> dict[str, bool]:
        """``worker name -> is the process alive`` (health's "dead")."""
        return {f"pfleet-w{worker_id}": process.is_alive()
                for worker_id, process in enumerate(self._processes)}

    def queue_depths(self) -> dict[str, int | None]:
        """Request-queue depth per worker (approximate by nature;
        ``None`` where the platform's ``qsize`` is unimplemented)."""
        depths: dict[str, int | None] = {}
        for worker_id, requests in enumerate(self._queues):
            try:
                depths[f"pfleet-w{worker_id}"] = requests.qsize()
            except NotImplementedError:  # macOS
                depths[f"pfleet-w{worker_id}"] = None
        return depths

    def batch_occupancy(self) -> dict[str, int]:
        """Parent-side buffered placements per worker (batching)."""
        return {f"pfleet-w{worker_id}": len(pending)
                for worker_id, pending in enumerate(self._pending)}

    def health_view(self, **kwargs):
        """The :class:`repro.obs.live.FleetHealth` view of this fleet.

        Built on first call (keyword arguments configure the stall
        detector then); later calls return the same instance so status
        transitions are tracked consistently.
        """
        if self._health is None:
            from ..obs.live import FleetHealth

            self._health = FleetHealth(self, **kwargs)
        return self._health
