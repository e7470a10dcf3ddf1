"""The gossip service control plane.

:class:`GossipService` hosts an :class:`~repro.aio.cluster.AioCluster`
behind a tiny line-delimited-JSON TCP endpoint, so a cluster can be
driven (and attacked) *while it runs* instead of only as a scripted
experiment:

- ``{"op": "start", "n": 2000, ...}`` — build and start a cluster;
- ``{"op": "multicast", "payload": "..."}`` — inject application
  traffic (from ``"source"``, default 0; a down or unknown source
  answers ``"ok": false`` naming it, and nothing is sent);
- ``{"op": "inject", "faults": "crash@3:0.2"}`` /
  ``{"op": "inject", "attack": {"alpha": 0.1, "x": 128}}`` — fault
  plans and DoS floods against the live group;
- ``{"op": "metrics"}`` — the Prometheus text exposition of the obs
  counters and the ``status`` self-health blocks (scrape-ready);
- ``{"op": "stream"}`` — switches the connection to a JSONL stream of
  observability events (one encoded event per line);
- ``{"op": "status"}`` / ``{"op": "stop"}`` / ``{"op": "shutdown"}``.

Every request is one JSON object on one line; every response is one
JSON object on one line with an ``"ok"`` flag.  A line over asyncio's
64 KiB stream limit is answered with the same error envelope and that
connection is closed; the service carries on.  The service owns a
thread-safe :class:`~repro.obs.Tracer` feeding a
:class:`~repro.obs.sinks.PrometheusSink` (for ``metrics``) and an
:class:`EventStreamSink` (for ``stream``); both attach to each cluster
it starts.

The event loop runs on a dedicated thread — :meth:`GossipService.start`
/ :meth:`GossipService.stop` are ordinary blocking calls for hosts
(tests, the ``repro serve`` CLI command).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from collections import deque
from typing import Dict, List, Optional

from repro.adversary.attacks import AttackSpec
from repro.aio.cluster import AioCluster, AioClusterConfig
from repro.obs.sinks import PrometheusSink, encode_event
from repro.obs.tracer import Tracer


class EventStreamSink:
    """Fans trace events out to bounded per-subscriber ring buffers.

    Emission must never block or grow without bound — a slow or stalled
    stream consumer loses the *oldest* events (the ring drops from the
    left) and the per-subscriber ``dropped`` counter records how many.
    ``write`` is called under the tracer's emission lock from the
    cluster's loop; ``drain`` is called from service connections on
    other threads — the sink's own lock makes the handoff safe either
    way.
    """

    def __init__(self, maxlen: int = 4096):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._subs: Dict[int, deque] = {}
        self._dropped: Dict[int, int] = {}
        self._ids = itertools.count()
        #: Backlog of the most recent events, for ``replay`` subscribers
        #: who want history before the live tail.
        self._recent: deque = deque(maxlen=maxlen)
        self.written = 0

    def subscribe(
        self, maxlen: Optional[int] = None, *, replay: bool = False
    ) -> int:
        """Register a consumer; returns its subscriber id.

        ``replay=True`` seeds the subscriber's ring with the backlog of
        recent events, so a late subscriber sees history first.
        """
        with self._lock:
            sub_id = next(self._ids)
            ring: deque = deque(
                maxlen=self.maxlen if maxlen is None else maxlen
            )
            if replay:
                ring.extend(self._recent)
            self._subs[sub_id] = ring
            self._dropped[sub_id] = 0
            return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        with self._lock:
            self._subs.pop(sub_id, None)
            self._dropped.pop(sub_id, None)

    def write(self, event: dict) -> None:
        with self._lock:
            self.written += 1
            self._recent.append(event)
            for sub_id, ring in self._subs.items():
                if ring.maxlen is not None and len(ring) == ring.maxlen:
                    self._dropped[sub_id] += 1
                ring.append(event)

    def drain(self, sub_id: int, max_items: Optional[int] = None) -> List[dict]:
        """Pop up to ``max_items`` buffered events, oldest first."""
        with self._lock:
            ring = self._subs.get(sub_id)
            if ring is None:
                return []
            count = len(ring) if max_items is None else min(max_items, len(ring))
            return [ring.popleft() for _ in range(count)]

    def dropped(self, sub_id: int) -> int:
        """Events this subscriber lost to backpressure so far."""
        with self._lock:
            return self._dropped.get(sub_id, 0)

    def close(self) -> None:
        with self._lock:
            self._subs.clear()
            self._dropped.clear()


#: Config fields a ``start`` request may set, in AioClusterConfig terms.
_START_FIELDS = (
    "protocol",
    "n",
    "malicious_fraction",
    "fan_out",
    "loss",
    "round_duration_ms",
    "round_jitter",
    "purge_rounds",
    "send_rate",
    "messages",
    "transport",
    "faults",
)


class GossipService:
    """A long-lived gossip cluster behind a JSONL-over-TCP control plane."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.prometheus = PrometheusSink()
        self.stream = EventStreamSink()
        # One tracer for the service's lifetime: counters accumulate
        # across cluster restarts, like a real process's metrics.
        self.tracer = Tracer(self.prometheus, self.stream, thread_safe=True)
        self.cluster: Optional[AioCluster] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- host-thread lifecycle ------------------------------------------------

    def start(self, timeout_s: float = 10.0) -> None:
        """Start the service loop thread and bind the control socket."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="gossip-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("service failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"service failed to bind: {self._startup_error!r}"
            ) from self._startup_error

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle_conn, self.host, self.port)
            )
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._shutdown_async())
            loop.close()

    async def _shutdown_async(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.cluster is not None:
            try:
                await self.cluster.stop()
            finally:
                self.cluster = None
        # Drain cancelled callbacks / connection tasks.
        pending = [
            t
            for t in asyncio.all_tasks(self._loop)
            if t is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the service loop exits (a client sent ``shutdown``).

        Returns ``True`` once the loop thread has finished, ``False`` on
        timeout.  ``repro serve`` parks here so both Ctrl-C and a remote
        ``shutdown`` request end the process.
        """
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout_s)
        return not thread.is_alive()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the cluster (if any), close the socket, join the thread."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout_s)
        self._thread = None
        self._loop = None

    # -- the wire protocol ----------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Over the stream limit: the rest of the line is
                    # still in flight, so the connection cannot be
                    # resynchronised — say why, then drop it.
                    await self._reply(
                        writer,
                        {"ok": False,
                         "error": f"request line too long: {exc}"},
                    )
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    await self._reply(writer, {"ok": False, "error": str(exc)})
                    continue
                op = request.get("op")
                if op == "stream":
                    await self._reply(writer, {"ok": True, "streaming": True})
                    await self._stream_events(writer, request)
                    break
                if op == "shutdown":
                    await self._reply(writer, {"ok": True, "shutdown": True})
                    self._loop.call_soon(self._loop.stop)
                    break
                try:
                    response = await self._dispatch(op, request)
                except Exception as exc:
                    response = {"ok": False, "error": str(exc)}
                await self._reply(writer, response)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, request: dict
    ) -> None:
        """Forward obs events as JSONL until the client leaves.

        The subscriber ring absorbs bursts; a consumer slower than the
        event rate loses oldest-first and the final ``stream_end``
        record reports the drop count.
        """
        max_events = request.get("max_events")
        sub_id = self.stream.subscribe(
            request.get("buffer"), replay=bool(request.get("replay", True))
        )
        sent = 0
        try:
            while max_events is None or sent < max_events:
                budget = None if max_events is None else max_events - sent
                events = self.stream.drain(sub_id, budget)
                if not events:
                    await asyncio.sleep(0.05)
                    # A closed client only surfaces on write; probe with
                    # an empty payload so idle streams still terminate.
                    if writer.is_closing():
                        return
                    continue
                for event in events:
                    writer.write(encode_event(event).encode() + b"\n")
                    sent += 1
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            dropped = self.stream.dropped(sub_id)
            self.stream.unsubscribe(sub_id)
        writer.write(
            json.dumps(
                {"ev": "stream_end", "sent": sent, "dropped": dropped}
            ).encode()
            + b"\n"
        )
        await writer.drain()

    # -- operations -----------------------------------------------------------

    async def _dispatch(self, op: Optional[str], request: dict) -> dict:
        if op == "ping":
            return {"ok": True, "pong": True, "engine": "aio"}
        if op == "start":
            return await self._op_start(request)
        if op == "status":
            return self._op_status()
        if op == "multicast":
            return await self._op_multicast(request)
        if op == "inject":
            return self._op_inject(request)
        if op == "metrics":
            return {"ok": True, "exposition": self._exposition()}
        if op == "stop":
            return await self._op_stop()
        raise ValueError(f"unknown op {op!r}")

    async def _op_start(self, request: dict) -> dict:
        if self.cluster is not None:
            raise RuntimeError(
                "a cluster is already running; stop it first"
            )
        fields = {k: request[k] for k in _START_FIELDS if k in request}
        config = AioClusterConfig(**fields)
        cluster = AioCluster(
            config, seed=request.get("seed"), tracer=self.tracer
        )
        try:
            await cluster.start()
        except BaseException:
            await cluster.stop()  # a half-started group holds sockets
            raise
        self.cluster = cluster
        return {
            "ok": True,
            "n": config.n,
            "protocol": config.protocol.value,
        }

    def _require_cluster(self) -> AioCluster:
        if self.cluster is None:
            raise RuntimeError("no cluster is running; send op=start first")
        return self.cluster

    def _op_status(self) -> dict:
        cluster = self.cluster
        if cluster is None:
            return {"ok": True, "running": False}
        status = {
            "ok": True,
            "running": True,
            "n": cluster.config.n,
            "protocol": cluster.config.protocol.value,
            "deliveries": len(cluster.log.deliveries),
            "tracked_messages": len(cluster.log.created_at),
            "node_errors": len(cluster.node_errors),
            "attackers": len(cluster.attackers),
            "faults": None
            if cluster.config.faults is None
            else cluster.config.faults.describe(),
            # A growing ``late_ms_max``: saturated loop, slow motion.
            "clock": cluster.clock.stats(),
        }
        shaper = cluster.shaper
        if shaper is not None:
            # Self-health of the fault layer: a growing ``pending``
            # means the delay line is filling faster than it drains.
            status["shaper"] = shaper.counters()
        return status

    def _exposition(self) -> str:
        """The obs counters, then ``status``'s self-health as gauges."""
        text, status = self.prometheus.render(), self._op_status()
        for block in ("clock", "shaper"):
            for key, value in status.get(block, {}).items():
                name = f"repro_aio_{block}_{key}"
                text += f"# TYPE {name} gauge\n{name} {value}\n"
        return text

    async def _op_multicast(self, request: dict) -> dict:
        cluster = self._require_cluster()
        payload = request.get("payload", "")
        source = int(request.get("source", cluster.config.source))
        msg_id = cluster.multicast(
            source, payload.encode() if isinstance(payload, str) else payload
        )
        if msg_id is None:
            raise ValueError(
                f"node {source} is down or not a member; nothing was sent"
            )
        response = {"ok": True, "msg_id": list(msg_id)}
        fraction = request.get("await_fraction")
        if fraction is not None:
            response["delivered"] = await cluster.await_delivery(
                msg_id,
                fraction=float(fraction),
                timeout_s=float(request.get("timeout_s", 30.0)),
            )
        return response

    def _op_inject(self, request: dict) -> dict:
        cluster = self._require_cluster()
        injected = {}
        attack = request.get("attack")
        faults = request.get("faults")
        if attack is None and faults is None:
            raise ValueError(
                'inject needs "faults" (a plan spec) and/or "attack" '
                '({"alpha": ..., "x": ...})'
            )
        if faults is not None:
            cluster.inject_faults(faults)
            injected["faults"] = cluster.config.faults.describe()
        if attack is not None:
            spec = AttackSpec(
                alpha=float(attack["alpha"]), x=float(attack["x"])
            )
            cluster.inject_attack(spec)
            injected["attack"] = {
                "alpha": spec.alpha,
                "x": spec.x,
                "victims": spec.victim_count(cluster.config.n),
            }
        return {"ok": True, "injected": injected}

    async def _op_stop(self) -> dict:
        cluster = self._require_cluster()
        self.cluster = None
        await cluster.stop()
        return {"ok": True, "deliveries": len(cluster.log.deliveries)}
