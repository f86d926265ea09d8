"""The benchmark's open-loop wire client.

One process drives every connection from a ``select()`` loop: asyncio's
default epoll loop rounds timeouts up to whole milliseconds, which would
add up to a millisecond of generator lateness to every sub-millisecond
gap of a Poisson schedule.  Schedules are precomputed from the seed
(arrival times, connection, op, address, encoded request line), every
request is timed from the moment it was *due*, not sent, and the raw
samples are kept so percentiles are exact.

Each connection gets a private address range from the server, so the
values its reads must return are decided by its own request order; the
client checks every read against the last value that connection wrote.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import select
import socket
import time
from dataclasses import dataclass, field

from stats import check_read_value

WRITE_SHARE = 0.10
ZIPF_EXPONENT = 0.99
#: Slack before the first arrival so the loop is idle when the clock starts.
LEAD_S = 0.02


@dataclass
class Phase:
    """Raw samples of one scheduled phase (all times in seconds)."""

    due: list[float]
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)

    def latencies_ms(self) -> list[float]:
        """Due-to-answer latency; a failed or unanswered request is inf."""
        return [
            (d - t) * 1000.0 if good else math.inf
            for t, d, good in zip(self.due, self.done, self.ok)
        ]

    def lateness_ms(self) -> list[float]:
        return [(s - t) * 1000.0 for s, t in zip(self.sent, self.due)]

    @property
    def failed(self) -> int:
        return sum(1 for good in self.ok if not good)


class WireClient:
    """Open-loop load over ``conns`` connections to one server."""

    def __init__(self, host: str, port: int, conns: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.socks: list[socket.socket] = []
        self.spaces: list[int] = []
        for i in range(conns):
            sock = socket.create_connection((host, port), timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
            welcome = self._call(i, {"type": "hello", "client": f"perfbench-{i}"})
            if welcome.get("type") != "welcome":
                raise RuntimeError(f"handshake refused: {welcome}")
            self.spaces.append(int(welcome["space"]))
            sock.setblocking(False)
        self._bufs = [b""] * conns
        self._cdf = [self._zipf_cdf(space) for space in self.spaces]
        self._perm = [self.rng.sample(range(space), space) for space in self.spaces]
        self._next_id = 0
        # Per connection: every value sent to an address, and the
        # addresses whose write was not acknowledged ``ok``.
        self.last_value: list[dict[int, str]] = [{} for _ in range(conns)]
        self.written: list[dict[int, set[str]]] = [{} for _ in range(conns)]
        self.tainted: list[set[int]] = [set() for _ in range(conns)]
        self.wrong_reads = 0

    @staticmethod
    def _zipf_cdf(space: int) -> list[float]:
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(space)]
        total = sum(weights)
        acc, cdf = 0.0, []
        for w in weights:
            acc += w
            cdf.append(acc / total)
        return cdf

    # ------------------------------------------------------------------
    def _call(self, conn: int, message: dict[str, object]) -> dict[str, object]:
        """Blocking request/reply for control messages (before or after load).

        Responses to load requests still in flight from an abandoned phase
        are skipped; the first other message is the reply.
        """
        sock = self.socks[conn]
        sock.setblocking(True)
        try:
            sock.sendall(json.dumps(message).encode() + b"\n")
            buf = b""
            while True:
                while b"\n" not in buf:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise RuntimeError("server closed the connection")
                    buf += chunk
                line, _, buf = buf.partition(b"\n")
                reply = json.loads(line)
                if reply.get("type") != "resp":
                    return reply
        finally:
            sock.setblocking(False)

    def stats(self) -> dict[str, object]:
        return self._call(0, {"type": "stats"})

    def shutdown(self) -> None:
        self._call(0, {"type": "shutdown"})

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    # ------------------------------------------------------------------
    def _schedule(self, n: int, rate: float) -> tuple[list[float], list[tuple]]:
        rng = self.rng
        due, reqs = [], []
        t = 0.0
        for _ in range(n):
            t += rng.expovariate(rate)
            conn = rng.randrange(len(self.socks))
            rank = bisect.bisect_left(self._cdf[conn], rng.random())
            addr = self._perm[conn][min(rank, self.spaces[conn] - 1)]
            rid = self._next_id
            self._next_id += 1
            if rng.random() < WRITE_SHARE:
                value = f"v{conn}-{rid}"
                msg = {"type": "req", "id": rid, "op": "write", "addr": addr,
                       "value": value}
                expect = value
                self.last_value[conn][addr] = value
                self.written[conn].setdefault(addr, set()).add(value)
            else:
                msg = {"type": "req", "id": rid, "op": "read", "addr": addr}
                expect = self.last_value[conn].get(addr)
            due.append(t)
            reqs.append((conn, rid, msg["op"], addr, expect,
                         json.dumps(msg, separators=(",", ":")).encode() + b"\n"))
        return due, reqs

    def run_phase(self, n: int, rate: float, drain_s: float = 10.0) -> Phase:
        """Offer ``n`` Poisson arrivals at ``rate``/s and collect answers."""
        due, reqs = self._schedule(n, rate)
        phase = Phase(due=due, sent=[math.nan] * n, done=[math.inf] * n,
                      ok=[False] * n)
        first_id = reqs[0][1]
        socks = self.socks
        outbox = [bytearray() for _ in socks]
        fd_conn = {s.fileno(): i for i, s in enumerate(socks)}
        clock = time.perf_counter
        start = clock() + LEAD_S
        nxt = 0
        pending = n
        give_up = start + due[-1] + drain_s
        while pending:
            now = clock() - start
            while nxt < n and due[nxt] <= now:
                conn = reqs[nxt][0]
                outbox[conn] += reqs[nxt][5]
                phase.sent[nxt] = now
                nxt += 1
            writers = [socks[i] for i, box in enumerate(outbox) if box]
            for sock in writers:
                i = fd_conn[sock.fileno()]
                try:
                    sent = sock.send(outbox[i])
                except BlockingIOError:
                    continue
                del outbox[i][:sent]
            now = clock()
            if now > give_up:
                break
            timeout = (start + due[nxt] - now) if nxt < n else (give_up - now)
            readable, _, _ = select.select(
                socks, [s for i, s in enumerate(socks) if outbox[i]], [],
                max(0.0, timeout),
            )
            if not readable:
                continue
            for sock in readable:
                i = fd_conn[sock.fileno()]
                chunk = sock.recv(1 << 18)
                if not chunk:
                    raise RuntimeError("server closed a load connection")
                t_recv = clock() - start
                lines = (self._bufs[i] + chunk).split(b"\n")
                self._bufs[i] = lines.pop()
                for line in lines:
                    pending -= self._answer(json.loads(line), reqs, first_id,
                                            phase, t_recv)
        for idx, (conn, _rid, op, addr, _e, _l) in enumerate(reqs):
            if op == "write" and not phase.ok[idx]:
                self.tainted[conn].add(addr)
        return phase

    def _answer(self, msg: dict[str, object], reqs: list[tuple], first_id: int,
                phase: Phase, t_recv: float) -> int:
        """Record one response; returns how many of this phase's requests
        it answered (0 for a straggler from an earlier, abandoned phase)."""
        if msg.get("type") != "resp":
            raise RuntimeError(f"unexpected message during load: {msg}")
        idx = int(msg["id"]) - first_id
        if not 0 <= idx < len(reqs):
            return 0
        conn, _rid, op, addr, expect, _line = reqs[idx]
        phase.done[idx] = t_recv
        if msg.get("status") != "ok":
            if op == "write":
                self.tainted[conn].add(addr)
        elif op == "read" and not check_read_value(
            msg.get("value"), expect,
            self.written[conn].get(addr, set()) if addr in self.tainted[conn] else None,
        ):
            self.wrong_reads += 1
        else:
            phase.ok[idx] = True
        return 1
