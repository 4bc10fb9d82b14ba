"""svc-small: a closed loop of small requests through the TCP gateway.

Two client connections over loopback, each sending its next request when
the previous reply arrives.  The gateway runs in this process behind
``repro.service.net.start_server`` (the code ``repro serve`` runs) with
two fork-pool workers and no rate limit.  Tenants use different specs:
``plain`` is sz3, ``qp`` is sz3 with QP, ``prog`` is sz3_progressive.
The wire, admission, batching, pool hand-off and archive layers
dominate, and Huffman decodes single-lane streams.
"""
from __future__ import annotations

import asyncio
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from common import MB, Tally, quantile
from layertrace import CHECK_OP, OBS_PREFIX, operation

EB = 1e-3
SMALL = (12, 16, 16)
LARGER = (24, 32, 32)
#: one round of the mix; a run is a whole number of rounds, shuffled.
#: The shares are those of ``tools/loadgen.py``'s default schedule
#: (96 small compresses, half of them decompressed after : 4 big : 12
#: archive put/get : 8 progressive range requests, refining every second)
#: divided by 4.  Its streamed-size big volumes are replaced by one
#: 24x32x32 compress, which stays below the streamed route so that the
#: latency tail is not bimodal.  Of loadgen's three tenants the ``qp`` one
#: takes a third of the small requests.
ROUND = (
    *(("compress", "plain", SMALL),) * 8,
    *(("roundtrip", "plain", SMALL),) * 8,
    *(("compress", "qp", SMALL),) * 4,
    *(("roundtrip", "qp", SMALL),) * 4,
    ("compress", "plain", LARGER),
    *(("archive", "plain", SMALL),) * 3,
    ("preview", "prog", SMALL),
    ("refine", "prog", SMALL),
)
CLIENTS = 2
WORKERS = 2
#: requests of one round that complete while every ``qp`` request fails
#: (see the README's known faults): 17 compresses, 8 decompresses, 3 archive
#: puts and gets, 2 progressive puts, 2 coarse ranges, 1 refine, 1 get
COMPLETED_PER_ROUND = 37
#: rounds that complete at least 1,000 requests, so 10 or more lie beyond p99
MIN_ROUNDS = math.ceil(1000 / COMPLETED_PER_ROUND)
#: nominal rounds per second on the reference box; sets the round count
#: from ``--seconds`` so that a run's work depends on its arguments only
ROUNDS_PER_SECOND = 3.0


def units_for(seconds: float) -> int:
    """Rounds of the mix for a run of ``seconds``."""
    return max(MIN_ROUNDS, math.ceil(seconds * ROUNDS_PER_SECOND))


def make_inputs(seed: int, work: Path) -> None:
    """Inputs are small and made in the run from the seed."""


def _field(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A smooth field scaled to [0, 1], so the absolute bound is relative."""
    a = rng.standard_normal(shape)
    for axis in range(a.ndim):
        a = np.cumsum(a, axis=axis)
    a = (a - a.min()) / (a.max() - a.min())
    return a.astype(np.float32)


@dataclass
class Op:
    index: int
    kind: str
    tenant: str
    data: np.ndarray
    name: str
    error: str | None = None
    #: compressed bytes reported for the operation's compress or put
    size: int | None = None
    blob: bytes = b""
    outputs: list = field(default_factory=list)
    coarse: bytes = b""
    rest: bytes = b""
    archived: bytes = b""


def make_ops(seed: int, rounds: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    plan = [entry for _ in range(rounds) for entry in ROUND]
    order = rng.permutation(len(plan))
    ops = []
    for i, j in enumerate(order):
        kind, tenant, shape = plan[int(j)]
        ops.append(Op(i, kind, tenant, _field(rng, shape), f"op{i}"))
    return ops


class Session:
    """Set-up: gateway with its fork pool, TCP listener, client connections.

    The pool forks on its first job.  It is made to fork before any socket
    exists: a forked worker keeps a copy of every open descriptor, and a
    client socket held open by a worker never delivers EOF to the server.
    Set-up ends with one small request per connection.
    """

    def __init__(self, work: Path) -> None:
        from repro.core import QPConfig
        from repro.service import GatewayConfig, JobSpec, TenantPolicy

        self.specs = {
            "plain": JobSpec(compressor="sz3", error_bound=EB),
            "qp": JobSpec(compressor="sz3", error_bound=EB, qp=QPConfig().to_dict()),
            "prog": JobSpec(compressor="sz3_progressive", error_bound=EB),
        }
        self.config = GatewayConfig(
            workers=WORKERS,
            archive_path=str(work / f"svc-{os.getpid()}-{id(self)}.rar1"),
            default_policy=TenantPolicy(rate=float("inf"), burst=1 << 20, max_inflight=1 << 10),
        )
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        from repro.service import CompressRequest, Gateway, ServiceClient, start_server

        warm = CompressRequest.from_array(
            "warmup", np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4),
            self.specs["plain"],
        )
        self.gateway = Gateway(self.config)
        self.gateway.start()
        await self.gateway.submit(warm)
        self.server = await start_server(self.gateway, "127.0.0.1", 0)
        port = self.server.sockets[0].getsockname()[1]
        self.clients = [
            await ServiceClient("127.0.0.1", port).connect() for _ in range(CLIENTS)
        ]
        await asyncio.gather(*(c.request(warm) for c in self.clients))

    async def _stop(self) -> None:
        for c in self.clients:
            await c.close()
        # let the per-connection handlers see EOF and finish
        for _ in range(200):
            others = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and t is not self.gateway._dispatcher
            ]
            if not others:
                break
            await asyncio.sleep(0.005)
        self.server.close()
        await self.server.wait_closed()
        await self.gateway.stop()

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self._stop())
            self.loop.close()
            self.loop = None

    # -- the closed loop ---------------------------------------------------

    async def _request(self, client, op: Op, message, samples: list, kind: str, nbytes: int):
        t0 = perf_counter()
        reply = await client.request(message)
        out = reply.array() if kind == "decompress" else None
        dt = perf_counter() - t0
        samples.append((kind, dt, nbytes, op.index))
        return reply, out

    async def _do(self, client, op: Op, samples: list) -> None:
        from repro.service import (
            ArchiveGetRequest,
            ArchivePutRequest,
            CompressRequest,
            DecompressRequest,
            RangeGetRequest,
        )
        from repro.utils.levels import num_levels

        spec = self.specs[op.tenant]
        n = op.data.nbytes
        if op.kind in ("compress", "roundtrip"):
            rep, _ = await self._request(
                client, op, CompressRequest.from_array(op.tenant, op.data, spec),
                samples, "compress", n,
            )
            op.size = len(rep.result)
            op.blob = rep.result
            if op.kind == "roundtrip":
                _, out = await self._request(
                    client, op, DecompressRequest(tenant=op.tenant, blob=rep.result),
                    samples, "decompress", n,
                )
                op.outputs.append(out)
            return
        put = ArchivePutRequest.from_array(op.tenant, op.name, op.data, spec)
        rep, _ = await self._request(client, op, put, samples, "compress", n)
        op.size = int(rep.meta["compressed_bytes"])
        if op.kind in ("preview", "refine"):
            coarse, _ = await self._request(
                client, op,
                RangeGetRequest(tenant=op.tenant, name=op.name, level=num_levels(op.data.shape)),
                samples, "range", 0,
            )
            op.coarse = coarse.result
            if op.kind == "preview":
                return
            rest, _ = await self._request(
                client, op,
                RangeGetRequest(tenant=op.tenant, name=op.name, start=len(op.coarse)),
                samples, "range", 0,
            )
            op.rest = rest.result
        full, _ = await self._request(
            client, op, ArchiveGetRequest(tenant=op.tenant, name=op.name), samples, "get", 0,
        )
        op.archived = full.result

    async def _client(self, client, ops_iter, samples: list) -> None:
        from repro.errors import ServiceError

        for op in ops_iter:
            with operation(op.index):
                try:
                    await self._do(client, op, samples)
                except ServiceError as exc:
                    op.error = f"{type(exc).__name__}: {exc}"

    async def _drive(self, ops: list[Op]) -> tuple[float, list]:
        samples: list = []
        it = iter(ops)
        t0 = perf_counter()
        await asyncio.gather(*(self._client(c, it, samples) for c in self.clients))
        return perf_counter() - t0, samples

    # -- checks and metrics ------------------------------------------------

    def _check(self, op: Op) -> tuple[str | None, list[float]]:
        """(problem, PSNRs of the full outputs) for one completed operation.

        Blobs that came back without their output (a compress alone, an
        archive get) are decoded here to be checked."""
        import repro
        from repro.compressors.progressive import decompress_prefix

        outs = list(op.outputs)
        problem = None
        if op.kind == "compress":
            outs.append(repro.decompress(op.blob))
        elif op.kind in ("archive", "refine"):
            outs.append(repro.decompress(op.archived))
        if op.kind in ("preview", "refine"):
            preview = decompress_prefix(op.coarse)
            problem = checks.within_bound(op.data, preview.array, preview.eb)
        if op.kind == "refine":
            problem = problem or checks.prefix_equals(op.coarse, op.rest, op.archived)
        for out in outs:
            problem = problem or checks.within_bound(op.data, out, EB)
        psnrs = [checks.psnr(op.data, out) for out in outs] if problem is None else []
        return problem, psnrs

    def run(self, rounds: int, seed: int, recorder=None) -> dict:
        ops = make_ops(seed, rounds)
        wall, samples = self.loop.run_until_complete(self._drive(ops))
        tally = Tally()
        psnrs: list[float] = []
        good: set[int] = set()
        for op in ops:
            if op.error is not None:
                tally.record(op.name, None, op.error)
                continue
            with operation(CHECK_OP):
                problem, p = self._check(op)
            if tally.record(op.name, problem):
                good.add(op.index)
                psnrs.extend(p)
        done = [op for op in ops if op.error is None]
        prog = [op for op in done if op.kind in ("preview", "refine")]
        lat = [dt for _k, dt, _n, i in samples if i in good]
        comp = [(dt, n) for k, dt, n, _i in samples if k == "compress"]
        decomp = [(dt, n) for k, dt, n, _i in samples if k == "decompress"]
        metrics = {
            "compress_mbs": sum(n for _, n in comp) / sum(t for t, _ in comp) / MB,
            "decompress_mbs": sum(n for _, n in decomp) / sum(t for t, _ in decomp) / MB,
            "ratio": sum(op.data.nbytes for op in done) / sum(op.size for op in done),
            "psnr_db": float(np.mean(psnrs)),
            "latency_p50_ms": quantile(lat, 0.50) * 1e3,
            "latency_p99_ms": quantile(lat, 0.99) * 1e3,
            "goodput_rps": len(lat) / wall,
        }
        obs_state = self.gateway.observation
        spans = obs_state.tracer.spans
        stats = self.gateway.stats()
        rejected = sum(
            v.get("value", 0)
            for k, v in obs_state.metrics.snapshot().items()
            if k.startswith("service.rejected")
        )
        layers = {
            "gateway.batch_size": stats["jobs"] / max(1, stats["batches"]),
            "gateway.worker_s": sum(
                s.seconds for s in spans if s.name.startswith("service.batch.")
            ),
            "gateway.spans_held": sum(1 for s in spans if not s.name.startswith(OBS_PREFIX)),
            "admission.rejected": rejected,
            "progressive.prefix_ratio": (
                sum(len(op.coarse) for op in prog) / max(1, sum(op.size for op in prog))
            ),
        }
        extra_spans = []
        if recorder is not None:
            from layertrace import spans_from_observation

            extra_spans = spans_from_observation(obs_state, len(recorder.spans))
        return {
            "wall_s": wall,
            "tally": tally,
            # compared with a second run of the same operations by the caller
            "repeat": None,
            "sizes": [op.size for op in ops],
            "metrics": metrics,
            "layers": layers,
            "extra_spans": extra_spans,
            "detail": {"requests": len(samples), "rounds": rounds},
        }
