"""The four workloads.  Each returns every end-to-end metric it measured.

Every workload reports all eleven end-to-end metrics; ``spec.json`` and
``README.md`` say what each one measures on each workload.  A serving
workload sets the server up 3 times (the median is ``setup_s``; the last
server stays up), then runs ``ROUNDS`` timed rounds.
A round holds a slice of every phase of the workload: its loops, a cached
re-send of some inputs and — where the workload has no writes of its own —
a slice of the write probe.  Interleaving the phases this way spreads each
metric's samples over the whole run, so a stretch of the run slowed by
other load on the machine weighs on every metric alike instead of on
whichever phase it happened to hit.  Each metric pools its samples over
all rounds.

The program runs on one core, beside the core-speed meter
(``perfbench/speed.py``); the benchmark process keeps to the other cores.
Every timing metric is in reference seconds: each interval is converted
with the core speed the meter read over it, so a stretch of slow core on a
shared host does not move the figures, while less work in the program does.
Timings that a wall-clock budget sets stay in wall time: serve-cold's cold
requests and serve-warm's priming race a portfolio for ``budget_seconds``.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import inputs as inp
from perfbench.checks import CheckFailure, answer_digest, check_answer, check_session
from perfbench.client import (
    Connection,
    LoopResult,
    Sample,
    closed_loop,
    now,
    open_loop,
    timed_request,
)
from perfbench.program import BatchChild, Server
from perfbench.speed import SpeedMeter, WallClock, cores
from perfbench.stats import mean, median, tail

SETUP_REPEATS = 3
ROUNDS = inp.ROUNDS
#: Per round: re-sent cold datasets; consecutive members cycle through the
#: size mix, so a multiple of its length re-sends the same sizes every run.
COLD_RERUN = 3 * len(inp.SERVE_SIZE_MIX)
PINNED_RERUN = 60  # per round: re-sent pinned datasets
SESSION = "bench"
PROBE_SESSION = "probe"
MUTATIONS = ("add", "remove", "update")


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    traced: bool
    core: int = 0  # the program's core
    meter: SpeedMeter | None = None

    def trace_out(self, workdir: Path) -> Path | None:
        return workdir / "trace.jsonl" if self.traced else None

    @property
    def round_seconds(self) -> float:
        return self.seconds / ROUNDS


@dataclass
class Outcome:
    metrics: dict[str, float]  # reference seconds, the figures reported
    attempted: int
    failed: int
    notes: dict[str, Any] = field(default_factory=dict)
    wall: dict[str, float] = field(default_factory=dict)  # the same in wall time
    # For the per-layer report of a traced run:
    samples: list[Sample] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    operations: int = 0
    trace: Path | None = None
    journal_bytes: float = 0.0


def body_maker(member: inp.Member, **fields):
    """``rid -> bytes``: the member's request body with a fresh request id."""
    head = json.dumps({"dataset": member.text, "name": member.name, **fields})[:-1]
    return lambda rid: (head + ', "request_id": "' + rid + '"}').encode("utf-8")


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def latency(clock, sample: Sample) -> float:
    """A sample's latency on ``clock`` (a failed one stays at the timeout)."""
    if not sample.ok:
        return sample.latency
    return clock.reference_seconds(sample.start, sample.start + sample.latency)


def latency_metrics(clock, samples: list[Sample], prefix: str = "") -> dict[str, float]:
    """``p50_ms`` and ``tail_ms``: the highest percentile with 10 samples beyond."""
    latencies = [latency(clock, s) for s in samples]
    value, _, _ = tail(latencies)
    return {f"{prefix}p50_ms": ms(median(latencies)), f"{prefix}tail_ms": ms(value)}


def tail_notes(samples: list[Sample]) -> dict[str, Any]:
    _, percentile, count = tail([s.latency for s in samples])
    return {"tail_percentile": round(percentile, 1), "tail_samples": count}


def speed_notes(meter: SpeedMeter, started: float) -> dict[str, Any]:
    return {"core_speed": round(meter.speed(started, now()), 3)}


async def sequential(conn: Connection, requests) -> LoopResult:
    """Send (method, path, body, key, rid) requests one after another."""
    result = LoopResult(started=now())
    for method, path, body, key, rid in requests:
        result.samples.append(await timed_request(conn, method, path, body, key, rid))
    result.ended = now()
    return result


def rate(clock, results: list[LoopResult]) -> float:
    """Successful answers per second on ``clock`` over the loops' pooled time."""
    ok = sum(1 for result in results for s in result.samples if s.ok)
    elapsed = sum(clock.reference_seconds(r.started, r.ended) for r in results)
    return ok / elapsed if elapsed > 0 else 0.0


def samples_of(results: list[LoopResult]) -> list[Sample]:
    return [s for result in results for s in result.samples]


def failures(samples) -> int:
    return sum(1 for s in samples if not s.ok)


def check_hits(samples, members, bases, primed: dict, label: str) -> None:
    """Cached answers must equal the answer recorded when it was computed."""
    for s in samples:
        if not s.ok:
            continue
        if s.payload.get("source") not in ("memory", "disk", "coalesced"):
            raise CheckFailure(
                f"{label}: {members[s.key].name} was {s.payload.get('source')}, "
                "expected a cache hit"
            )
        if answer_digest(s.payload) != primed[s.key]:
            raise CheckFailure(
                f"{label}: {members[s.key].name} answer differs from its first answer"
            )


def post(path: str, document: dict, key: Any, rid: str):
    return ("POST", path, json.dumps(document).encode("utf-8"), key, rid)


def aggregate_request(body, key: Any, rid: str):
    return ("POST", "/aggregate", body(rid), key, rid)


def _sources(samples) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in samples:
        source = str(s.payload.get("source"))
        counts[source] = counts.get(source, 0) + 1
    return counts


# --------------------------------------------------------------------------- #
# Live sessions: shared by live-churn and the write probe
# --------------------------------------------------------------------------- #
def op_request(session: str, op: dict, key: Any, rid: str, read_body=None):
    kind = op["op"]
    if kind == "read":
        return aggregate_request(read_body(op["member"]), key, rid)
    if kind == "repair":
        return post(f"/live/{session}/repair", {}, key, rid)
    return post(f"/live/{session}/mutate",
                {k: op[k] for k in ("op", "index", "ranking") if k in op}, key, rid)


async def open_session(conn: Connection, session: str, text: str) -> None:
    """Open a Chanas session with a null budget and run its first repair."""
    for method, path, body, _, rid in (
        post(f"/live/{session}/open",
             {"dataset": text, "algorithm": "Chanas", "budget_seconds": None},
             None, f"{session}-open"),
        post(f"/live/{session}/repair", {}, None, f"{session}-first-repair"),
    ):
        code, payload = await conn.request(method, path, body)
        if code != 200:
            raise RuntimeError(f"{path} answered {code}: {payload}")


async def finish_session(conn, session: str, initial: list, samples: list[Sample]) -> None:
    """Repair once more, read the session and check it against the replay."""
    code, _ = await conn.request("POST", f"/live/{session}/repair", b"{}")
    code2, served = await conn.request("GET", f"/live/{session}")
    if code != 200 or code2 != 200:
        raise RuntimeError(f"final repair/read of {session} failed ({code}, {code2})")
    applied = [s.key[1] for s in samples if s.ok and s.key[1]["op"] in MUTATIONS]
    check_session(served, initial, applied, f"live session {session}")


def write_metrics(clock, samples: list[Sample]) -> dict[str, float]:
    mutations = [s for s in samples if s.key[1]["op"] in MUTATIONS]
    repairs = [s for s in samples if s.key[1]["op"] == "repair"]
    return {
        **latency_metrics(clock, mutations, "mutate_"),
        "repair_p50_ms": ms(median(latency(clock, s) for s in repairs)),
    }


class WriteProbe:
    """A live session beside the workload's cache, driven a slice per round."""

    def __init__(self):
        self.inputs = inp.probe_inputs()
        self.per_round = len(self.inputs.ops) // ROUNDS
        self.samples: list[Sample] = []

    async def open(self, conn: Connection) -> None:
        await open_session(conn, PROBE_SESSION, inp.session_text(self.inputs.initial))

    async def round(self, conn: Connection, index: int) -> None:
        start = index * self.per_round
        ops = list(enumerate(self.inputs.ops))[start:start + self.per_round]
        result = await sequential(conn, [
            op_request(PROBE_SESSION, op, (i, op), f"probe-{i}") for i, op in ops
        ])
        self.samples += result.samples

    async def finish(self, conn: Connection) -> None:
        await finish_session(conn, PROBE_SESSION, self.inputs.initial, self.samples)


# --------------------------------------------------------------------------- #
# Set-up: launch (and prime) the program several times, keep the last
# --------------------------------------------------------------------------- #
async def set_up(ctx: Context, prime, *, journal: bool = False):
    """Returns (server, set-up windows, prime outcomes of every repetition)."""
    windows, primes = [], []
    server = None
    for rep in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = now()
        workdir = ctx.work / f"server-{rep}"
        server = Server(ctx.root, workdir, core=ctx.core,
                        trace_out=ctx.trace_out(workdir), journal=journal)
        try:
            conn = await Connection("127.0.0.1", server.port).open()
            primes.append(await prime(conn))
            windows.append((start, now()))
            await conn.close()
        except BaseException:
            server.stop()
            raise
    return server, windows, primes


async def prime_members(conn, bodies) -> LoopResult:
    """Have every member computed once (a set-up step)."""
    return await sequential(conn, [
        aggregate_request(body, i, f"prime-{i}") for i, body in enumerate(bodies)
    ])


def check_primed(primes: list[LoopResult], members, bases) -> dict[int, str]:
    """Check every set-up's priming answers; the last set-up's are recorded."""
    recorded = {}
    for result in primes:
        recorded = {}
        for s in result.samples:
            member = members[s.key]
            if not s.ok or s.payload.get("source") != "computed":
                raise CheckFailure(f"priming {member.name}: {s.payload}")
            check_answer(s.payload, member, bases[member.base])
            recorded[s.key] = answer_digest(s.payload)
    return recorded


# --------------------------------------------------------------------------- #
# serve-warm
# --------------------------------------------------------------------------- #
async def serve_warm(ctx: Context) -> Outcome:
    meter = ctx.meter
    data = inp.warm_inputs(ctx.seed, ctx.seconds)
    for base in data.bases:
        base.compute_reference()
    bodies = [body_maker(m, budget_seconds=inp.SERVE_BUDGET_SECONDS) for m in data.members]
    probe = WriteProbe()

    async def prime(conn):
        return await prime_members(conn, bodies)

    server, setups, primes = await set_up(ctx, prime)
    closed, opened, reruns = [], [], []
    sequence = iter(enumerate(data.closed_sequence))
    try:
        primed = check_primed(primes, data.members, data.bases)
        conns = [await Connection("127.0.0.1", server.port).open() for _ in range(2)]
        await probe.open(conns[0])

        def next_closed(_):
            i, member = next(sequence, (None, None))
            return None if i is None else aggregate_request(bodies[member], member, f"closed-{i}")

        for r in range(ROUNDS):
            closed.append(await closed_loop(
                conns, next_closed, ctx.round_seconds * inp.WARM_CLOSED_SHARE))
            opened.append(await open_loop(conns, [
                (offset, bodies[m](f"open-{r}-{i}"), m, f"open-{r}-{i}")
                for i, (offset, m) in enumerate(data.arrivals[r])
            ]))
            reruns.append(await sequential(conns[0], [
                aggregate_request(bodies[i], i, f"rerun-{r}-{i}")
                for i in range(len(data.members))
            ]))
            await probe.round(conns[0], r)
        await probe.finish(conns[0])
        rss = server.rss_mb()
        for conn in conns:
            await conn.close()
    finally:
        server.stop()
        meter.stop()

    samples = samples_of(closed + opened)
    open_samples = samples_of(opened)
    for part, label in ((samples, "loops"), (samples_of(reruns), "cached pass")):
        check_hits(part, data.members, data.bases, primed, label)

    wall = WallClock()  # priming runs the portfolio to its wall-clock budget

    def figures(clock) -> dict[str, float]:
        return {
            "setup_s": median(wall.reference_seconds(*w) for w in setups),
            "rss_mb": rss,
            **latency_metrics(clock, open_samples),
            "max_rps": rate(clock, closed),
            "score_ratio": mean(
                s.payload["score"] / data.bases[data.members[s.key].base].reference
                for s in samples if s.ok
            ),
            "runs_per_s": median(rate(wall, [p]) for p in primes),
            "rerun_runs_per_s": rate(clock, reruns),
            **write_metrics(clock, probe.samples),
        }

    others = samples_of(reruns) + probe.samples
    return Outcome(
        figures(meter),
        wall=figures(wall),
        attempted=len(samples) + len(others),
        failed=failures(samples) + failures(others),
        notes={
            "late_ms_mean": round(ms(mean(s.late for s in open_samples)), 2),
            "late_ms_max": round(ms(max(s.late for s in open_samples)), 2),
            "sources": _sources(samples),
            **tail_notes(open_samples),
            **speed_notes(meter, setups[0][0]),
        },
        samples=samples,
        windows=[(r.started, r.ended) for r in closed + opened],
        operations=len(samples),
        trace=server.trace_out,
    )


# --------------------------------------------------------------------------- #
# serve-cold
# --------------------------------------------------------------------------- #
async def serve_cold(ctx: Context) -> Outcome:
    meter = ctx.meter
    data = inp.cold_inputs(ctx.seed, ctx.seconds)
    for base in data.bases:
        base.compute_reference()
    bodies = [body_maker(m, budget_seconds=inp.SERVE_BUDGET_SECONDS) for m in data.members]
    probe = WriteProbe()

    async def launch_only(conn):
        return None

    server, setups, _ = await set_up(ctx, launch_only)
    colds, reruns, ratios = [], [], []
    sent = itertools.count()
    try:
        conn = await Connection("127.0.0.1", server.port).open()
        await probe.open(conn)

        def next_cold(_):
            i = next(sent)
            while len(bodies) <= i:  # the loop outran the supply drawn up front
                bodies.append(body_maker(data.member(len(bodies)),
                                         budget_seconds=inp.SERVE_BUDGET_SECONDS))
            return aggregate_request(bodies[i], i, f"cold-{i}")

        for r in range(ROUNDS):
            cold = await closed_loop([conn], next_cold, ctx.round_seconds)
            answered = {}
            for s in cold.samples:
                if not s.ok:
                    continue
                member = data.members[s.key]
                base = data.bases[member.base]
                if s.payload.get("source") != "computed":
                    raise CheckFailure(f"{member.name}: source {s.payload.get('source')}, "
                                       "expected a fresh computation")
                ratios.append(check_answer(s.payload, member, base) / base.reference)
                answered[s.key] = answer_digest(s.payload)
            rerun = await sequential(conn, [
                aggregate_request(bodies[i], i, f"rerun-{i}")
                for i in sorted(answered)[:COLD_RERUN]
            ])
            check_hits(rerun.samples, data.members, data.bases, answered, "cached pass")
            colds.append(cold)
            reruns.append(rerun)
            await probe.round(conn, r)
        await probe.finish(conn)
        rss = server.rss_mb()
        await conn.close()
    finally:
        server.stop()
        meter.stop()

    samples = samples_of(colds)
    computed = [s for s in samples if s.ok]
    wall = WallClock()  # cold requests run to their wall-clock budget

    def figures(clock) -> dict[str, float]:
        return {
            "setup_s": median(clock.reference_seconds(*w) for w in setups),
            "rss_mb": rss,
            **latency_metrics(wall, samples),
            "max_rps": rate(wall, colds),
            "score_ratio": mean(ratios),
            # Per second of the server's execution time (cache lookup, compute,
            # store), so the wire path that max_rps includes is left out.
            "runs_per_s": len(computed) / sum(s.payload["execution_seconds"] for s in computed),
            "rerun_runs_per_s": rate(clock, reruns),
            **write_metrics(clock, probe.samples),
        }

    others = samples_of(reruns) + probe.samples
    return Outcome(
        figures(meter),
        wall=figures(wall),
        attempted=len(samples) + len(others),
        failed=failures(samples) + failures(others),
        notes={"sources": _sources(samples), **tail_notes(samples),
               **speed_notes(meter, setups[0][0])},
        samples=samples,
        windows=[(r.started, r.ended) for r in colds],
        operations=len(samples),
        trace=server.trace_out,
    )


# --------------------------------------------------------------------------- #
# live-churn
# --------------------------------------------------------------------------- #
def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


async def live_churn(ctx: Context) -> Outcome:
    meter = ctx.meter
    data = inp.live_inputs(ctx.seed, ctx.seconds)
    for base in data.pinned_bases:
        base.compute_reference()
    reads = [body_maker(m, algorithm="BordaCount", budget_seconds=inp.SERVE_BUDGET_SECONDS)
             for m in data.pinned]

    async def prime(conn):
        primed = await prime_members(conn, reads)
        await open_session(conn, SESSION, inp.session_text(data.initial))
        return primed

    server, setups, primes = await set_up(ctx, prime, journal=True)
    loops, reruns = [], []
    ops = iter(enumerate(data.ops))
    try:
        primed = check_primed(primes, data.pinned, data.pinned_bases)
        conn = await Connection("127.0.0.1", server.port).open()
        journal = server.workdir / "journal"
        journal_before = dir_bytes(journal)

        def next_op(_):
            i, op = next(ops, (None, None))
            return None if i is None else op_request(
                SESSION, op, (i, op), f"op-{i}", read_body=lambda member: reads[member])

        for r in range(ROUNDS):
            loops.append(await closed_loop([conn], next_op, ctx.round_seconds))
            again = [(r * PINNED_RERUN + k) % len(data.pinned) for k in range(PINNED_RERUN)]
            reruns.append(await sequential(conn, [
                aggregate_request(reads[i], i, f"rerun-{r}-{i}") for i in again
            ]))
        journal_after = dir_bytes(journal)
        samples = samples_of(loops)
        await finish_session(conn, SESSION, data.initial, samples)
        rss = server.rss_mb()
        await conn.close()
    finally:
        server.stop()
        meter.stop()

    read_samples = [s for s in samples if s.key[1]["op"] == "read"]
    for s in read_samples:
        if s.ok and answer_digest(s.payload) != primed[s.key[1]["member"]]:
            raise CheckFailure(f"read of {data.pinned[s.key[1]['member']].name} "
                               "differs from its primed answer")
    check_hits(samples_of(reruns), data.pinned, data.pinned_bases, primed, "cached pass")

    def figures(clock) -> dict[str, float]:
        return {
            "setup_s": median(clock.reference_seconds(*w) for w in setups),
            "rss_mb": rss,
            **latency_metrics(clock, read_samples),
            "max_rps": rate(clock, loops),
            "score_ratio": mean(
                s.payload["score"]
                / data.pinned_bases[data.pinned[s.key[1]["member"]].base].reference
                for s in read_samples if s.ok
            ),
            "runs_per_s": median(rate(clock, [p]) for p in primes),
            "rerun_runs_per_s": rate(clock, reruns),
            **write_metrics(clock, samples),
        }

    appends = sum(1 for s in samples if s.ok and s.key[1]["op"] != "read")
    others = samples_of(reruns)
    return Outcome(
        figures(meter),
        wall=figures(WallClock()),
        attempted=len(samples) + len(others),
        failed=failures(samples) + failures(others),
        notes={"ops": len(samples), "reads": len(read_samples), **tail_notes(read_samples),
               **speed_notes(meter, setups[0][0])},
        samples=samples,
        windows=[(r.started, r.ended) for r in loops],
        operations=len(samples),
        trace=server.trace_out,
        journal_bytes=(journal_after - journal_before) / appends if appends else 0.0,
    )


# --------------------------------------------------------------------------- #
# batch-paper
# --------------------------------------------------------------------------- #
async def batch_paper(ctx: Context) -> Outcome:
    meter = ctx.meter
    job = inp.batch_inputs(ctx.seed)
    job["seconds"] = ctx.seconds
    job["rounds"] = ROUNDS
    setups = []
    child = None
    try:
        for rep in range(SETUP_REPEATS):
            if child is not None:
                child.stop()
            start = now()
            workdir = ctx.work / f"child-{rep}"
            child = BatchChild(ctx.root, workdir, core=ctx.core,
                               trace_out=ctx.trace_out(workdir))
            setups.append((start, now()))
        (child.workdir / "job.json").write_text(json.dumps(job))
        child.run(timeout=170.0)
        rss = child.rss_mb()
    finally:
        if child is not None:
            child.stop()
        meter.stop()
    result = json.loads((child.workdir / "result.json").read_text())
    if result["errors"]:
        raise CheckFailure("; ".join(result["errors"][:5]))
    rounds = result["rounds"]
    _, percentile, count = tail(t for r in rounds for ts in r["run_seconds"].values() for t in ts)

    def figures(clock) -> dict[str, float]:
        ref = clock.reference_seconds

        def part_rate(part):
            """Runs per second of one part's cold passes."""
            return (sum(r["runs"][part] for r in rounds)
                    / sum(ref(*r["windows"][part]) for r in rounds))

        # Per-run times (engine report) at the core speed of their pass.
        run_seconds = [t * clock.speed(*r["windows"][part])
                       for r in rounds for part in r["runs"] for t in r["run_seconds"][part]]
        mutate_seconds = [ref(*w) for r in rounds for w in r["mutate_windows"]]
        return {
            "setup_s": median(ref(*w) for w in setups),
            "rss_mb": rss,
            "p50_ms": ms(median(run_seconds)),
            "tail_ms": ms(tail(run_seconds)[0]),
            "max_rps": part_rate("gap"),
            "score_ratio": mean(r["score_ratio"] for r in rounds),
            "runs_per_s": part_rate("paper"),
            "rerun_runs_per_s": sum(r["cached_runs"] for r in rounds)
            / sum(ref(*w) for r in rounds for w in r["cached_windows"]),
            "mutate_p50_ms": ms(median(mutate_seconds)),
            "mutate_tail_ms": ms(tail(mutate_seconds)[0]),
            "repair_p50_ms": ms(median(ref(*w) for r in rounds for w in r["repair_windows"])),
        }

    return Outcome(
        figures(meter),
        wall=figures(WallClock()),
        attempted=result["attempted"],
        failed=result["failed"],
        notes={"fingerprint": result["fingerprint"][:16],
               "tail_percentile": round(percentile, 1), "tail_samples": count,
               **speed_notes(meter, setups[0][0])},
        windows=[tuple(w) for w in result["windows"]],
        operations=result["operations"],
        trace=child.trace_out,
    )


WORKLOADS = {
    "serve-warm": serve_warm,
    "serve-cold": serve_cold,
    "live-churn": live_churn,
    "batch-paper": batch_paper,
}


def run_workload(name: str, ctx: Context) -> Outcome:
    """Run one workload with the program's core metered; the benchmark
    process itself keeps off that core."""
    ctx.work.mkdir(parents=True, exist_ok=True)
    ctx.core, own = cores()
    os.sched_setaffinity(0, own)
    ctx.meter = SpeedMeter(ctx.root, ctx.work, ctx.core)
    gc.disable()  # a collection would stall the load generator mid-loop
    try:
        return asyncio.run(WORKLOADS[name](ctx))
    finally:
        gc.enable()
        ctx.meter.stop()
