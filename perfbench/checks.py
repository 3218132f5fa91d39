"""Output checks.  A run whose answers fail any of them reports no numbers."""

from __future__ import annotations

import hashlib
import json

from repro.core.kemeny import generalized_kemeny_score_from_weights
from repro.core.live import LiveDataset
from repro.core.ranking import Ranking

from perfbench.inputs import Base, Member


class CheckFailure(Exception):
    """An answer that is wrong; the run fails instead of reporting."""


def answer_digest(payload: dict) -> str:
    """Identity of an answer: consensus, score and algorithm."""
    document = [payload.get("consensus"), payload.get("score"), payload.get("algorithm")]
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def check_complete(consensus, n: int, label: str) -> None:
    """A complete ranking with ties over the domain {0, …, n-1}."""
    if not isinstance(consensus, list) or not consensus:
        raise CheckFailure(f"{label}: no consensus in the answer")
    flat = []
    for bucket in consensus:
        if not isinstance(bucket, list) or not bucket:
            raise CheckFailure(f"{label}: empty or malformed bucket")
        flat.extend(bucket)
    if len(flat) != n or set(flat) != set(range(n)):
        raise CheckFailure(
            f"{label}: consensus covers {len(set(flat))} distinct of {n} elements "
            f"({len(flat)} entries)"
        )


def check_answer(payload: dict, member: Member, base: Base) -> int:
    """Check one /aggregate answer on its member; returns the verified score."""
    label = f"{member.name} ({payload.get('request_id')})"
    if payload.get("status") != "ok":
        raise CheckFailure(f"{label}: status {payload.get('status')!r}")
    consensus = payload.get("consensus")
    check_complete(consensus, base.n, label)
    score = base.score(member.to_base(consensus))
    if payload.get("score") != score:
        raise CheckFailure(
            f"{label}: reported score {payload.get('score')} != recomputed {score}"
        )
    return score


def parse_line(text: str) -> Ranking:
    return Ranking(json.loads(text))


def replay(initial: list, ops: list[dict]) -> LiveDataset:
    """The benchmark's own replay of a live session's mutation list."""
    live = LiveDataset([Ranking(buckets) for buckets in initial], name="replay")
    for op in ops:
        kind = op["op"]
        if kind == "add":
            live.add_ranking(parse_line(op["ranking"]), op["index"])
        elif kind == "remove":
            live.remove_ranking(op["index"])
        elif kind == "update":
            live.update_ranking(op["index"], parse_line(op["ranking"]))
    return live


def check_session(served: dict, initial: list, ops: list[dict], label: str) -> None:
    """The served session must equal the replay: fingerprint, consensus, score."""
    live = replay(initial, ops)
    if served.get("fingerprint") != live.content_fingerprint():
        raise CheckFailure(f"{label}: session fingerprint differs from the replay")
    if served.get("num_rankings") != live.num_rankings:
        raise CheckFailure(f"{label}: session holds {served.get('num_rankings')} "
                           f"rankings, the replay {live.num_rankings}")
    consensus = served.get("consensus")
    check_complete(consensus, live.num_elements, label)
    weights = live.snapshot().prepared().weights
    score = int(generalized_kemeny_score_from_weights(Ranking(consensus), weights))
    if served.get("score") != score:
        raise CheckFailure(
            f"{label}: session score {served.get('score')} != replayed {score}"
        )
