"""Seeded inputs of every workload: datasets, request bodies and schedules.

Everything here is a pure function of the ``--seed`` argument: the same
seed gives byte-identical request bodies, arrival times and mutation lists
(``digest`` hashes them for the determinism test).  The program under test
only ever receives the generated text.

Serving workloads draw from a fixed *size mix* of base datasets built with
the paper's generators.  Each served dataset is a *member*: a base with its
element labels permuted.  Members are distinct contents (distinct
fingerprints, so distinct cache keys) with the statistics of their base,
and a relabelling is an isomorphism, so a member's answer is checked and
scored on its base: the consensus is mapped back through the inverse
permutation and scored against the base's pairwise weights.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.registry import SCALABLE_ALGORITHMS, make_algorithm
from repro.core.kemeny import generalized_kemeny_score_from_weights
from repro.core.ranking import Ranking
from repro.datasets.dataset import Dataset
from repro.generators.mallows_ties import mallows_ties_dataset
from repro.generators.markov import markov_dataset
from repro.generators.permutations import plackett_luce_dataset
from repro.generators.uniform import sample_uniform_ranking, uniform_dataset
from repro.workloads.churn import ChurnProfile
from repro.workloads.http_load import HttpLoadProfile

# --------------------------------------------------------------------------- #
# Fixed workload parameters (also listed in spec.json and README.md, which
# says for each one whether it is taken from the repository or assumed)
# --------------------------------------------------------------------------- #
#: (family, m, n) of the bases behind serve-warm and serve-cold members.
SERVE_SIZE_MIX = (
    ("uniform", 50, 200),
    ("plackett-luce", 40, 160),
    ("markov", 50, 200),
    ("mallows", 30, 100),
    ("uniform", 20, 80),
    ("markov", 10, 50),
    ("mallows", 10, 50),
    ("plackett-luce", 25, 120),
)
#: Bases of the BordaCount-pinned datasets read on live-churn.
PINNED_SIZE_MIX = (
    ("uniform", 10, 40),
    ("markov", 10, 40),
    ("plackett-luce", 10, 40),
    ("uniform", 15, 60),
    ("markov", 15, 60),
    ("plackett-luce", 15, 60),
)
SERVE_BUDGET_SECONDS = 0.05
WARM_POPULATION = 32
WARM_ZIPF_EXPONENT = HttpLoadProfile().skew  # the repo's load-generator default
WARM_OPEN_LOOP_RPS = 16.0
WARM_CLOSED_SHARE = 0.3  # of --seconds; the open loop gets the rest
MEMORY_ENTRIES = 4  # per shard; 2 shards hold 8 of the 32 warm members
PINNED_POPULATION = 300
LIVE_M, LIVE_N = 50, 200
LIVE_REPAIR_EVERY = 8  # K: an explicit /repair after every K mutations
LIVE_READ_SHARE = 0.6  # assumed: no source fixes the read/write mix
#: Shares of (add, remove, update) mutations: the update share of the repo's
#: churn stream (ChurnProfile.mutation_mix), the rest split evenly between
#: adds and removes so the session stays near LIVE_M rankings.
_UPDATE_SHARE = ChurnProfile().mutation_mix[2] / sum(ChurnProfile().mutation_mix)
MUTATION_MIX = ((1 - _UPDATE_SHARE) / 2, (1 - _UPDATE_SHARE) / 2, _UPDATE_SHARE)
COLD_SUPPLY_RPS = 25  # cold members drawn up front per second; more on demand
PROBE_MUTATIONS = 16  # per round, write probe on serve-warm and serve-cold
PROBE_REPAIR_EVERY = 4  # the probe repairs more often, for enough repair samples
PROBE_SEED = 2015  # the probe is the same on every seed
ROUNDS = 4  # timed rounds per run; each metric is reduced over the rounds
BATCH_LARGE = (("uniform", 50, 100), ("markov", 50, 100))
BATCH_EXACT_SIZES = (7, 9, 11, 13)  # uniform, m=50, solved by ExactSubsetDP
BATCH_EDITS = 24  # split evenly over the rounds
#: Edits all change the exact-reference dataset of this size, so every edit
#: re-runs the same amount of work and their median is not a midpoint
#: between datasets of different cost.
BATCH_EDITED_N = 11
BATCH_EXACT = "ExactSubsetDP"
BATCH_SUITE = tuple(SCALABLE_ALGORITHMS)
REFERENCE_SEED = 0


def rng_for(seed: int, *tags: str) -> np.random.Generator:
    """Independent generator per (seed, purpose) — stable across versions."""
    words = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        words.append(int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big"))
    return np.random.default_rng(words)


def generate(family: str, m: int, n: int, rng: np.random.Generator) -> Dataset:
    """One dataset of a paper generator family."""
    if family == "uniform":
        return uniform_dataset(m, n, rng)
    if family == "markov":
        return markov_dataset(m, n, 2 * n, rng)
    if family == "mallows":
        return mallows_ties_dataset(m, n, 0.5, rng)
    if family == "plackett-luce":
        return plackett_luce_dataset(m, n, rng)
    raise ValueError(f"unknown generator family {family!r}")


def ranking_text(buckets, labels) -> str:
    """One ranking line of the plain-text format, relabelled via ``labels``."""
    return "[" + ",".join(
        "[" + ",".join([labels[e] for e in bucket]) + "]" for bucket in buckets
    ) + "]"


@dataclass
class Base:
    """A generated dataset, its rankings as bucket lists and its reference score."""

    dataset: Dataset
    buckets: list  # per ranking: list of buckets of ints
    reference: int | None = None

    @property
    def n(self) -> int:
        return self.dataset.num_elements

    def compute_reference(self) -> int:
        """min(Chanas run to completion, BordaCount) on this dataset."""
        if self.reference is None:
            plan = self.dataset.prepared()
            scores = [
                int(make_algorithm(name, seed=REFERENCE_SEED)
                    .aggregate(self.dataset, prepared=plan).score)
                for name in ("Chanas", "BordaCount")
            ]
            self.reference = min(scores)
        return self.reference

    def score(self, buckets) -> int:
        """Generalized Kemeny score of a consensus given in base labels."""
        return int(generalized_kemeny_score_from_weights(
            Ranking(buckets), self.dataset.prepared().weights
        ))


def make_base(family: str, m: int, n: int, rng: np.random.Generator) -> Base:
    dataset = generate(family, m, n, rng)
    buckets = [[list(bucket) for bucket in r.buckets] for r in dataset.rankings]
    return Base(dataset, buckets)


@dataclass
class Member:
    """A relabelled base: the dataset one request carries."""

    name: str
    base: int
    perm: np.ndarray  # base label -> member label
    text: str
    inverse: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.inverse = np.argsort(self.perm)

    def to_base(self, consensus) -> list:
        """Map a member-label consensus back to base labels."""
        inverse = self.inverse
        return [[int(inverse[e]) for e in bucket] for bucket in consensus]


def make_member(name: str, index: int, base: Base, rng: np.random.Generator) -> Member:
    perm = rng.permutation(base.n)
    labels = [str(int(label)) for label in perm]
    text = "\n".join(ranking_text(r, labels) for r in base.buckets) + "\n"
    return Member(name, index, perm, text)


def zipf_probabilities(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=float) ** exponent
    return weights / weights.sum()


def zipf_stream(rng: np.random.Generator, size: int, exponent: float, length: int,
                cycle: int = 200) -> list[int]:
    """Zipf-popular member indices, stratified: every block of ``cycle``
    requests holds each member in its exact Zipf share (largest remainders),
    in a seeded order — so the mix, and the work it costs, does not drift
    with the seed."""
    quotas = zipf_probabilities(size, exponent) * cycle
    counts = np.floor(quotas).astype(int)
    for index in np.argsort(counts - quotas)[: cycle - counts.sum()]:
        counts[index] += 1
    block = np.repeat(np.arange(size), counts)
    stream: list[int] = []
    while len(stream) < length:
        stream.extend(int(i) for i in rng.permutation(block))
    return stream[:length]


def build_bases(seed: int, mix, tag: str) -> list[Base]:
    return [
        make_base(family, m, n, rng_for(seed, tag, str(index)))
        for index, (family, m, n) in enumerate(mix)
    ]


# --------------------------------------------------------------------------- #
# Per-workload inputs
# --------------------------------------------------------------------------- #
@dataclass
class WarmInputs:
    bases: list[Base]
    members: list[Member]  # Zipf rank order: member r is the r-th most popular
    closed_sequence: list[int]
    arrivals: list[list[tuple[float, int]]]  # per round: (due offset in s, member)

    def digest(self) -> str:
        return _digest(
            [m.text for m in self.members], self.closed_sequence, self.arrivals
        )


def open_loop_schedule(
    rng: np.random.Generator, members: list[int], rate: float, seconds: float
) -> list[tuple[float, int]]:
    """``rate * seconds`` arrivals at a fixed rate, each due at a seeded
    uniform point of the middle half of its own ``1 / rate`` slot, drawing
    members from ``members``.  Jittered slots keep the rate exact without
    the bursts of a Poisson process, and keeping arrivals half a slot apart
    stops two of them from landing together by chance: that queueing would
    make the tail depend on the seed more than on the server."""
    count = int(rate * seconds)
    offsets = (np.arange(count) + rng.uniform(0.25, 0.75, count)) / rate
    return [(float(offset), members.pop(0)) for offset in offsets]


def warm_inputs(seed: int, seconds: float, rounds: int = ROUNDS) -> WarmInputs:
    bases = build_bases(seed, SERVE_SIZE_MIX, "serve-bases")
    rng = rng_for(seed, "serve-warm")
    members = [
        make_member(f"warm-{r:03d}", r % len(bases), bases[r % len(bases)], rng)
        for r in range(WARM_POPULATION)
    ]
    closed = zipf_stream(rng, WARM_POPULATION, WARM_ZIPF_EXPONENT, 20000)
    open_seconds = seconds / rounds * (1.0 - WARM_CLOSED_SHARE)
    stream = zipf_stream(rng, WARM_POPULATION, WARM_ZIPF_EXPONENT,
                         int(WARM_OPEN_LOOP_RPS * open_seconds * rounds) + rounds)
    arrivals = [
        open_loop_schedule(rng, stream, WARM_OPEN_LOOP_RPS, open_seconds)
        for _ in range(rounds)
    ]
    return WarmInputs(bases, members, closed, arrivals)


@dataclass
class ColdInputs:
    bases: list[Base]
    rng: np.random.Generator
    members: list[Member] = field(default_factory=list)  # one per request, in sending order

    def member(self, index: int) -> Member:
        """The ``index``-th cold dataset.  Members are drawn from the seeded
        generator in sending order, so the supply never runs out and a seed
        gives the same sequence however many of them a run sends."""
        while len(self.members) <= index:
            i = len(self.members)
            base = i % len(self.bases)
            self.members.append(make_member(f"cold-{i:04d}", base, self.bases[base], self.rng))
        return self.members[index]

    def digest(self) -> str:
        return _digest([m.text for m in self.members])


def cold_inputs(seed: int, seconds: float) -> ColdInputs:
    """Draws a supply of members before the timed loop, which draws more
    only when a faster cold path outruns it."""
    data = ColdInputs(build_bases(seed, SERVE_SIZE_MIX, "serve-bases"), rng_for(seed, "serve-cold"))
    data.member(int(COLD_SUPPLY_RPS * seconds) + 9)
    return data


@dataclass
class LiveInputs:
    initial: list  # session rankings, as bucket lists
    pinned_bases: list[Base]
    pinned: list[Member]
    ops: list[dict]  # {"op": read|add|update|remove|repair, ...}

    def digest(self) -> str:
        return _digest(
            session_text(self.initial), [m.text for m in self.pinned], self.ops
        )


def mutation_ops(
    rng: np.random.Generator,
    pool: list,
    m: int,
    count: int,
    *,
    read_share: float = 0.0,
    reads: int = 0,
    repair_every: int = LIVE_REPAIR_EVERY,
) -> list[dict]:
    """A seeded op list: mutations (an explicit repair after every K) and reads.

    New rankings are pool rankings with their labels permuted, which keeps
    the uniform-with-ties distribution of the pool.  ``m`` is tracked so
    every remove/update index is valid and the session stays near its size.
    """
    ops: list[dict] = []
    mutations = 0
    while len(ops) < count:
        if reads and rng.random() < read_share:
            ops.append({"op": "read", "member": int(rng.integers(reads))})
            continue
        add, remove, _ = MUTATION_MIX
        draw = rng.random()
        if draw < add and m < LIVE_M + 10 or m <= LIVE_M - 10:
            kind = "add"
        elif draw < add + remove:
            kind = "remove"
        else:
            kind = "update"
        op: dict = {"op": kind}
        if kind != "add":
            op["index"] = int(rng.integers(m))
        else:
            op["index"] = int(rng.integers(m + 1))
        if kind != "remove":
            source = pool[int(rng.integers(len(pool)))]
            labels = [str(int(label)) for label in rng.permutation(LIVE_N)]
            op["ranking"] = ranking_text(source, labels)
        m += {"add": 1, "remove": -1, "update": 0}[kind]
        ops.append(op)
        mutations += 1
        if mutations % repair_every == 0:
            ops.append({"op": "repair"})
    return ops


def _ranking_pool(seed: int, tag: str, size: int = 40) -> list:
    pool = uniform_dataset(size, LIVE_N, rng_for(seed, tag, "pool"))
    return [[list(b) for b in r.buckets] for r in pool.rankings]


def session_text(initial: list) -> str:
    """The dataset text that opens a live session."""
    labels = [str(e) for e in range(LIVE_N)]
    return "\n".join(ranking_text(r, labels) for r in initial) + "\n"


def live_initial(seed: int, tag: str) -> list:
    dataset = uniform_dataset(LIVE_M, LIVE_N, rng_for(seed, tag, "initial"))
    return [[list(b) for b in r.buckets] for r in dataset.rankings]


def live_inputs(seed: int, seconds: float) -> LiveInputs:
    pinned_bases = build_bases(seed, PINNED_SIZE_MIX, "pinned-bases")
    rng = rng_for(seed, "live-churn")
    pinned = [
        make_member(f"pinned-{i:03d}", i % len(pinned_bases),
                    pinned_bases[i % len(pinned_bases)], rng)
        for i in range(PINNED_POPULATION)
    ]
    ops = mutation_ops(
        rng, _ranking_pool(seed, "live-churn"), LIVE_M, int(150 * seconds) + 50,
        read_share=LIVE_READ_SHARE, reads=PINNED_POPULATION,
    )
    return LiveInputs(live_initial(seed, "live-churn"), pinned_bases, pinned, ops)


@dataclass
class ProbeInputs:
    """The write probe run after serve-warm and serve-cold: one live session."""

    initial: list
    ops: list[dict]


def probe_inputs(rounds: int = ROUNDS) -> ProbeInputs:
    """Per round: PROBE_MUTATIONS mutations with a repair after every
    PROBE_REPAIR_EVERY of them (the ops list holds all rounds back to back).
    The probe is an instrument beside the workload rather than its input:
    its content and mutations are fixed, so what its Chanas repairs cost
    does not change with the seed."""
    rng = rng_for(PROBE_SEED, "write-probe")
    per_round = PROBE_MUTATIONS + PROBE_MUTATIONS // PROBE_REPAIR_EVERY
    ops = mutation_ops(
        rng, _ranking_pool(PROBE_SEED, "write-probe"), LIVE_M, per_round * rounds,
        repair_every=PROBE_REPAIR_EVERY,
    )
    return ProbeInputs(live_initial(PROBE_SEED, "write-probe"), ops)


def batch_inputs(seed: int) -> dict:
    """The batch child's job: dataset texts, suite, exact reference, edits."""
    datasets = []
    for index, (family, m, n) in enumerate(BATCH_LARGE):
        base = make_base(family, m, n, rng_for(seed, "batch", str(index)))
        datasets.append({"name": f"paper-{family}-m{m}-n{n}",
                         "exact": False, "rankings": base.buckets})
    for n in BATCH_EXACT_SIZES:
        base = make_base("uniform", 50, n, rng_for(seed, "batch-exact", str(n)))
        datasets.append({"name": f"exact-uniform-m50-n{n}", "exact": True,
                         "rankings": base.buckets})
    rng = rng_for(seed, "batch-edits")
    target = [d["name"] for d in datasets].index(f"exact-uniform-m50-n{BATCH_EDITED_N}")
    edits = [{
        "dataset": target,
        "index": int(rng.integers(len(datasets[target]["rankings"]))),
        "ranking": _uniform_buckets(BATCH_EDITED_N, rng),
    } for _ in range(BATCH_EDITS)]
    return {
        "datasets": datasets,
        "suite": list(BATCH_SUITE),
        "exact": BATCH_EXACT,
        "edits": edits,
    }


def _uniform_buckets(n: int, rng: np.random.Generator) -> list:
    ranking = sample_uniform_ranking(list(range(n)), rng)
    return [list(bucket) for bucket in ranking.buckets]


def _digest(*parts) -> str:
    text = json.dumps(parts, sort_keys=True, default=lambda o: o.tolist())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def batch_digest(job: dict) -> str:
    return _digest(job)
