"""Seeded workload generator.

One seed gives the ``.pl`` program text, the operation stream (read
goals and writes) and every read goal's expected answer set.  The
server only ever sees the program file and the requests; the expected
answers are computed here, from the generator's own fact tuples, never
by the program under test.

The knowledge base has three predicates, all facts:

* ``edge(nI, nJ)`` — a random directed graph, about four edges per node;
* ``part(pI, f(cK, lJ), W)`` — parts in about ten per class ``cK``;
* ``couple(aI, aJ)`` — pairs, one in ten with ``aI == aJ``.

Read goals are ``edge(X, nK)`` (35%), ``edge(nK, Y)`` (35%),
``part(P, f(cK, L), W)`` (20%) and ``couple(X, X)`` (10%), keys drawn
uniformly.  Writes alternate an ``assertz`` of a fresh ``edge(wI, zI)``
with a ``retract`` of the oldest such fact still standing; no read goal
can match a ``w``/``z`` constant, so expected answers never change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: how many writes run ahead of the retracts: the KB holds between
#: ``WRITE_LAG`` and ``WRITE_LAG + 1`` write-stream facts after warm-up.
WRITE_LAG = 8


@dataclass(frozen=True)
class KBSize:
    edges: int
    parts: int
    couples: int


@dataclass(frozen=True)
class Op:
    """One operation of the stream.

    ``kind`` is ``"read"``, ``"assertz"`` or ``"retract"``; ``text`` is
    the goal or clause as Prolog text; ``key`` names the read's expected
    answer set in :attr:`Workload.expected` (``None`` for writes).
    """

    kind: str
    text: str
    key: tuple | None = None
    write_id: str = ""


@dataclass
class Workload:
    """Everything a run needs, derived from one seed."""

    program: str
    facts: dict[str, tuple]  # fact text -> (functor, args...)
    expected: dict[tuple, frozenset[str]]  # goal key -> matching fact texts
    goals: dict[tuple, str]  # goal key -> goal text

    def ops(
        self, rng: random.Random, write_share: float = 0.0,
        writes: "WriteStream | None" = None,
    ) -> Iterator[Op]:
        """An endless operation stream; ``write_share`` of it from ``writes``.

        A read picks its goal kind by :data:`GOAL_MIX`, then its key
        uniformly among that kind's goals.
        """
        by_kind: dict[str, list[tuple]] = {}
        for key in self.goals:
            by_kind.setdefault(key[0], []).append(key)
        kinds = list(GOAL_MIX)
        weights = [GOAL_MIX[kind] for kind in kinds]
        while True:
            if writes is not None and rng.random() < write_share:
                yield writes.next()
                continue
            kind = rng.choices(kinds, weights)[0]
            key = rng.choice(by_kind[kind])
            yield Op("read", self.goals[key], key)


#: share of reads per goal kind.
GOAL_MIX = {"edge_to": 0.35, "edge_from": 0.35, "part": 0.2, "couple": 0.1}


class WriteStream:
    """``assertz edge(wI, zI)`` / ``retract`` the oldest, alternating.

    The first :data:`WRITE_LAG` writes are asserts; after that, every
    other write retracts the fact asserted ``WRITE_LAG`` asserts ago.
    Each write carries a unique ``write_id`` (the server's idempotency
    handle).  ``prefix`` keeps the ids of separate runs against one
    durable store apart.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.count = 0
        self.asserted = 0
        self.retracted = 0

    def next(self) -> Op:
        index = self.count
        self.count += 1
        write_id = f"{self.prefix}:{index}"
        if self.asserted < WRITE_LAG or self.asserted == self.retracted + WRITE_LAG:
            fact = write_fact(self.asserted)
            self.asserted += 1
            return Op("assertz", fact, write_id=write_id)
        fact = write_fact(self.retracted)
        self.retracted += 1
        return Op("retract", fact, write_id=write_id)


def write_fact(index: int) -> str:
    return f"edge(w{index},z{index})"


def generate(seed: int, size: KBSize) -> Workload:
    """The knowledge base and its goal set for ``seed``."""
    rng = random.Random(f"kb:{seed}")
    facts: dict[str, tuple] = {}
    lines: list[str] = []

    def add(text: str, record: tuple) -> None:
        facts[text] = record
        lines.append(text + ".")

    nodes = max(8, size.edges // 4)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < size.edges:
        pairs.add((rng.randrange(nodes), rng.randrange(nodes)))
    edge_list = sorted(pairs)
    rng.shuffle(edge_list)
    for src, dst in edge_list:
        add(f"edge(n{src},n{dst})", ("edge", f"n{src}", f"n{dst}"))
    classes = max(2, size.parts // 10)
    for index in range(size.parts):
        klass = f"c{rng.randrange(classes)}"
        label = f"l{rng.randrange(50)}"
        weight = rng.randrange(1, 1000)
        add(
            f"part(p{index},f({klass},{label}),{weight})",
            ("part", f"p{index}", klass, label, weight),
        )
    people = max(4, size.couples)
    # a tenth of the couples (at least one) pair a person with themself,
    # so every seed gives ``couple(X, X)`` the same number of answers
    couples = {
        (person, person)
        for person in rng.sample(range(people), max(1, size.couples // 10))
    }
    while len(couples) < size.couples:
        left, right = rng.randrange(people), rng.randrange(people)
        if left != right:
            couples.add((left, right))
    couple_list = sorted(couples)
    rng.shuffle(couple_list)
    for left, right in couple_list:
        add(f"couple(a{left},a{right})", ("couple", f"a{left}", f"a{right}"))

    expected: dict[tuple, set[str]] = {}
    goals: dict[tuple, str] = {}
    for node in range(nodes):
        goals[("edge_to", f"n{node}")] = f"edge(X, n{node})"
        goals[("edge_from", f"n{node}")] = f"edge(n{node}, Y)"
    for klass in range(classes):
        goals[("part", f"c{klass}")] = f"part(P, f(c{klass}, L), W)"
    goals[("couple",)] = "couple(X, X)"
    for key in goals:
        expected[key] = set()
    for text, record in facts.items():
        for key in answer_keys(record):
            expected[key].add(text)
    return Workload(
        program="\n".join(lines) + "\n",
        facts=facts,
        expected={key: frozenset(texts) for key, texts in expected.items()},
        goals=goals,
    )


def answer_keys(record: tuple) -> list[tuple]:
    """The goal keys whose answer set holds the fact ``record``."""
    functor = record[0]
    if functor == "edge":
        return [("edge_from", record[1]), ("edge_to", record[2])]
    if functor == "part":
        return [("part", record[2])]
    if record[1] == record[2]:
        return [("couple",)]
    return []


def matches(key: tuple, record: tuple) -> bool:
    """Does the fact ``record`` fully unify with the goal named ``key``?"""
    return key in answer_keys(record)
