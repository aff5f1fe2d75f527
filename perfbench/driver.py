"""The load driver: open- and closed-loop phases over one async client.

The driver owns its loop and its clock; it imports nothing from
``repro.workloads``, so a change to the program's own load generator
cannot change this ruler.  At most ``slots`` requests are in flight at
once, all on one :class:`~repro.net.AsyncRetrievalClient` with retries
off, so the client never opens more than ``slots`` connections.  A
request that waits for a free connection counts that wait in its
latency.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import time
from dataclasses import dataclass
from typing import Iterator

from gen import Op, Workload, matches

from repro.net import (
    AsyncRetrievalClient,
    BackoffPolicy,
    DeadlineExceeded,
    NetError,
    ProtocolError,
    ServerBusy,
)
from repro.terms import read_term, term_to_string

clock = time.perf_counter

_WRITE_FACT = re.compile(r"edge\(w(\d+),z\1\)")


@dataclass
class Sample:
    """One operation as the driver saw it (times from :data:`clock`)."""

    phase: str
    op: Op
    due: float  # when the schedule said to send it
    wake: float  # when the generator got round to it
    start: float  # when it held a connection slot and went out
    end: float
    outcome: str  # "ok", "busy", "deadline" or "error"
    result: object = None  # RetrievalResult, or (version, applied, removed)

    @property
    def latency(self) -> float:
        return self.end - self.due


class Driver:
    """Send operations to one ``serve`` instance."""

    def __init__(self, host: str, port: int, slots: int):
        self.client = AsyncRetrievalClient(
            host, port, pool_size=slots,
            backoff=BackoffPolicy(max_retries=0),
        )
        self._slots = asyncio.Semaphore(slots)
        self.slots = slots
        self._terms: dict[str, object] = {}

    def term(self, text: str):
        term = self._terms.get(text)
        if term is None:
            term = self._terms[text] = read_term(text)
        return term

    async def send(self, op: Op):
        """Send one operation and return the server's answer."""
        if op.kind == "read":
            return await self.client.retrieve(self.term(op.text))
        return await self.client.mutate(
            op.kind, self.term(op.text), write_id=op.write_id
        )

    async def _one(
        self, phase: str, op: Op, due: float, wake: float,
        samples: list[Sample],
    ) -> None:
        async with self._slots:
            start = clock()
            result = None
            try:
                result = await self.send(op)
                outcome = "ok"
            except ServerBusy:
                outcome = "busy"
            except DeadlineExceeded:
                outcome = "deadline"
            except (NetError, ProtocolError, ConnectionError, OSError):
                outcome = "error"
            end = clock()
        samples.append(Sample(phase, op, due, wake, start, end, outcome, result))

    async def open_loop(
        self, ops: Iterator[Op], rate: float, seconds: float
    ) -> list[Sample]:
        """Send ``rate`` operations per second on a fixed schedule.

        Operation ``i`` is due at ``t0 + i / rate`` whatever happened to
        the ones before it, and its latency runs from that due time.
        """
        samples: list[Sample] = []
        tasks = []
        count = max(1, round(rate * seconds))
        t0 = clock() + 0.01
        for index, op in enumerate(itertools.islice(ops, count)):
            due = t0 + index / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(
                self._one("open", op, due, clock(), samples)
            ))
        await asyncio.gather(*tasks)
        return samples

    async def closed_loop(
        self, ops: Iterator[Op], seconds: float
    ) -> tuple[list[Sample], float]:
        """``slots`` callers, each sending its next operation on a reply.

        Returns the samples and the phase's wall time, from the first
        send to the last reply.
        """
        samples: list[Sample] = []
        start = clock()
        stop = start + seconds

        async def caller() -> None:
            while clock() < stop:
                now = clock()
                await self._one("closed", next(ops), now, now, samples)

        await asyncio.gather(*(caller() for _ in range(self.slots)))
        return samples, clock() - start

    async def close(self) -> None:
        await self.client.close()


def read_errors(workload: Workload, sample: Sample) -> list[str]:
    """Why a completed read's answer is wrong (empty when it is right).

    The candidates that fully unify with the goal — decided on the
    generator's own fact tuples — must be exactly the expected answer
    set.  Candidates that do not unify are allowed (the filters may
    let false drops through), unknown or duplicated clauses are not.
    """
    key = sample.op.key
    seen: set[str] = set()
    answers: set[str] = set()
    problems: list[str] = []
    for clause in sample.result.candidates:
        text = term_to_string(clause.head)
        if text in seen:
            problems.append(f"duplicate candidate {text}")
        seen.add(text)
        record = workload.facts.get(text)
        if record is None:
            if not _WRITE_FACT.fullmatch(text):
                problems.append(f"unknown candidate {text}")
            continue
        if matches(key, record):
            answers.add(text)
    expected = workload.expected[key]
    if answers != expected:
        missing = sorted(expected - answers)[:3]
        extra = sorted(answers - expected)[:3]
        problems.append(f"answers differ: missing {missing} extra {extra}")
    return [f"{sample.op.text}: {problem}" for problem in problems]


def write_state_errors(
    samples: list[Sample], present: list[str]
) -> list[str]:
    """Compare the ``edge(wI, zI)`` facts a server holds with the acks.

    Every acked assert not removed by an acked retract must be there;
    nothing may be there that was never asserted or was acked as
    retracted; no fact may be there twice.
    """
    sent: set[str] = set()
    acked: set[str] = set()
    removed: set[str] = set()
    for sample in samples:
        op = sample.op
        if op.kind == "assertz":
            sent.add(op.text)
            if sample.outcome == "ok":
                acked.add(op.text)
        elif op.kind == "retract" and sample.outcome == "ok":
            _, applied, _ = sample.result
            if applied:
                removed.add(op.text)
    required = acked - removed
    allowed = sent - removed
    holding = set(present)
    problems = [f"lost acked write {fact}" for fact in sorted(required - holding)]
    problems += [
        f"fact present but never acked or acked retracted: {fact}"
        for fact in sorted(holding - allowed)
    ]
    if len(present) != len(holding):
        problems.append(f"{len(present) - len(holding)} duplicated write facts")
    return problems
