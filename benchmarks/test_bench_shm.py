"""[E15b] Shared-memory result transport vs the pickled pipe (wall clock).

Shipping broadcast-heavy results back from shard workers as
``(address, record bytes)`` slab payloads beats pickling the candidate
term graphs through the pipe.  Candidate sets and modelled stats are
asserted identical first.

Results merge into ``BENCH_e2e.json`` under the ``"e15_transport"`` key
(read-modify-write, so E14's payload survives).  Honesty gates: the run
is pinned to ``FS1_ONLY`` so the timed region is transport-bound rather
than unification-bound, the speedup floor only applies outside
``--quick``, and ``host_cores`` rides in the payload so a reader knows
what machine produced the numbers.
"""

import dataclasses
import json
import os
import pathlib
import time

from repro.cluster import ShardingPolicy
from repro.crs import SearchMode
from repro.parallel import ProcessShardedRetrievalServer
from repro.terms import read_term
from tables import record_table

E2E_RESULT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_e2e.json"


def merge_payload(path: pathlib.Path, key: str, payload: dict) -> None:
    """Read-modify-write ``path`` so sibling experiments' data survives."""
    try:
        existing = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        existing = {}
    existing[key] = payload
    path.write_text(json.dumps(existing, indent=2) + "\n")


def best_of(runs: int, fn) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def fingerprint(result):
    return (
        [str(c) for c in result.candidates],
        dataclasses.astuple(result.stats),
    )


def test_bench_shm_vs_pipe_transport(quick):
    """Broadcast-heavy batches, same worker fleet, transport swapped."""
    facts = 600 if quick else 4_000
    reps = 3 if quick else 10
    runs = 2 if quick else 3
    shards = 2 if quick else 4
    floor = 1.5

    program = " ".join(
        f"edge(n{i}, n{(i * 7) % facts})." for i in range(facts)
    )
    # Open queries broadcast over round-robin shards and return large
    # candidate sets — the transport-bound regime.
    goals = [
        read_term("edge(X, Y)"),
        read_term("edge(X, n0)"),
        read_term("edge(X, n7)"),
    ]

    def build(transport):
        from repro.obs import Instrumentation

        server = ProcessShardedRetrievalServer(
            shards,
            ShardingPolicy.ROUND_ROBIN,
            result_transport=transport,
            obs=Instrumentation(),
        )
        server.consult_text(program)
        server.start()
        return server

    shm = build("shm")
    pipe = build("pipe")
    # FS1_ONLY keeps per-candidate engine work minimal, so the timed
    # region is dominated by result transport — the thing under test.
    mode = SearchMode.FS1_ONLY
    try:
        # Identity first; this also warms both parents' decode caches so
        # the timed region measures steady-state transport cost.
        assert [fingerprint(r) for r in shm.retrieve_batch(goals, mode)] == [
            fingerprint(r) for r in pipe.retrieve_batch(goals, mode)
        ]

        def drive(server):
            def run():
                for _ in range(reps):
                    server.retrieve_batch(goals, mode)

            return run

        shm_s = best_of(runs, drive(shm))
        pipe_s = best_of(runs, drive(pipe))
        slab_results = shm.obs.registry.total("parallel.shm.results")
        fallbacks = shm.obs.registry.total("parallel.shm.fallbacks")
    finally:
        shm.close()
        pipe.close()

    host_cores = os.cpu_count() or 1
    speedup = pipe_s / shm_s
    payload = {
        "host_cores": host_cores,
        "facts": facts,
        "shards": shards,
        "batch_reps": reps,
        "goals": len(goals),
        "shm_s": shm_s,
        "pipe_s": pipe_s,
        "speedup_shm": round(speedup, 2),
        "slab_results": slab_results,
        "slab_fallbacks": fallbacks,
        "quick": quick,
        "floor": floor,
    }
    merge_payload(E2E_RESULT_PATH, "e15_transport", payload)

    record_table(
        "E15b",
        "Worker result transport: shm slab ring vs pickled pipe",
        ("transport", "facts", "shards", "seconds", "speedup"),
        [
            ("pickled pipe", facts, shards, round(pipe_s, 6), 1.0),
            ("shm slabs", facts, shards, round(shm_s, 6), round(speedup, 2)),
        ],
        notes=(
            f"host has {host_cores} core(s); {reps} broadcast batches of "
            f"{len(goals)} goals per rep; {slab_results} slab payloads, "
            f"{fallbacks} pipe fallbacks; results in {E2E_RESULT_PATH.name}"
        ),
    )

    assert slab_results > 0  # the shm path was actually exercised
    if not quick:
        assert speedup >= floor, (
            f"shm transport only {speedup:.2f}x faster than the pipe "
            f"(floor {floor}x) over {facts}-fact broadcasts"
        )
