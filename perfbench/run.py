"""The repo benchmark: loopback retrieval latency and capacity.

Usage::

    python3 perfbench/run.py --workload mem_read --seed 1 --seconds 30 --trace 0

Starts ``python -m repro.cli serve`` on a generated program, drives it
over loopback from this one process (at most ``nproc`` requests in
flight, one async client), checks every answer, and prints each metric
by name with its unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run is split into an untraced pass and a traced pass (the server
started through ``launcher.py``), and the metrics are the per-layer ones
plus the tracing overhead on each end-to-end metric.  Exits 1 when any
answer or acked write is wrong, 2 when the program cannot be run.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import importlib.util
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from gen import KBSize, Op, WriteStream, generate
from layers import LAYER_UNITS, layer_metrics, percentile
from server import ServerProcess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Spec:
    """One workload: KB size, server flags, write share, offered rate."""

    size: KBSize
    flags: tuple[str, ...]
    write_share: float
    rate: float  # open-loop offered operations per second
    durable: bool = False


SMALL = KBSize(edges=200, parts=80, couples=40)
LARGE = KBSize(edges=16000, parts=1000, couples=500)
ENGINES = ("--fs1-mode", "bitsliced", "--fs2-mode", "compiled")

#: offered open-loop rates are a quarter to a third of each workload's
#: closed-loop capacity on a 2-core host, and high enough that the open
#: loop holds at least 1,000 reads at ``--seconds 30``.
WORKLOADS = {
    "mem_read": Spec(SMALL, ENGINES, 0.0, rate=50.0),
    "disk_read": Spec(LARGE, ("--disk",) + ENGINES, 0.0, rate=60.0),
    "disk_mixed": Spec(
        SMALL, ("--disk",) + ENGINES, 0.2, rate=64.0, durable=True
    ),
}

#: a run that has not finished by then stops its servers and fails.
TIME_LIMIT_S = 170
#: set-ups per untraced run; setup_s is their median.
SETUPS = 3
WARMUP_S = 1.5
#: share of the measured seconds spent in the open-loop phase.
OPEN_SHARE = 0.7
#: the timed seconds alternate open- and closed-loop phases in blocks of
#: about this length, so both phases sample the whole run: the host's
#: speed drifts over seconds, and neither metric should see only the
#: start or the end of a run.
BLOCK_S = 2.0
#: a block in which the hypervisor gave more than this share of the CPU
#: time this machine wanted to other guests timed them, not the program.
STEAL_LIMIT = 0.10

E2E_UNITS = {
    "setup_s": "s", "read_p50_ms": "ms", "sat_qps": "ops/s",
    "server_rss_mb": "MB",
}


@dataclass
class Block:
    """One open-loop phase and the closed-loop phase after it."""

    open: list
    closed: list
    closed_s: float  # wall time of the closed-loop phase
    steal: float  # stolen share of the CPU time wanted during the block


def calm_blocks(blocks: list[Block]) -> list[Block]:
    """The blocks the metrics are taken from.

    Blocks with more stolen time than :data:`STEAL_LIMIT` are left out,
    unless fewer than half the blocks are within it: then the calmest
    half is kept, so a run always measures at least half its time.
    """
    calm = [b for b in blocks if b.steal <= STEAL_LIMIT]
    if 2 * len(calm) >= len(blocks):
        return calm
    return sorted(blocks, key=lambda b: b.steal)[:(len(blocks) + 1) // 2]


@dataclass
class Timed:
    """What the driver brought back from warm-up and the timed phases."""

    samples: list  # open- and closed-loop operations, block by block
    warm: list
    blocks: list[Block]
    cpu_s: float  # server CPU time over the timed phases
    steal: float
    registry_delta: dict[str, float]
    client_decode: dict | None


@dataclass
class PassResult:
    """What one pass (set-up, warm-up, both timed phases) measured."""

    e2e: dict[str, float]
    extra: dict[str, float]  # write latencies, recovery, driver, cpu
    attempted: int
    failed: int
    problems: list[str]
    modes: dict[str, int]
    samples: list = field(default_factory=list)
    trace: dict | None = None
    registry_delta: dict[str, float] = field(default_factory=dict)
    client_decode: dict | None = None


class Bench:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.slots = os.cpu_count() or 1
        self.workload = generate(seed, self.spec.size)
        self.program = workdir / "kb.pl"
        self.program.write_text(self.workload.program)
        probe_rng = random.Random(f"probe:{seed}")
        by_kind: dict[str, list[tuple]] = {}
        for key in self.workload.goals:
            by_kind.setdefault(key[0], []).append(key)
        # one goal per predicate (and per edge argument) for set-up and
        # recovery probes, each with a non-empty expected answer set
        self.probes = [
            probe_rng.choice([k for k in keys if self.workload.expected[k]])
            for keys in by_kind.values()
        ]

    # -- server lifecycle ---------------------------------------------------

    def serve_argv(self, store: Path | None) -> list[str]:
        argv = [str(self.program), "--port", "0", *self.spec.flags]
        if store is not None:
            argv += ["--durability", str(store)]
        return argv

    def start(self, store: Path | None, trace_out: Path | None = None):
        """Spawn ``serve`` and send it one probe goal of each kind.

        Returns the server, the seconds from spawn to the last probe's
        answer, and what was wrong with the answers.
        """
        server = ServerProcess(
            ROOT, self.workdir, self.serve_argv(store), trace_out
        )
        try:
            port = server.wait_port()
            problems = asyncio.run(self._probe(port))
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - server.started, problems

    async def _probe(self, port: int) -> list[str]:
        from driver import Driver, Sample, read_errors

        driver = Driver("127.0.0.1", port, 1)
        problems = []
        try:
            for key in self.probes:
                op = Op("read", self.workload.goals[key], key)
                result = await driver.send(op)
                sample = Sample("probe", op, 0, 0, 0, 0, "ok", result)
                problems += read_errors(self.workload, sample)
        finally:
            await driver.close()
        return problems

    # -- one pass -------------------------------------------------------------

    def run_pass(
        self, seconds: float, setups: int, traced: bool, tag: str
    ) -> PassResult:
        setup_times = []
        problems: list[str] = []
        server = None
        trace_out = self.workdir / f"trace-{tag}.json" if traced else None
        try:
            for attempt in range(setups):
                store = None
                if self.spec.durable:  # each set-up consults a fresh store
                    store = self.workdir / f"store-{tag}-{attempt}"
                last = attempt == setups - 1
                server, elapsed, wrong_probes = self.start(
                    store, trace_out if last else None
                )
                setup_times.append(elapsed)
                problems += wrong_probes
                if not last:
                    server.stop()
            writes = None
            if self.spec.write_share > 0:
                writes = WriteStream(f"{self.seed}:{tag}")
            timed = asyncio.run(self._drive(server, seconds, writes, traced))
            rss = server.peak_rss_mb()
            samples, warm = timed.samples, timed.warm

            from driver import read_errors

            # Every operation of the run counts, set-up probes and warm-up
            # included: a wrong answer is wrong whenever it happens.
            failed = len(problems)
            wrong: set[int] = set()
            for sample in warm + samples:
                errors = [f"{sample.op.text}: {sample.outcome}"]
                if sample.outcome == "ok":
                    errors = (
                        read_errors(self.workload, sample)
                        if sample.op.kind == "read" else []
                    )
                if errors:
                    problems += errors
                    wrong.add(id(sample))
            failed += len(wrong)
            extra: dict[str, float] = {}
            if self.spec.durable:
                server.kill()
                server, recover_s, write_problems = self._recover(
                    store, warm + samples
                )
                extra["recover_s"] = recover_s
                failed += len(write_problems)
                problems += write_problems
            if server is not None:
                server.stop()
                server = None
        finally:  # whatever went wrong, no server outlives the pass
            if server is not None:
                server.kill()
        trace = None
        if traced:
            trace = json.loads(trace_out.read_text())

        kept = calm_blocks(timed.blocks)
        open_ok = [s for b in kept for s in b.open if s.outcome == "ok"]
        open_reads = [s for s in open_ok if s.op.kind == "read"]
        open_writes = [s for s in open_ok if s.op.kind != "read"]
        # capacity of each closed-loop phase; the median is the figure
        closed_qps = [
            sum(1 for s in b.closed if id(s) not in wrong) / b.closed_s
            for b in kept
        ]
        restarts = 1 if self.spec.durable else 0
        attempted = (
            len(self.probes) * (setups + restarts) + len(warm) + len(samples)
        )
        read_ms = [s.latency * 1e3 for s in open_reads]
        write_ms = [s.latency * 1e3 for s in open_writes]
        opened = [s for s in samples if s.phase == "open"]
        e2e = {
            "setup_s": statistics.median(setup_times),
            "read_p50_ms": percentile(read_ms, 0.50),
            "sat_qps": statistics.median(closed_qps),
            "server_rss_mb": rss,
        }
        extra.update({
            "blocks": len(timed.blocks),
            "blocks_kept": len(kept),
            "open_reads": len(read_ms),
            "read_p95_ms": percentile(read_ms, 0.95),
            "read_p99_ms": percentile(read_ms, 0.99),
            "open_writes": len(write_ms),
            "write_p50_ms": percentile(write_ms, 0.50),
            "write_p99_ms": percentile(write_ms, 0.99),
            "server.cpu_ms_per_op": timed.cpu_s * 1e3 / len(samples),
            "driver.lag_p99_ms": percentile(
                [(s.wake - s.due) * 1e3 for s in opened], 0.99
            ),
            "driver.wait_ms": statistics.fmean(
                (s.start - s.wake) * 1e3 for s in opened
            ),
            "failed_frac": failed / attempted,
            "host.steal_frac": timed.steal,
        })
        modes: dict[str, int] = {}
        for s in samples:
            if s.op.kind == "read" and s.outcome == "ok" and s.result.stats:
                mode = s.result.stats.mode.value
                modes[mode] = modes.get(mode, 0) + 1
        return PassResult(
            e2e=e2e, extra=extra, attempted=attempted, failed=failed,
            problems=problems, modes=modes, samples=samples, trace=trace,
            registry_delta=timed.registry_delta,
            client_decode=timed.client_decode,
        )

    async def _drive(self, server, seconds, writes, traced):
        from driver import Driver

        ops_rng = random.Random(f"ops:{self.seed}")
        warm_rng = random.Random(f"warm:{self.seed}")
        ops = self.workload.ops(ops_rng, self.spec.write_share, writes)
        warm_ops = self.workload.ops(warm_rng, self.spec.write_share, writes)
        driver = Driver("127.0.0.1", server.port, self.slots)
        recorder = None
        try:
            warm, _ = await driver.closed_loop(warm_ops, WARMUP_S)
            before = {}
            if traced:
                before = await driver.client.stats()
                recorder = _ClientDecodeTimer()
                await self._mark(driver, server, signal.SIGUSR1)
            # The driver's own collector must not pause the schedule:
            # results pile up during the phases, so collect once before.
            gc.collect()
            gc.disable()
            cpu0 = server.cpu_s()
            host0 = ticks = _host_cpu_ticks()
            count = max(1, round(seconds / BLOCK_S))
            samples, blocks = [], []
            for _ in range(count):
                opened = await driver.open_loop(
                    ops, self.spec.rate, seconds * OPEN_SHARE / count
                )
                closed, closed_s = await driver.closed_loop(
                    ops, seconds * (1 - OPEN_SHARE) / count
                )
                start, ticks = ticks, _host_cpu_ticks()
                samples += opened + closed
                blocks.append(Block(
                    opened, closed, closed_s, _stolen_share(start, ticks)
                ))
            cpu_s = server.cpu_s() - cpu0
            host = [b - a for a, b in zip(host0, _host_cpu_ticks())]
            delta = {}
            client_decode = None
            if traced:
                await self._mark(driver, server, signal.SIGUSR2)
                client_decode = recorder.stop()
                after = await driver.client.stats()
                delta = _registry_delta(
                    before.get("registry", {}), after.get("registry", {})
                )
        finally:
            gc.enable()
            if recorder is not None:
                recorder.stop()
            await driver.close()
        return Timed(
            samples=samples, warm=warm, blocks=blocks,
            cpu_s=cpu_s,
            steal=host[7] / sum(host),  # the hypervisor ran another guest
            registry_delta=delta, client_decode=client_decode,
        )

    @staticmethod
    async def _mark(driver, server, signum) -> None:
        """Signal the traced server, then ping: the ping's reply comes
        from the server's main thread, which has run the handler by
        then."""
        server.signal(signum)
        await driver.client.ping()

    def _recover(self, store: Path, samples):
        """Restart on the killed server's store; check the write facts."""
        from driver import Driver, write_state_errors

        try:
            server, recover_s, problems = self.start(store)
        except RuntimeError as exc:  # the server would not come back up
            return None, 0.0, [f"restart from the store failed: {exc}"]

        async def present_facts() -> list[str]:
            from repro.terms import term_to_string

            driver = Driver("127.0.0.1", server.port, 1)
            try:
                result = await driver.client.retrieve(driver.term("edge(X, Y)"))
            finally:
                await driver.close()
            heads = [term_to_string(c.head) for c in result.candidates]
            return [h for h in heads if h.startswith("edge(w")]

        try:
            present = asyncio.run(present_facts())
        except BaseException:
            server.kill()
            raise
        writes = [s for s in samples if s.op.kind != "read"]
        return server, recover_s, problems + write_state_errors(writes, present)

    # -- the knowledge base, for the run record ------------------------------

    def kb_record(self, samples) -> dict:
        import inspect

        from repro.crs import ClauseRetrievalServer
        from repro.storage import KnowledgeBase
        from repro.terms import term_to_string

        kb = KnowledgeBase()
        kb.consult_text(self.workload.program)
        touched = set()
        for s in samples:
            if s.op.kind == "read" and s.outcome == "ok":
                touched.update(term_to_string(c.head) for c in s.result.candidates)
        capacity = inspect.signature(
            ClauseRetrievalServer.__init__
        ).parameters["decode_cache_size"].default
        return {
            "clauses": kb.clause_count(),
            "compiled_bytes": kb.size_bytes(),
            "distinct_candidates": len(touched),
            "decode_cache_entries": capacity,
        }


class _ClientDecodeTimer:
    """Times ``protocol.decode_result_response`` in this (client) process."""

    def __init__(self):
        from launcher import Recorder
        from repro.net import protocol

        self.protocol = protocol
        self.original = protocol.decode_result_response
        self.recorder = Recorder()
        protocol.decode_result_response = self.recorder.wrap(
            "net.client_decode", self.original
        )
        self.recorder.reset()
        self.result = None

    def stop(self) -> dict:
        if self.result is None:
            self.protocol.decode_result_response = self.original
            self.result = self.recorder.merged().get(
                "net.client_decode", {"calls": 0, "total_s": 0.0}
            )
        return self.result


def _host_cpu_ticks() -> list[int]:
    """The host's CPU time counters (``/proc/stat``: user ... steal)."""
    with open("/proc/stat") as stat:
        return [int(ticks) for ticks in stat.readline().split()[1:9]]


def _stolen_share(before: list[int], after: list[int]) -> float:
    """Stolen / (stolen + busy) host CPU time between two readings."""
    user, nice, system, _, _, irq, softirq, steal = (
        b - a for a, b in zip(before, after)
    )
    wanted = user + nice + system + irq + softirq + steal
    return steal / wanted if wanted else 0.0


def _registry_delta(before: dict, after: dict) -> dict[str, float]:
    """Counter increases between two registry snapshots, labels summed."""
    out: dict[str, float] = {}
    for key, entry in after.items():
        if entry.get("type") != "counter":
            continue
        previous = before.get(key, {}).get("value", 0)
        name = key.split("{", 1)[0]
        out[name] = out.get(name, 0) + entry["value"] - previous
    return out


# -- reporting -----------------------------------------------------------------


def run_record(bench: Bench, result: PassResult, kb: dict) -> dict:
    reads = sum(result.modes.values()) or 1
    return {
        "workload": bench.name,
        "seed": bench.seed,
        "host_cores": os.cpu_count(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "python": platform.python_version(),
        "server_flags": " ".join(bench.serve_argv(
            Path("STORE") if bench.spec.durable else None
        )[3:]),
        "fs1_engine": flag_value(bench.spec.flags, "--fs1-mode"),
        "fs2_engine": flag_value(bench.spec.flags, "--fs2-mode"),
        "offered_rate_ops_s": bench.spec.rate,
        "write_share": bench.spec.write_share,
        "slots": bench.slots,
        "kb": kb,
        "mode_mix": {m: round(n / reads, 4) for m, n in result.modes.items()},
    }


def flag_value(flags: tuple[str, ...], name: str) -> str:
    return flags[flags.index(name) + 1]


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"[{title}]")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")


def _out_of_time(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def _terminated(signum, frame) -> None:
    raise SystemExit(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Servers are stopped with SIGINT.  A parent that started this run
    # in the background may have left SIGINT ignored, and an ignored
    # signal stays ignored across exec: take it back so they inherit
    # the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(TIME_LIMIT_S)
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            base = bench.run_pass(args.seconds / 2, 1, False, "untraced")
            traced = bench.run_pass(args.seconds / 2, 1, True, "traced")
            results = [base, traced]
            metrics, units = layer_metrics(base, traced)
        else:
            base = bench.run_pass(args.seconds, SETUPS, False, "untraced")
            results = [base]
            metrics, units = dict(base.e2e), dict(E2E_UNITS)
        kb = bench.kb_record(base.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(bench, base, kb)
    print("[run record]")
    for key, value in record.items():
        print(f"  {key}: {value}")
    print_metrics(f"{args.workload} end-to-end", base.e2e, E2E_UNITS)
    print_metrics(
        f"{args.workload} other", base.extra, {**LAYER_UNITS, "blocks": "count", "blocks_kept": "count",
         "open_reads": "count", "open_writes": "count",
         "host.steal_frac": "ratio"}
    )
    if args.trace:
        print_metrics(f"{args.workload} per-layer", metrics, units)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for result in results:
        for problem in result.problems[:20]:
            print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
