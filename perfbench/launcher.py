"""Traced-run launcher: ``repro.cli serve`` with every layer timed.

Usage: ``python launcher.py OUT.json serve FILE [serve flags...]``

Before handing its arguments to ``repro.cli.main`` unchanged, the
launcher wraps the public entry points of each ``repro`` layer (see
:func:`install`) with a timer and counter.  Records stay in
memory: per entry point, the call count, total time, *self* time (total
minus the time of wrapped calls made inside it, on the same thread),
sums of a few result fields, and for request-level spans every duration.
Per-clause entry points (``decode_clause``, ``match_head``...) keep
counts and summed time only.

The window is set from outside: ``SIGUSR1`` clears the records and
starts recording, ``SIGUSR2`` stops it and writes the records to
``OUT.json`` (a crash test may SIGKILL the server afterwards); they are
written again when the server shuts down.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path

_clock = time.perf_counter


class Recorder:
    """Per-thread accumulators, merged when written out."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = {}
            self._local.stack = []
            with self._lock:
                self._threads.append(table)
        return table

    def reset(self) -> None:
        with self._lock:
            for table in self._threads:
                table.clear()
        self.active = True

    def wrap(self, name: str, func, extract=None, keep_samples=False):
        """``func`` with its calls recorded under ``name``.

        ``extract(args, kwargs, result)`` returns a dict of numbers to
        sum per call; ``keep_samples`` keeps every call's duration.
        """
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            table = recorder._table()
            stack = recorder._local.stack
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = table.get(name)
                if entry is None:
                    entry = table[name] = {
                        "calls": 0, "total_s": 0.0, "self_s": 0.0,
                        "sums": {}, "samples": [],
                    }
                entry["calls"] += 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - frame[0]
                if keep_samples:
                    entry["samples"].append(elapsed)
            if extract is not None:
                sums = entry["sums"]
                for field, value in extract(args, kwargs, result).items():
                    sums[field] = sums.get(field, 0) + value
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def merged(self) -> dict:
        out: dict[str, dict] = {}
        with self._lock:
            tables = [dict(table) for table in self._threads]
        for table in tables:
            for name, entry in table.items():
                into = out.setdefault(name, {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0,
                    "sums": {}, "samples": [],
                })
                into["calls"] += entry["calls"]
                into["total_s"] += entry["total_s"]
                into["self_s"] += entry["self_s"]
                into["samples"].extend(entry["samples"])
                for field, value in entry["sums"].items():
                    into["sums"][field] = into["sums"].get(field, 0) + value
        return out


def _patch_method(recorder, cls, attr, name, **options) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(
            recorder.wrap(name, raw.__func__, **options)
        ))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, **options))


def _patch_function(recorder, modules, attr, name, **options) -> None:
    """Wrap a module function in every module that bound it by name."""
    traced = recorder.wrap(name, getattr(modules[0], attr), **options)
    for module in modules:
        setattr(module, attr, traced)


def _fs1_fields(args, kwargs, result) -> dict:
    results = result if isinstance(result, list) else [result]
    return {
        "queries": len(results),
        "entries": sum(r.entries_scanned for r in results),
        "survivors": sum(r.candidate_count for r in results),
    }


def _fs2_fields(args, kwargs, result) -> dict:
    return {"records": result.clauses_examined, "passed": result.satisfiers}


def _bytes_arg(position):
    return lambda args, kwargs, result: {"bytes": len(args[position])}


def _read_extent_fields(args, kwargs, result) -> dict:
    return {"bytes": len(result[0])}


def _stream_fields(args, kwargs, result) -> dict:
    return {"bytes": result[1].bytes_transferred}


def _result_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def install(recorder: Recorder) -> None:
    """Wrap the layer entry points ``perfbench/README.md`` lists."""
    from repro.cluster import server as cluster_server
    from repro.crs import planner
    from repro.crs import server as crs_server
    from repro.disk import dma
    from repro.fs2 import engine as fs2_engine
    from repro.net import protocol
    from repro.pif import clausefile
    from repro.scw import fs1, index
    from repro.storage import kb, wal
    from repro.unify import match

    sharded = cluster_server.ShardedRetrievalServer
    patch = _patch_method
    # crs
    patch(recorder, crs_server.ClauseRetrievalServer, "retrieve",
          "crs.retrieve", keep_samples=True)
    _patch_function(recorder, [planner], "select_mode", "crs.plan")
    # pif
    patch(recorder, clausefile.ClauseFile, "decode_clause", "pif.decode_clause")
    _patch_function(recorder, [clausefile, crs_server], "decode_compiled",
                    "pif.decode_compiled")
    # unify
    patch(recorder, match.PartialMatcher, "match_head", "unify.match_head")
    # scw
    patch(recorder, fs1.FirstStageFilter, "search", "scw.search",
          extract=_fs1_fields)
    patch(recorder, fs1.FirstStageFilter, "search_batch", "scw.search",
          extract=_fs1_fields)
    # fs2
    patch(recorder, fs2_engine.SecondStageFilter, "search", "fs2.search",
          extract=_fs2_fields)
    # disk
    patch(recorder, dma.DiskSim, "write_extent", "disk.write_extent",
          extract=_bytes_arg(2))
    patch(recorder, dma.DiskSim, "read_extent", "disk.read_extent",
          extract=_read_extent_fields)
    patch(recorder, dma.DiskSim, "stream_records", "disk.stream_records",
          extract=_stream_fields)
    # storage
    patch(recorder, kb.KnowledgeBase, "add_clause", "storage.assert")
    patch(recorder, kb.KnowledgeBase, "retract_matching", "storage.retract")
    patch(recorder, index.SecondaryIndexFile, "build", "storage.index_build")
    patch(recorder, wal.DurableStore, "wait_durable", "storage.wal.wait")
    patch(recorder, sharded, "compact", "storage.wal.compact")
    # cluster
    patch(recorder, sharded, "retrieve", "cluster.retrieve", keep_samples=True)
    patch(recorder, sharded, "add_clause", "cluster.mutate")
    patch(recorder, sharded, "retract_matching", "cluster.mutate")
    # net (server side; the driver times the client's decode itself)
    for attr, name in (
        ("decode_retrieve_request", "net.decode_request"),
        ("decode_mutate_request", "net.decode_request"),
    ):
        _patch_function(recorder, [protocol], attr, name)
    # repro.net.server calls these through its ``protocol`` module.
    _patch_function(recorder, [protocol], "encode_result_response",
                    "net.encode_response", extract=_result_bytes)


def main(argv: list[str]) -> int:
    out_path = Path(argv[0])
    recorder = Recorder()
    install(recorder)

    def write_out() -> None:
        recorder.active = False
        tmp = out_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorder.merged()))
        tmp.replace(out_path)

    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.reset())
    signal.signal(signal.SIGUSR2, lambda signum, frame: write_out())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        write_out()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
