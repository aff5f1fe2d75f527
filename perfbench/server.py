"""Start, probe and stop the ``serve`` subprocess under test."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_SERVING = re.compile(r"\[net\] serving on ([\w.\-]+):(\d+)")

#: fixed for the server so dict/set iteration order (and with it the
#: timing of one fixed goal set) repeats from process to process.
HASH_SEED = "0"


class ServerProcess:
    """One ``python -m repro.cli serve`` (or traced launcher) process.

    ``argv`` is everything after ``serve``.  With ``trace_out`` set the
    process is started through :mod:`launcher`, which wraps the engine's
    layer entry points and writes its records to ``trace_out``.
    """

    def __init__(
        self, root: Path, workdir: Path, argv: list[str],
        trace_out: Path | None = None,
    ):
        self.log_path = workdir / f"serve-{time.monotonic_ns()}.log"
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = HASH_SEED
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *argv]
        else:
            launcher = str(Path(__file__).with_name("launcher.py"))
            cmd = [sys.executable, launcher, str(trace_out), "serve", *argv]
        self.started = time.perf_counter()
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=str(workdir),
        )
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_port(self, timeout: float = 120.0) -> int:
        """Block until the server prints its listening address."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _SERVING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"server did not start (exit {self.proc.poll()}):\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User + system CPU seconds the server has used so far."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and exit (SIGINT); SIGKILL if it does not go in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._log.close()

    def kill(self) -> None:
        """SIGKILL (a crash, as far as the server can tell) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()
