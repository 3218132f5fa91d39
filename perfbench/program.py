"""Start, time, measure and stop the program under test.

The program is always one process: ``repro-rankagg serve-http`` (thread
mode, the CLI's default) or the benchmark's batch child.  In a traced run
the same command line is started through ``perfbench/launcher.py``, which
wraps the layers' entry points and writes the recorded spans out when the
program drains.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench.client import now
from perfbench.inputs import MEMORY_ENTRIES, SERVE_BUDGET_SECONDS
from perfbench.speed import on_core

SERVER_SEED = 2015
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


def program_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("REPRO_FAULTS", None)
    return env


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Program:
    """One running program process with its log and optional trace file."""

    def __init__(self, root: Path, workdir: Path, argv: list[str], *, trace_out: Path | None,
                 core: int):
        self.workdir = workdir
        self.trace_out = trace_out
        workdir.mkdir(parents=True, exist_ok=True)
        if trace_out is None:
            command = [sys.executable] + argv
        else:
            command = [sys.executable, str(root / "perfbench" / "launcher.py"),
                       "--trace-out", str(trace_out), "--"] + argv
        self.log = open(workdir / "program.log", "wb")
        self.launched = now()
        with on_core(core):
            self.process = subprocess.Popen(
                command, cwd=root, env=program_env(root), stdout=self.log,
                stderr=subprocess.STDOUT, stdin=subprocess.PIPE,
            )

    @property
    def pid(self) -> int:
        return self.process.pid

    def check_alive(self) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"program exited with code {self.process.returncode}; log:\n"
                + (self.workdir / "program.log").read_text(errors="replace")[-4000:]
            )

    def rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdin is not None:
            self.process.stdin.close()
        self.log.close()


class Server(Program):
    """``serve-http`` on an ephemeral TCP port, thread mode, 2 shards."""

    def __init__(self, root: Path, workdir: Path, *, core: int,
                 trace_out: Path | None = None, journal: bool = False):
        self.port_file = workdir / "port"
        argv = [
            "-m", "repro.cli", "serve-http", "--port", "0",
            "--port-file", str(self.port_file), "--cache-dir", str(workdir / "cache"),
            "--memory-entries", str(MEMORY_ENTRIES), "--budget", str(SERVE_BUDGET_SECONDS),
            "--seed", str(SERVER_SEED),
        ]
        if journal:
            argv += ["--journal-dir", str(workdir / "journal"), "--journal-fsync", "batch"]
        super().__init__(root, workdir, argv, trace_out=trace_out, core=core)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = self.launched + READY_TIMEOUT
        while now() < deadline:
            self.check_alive()
            try:
                text = self.port_file.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise RuntimeError("server did not become ready in time")


class BatchChild(Program):
    """The benchmark-owned batch process (``perfbench/batch_child.py``)."""

    def __init__(self, root: Path, workdir: Path, *, core: int,
                 trace_out: Path | None = None):
        argv = [str(root / "perfbench" / "batch_child.py"), str(workdir)]
        super().__init__(root, workdir, argv, trace_out=trace_out, core=core)
        self._wait_file(workdir / "ready")

    def _wait_file(self, path: Path) -> None:
        deadline = now() + READY_TIMEOUT
        while not path.exists():
            self.check_alive()
            if now() > deadline:
                raise RuntimeError(f"batch child did not write {path.name}")
            time.sleep(0.002)

    def command(self, line: str) -> None:
        self.process.stdin.write((line + "\n").encode())
        self.process.stdin.flush()

    def run(self, timeout: float) -> None:
        """Start the job and wait until the child reports it finished."""
        self.command("run")
        deadline = now() + timeout
        done = self.workdir / "done"
        while not done.exists():
            self.check_alive()
            if now() > deadline:
                raise RuntimeError("batch child did not finish in time")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.command("exit")
            except (BrokenPipeError, OSError):
                pass
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.log.close()
