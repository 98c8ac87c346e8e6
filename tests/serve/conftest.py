"""Shared harness for the serve tests: a real daemon subprocess.

The unit tests drive :class:`~repro.serve.daemon.ServeDaemon` in-process;
the integration and chaos tests want the real thing — ``python -m repro
serve`` as a subprocess, its own interpreter, real forked workers, real
signals.  ``serve_daemon`` hands tests a started daemon and SIGKILLs it at
teardown; its workers see EOF on their pipes and exit with it.
"""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

SOURCE = """
int twice(int x) { return x * 2; }
int main(void) {
  int s = 0;
  for (int i = 0; i < 100; i++) s += twice(i);
  return s;
}
"""

SLOW_SOURCE = """
int main(void) {
  int s = 0;
  for (int i = 0; i < 1000000; i++) s += i;
  return s;
}
"""


def mask_walltimes(text):
    """Normalise the wall-clock figures some subcommands print.

    ``estimate``/``simulate``/``explore`` report elapsed seconds, so even
    two *one-shot* runs differ in those bytes.  Comparisons of served vs
    one-shot output mask them; everything else must match byte-for-byte
    (and kinds with fully deterministic output — ``run``, ``pum``,
    ``disasm`` — are compared unmasked).
    """
    return re.sub(r"\b\d+\.\d+ s\b", "<t> s", text)


class DaemonHandle:
    """One running ``repro serve`` subprocess plus its addresses."""

    def __init__(self, proc, socket_path=None, http_port=None):
        self.proc = proc
        self.socket_path = socket_path
        self.http_port = http_port

    def terminate(self, timeout=30):
        """SIGTERM → graceful drain; returns (exit_code, remaining output)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=10)
        return code, self.proc.stdout.read()


def start_daemon(tmp_path, *extra, socket=True, http=False, env=None,
                 timeout=60):
    """Launch ``python -m repro serve`` and wait for its readiness lines."""
    argv = [sys.executable, "-m", "repro", "serve"]
    socket_path = None
    if socket:
        socket_path = str(tmp_path / "repro.sock")
        argv += ["--socket", socket_path]
    if http:
        argv += ["--http", "0"]
    argv += list(extra)
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = REPO_SRC
    full_env.update(env or {})
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=full_env,
    )
    http_port = None
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                "serve daemon exited during startup (code %r)"
                % proc.poll()
            )
        if "listening on http://" in line:
            http_port = int(line.rstrip().rsplit(":", 1)[1])
        if "workers ready" in line:
            return DaemonHandle(proc, socket_path, http_port)
    proc.kill()
    raise RuntimeError("serve daemon did not become ready in %ds" % timeout)


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "app.cmini"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture()
def serve_daemon(tmp_path):
    handles = []

    def _start(*extra, **kwargs):
        handle = start_daemon(tmp_path, *extra, **kwargs)
        handles.append(handle)
        return handle

    yield _start
    for handle in handles:
        if handle.proc.poll() is None:
            handle.proc.kill()
            handle.proc.wait(timeout=10)
        handle.proc.stdout.close()
