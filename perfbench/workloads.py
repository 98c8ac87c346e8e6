"""The benchmark's workloads: ``edit``, ``sweep`` and ``traffic``.

Each workload is driven closed-loop by one caller in this process: the
next op is sent only after the previous one answered.  Inputs derive only
from the workload seed and the op's position, so a seed always gives the
same inputs; the program sees only the generated designs.

A workload provides ``setup()`` (timed, repeated by the runner),
``make_input(index)`` (untimed), ``op(input)`` (timed), ``check(outcomes)``
(untimed output checks; returns one failure message or ``None`` per op),
``digest_item(outcome)`` (the op's simulated statistics),
``layer_counts(outcomes)`` (the counters the ops returned), ``rss_mb()``
(high-water RSS of every process doing the work), ``pids()`` (the other
processes doing it), ``cpu_snapshot()`` (the CPU time each of them has
used), ``started_cpu_seconds()`` (the CPU time of the processes the last
set-up started) and ``close()``.
``cycle`` is the length of its input cycle and ``fixed_ops`` the op count
after which RSS and the digest are taken.
"""

from __future__ import annotations

import io
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
from collections import Counter

import accuracy
import common

from repro import artifacts, cli
from repro.apps.mp3 import Mp3Params, build_design
from repro.client import ServeClient
from repro.estimation import schedcache
from repro.search import mp3_product_space, search
from repro.tlm import generate_tlm, save_design
from repro.workloads import TrafficSpec, capture_traffic_profile, run_traffic


def cold_store():
    """A fresh default artifact store, with the schedule cache on it."""
    artifacts.reset_default_store()
    schedcache.reset_default_cache()


def simulate_in_process(argv):
    """``(exit code, output)`` of ``python -m repro simulate ARGV``, run
    through ``cli.main`` in this process."""
    out = io.StringIO()
    return cli.main(["simulate"] + list(argv), out=out), out.getvalue()


class Workload:
    """What the workloads share; ``edit`` overrides most of it."""

    #: True when ops go through the serve daemon.
    served = False
    #: Calibrated CPU models, when the workload made them anyway.
    calibration = None

    def grid_cycles(self, paths):
        """TLM cycles of the accuracy grid, simulated in this process."""
        cycles = {}
        for key, path in paths.items():
            code, output = simulate_in_process([path])
            if code != 0:
                raise RuntimeError("grid design %s failed" % key)
            cycles[key] = parse_simulate(output)[0]
        return cycles

    def layer_counts(self, outcomes):
        return Counter()

    def rss_mb(self):
        return common.vm_hwm_mb()

    def pids(self):
        """The processes doing the work besides this one."""
        return []

    def cpu_snapshot(self):
        """``{pid: CPU seconds used so far}`` of every process doing the
        work (0 is this process)."""
        return {pid: common.cpu_seconds(pid) for pid in [0] + self.pids()}

    def started_cpu_seconds(self):
        """CPU seconds used by the processes the last set-up started."""
        return 0.0

    def close(self):
        pass


class Outcome:
    """One op: its position, input, returned value (or error), wall time,
    the CPU time of the processes doing it, and the host's speed factor
    (``common.SpeedProbe.scale``) measured right before it."""

    __slots__ = ("index", "input", "value", "error", "seconds", "cpu",
                 "scale", "served", "traced")

    def __init__(self, index, inp, value, error, seconds, cpu, scale,
                 served=False, traced=False):
        self.index = index
        self.input = inp
        self.value = value
        self.error = error
        self.seconds = seconds
        self.cpu = cpu
        self.scale = scale
        self.served = served
        self.traced = traced

    @property
    def ref_seconds(self):
        """CPU time at the reference host's speed."""
        return self.cpu * self.scale


# -- edit: interactive edit-and-estimate through the serve daemon ------------

EDIT_VARIANTS = ("SW", "SW+1", "SW+2", "SW+4")
_MAKESPAN = re.compile(r"makespan (\d+) cycles")
_DECODER = re.compile(r"^  decoder\s+on \S+\s+\d+ cycles\s+\d+ transactions"
                      r"\s+-> (-?\d+)$", re.M)


def parse_simulate(output):
    """``(makespan cycles, decoder checksum)`` from ``simulate`` output."""
    makespan = _MAKESPAN.search(output)
    checksum = _DECODER.search(output)
    return (int(makespan.group(1)) if makespan else None,
            int(checksum.group(1)) if checksum else None)


class Daemon:
    """``python -m repro serve`` with one worker on a unix socket."""

    READY_SECONDS = 60.0

    def __init__(self, socket_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [common.SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                            else []))
        env.pop("REPRO_ARTIFACTS_DIR", None)  # memory-only store
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
             "--workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            while True:
                line = self._lines.get(timeout=self.READY_SECONDS)
                if line is None:
                    raise RuntimeError("serve daemon exited during startup "
                                       "(code %r)" % self.proc.wait())
                if "workers ready" in line:
                    break
        except queue.Empty:
            self.stop()
            raise RuntimeError("serve daemon did not become ready") from None
        except BaseException:
            self.stop()
            raise

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self._reader.join(timeout=10)
        self.proc.stdout.close()


class Edit(Workload):
    """Each op simulates an MP3 design whose decoder input is new, so the
    edited process misses the frontend, annotate and codegen caches while
    the hardware processes hit them."""

    name = "edit"
    served = True
    cycle = len(EDIT_VARIANTS)
    fixed_ops = 96

    def __init__(self, seed):
        self.seed = seed
        self.dir = os.path.join(common.OUT, "edit-%d" % os.getpid())
        os.makedirs(self.dir, exist_ok=True)
        # Relative, so the unix socket path stays short in a deep checkout.
        self.socket = os.path.relpath(os.path.join(self.dir, "serve.sock"))
        self.calibration = accuracy.calibrate()
        self.daemon = None
        self.client = None
        self.workers = []

    def setup(self):
        """A fresh daemon, up to its first answer."""
        self._stop_daemon()
        self.daemon = Daemon(self.socket)
        self.client = ServeClient("unix:" + self.socket, timeout=120)
        first = self.op(self.make_input(-1))
        if first.get("exit_code") != 0:
            raise RuntimeError("first served simulate failed: %r" % first)
        self._find_workers()

    def _find_workers(self):
        self.workers = [worker["pid"] for worker in
                        self.client.stats()["pool"]["workers"]]

    def make_input(self, index):
        variant = EDIT_VARIANTS[index % len(EDIT_VARIANTS)]
        design, _ = build_design(
            variant, Mp3Params(), n_frames=1,
            seed=common.derive_seed(self.seed, "edit", index),
            memory_model=self.calibration.memory_model,
            branch_model=self.calibration.branch_model,
        )
        path = os.path.relpath(os.path.join(self.dir, "op%d.json" % index))
        save_design(design, path)
        return variant, path

    def op(self, inp):
        return self.client.call("simulate", [inp[1]])

    def op_in_process(self, inp):
        """The same request through ``cli.main`` in this process."""
        code, output = simulate_in_process([inp[1]])
        return {"ok": True, "exit_code": code, "output": output}

    def _functional(self, outcome):
        argv = ["--functional", outcome.input[1]]
        if outcome.served:
            reply = self.client.call("simulate", argv)
            code, output = reply.get("exit_code"), reply.get("output")
        else:
            code, output = simulate_in_process(argv)
        return parse_simulate(output)[1] if code == 0 else None

    def check(self, outcomes):
        failures = []
        for outcome in outcomes:
            failures.append(self._check_one(outcome))
            os.unlink(outcome.input[1])
        return failures

    def _check_one(self, outcome):
        if outcome.error is not None:
            return outcome.error
        reply = outcome.value
        if not reply.get("ok") or reply.get("exit_code") != 0:
            return "error reply: %r" % (reply.get("error")
                                        or reply.get("exit_code"))
        makespan, checksum = parse_simulate(reply["output"])
        if makespan is None or checksum is None:
            return "no makespan or decoder checksum in the output"
        expected = self._functional(outcome)
        if checksum != expected:
            return "decoder checksum %r, functional TLM %r" % (
                checksum, expected)
        return None

    def digest_item(self, outcome):
        return [outcome.input[0]] + list(parse_simulate(
            outcome.value["output"]))

    def pids(self):
        return [self.daemon.proc.pid] + self.workers

    def cpu_snapshot(self):
        try:
            return super().cpu_snapshot()
        except ProcessLookupError:
            # The daemon replaced a worker; read the one it runs now.
            self._find_workers()
            return super().cpu_snapshot()

    def started_cpu_seconds(self):
        return sum(common.cpu_seconds(pid) for pid in self.pids())

    def rss_mb(self):
        self._find_workers()
        return sum(common.vm_hwm_mb(pid) for pid in self.pids())

    def grid_cycles(self, paths):
        """TLM cycles of the accuracy grid through the served path."""
        cycles = {}
        for key, path in paths.items():
            reply = self.client.call("simulate", [path])
            if reply.get("exit_code") != 0:
                raise RuntimeError("grid design %s failed: %r" % (key, reply))
            cycles[key] = parse_simulate(reply["output"])[0]
        return cycles

    def serve_stats(self):
        return self.client.stats()

    def _stop_daemon(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def close(self):
        self._stop_daemon()
        shutil.rmtree(self.dir, ignore_errors=True)


# -- sweep: staged design-space search ---------------------------------------

#: The reduced MP3 decoder of the 10,000-point search-scaling space.
SMALL = Mp3Params(n_subbands=4, n_slots=4, n_phases=4, n_alias=2)


def sweep_space(app_seed):
    """8 cache configs x 5 bus widths x 5 arbitrations x 50 clocks."""
    return mp3_product_space(
        SMALL, variants=("SW+2",), n_frames=1, seed=app_seed,
        icache_sizes=(2048, 4096, 8192, 16384), dcache_sizes=(2048, 4096),
        bus_widths=(1, 2, 4, 8, 16), bus_arbitrations=(1, 2, 4, 8, 16),
        cpu_mhz=tuple(50.0 + 3.0 * step for step in range(50)),
    )


_STAGE_KEYS = {"approx-rung": "approx"}


class Sweep(Workload):
    """Each op is one staged search for a freshly seeded application."""

    name = "sweep"
    cycle = 1
    fixed_ops = 32

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        """A cold artifact store, up to the first search's answer."""
        cold_store()
        self.op(self.make_input(-1))

    def make_input(self, index):
        return common.derive_seed(self.seed, "sweep", index)

    def op(self, app_seed):
        space = sweep_space(app_seed)
        result = search(space, keep_top=16, rung_fraction=0.02)
        best = result.best()
        return {
            "best_index": best.index,
            "best": best.point.name,
            "makespan": best.makespan_cycles,
            "failures": ["%s: %s" % (failure.point.name, failure.error)
                         for failure in result.failures],
            "failed_points": sum(stage.counters.get("failed", 0)
                                 for stage in result.report.stages),
            "space_points": result.report.space_points,
            "simulated": result.report.simulated_points,
            "stages": {stage.name: {"seconds": stage.seconds,
                                    "counters": stage.counters}
                       for stage in result.report.stages},
        }

    def check(self, outcomes):
        failures = []
        for outcome in outcomes:
            if outcome.error is not None:
                failures.append(outcome.error)
                continue
            value = outcome.value
            if value["failures"] or value["failed_points"]:
                failures.append("%d points failed in the search; exact tier: "
                                "%s" % (value["failed_points"],
                                        "; ".join(value["failures"])))
                continue
            space = sweep_space(outcome.input)
            design = space.build(space.meta(value["best_index"]))
            direct = generate_tlm(design, timed=True).run().makespan_cycles
            failures.append(
                None if direct == value["makespan"] else
                "optimum %s: search %d cycles, timed TLM %d" % (
                    value["best"], value["makespan"], direct))
        return failures

    def digest_item(self, outcome):
        return [outcome.value["best"], outcome.value["makespan"]]

    def layer_counts(self, outcomes):
        """Stage times and tier counters from each op's ``SearchReport``."""
        counts = Counter()
        for outcome in outcomes:
            if outcome.error is not None:
                continue
            value = outcome.value
            counts["search.space_points"] += value["space_points"]
            counts["search.simulated"] += value["simulated"]
            for name, stage in value["stages"].items():
                counts["search.%s_s" % _STAGE_KEYS.get(name, name)] += \
                    stage["seconds"]
                replay = stage["counters"]
                if "replayed_exact" in replay:
                    counts["simtrace.points"] += replay["points"]
                    counts["simtrace.replayed"] += (
                        replay["replayed_exact"] + replay["replayed_approx"])
                    counts["simtrace.fallbacks"] += replay["fallbacks"]
        return counts



# -- traffic: capacity load points -------------------------------------------

TRAFFIC_VARIANTS = ("SW+2", "SW+4")
TRAFFIC_POINTS = tuple((variant, arrivals, n)
                       for variant in TRAFFIC_VARIANTS
                       for arrivals in ("poisson", "bursty")
                       for n in (64, 256))
#: The application is fixed; the seed varies only the arrival processes,
#: so every run averages over hundreds of arrival draws of one profile.
TRAFFIC_APP_SEED = 3
#: Mean gap between arrivals (poisson) or bursts (bursty), in cycles.
TRAFFIC_GAP = 2000.0
#: Replayed ops re-run on the kernel to check bit-identity, per run.
TRAFFIC_VALIDATE = 6


class Traffic(Workload):
    """Each op is one N-instance load point on a fifo-arbitrated bus."""

    name = "traffic"
    cycle = len(TRAFFIC_POINTS)
    fixed_ops = 128

    def __init__(self, seed):
        self.seed = seed
        self.designs = {}
        self.profiles = {}

    def setup(self):
        """A cold store and one captured instance profile per variant."""
        cold_store()
        for variant in TRAFFIC_VARIANTS:
            design, _ = build_design(variant, Mp3Params(), n_frames=1,
                                     seed=TRAFFIC_APP_SEED)
            for bus in design.buses.values():
                bus.policy = "fifo"
            self.designs[variant] = design
            self.profiles[variant] = capture_traffic_profile(
                design, record_grants=True)

    def make_input(self, index):
        variant, arrivals, n = TRAFFIC_POINTS[index % len(TRAFFIC_POINTS)]
        return variant, TrafficSpec(
            n, arrivals=arrivals, mean_gap_cycles=TRAFFIC_GAP, burst_size=8,
            seed=common.derive_seed(self.seed, "traffic", index))

    def op(self, inp):
        variant, spec = inp
        return run_traffic(self.designs[variant], spec,
                           profile=self.profiles[variant], replay="auto")

    def check(self, outcomes):
        failures = []
        validated = 0
        for outcome in outcomes:
            if outcome.error is not None:
                failures.append(outcome.error)
                continue
            variant, spec = outcome.input
            result = outcome.value
            if (result.n_instances != spec.n_instances
                    or result.makespan_cycles <= 0
                    or min(result.latencies_cycles) <= 0):
                failures.append("malformed result %r" % (result,))
                continue
            failure = None
            if result.replayed and validated < TRAFFIC_VALIDATE:
                validated += 1
                kernel = run_traffic(self.designs[variant], spec,
                                     profile=self.profiles[variant],
                                     replay="off")
                if _traffic_key(kernel) != _traffic_key(result):
                    failure = "replayed %r differs from the kernel" % (spec,)
            failures.append(failure)
        return failures

    def digest_item(self, outcome):
        variant, spec = outcome.input
        result = outcome.value
        return [variant, spec.arrivals, spec.n_instances,
                result.makespan_cycles,
                [result.latency_percentile(q) for q in (50, 90, 99)],
                {bus: stats["stall_cycles"]
                 for bus, stats in sorted(result.bus_stats.items())}]

    def layer_counts(self, outcomes):
        """Replay-tier and bus counters from each op's ``TrafficResult``."""
        counts = Counter()
        for outcome in outcomes:
            if outcome.error is not None:
                continue
            result = outcome.value
            stats = result.replay_stats
            counts["traffic.points"] += stats["points"]
            counts["traffic.replayed"] += stats["replayed"]
            for reason in stats.get("flag_reasons", ()):
                if reason.startswith("simultaneous requests"):
                    counts["traffic.flagged_f1"] += 1
                elif "release boundary" in reason:
                    counts["traffic.flagged_f2"] += 1
            for bus in result.bus_stats.values():
                counts["contention.stall_cycles"] += bus["stall_cycles"]
                counts["contention.grants"] += bus["grants"]
                counts["contention.queued"] += bus["queued_grants"]
        return counts



def _traffic_key(result):
    return (result.makespan_cycles, result.end_time_ns,
            list(result.latencies_cycles),
            sorted((bus, sorted(stats.items()))
                   for bus, stats in result.bus_stats.items()))


WORKLOADS = {"edit": Edit, "sweep": Sweep, "traffic": Traffic}
