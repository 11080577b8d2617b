"""The hindsight-logging workflow the benchmark times, one workload at a time.

Every workload runs the paper's own workflow: a vanilla run, record, a
cold hindsight query, the identical query again from the memo, and
daemon requests through ``python -m repro.serve``.  The program is driven
only through ``repro.record_source``, ``repro.query``, ``repro.explain``,
``repro.connect`` and the ``repro.serve`` command line, with ``FlorConfig``
defaults except ``home``, worker counts and ``adaptive_checkpointing``.

Every answer is checked against a vanilla execution of the probed script
once timing is over; see :meth:`Bench.verify`.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import os
import random
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import repro
import repro.api

from ledger import SPAN_DIR_ENV, Ledger, layer_metrics
from scripts import (PROBE_NAME, Script, finetune_restore, pretrain_dense,
                     short_run)

HERE = Path(__file__).resolve().parent

#: The paper's record-overhead tolerance ε (1/15, 6.67%).
PAPER_EPSILON = 1.0 / 15.0
#: Replay workers of in-library queries and of the daemon.
WORKERS = 2
#: The daemon's own drain budget, and how long the benchmark waits for a
#: SIGTERM'd daemon to exit before it kills the process group.
DRAIN_SECONDS = 5.0
DRAIN_DEADLINE = 15.0
#: Seconds a daemon may take to print its ``listening`` banner.
BANNER_TIMEOUT = 60.0
#: The fewest record/query cycles a sequential run makes.
MIN_CYCLES = 3
#: Request mixes of the closed-loop tenant, one request kind per slot.  On
#: the sequential workloads one request in five asks for every served run
#: at once, so the 90th percentile falls inside that slower mode instead of
#: on the edge of the single-run requests' tail.
SEQUENTIAL_MIX = ("memo_all", "memo", "memo", "explain", "explain")
SERVING_MIX = ("cold", "memo", "memo", "explain", "explain")
#: The serving workload's tenant keeps going past ``--seconds`` until it has
#: made this many requests.
MIN_SERVICE_REQUESTS = 100
#: Tenant requests per interlude of the sequential workloads, six shuffled
#: copies of the mix.  A cycle has an interlude inside and after each
#: vanilla/record pair and after its cold query, so the millisecond-scale
#: requests sample the whole run rather than a few bursts.
INTERLUDE_REQUESTS = 30
#: Tenant requests between two memo re-queries.
MEMO_STRIDE = 3
#: Hindsight queries of the dense workload cover only the last epochs.
DENSE_QUERY_EPOCHS = 4
#: Small runs pre-recorded for the serving workload.
FLEET_SIZE = 4

E2E_UNITS = {
    "setup_s": "s", "record_s": "s", "record_vs_vanilla": "ratio",
    "stored_bytes_per_state_byte": "ratio", "query_cold_s": "s",
    "query_memo_s": "s", "service_p50_s": "s", "peak_rss_mb": "MB",
    "peak_rss_children_mb": "MB",
}
#: Computed with the end-to-end metrics but reported, not bounded: with one
#: closed-loop tenant the rate is 1 / mean latency, and the 90th percentile
#: falls in the wide all-runs mode; both spread past the largest bound
#: between runs on a shared host.
E2E_REPORTED = {"service_p90_s": "s", "service_rps": "1/s"}


# ---------------------------------------------------------------------- #
# Small helpers
# ---------------------------------------------------------------------- #
def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path`` (0 if it does not exist)."""
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(folder, name)).st_size
            except OSError:
                pass  # an in-flight temp file renamed under us
    return total


def reset_peak_rss() -> None:
    """Start a new peak-RSS window for this process (Linux ``clear_refs``)."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")


def peak_rss_mb() -> float:
    """This process's peak RSS since :func:`reset_peak_rss`, in MiB."""
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_files(path: Path) -> int:
    return sum(len(files) for _folder, _dirs, files in os.walk(path))


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(share * len(ordered))) - 1))
    return ordered[index]


def sources_of(stats) -> dict[str, int]:
    """Per-source cell counts of an executed query, as explain reports them."""
    return {"logged": stats.resolved_logged, "memo": stats.resolved_memo,
            "analysis": stats.analysis_resolved,
            "replay": stats.resolved_replay, "missing": stats.missing_cells}


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants, so a killed daemon's workers can be reaped."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # not Linux: orphans go to init instead
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


@dataclass
class Tally:
    """Attempted and failed operations, shared by the benchmark's threads.

    An operation fails at most once however many of its checks fail; every
    failed check is still named in ``failures``.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    #: Failures that leave an answer wrong or missing.
    wrong: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @contextlib.contextmanager
    def op(self, label: str):
        """Count one operation; yields its id for :meth:`fail`."""
        with self._lock:
            self.attempted += 1
            op_id = self.attempted
        try:
            yield op_id
        except Exception as error:  # noqa: BLE001 - counted and reported
            self.fail(op_id, f"{label}: {type(error).__name__}: "
                      f"{str(error).splitlines()[0] if str(error) else ''}",
                      wrong=not isinstance(error, repro.ServiceBusy))

    def fail(self, op_id: int, what: str, wrong: bool = True) -> None:
        with self._lock:
            self.failures.append(what)
            self.failed_ops.add(op_id)
            if wrong:
                self.wrong += 1


class Daemon:
    """One ``python -m repro.serve`` process in its own process group."""

    def __init__(self, root: Path, home: Path, log_path: Path,
                 span_dir: Path | None = None):
        self.root, self.home, self.log_path = root, home, log_path
        self.span_dir = span_dir
        self.proc: subprocess.Popen | None = None
        self.address = ""

    def start(self) -> "Daemon":
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        if self.span_dir is not None:
            # The traced launcher installs the ledger, then runs the CLI.
            env[SPAN_DIR_ENV] = str(self.span_dir)
            argv = [sys.executable, str(HERE / "serve_traced.py")]
        else:
            argv = [sys.executable, "-m", "repro.serve"]
        argv += ["--home", str(self.home), "--port", "0",
                 "--workers", str(WORKERS),
                 "--drain-seconds", str(DRAIN_SECONDS)]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True, start_new_session=True)
        line = self._banner()
        if not line.startswith("listening "):
            self.kill()
            raise RuntimeError(f"daemon printed no banner (got {line!r}); "
                               f"see {self.log_path}")
        self.address = line.split(None, 1)[1].strip()
        return self

    def _banner(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(BANNER_TIMEOUT):
                return ""
        return self.proc.stdout.readline()

    def stop(self) -> bool:
        """SIGTERM, wait for the drain; True only on a clean, timely exit."""
        os.kill(self.proc.pid, signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=DRAIN_DEADLINE)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        self._reap_group()
        return self.proc.returncode == 0 and "drained=clean" in out

    def kill(self) -> None:
        """SIGKILL the whole group and reap every process of it."""
        with contextlib.suppress(ProcessLookupError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.communicate()
        self._reap_group()

    def _reap_group(self) -> None:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                while os.waitpid(-self.proc.pid, os.WNOHANG)[0] > 0:
                    pass
            time.sleep(0.05)


@dataclass
class Served:
    """What the daemon of one workload serves."""

    home: Path
    config: repro.FlorConfig
    scripts: list[Script]
    run_ids: list[str]
    #: The served query's ``iterations`` argument and the iterations it
    #: should answer.
    iterations: object = None
    wanted: list[int] = field(default_factory=list)
    daemon: Daemon | None = None
    #: Per-source cell counts of each run's served query, by run id.
    expected: dict[str, dict[str, int]] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# The benchmark
# ---------------------------------------------------------------------- #
class Bench:
    """One workload's measurements, failures and pending answer checks."""

    def __init__(self, root: Path, work: Path, seed: int,
                 import_seconds: float, ledger: Ledger | None = None):
        self.root, self.work, self.seed = root, work, seed
        self.import_seconds = import_seconds
        self.ledger = ledger
        self.tally = Tally()
        self.samples: dict[str, list[float]] = {}
        self.checks: list[tuple[int, str, str, dict, dict]] = []
        self.query_stats: list = []
        self.first_batch: list[float] = []
        self.disk_bytes = 0
        self.new_objects = 0
        self.window_start = 0.0
        #: Last probe constant handed out; every cold probe gets a new one.
        self.probe_factor = 1
        self.config_used: repro.FlorConfig | None = None
        self._lock = threading.Lock()
        self._daemons = 0
        #: Per-thread list collecting probe values while verifying.
        self._capture = threading.local()

    # -- bookkeeping ------------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def phase(self, name: str, **attrs):
        if self.ledger is None:
            return contextlib.nullcontext(attrs)
        return self.ledger.span(f"phase.{name}", **attrs)

    def config(self, home: Path, adaptive: bool) -> repro.FlorConfig:
        config = repro.FlorConfig(home=home, adaptive_checkpointing=adaptive,
                                  query_workers=WORKERS)
        self.config_used = config
        return config

    def expect(self, op_id: int, label: str, probe: str, answers: dict,
               wanted: dict[str, list[int]]) -> None:
        """Queue a check of ``answers`` against the probe's vanilla values."""
        with self._lock:
            self.checks.append((op_id, label, probe, answers, wanted))

    # -- operations ---------------------------------------------------------
    def vanilla(self, source: str) -> float:
        """Exec the source the way record does, with no session open."""
        start = time.monotonic()
        code = compile(source, "script.py", "exec")
        exec(code, {"__name__": "__main__", "__file__": "script.py"})  # noqa: S102
        return time.monotonic() - start

    def record_pair(self, script: Script, config: repro.FlorConfig,
                    vanilla_first: bool,
                    between: Callable[[], None] = lambda: None
                    ) -> tuple[str, int] | None:
        """One interleaved vanilla/record pair; ``between`` runs between
        its halves.

        Returns the new run id and the bytes the record added on disk: the
        run's directory plus what it added to the home's shared objects.
        """
        vanilla_s = 0.0
        if vanilla_first:
            vanilla_s = self.vanilla(script.source)
            between()
        objects = Path(config.home) / "objects"
        bytes_before, files_before = dir_bytes(objects), dir_files(objects)
        run_id = None
        with self.tally.op(f"record {script.name}"):
            with self.phase("record") as attrs:
                reset_peak_rss()
                start = time.monotonic()
                result = repro.record_source(script.source, name=script.name,
                                             config=config)
                record_s = time.monotonic() - start
                peak_mb = peak_rss_mb()
            run_id = result.run_id
        if run_id is None:
            return None
        if not vanilla_first:
            between()
            vanilla_s = self.vanilla(script.source)
        attrs["vanilla_s"] = vanilla_s
        added = (dir_bytes(result.run_dir) + dir_bytes(objects)
                 - bytes_before)
        with self._lock:
            self.disk_bytes += added
            self.new_objects += dir_files(objects) - files_before
        self.sample("record_s", record_s)
        self.sample("peak_rss_mb", peak_mb)
        self.sample("vanilla_s", vanilla_s)
        self.sample("record_vs_vanilla", record_s / vanilla_s)
        return run_id, added

    def library_query(self, config: repro.FlorConfig, runs: list[str],
                      iterations, probe: str, wanted: list[int],
                      phase: str, cold: bool):
        """``repro.query`` once; returns ``(stats, wall seconds)`` or None.

        A cold query is checked against ``repro.explain``'s plan; a memo
        re-query must schedule no replay job.
        """
        with self.tally.op(phase) as op_id:
            report = None
            if cold:
                report = repro.explain(values=PROBE_NAME, runs=runs,
                                       iterations=iterations, source=probe,
                                       config=config)
            with self.phase(phase):
                start = time.monotonic()
                result = repro.query(values=PROBE_NAME, runs=runs,
                                     iterations=iterations, source=probe,
                                     config=config)
                wall = time.monotonic() - start
            stats = result.stats
            if self.window_start:
                self.query_stats.append(stats)
            if report is not None and report.sources() != sources_of(stats):
                self.tally.fail(op_id, f"{phase}: explain planned "
                                f"{report.sources()} but the query resolved "
                                f"{sources_of(stats)}")
            if not cold and stats.replay_job_count != 0:
                self.tally.fail(op_id, f"{phase}: memo re-query scheduled "
                                f"{stats.replay_job_count} replay job(s)")
            self.expect(op_id, phase, probe, result.pivot(PROBE_NAME),
                        {run_id: wanted for run_id in runs})
            return stats, wall
        return None

    def service_request(self, client, kind: str, served: Served,
                        runs: list[str], iterations, probe: str,
                        wanted: list[int], phase: str) -> float | None:
        """One daemon request (``query`` or ``explain``); returns its latency."""
        with self.tally.op(f"service {kind}") as op_id:
            first: list[float] = []
            with self.phase(phase):
                start = time.monotonic()
                if kind == "explain":
                    report = client.explain(PROBE_NAME, runs=runs,
                                            iterations=iterations,
                                            source=probe)
                else:
                    result = client.query(
                        PROBE_NAME, runs=runs, iterations=iterations,
                        source=probe,
                        on_batch=lambda _rows: first or first.append(
                            time.monotonic()))
                latency = time.monotonic() - start
            if kind == "explain":
                expected = served.expected[runs[0]]
                if report.sources() != expected:
                    self.tally.fail(op_id, f"service explain planned "
                                    f"{report.sources()}, the executed "
                                    f"query resolved {expected}")
            else:
                if self.window_start:
                    self.query_stats.append(result.stats)
                if first:
                    self.first_batch.append(first[0] - start)
                if kind != "cold" and result.stats.replay_job_count != 0:
                    self.tally.fail(op_id, "service memo query scheduled "
                                    f"{result.stats.replay_job_count} "
                                    "replay job(s)")
                self.expect(op_id, f"service {kind}", probe,
                            result.pivot(PROBE_NAME),
                            {run_id: wanted for run_id in runs})
            return latency
        return None

    # -- set-up and the daemon ------------------------------------------------
    def start_daemon(self, home: Path) -> Daemon:
        self._daemons += 1
        span_dir = self.ledger.span_dir if self.ledger is not None else None
        return Daemon(self.root, home,
                      self.work / f"daemon-{self._daemons}.log",
                      span_dir).start()

    def stop_daemon(self, daemon: Daemon) -> None:
        with self.tally.op("daemon drain") as op_id:
            if not daemon.stop():
                self.tally.fail(op_id, "daemon drain: no clean exit within "
                                f"{DRAIN_DEADLINE:.0f}s of SIGTERM; process "
                                "group killed", wrong=False)

    def setup(self, prepare: Callable[[Path], Served], reps: int) -> Served:
        """Set up ``reps`` times (timing each) and keep the last one."""
        for rep in range(reps):
            start = time.monotonic()
            home = Path(tempfile.mkdtemp(prefix="home-", dir=self.work))
            served = prepare(home)
            served.daemon = self.start_daemon(home)
            self.warm_daemon(served)
            self.sample("setup_s",
                        time.monotonic() - start + self.import_seconds)
            if rep < reps - 1:
                self.stop_daemon(served.daemon)
                shutil.rmtree(home, ignore_errors=True)
        return served

    def warm_daemon(self, served: Served) -> None:
        """Send the daemon its first requests, whose lazy set-up is untimed."""
        client = repro.connect(served.daemon.address, client_id="warm-up")
        for kind in ("memo", "explain"):
            self.service_request(client, kind, served, served.run_ids[:1],
                                 served.iterations, served.scripts[0].probed(),
                                 served.wanted, "warmup")

    def prepare_served(self, home: Path, scripts: list[Script],
                       adaptive: bool, iterations, wanted: list[int],
                       shared_source: bool) -> Served:
        """Record the runs the daemon will serve and warm their memo.

        With ``shared_source`` every run has the same script, so one query
        over all of them warms every run; otherwise each run is warmed
        with its own probe.  Each run's memo re-query gives the per-source
        counts its explain must report.
        """
        config = self.config(home, adaptive)
        run_ids = [repro.record_source(script.source, name=script.name,
                                       config=config).run_id
                   for script in scripts]
        served = Served(home, config, scripts, run_ids, iterations, wanted)
        if shared_source:
            self.library_query(config, run_ids, iterations,
                               scripts[0].probed(), wanted, "warmup",
                               cold=True)
        for run_id, script in zip(run_ids, scripts):
            probe = script.probed()
            if not shared_source:
                self.library_query(config, [run_id], iterations, probe,
                                   wanted, "warmup", cold=True)
            warm = self.library_query(config, [run_id], iterations, probe,
                                      wanted, "warmup", cold=False)
            if warm is None:
                raise RuntimeError("set-up could not warm the served query; "
                                   + "; ".join(self.tally.failures))
            served.expected[run_id] = sources_of(warm[0])
        return served

    # -- verification -------------------------------------------------------
    def verify(self) -> None:
        """Compare every answer with a vanilla run of its probe script."""
        probes = sorted({check[2] for check in self.checks})
        with ThreadPoolExecutor(max_workers=8) as pool:
            truths = dict(zip(probes, pool.map(self._truth_values, probes)))
        for op_id, label, probe, answers, wanted in self.checks:
            truth = truths[probe]
            for run_id, iterations in wanted.items():
                got = answers.get(run_id, {})
                expected = {index: truth[index] for index in iterations}
                if got != expected:
                    bad = sorted(index for index in set(got) | set(expected)
                                 if got.get(index) != expected.get(index))
                    self.tally.fail(op_id, f"{label}: wrong or missing "
                                    f"values at iterations {bad[:5]} of "
                                    f"{run_id}")

    def _truth_values(self, probe: str) -> list:
        self._capture.values = values = []
        try:
            exec(compile(probe, "script.py", "exec"),  # noqa: S102
                 {"__name__": "__main__", "__file__": "script.py"})
        finally:
            self._capture.values = None
        return values

    def _capturing_log(self, name, value):
        values = getattr(self._capture, "values", None)
        if values is not None and name == PROBE_NAME:
            values.append(value)
        return value

    @contextlib.contextmanager
    def capturing(self):
        """Route ``flor.log`` to the per-thread capture while verifying."""
        original = repro.api.log
        repro.api.log = self._capturing_log
        try:
            yield
        finally:
            repro.api.log = original


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Sequential:
    """A workload of back-to-back record/query cycles on fresh homes."""

    scripts: Callable[[int], list[Script]]
    served: Callable[[int], list[Script]]
    last_epochs: int | None

    def iterations(self, epochs: int):
        if self.last_epochs is None:
            return None, list(range(epochs))
        return (slice(epochs - self.last_epochs, None),
                list(range(epochs - self.last_epochs, epochs)))


WORKLOADS = {
    "pretrain-dense": Sequential(
        pretrain_dense,
        lambda seed: pretrain_dense(seed, epochs=DENSE_QUERY_EPOCHS, runs=3),
        last_epochs=DENSE_QUERY_EPOCHS),
    "finetune-restore": Sequential(
        finetune_restore,
        lambda seed: finetune_restore(seed, epochs=4), last_epochs=None),
}


@dataclass(frozen=True)
class Queried:
    """A cycle's runs and its query, asked again from the memo."""

    home: Path
    config: repro.FlorConfig
    run_ids: list[str]
    iterations: object
    probe: str
    wanted: list[int]

    def requery(self, bench: Bench) -> None:
        memo = bench.library_query(self.config, self.run_ids, self.iterations,
                                   self.probe, self.wanted, "query_memo",
                                   cold=False)
        if memo is not None:
            bench.sample("query_memo_s", memo[1])


def run_sequential(bench: Bench, workload: Sequential, seconds: float,
                   cycles: int | None, setup_reps: int) -> None:
    """Cycle record → cold query → memo re-queries, with tenant interludes.

    Each cycle's memo re-queries run during the next cycle's interludes
    (the last cycle's in as many extra ones), so like the daemon requests
    they sample the whole run rather than one burst per cycle.
    """
    served_scripts = workload.served(bench.seed)
    iterations, wanted = workload.iterations(served_scripts[0].epochs)
    served = bench.setup(lambda home: bench.prepare_served(
        home, served_scripts, adaptive=False, iterations=iterations,
        wanted=wanted, shared_source=True),
        setup_reps)
    rng = random.Random(bench.seed)
    previous: Queried | None = None
    try:
        bench.window_start = time.monotonic()
        deadline = bench.window_start + seconds
        done = 0
        while (done < cycles if cycles is not None
               else done < MIN_CYCLES or time.monotonic() < deadline):
            previous = record_cycle(bench, workload, done, served, rng,
                                    previous)
            done += 1
        if previous is not None:
            # As many interludes as a cycle has, for the last re-queries.
            for _ in range(2 * len(workload.scripts(bench.seed)) + 1):
                interlude(bench, served, rng, previous)
            shutil.rmtree(previous.home, ignore_errors=True)
    finally:
        bench.stop_daemon(served.daemon)


def interlude(bench: Bench, served: Served, rng: random.Random,
              memo: Queried | None) -> None:
    """The tenant's requests, a memo re-query of ``memo`` after every
    ``MEMO_STRIDE``-th."""
    def between(sent: int) -> None:
        if memo is not None and sent % MEMO_STRIDE == 0:
            memo.requery(bench)

    tenant_loop(bench, served, SEQUENTIAL_MIX, rng,
                lambda sent: sent < INTERLUDE_REQUESTS, by_kind=False,
                between=between)


def record_cycle(bench: Bench, workload: Sequential, cycle: int,
                 served: Served, rng: random.Random,
                 previous: Queried | None) -> Queried | None:
    """Vanilla/record pairs into a fresh home, then a cold query.

    Inside and after each pair and after the cold query, the tenant makes
    daemon requests, with the previous cycle's memo re-queries among them.
    Returns this cycle's query for the next cycle to re-ask,
    or None when a record failed.
    """
    home = Path(tempfile.mkdtemp(prefix="cycle-", dir=bench.work))
    queried = None
    try:
        config = bench.config(home, adaptive=False)
        scripts = workload.scripts(bench.seed)
        run_ids, added = [], 0
        for index, script in enumerate(scripts):
            recorded = bench.record_pair(
                script, config, vanilla_first=(cycle + index) % 2 == 0,
                between=lambda: interlude(bench, served, rng, previous))
            if recorded is not None:
                run_ids.append(recorded[0])
                added += recorded[1]
            interlude(bench, served, rng, previous)
        if len(run_ids) == len(scripts):
            bench.sample("stored_bytes_per_state_byte", added / sum(
                script.state_nbytes * script.epochs for script in scripts))
            iterations, wanted = workload.iterations(scripts[0].epochs)
            queried = Queried(home, config, run_ids, iterations,
                              scripts[0].probed(), wanted)
            cold = bench.library_query(config, run_ids, iterations,
                                       queried.probe, wanted, "query_cold",
                                       cold=True)
            if cold is not None:
                bench.sample("query_cold_s", cold[1])
        interlude(bench, served, rng, previous)
        return queried
    finally:
        if previous is not None:
            shutil.rmtree(previous.home, ignore_errors=True)
        if queried is None:
            shutil.rmtree(home, ignore_errors=True)


def run_serving(bench: Bench, seconds: float, requests: int | None,
                setup_reps: int) -> None:
    """A closed-loop tenant against the daemon while live runs record."""
    fleet = [short_run(bench.seed, index) for index in range(FLEET_SIZE)]
    served = bench.setup(lambda home: bench.prepare_served(
        home, fleet, adaptive=True, iterations=None,
        wanted=list(range(fleet[0].epochs)), shared_source=False),
        setup_reps)
    stop = threading.Event()
    recorder = threading.Thread(target=_record_loop,
                                args=(bench, served.config, stop),
                                name="perfbench-recorder")
    try:
        bench.window_start = time.monotonic()
        deadline = bench.window_start + seconds
        recorder.start()
        tenant_loop(bench, served, SERVING_MIX, random.Random(bench.seed),
                    lambda sent: (sent < requests if requests is not None
                                  else sent < MIN_SERVICE_REQUESTS
                                  or time.monotonic() < deadline),
                    by_kind=True)
    finally:
        stop.set()
        if recorder.is_alive():
            recorder.join()
        bench.stop_daemon(served.daemon)


def _record_loop(bench: Bench, config: repro.FlorConfig,
                 stop: threading.Event) -> None:
    """Record new runs back to back into the daemon's home."""
    index = 0
    while not stop.is_set() or index < 2:
        script = short_run(bench.seed, FLEET_SIZE + index)
        recorded = bench.record_pair(script, config,
                                     vanilla_first=index % 2 == 0)
        if recorded is not None:
            bench.sample("stored_bytes_per_state_byte", recorded[1] / (
                script.state_nbytes * script.epochs))
        index += 1


def tenant_loop(bench: Bench, served: Served, mix: tuple[str, ...],
                rng: random.Random, more: Callable[[int], bool],
                by_kind: bool,
                between: Callable[[int], None] | None = None) -> None:
    """One tenant in a closed loop: each request waits for its answer.

    Every ``len(mix)`` requests are one shuffled copy of ``mix``.  ``cold``
    asks a single run with a fresh probe constant, ``memo`` and
    ``explain`` a single run's warm probe, ``memo_all`` every served run.
    ``by_kind`` also times cold and memo requests as ``query_cold_s`` and
    ``query_memo_s`` (the serving workload's queries go through the daemon).
    ``between(sent)`` runs after each request.
    """
    client = repro.connect(served.daemon.address, client_id="tenant")
    phases = ({"cold": "query_cold", "memo": "query_memo",
               "explain": "service"} if by_kind else {})
    kinds: list[str] = []
    sent = 0
    while more(sent):
        if not kinds:
            kinds = list(mix)
            rng.shuffle(kinds)
        kind = kinds.pop()
        slot = rng.randrange(len(served.run_ids))
        script = served.scripts[slot]
        runs = (served.run_ids if kind == "memo_all"
                else [served.run_ids[slot]])
        if kind == "cold":
            bench.probe_factor += 1
            probe = script.probed(bench.probe_factor)
        else:
            probe = script.probed()
        phase = phases.get(kind, "service")
        latency = bench.service_request(
            client, "memo" if kind == "memo_all" else kind, served, runs,
            served.iterations, probe, served.wanted, phase)
        sent += 1
        if latency is not None:
            bench.sample("service_latency_s", latency)
            if phase.startswith("query_"):
                bench.sample(f"{phase}_s", latency)
        if between is not None:
            between(sent)


# ---------------------------------------------------------------------- #
# One pass and its metrics
# ---------------------------------------------------------------------- #
def run_pass(root: Path, work: Path, workload: str, seed: int,
             seconds: float, import_seconds: float, *, fixed: bool,
             setup_reps: int, ledger: Ledger | None = None) -> Bench:
    """Run one workload once; ``fixed`` runs a set amount of work instead
    of filling ``seconds`` (the traced comparison needs equal work)."""
    bench = Bench(root, work, seed, import_seconds, ledger)
    if workload == "serve-while-recording":
        run_serving(bench, seconds, MIN_SERVICE_REQUESTS if fixed else None,
                    setup_reps)
    else:
        run_sequential(bench, WORKLOADS[workload], seconds,
                       2 if fixed else None, setup_reps)
    with bench.capturing():
        bench.verify()
    return bench


def end_to_end(bench: Bench) -> dict[str, float]:
    samples = bench.samples
    latencies = samples.get("service_latency_s", [])
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def median(name: str) -> float:
        values = samples.get(name)
        return statistics.median(values) if values else float("nan")

    return {
        "setup_s": median("setup_s"),
        "record_s": median("record_s"),
        "record_vs_vanilla": median("record_vs_vanilla"),
        "stored_bytes_per_state_byte": median("stored_bytes_per_state_byte"),
        "query_cold_s": median("query_cold_s"),
        "query_memo_s": median("query_memo_s"),
        "service_p50_s": (statistics.median(latencies) if latencies
                          else float("nan")),
        "service_p90_s": (percentile(latencies, 0.9) if latencies
                          else float("nan")),
        "service_rps": (len(latencies) / sum(latencies)
                        if latencies else float("nan")),
        "peak_rss_mb": median("peak_rss_mb"),
        "peak_rss_children_mb": children / 1024.0,
    }


def per_layer(traced: Bench, untraced: Bench, ledger: Ledger
              ) -> dict[str, tuple[float, str]]:
    """The ledger's layer metrics plus what only the benchmark can see."""
    spans = ledger.collect()
    out = layer_metrics(spans, os.getpid(), traced.window_start,
                        daemon_workers=WORKERS)
    stats = traced.query_stats
    requested = sum(s.requested_cells for s in stats)
    replayed = sum(s.replayed_iterations for s in stats)
    resolved_replay = sum(s.resolved_replay for s in stats)
    out["query.memo_hit_ratio"] = (
        sum(s.resolved_memo for s in stats) / requested
        if requested else 0.0, "ratio")
    out["replay.replayed_iterations"] = (float(replayed), "count")
    out["replay.useful_ratio"] = (
        resolved_replay / replayed if replayed else 0.0, "ratio")
    chunks = out.pop("storage.chunks_produced")[0]
    out["storage.chunks_new_ratio"] = (
        traced.new_objects / chunks if chunks else 0.0, "ratio")
    out["storage.disk_bytes"] = (float(traced.disk_bytes), "bytes")
    connects = [s["end"] - s["start"] for s in spans
                if s["name"] == "service.connect"
                and s["start"] >= traced.window_start]
    out["service.connect_s"] = (
        statistics.median(connects) if connects else 0.0, "s")
    out["service.first_batch_s"] = (
        statistics.median(traced.first_batch) if traced.first_batch
        else 0.0, "s")
    traced_e2e, untraced_e2e = end_to_end(traced), end_to_end(untraced)
    out["service.p90_s"] = (untraced_e2e["service_p90_s"], "s")
    out["service.rps"] = (untraced_e2e["service_rps"], "1/s")
    # Each pass's last set-up is warm (the untraced pass sets up twice).
    traced_e2e["setup_s"] = traced.samples["setup_s"][-1]
    untraced_e2e["setup_s"] = untraced.samples["setup_s"][-1]
    for name, unit in E2E_UNITS.items():
        if name.startswith("peak_rss"):
            continue  # memory, not time: tracing cost shows in the rest
        out[f"trace_overhead.{name}"] = (
            traced_e2e[name] - untraced_e2e[name], unit)
    return out


def describe_config(config: repro.FlorConfig | None) -> dict:
    if config is None:
        return {}
    return {item.name: (str(value) if isinstance(value, Path) else value)
            for item in dataclasses.fields(config)
            for value in [getattr(config, item.name)]}
