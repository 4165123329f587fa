"""The dispatch subsystem: executors, retries, faults, quarantine.

Covers the executor contract (submission order, fail-fast, attempt
records), the retry policy and its env knobs, the seeded fault plan's
determinism, the wall-clock cell deadline, and each backend end-to-end —
including a fleet whose workers are killed, muted, and corrupted by the
fault injector and still produce correct results.
"""

import os
import pickle
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.telemetry as telemetry
from repro.dispatch import (
    Attempt,
    CellDeadlockError,
    CellTimeoutError,
    DispatchReport,
    FaultPlan,
    FaultSpecError,
    RetryPolicy,
    TaskFailedError,
    TaskResult,
    TaskSpec,
    cell_deadline,
)
from repro.dispatch import wire
from repro.dispatch.faults import KINDS, corrupt_bytes
from repro.dispatch import fleet as fleet_mod
from repro.dispatch.fleet import FleetExecutor, PersistentFleet
from repro.dispatch.inline import InlineExecutor
from repro.registry import EXECUTORS


# -- module-level task bodies (pickled by reference into workers) -------------


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"task body exploded on {x}")


def _sleepy(seconds, x):
    time.sleep(seconds)
    return x


def _flaky(marker, x):
    """Fails until ``marker`` exists, then succeeds — a crash that a
    retry genuinely fixes, visible across process boundaries."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("seen")
        raise RuntimeError("first attempt always fails")
    return x


def _mode_kwarg(x, mode="remote"):
    """Reports which kwarg set it ran under (inline_kwargs override)."""
    return (mode, x)


FAST = RetryPolicy(timeout_s=30.0, max_attempts=3, backoff_base_s=0.01,
                   backoff_cap_s=0.05, heartbeat_s=0.1)


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse("kill:0.3,drop:0.2,corrupt:0.1;seed=7")
        assert plan.rates == {"kill": 0.3, "drop": 0.2, "corrupt": 0.1}
        assert plan.seed == 7
        assert plan.spec == "kill:0.3,drop:0.2,corrupt:0.1;seed=7"
        assert plan

    def test_empty_spec_is_off(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("   ")

    def test_bare_kind_means_always(self):
        assert FaultPlan.parse("kill").rates == {"kill": 1.0}

    @pytest.mark.parametrize("spec", [
        "explode:0.5",            # unknown kind
        "kill:maybe",             # non-numeric probability
        "kill:1.5",               # probability out of range
        "kill:0.5;seed=x",        # non-integer seed
        "kill:0.5;sed=3",         # bad suffix
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(spec)

    def test_draw_is_deterministic(self):
        plan = FaultPlan.parse("kill:0.4,corrupt:0.4;seed=11")
        draws = [plan.draw("Music|google-tablet", attempt)
                 for attempt in range(1, 20)]
        again = [plan.draw("Music|google-tablet", attempt)
                 for attempt in range(1, 20)]
        assert draws == again
        # A different seed reshuffles the outcomes.
        other = FaultPlan.parse("kill:0.4,corrupt:0.4;seed=12")
        assert draws != [other.draw("Music|google-tablet", attempt)
                         for attempt in range(1, 20)]

    def test_at_most_one_fault_in_kinds_order(self):
        plan = FaultPlan.parse("kill:1.0,drop:1.0,corrupt:1.0;seed=1")
        assert plan.draw("any", 1) == "kill"
        assert KINDS.index("kill") < KINDS.index("corrupt")

    def test_zero_rate_never_fires(self):
        plan = FaultPlan.parse("kill:0.0;seed=5")
        assert all(plan.draw("t", a) is None for a in range(1, 50))

    def test_corrupt_bytes_breaks_pickle(self):
        payload = pickle.dumps({"cell": 42})
        mangled = corrupt_bytes(payload)
        assert mangled != payload
        with pytest.raises(Exception):
            pickle.loads(mangled)
        assert corrupt_bytes(b"") != b""


class TestRetryPolicy:
    def test_backoff_progression_and_cap(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.3)
        assert policy.backoff(1) == 0.0
        assert policy.backoff(2) == pytest.approx(0.1)
        assert policy.backoff(3) == pytest.approx(0.2)
        assert policy.backoff(4) == pytest.approx(0.3)   # capped
        assert policy.backoff(9) == pytest.approx(0.3)

    def test_heartbeat_timeout_is_four_intervals(self):
        assert RetryPolicy(heartbeat_s=0.5).heartbeat_timeout_s \
            == pytest.approx(2.0)

    def test_from_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH_TIMEOUT", "12.5")
        assert RetryPolicy.from_env() == RetryPolicy(timeout_s=12.5)

    def test_from_env_malformed_warns_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISPATCH_TIMEOUT", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_DISPATCH_TIMEOUT"):
            policy = RetryPolicy.from_env()
        assert policy.timeout_s == 600.0


class TestTaskSpec:
    def test_run_inline_merges_inline_kwargs(self):
        task = TaskSpec(id="t", fn=_mode_kwarg, args=(7,),
                        kwargs={"mode": "remote"},
                        inline_kwargs={"mode": "inline"})
        assert task.run_inline() == ("inline", 7)

    def test_effective_timeout_prefers_task_override(self):
        policy = RetryPolicy(timeout_s=600.0)
        assert TaskSpec(id="t", fn=_double).effective_timeout(policy) \
            == 600.0
        assert TaskSpec(id="t", fn=_double,
                        timeout_s=5.0).effective_timeout(policy) == 5.0


class TestCellDeadline:
    def test_timeout_names_the_cell(self):
        with pytest.raises(CellTimeoutError, match="Music.google-tablet"):
            with cell_deadline("Music|google-tablet", 0.2):
                time.sleep(5.0)

    def test_deadlock_is_wrapped_with_cell_id(self):
        from repro.cpu.pipeline import PipelineDeadlockError
        with pytest.raises(CellDeadlockError,
                           match="Email.2xFD") as excinfo:
            with cell_deadline("Email|2xFD", None):
                raise PipelineDeadlockError("stuck at cycle 17")
        assert isinstance(excinfo.value.__cause__, PipelineDeadlockError)
        assert excinfo.value.task_id == "Email|2xFD"

    def test_clean_body_restores_timer(self):
        import signal
        with cell_deadline("t", 30.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestInlineExecutor:
    def test_results_in_submission_order(self):
        ex = InlineExecutor(policy=FAST)
        for i in range(5):
            ex.submit(TaskSpec(id=f"t{i}", fn=_double, args=(i,)))
        results = ex.drain()
        assert [r.task_id for r in results] == [f"t{i}" for i in range(5)]
        assert [r.value for r in results] == [0, 2, 4, 6, 8]
        assert all(r.ok and len(r.attempts) == 1 for r in results)
        assert all(r.attempts[0].worker == "inline" for r in results)
        ex.shutdown()

    def test_fail_fast_skips_later_tasks(self):
        ex = InlineExecutor(policy=FAST)
        ex.submit(TaskSpec(id="ok", fn=_double, args=(1,)))
        ex.submit(TaskSpec(id="bad", fn=_boom, args=(2,)))
        ex.submit(TaskSpec(id="never", fn=_double, args=(3,)))
        results = ex.drain()
        assert results[0].ok
        assert not results[1].ok
        assert results[1].attempts[0].outcome == "error"
        assert results[2].attempts[0].outcome == "skipped"
        with pytest.raises(ValueError, match="exploded on 2"):
            results[1].raise_error()

    def test_timeout_attempt_recorded(self):
        ex = InlineExecutor(policy=FAST)
        ex.submit(TaskSpec(id="slow", fn=_sleepy, args=(5.0, 1),
                           timeout_s=0.2))
        results = ex.drain()
        assert results[0].attempts[0].outcome == "timeout"
        with pytest.raises(CellTimeoutError):
            results[0].raise_error()


class TestFleetExecutor:
    def _drain(self, tasks, policy=FAST, jobs=2, faults=None,
               monkeypatch=None):
        if faults is not None:
            monkeypatch.setenv("REPRO_DISPATCH_FAULTS", faults)
        else:
            os.environ.pop("REPRO_DISPATCH_FAULTS", None)
        ex = FleetExecutor(jobs=jobs, policy=policy)
        for task in tasks:
            ex.submit(task)
        try:
            return ex.drain()
        finally:
            ex.shutdown()

    def test_batch_matches_inline(self):
        results = self._drain([
            TaskSpec(id=f"t{i}", fn=_double, args=(i,)) for i in range(4)
        ])
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert all(r.ok and not r.quarantined for r in results)
        assert all(a.worker.startswith("fleet-")
                   for r in results for a in r.attempts)

    def test_retry_fixes_flaky_task(self, tmp_path):
        """A failed attempt that a retry genuinely fixes: the marker
        file carries the first attempt's failure across processes."""
        marker = str(tmp_path / "flaky-marker")
        results = self._drain([TaskSpec(id="flaky", fn=_flaky,
                                        args=(marker, 99))])
        assert results[0].ok
        assert results[0].value == 99
        assert results[0].retries == 1
        assert not results[0].quarantined
        assert [a.outcome for a in results[0].attempts] == ["error", "ok"]

    def test_kill_fault_requeues_and_quarantines(self, monkeypatch):
        policy = RetryPolicy(timeout_s=30.0, max_attempts=2,
                             backoff_base_s=0.01, backoff_cap_s=0.05,
                             heartbeat_s=0.1)
        results = self._drain(
            [TaskSpec(id="victim", fn=_double, args=(21,))],
            policy=policy, faults="kill:1.0;seed=3",
            monkeypatch=monkeypatch,
        )
        result = results[0]
        # Every fleet attempt was SIGKILLed; the quarantine fallback
        # (which injects nothing) still produced the value.
        assert result.ok
        assert result.value == 42
        assert result.quarantined
        fleet_outcomes = {a.outcome for a in result.attempts
                          if a.worker.startswith("fleet-")}
        assert fleet_outcomes <= {"worker-died", "no-heartbeat", "lost"}
        assert result.attempts[-1].worker == "inline"
        assert result.attempts[-1].outcome == "ok"

    def test_drop_fault_records_lost_attempts(self, monkeypatch):
        policy = RetryPolicy(timeout_s=30.0, max_attempts=2,
                             backoff_base_s=0.01, backoff_cap_s=0.05,
                             heartbeat_s=0.1)
        results = self._drain(
            [TaskSpec(id="mute", fn=_double, args=(5,))],
            policy=policy, faults="drop:1.0;seed=3",
            monkeypatch=monkeypatch,
        )
        result = results[0]
        assert result.ok and result.value == 10 and result.quarantined
        assert any(a.outcome == "lost" for a in result.attempts)

    def test_corrupt_fault_is_retried_not_fatal(self, monkeypatch):
        policy = RetryPolicy(timeout_s=30.0, max_attempts=2,
                             backoff_base_s=0.01, backoff_cap_s=0.05,
                             heartbeat_s=0.1)
        results = self._drain(
            [TaskSpec(id="garbled", fn=_double, args=(8,))],
            policy=policy, faults="corrupt:1.0;seed=3",
            monkeypatch=monkeypatch,
        )
        result = results[0]
        assert result.ok and result.value == 16 and result.quarantined
        assert any(a.outcome == "corrupt" for a in result.attempts)

    def test_poison_task_fails_with_traceback_text(self):
        policy = RetryPolicy(timeout_s=30.0, max_attempts=2,
                             backoff_base_s=0.01, backoff_cap_s=0.05,
                             heartbeat_s=0.1)
        results = self._drain(
            [TaskSpec(id="poison", fn=_boom, args=(3,))], policy=policy,
        )
        result = results[0]
        assert not result.ok
        assert result.quarantined
        with pytest.raises(ValueError, match="exploded on 3"):
            result.raise_error()

    def test_poison_task_quarantines_with_original_error(self):
        results = self._drain([TaskSpec(id="poison", fn=_boom, args=(7,))])
        result = results[0]
        assert result.quarantined
        assert not result.ok
        # max_attempts on the fleet, then the inline quarantine attempt.
        assert len(result.attempts) == FAST.max_attempts + 1
        assert result.attempts[-1].worker == "inline"
        with pytest.raises(ValueError, match="exploded on 7"):
            result.raise_error()


def _worker_exits_at_once(address, name):
    """Stand-in for the worker launcher: a process that dies before it
    ever reaches the broker."""
    return subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])


class TestFleetDegraded:
    """A fleet that cannot keep any worker alive still returns every
    task, with its value, through inline quarantine in bounded time —
    the respawn budget and the no-workers exit end the fleet attempt."""

    @pytest.mark.parametrize("spawn", [
        _worker_exits_at_once,
        lambda address, name: None,
    ], ids=["workers-exit-at-once", "spawn-fails"])
    def test_drain_quarantines_every_task(self, monkeypatch, spawn):
        monkeypatch.delenv("REPRO_DISPATCH_FAULTS", raising=False)
        monkeypatch.setattr(fleet_mod, "_spawn_worker", spawn)
        handed = {}
        real_quarantine = fleet_mod.quarantine_inline

        def _spy(tasks, policy):
            handed.update({task.id: result.error for task, result in tasks})
            return real_quarantine(tasks, policy)

        monkeypatch.setattr(fleet_mod, "quarantine_inline", _spy)
        ex = FleetExecutor(jobs=2, policy=FAST)
        for i in range(3):
            ex.submit(TaskSpec(id=f"t{i}", fn=_double, args=(i,)))
        started = time.monotonic()
        try:
            results = ex.drain()
        finally:
            ex.shutdown()
        assert time.monotonic() - started < 30.0
        assert [r.task_id for r in results] == ["t0", "t1", "t2"]
        assert [r.value for r in results] == [0, 2, 4]
        for result in results:
            assert result.ok and result.quarantined
            assert [(a.worker, a.outcome) for a in result.attempts] \
                == [("inline", "ok")]
        # Every task reached quarantine naming why the fleet gave up.
        assert set(handed) == {"t0", "t1", "t2"}
        assert all("no fleet workers left" in reason
                   for reason in handed.values()), handed


def _poll_all(fleet, count):
    out = []
    deadline = time.monotonic() + 60
    while len(out) < count:
        assert time.monotonic() < deadline, "fleet stalled"
        out.extend(fleet.poll())
        time.sleep(0.02)
    return out


class TestBrokerAdmission:
    """The broker listens on loopback and serves only the workers its
    fleet spawned; anything else is turned away without disturbing it."""

    def test_unknown_worker_name_is_denied(self):
        telemetry.reset()
        fleet = PersistentFleet(jobs=1, policy=FAST)
        try:
            host, port = fleet.broker.address
            assert host == "127.0.0.1"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.dispatch.worker",
                 "--connect", f"{host}:{port}", "--worker", "mallory"],
                env=dict(os.environ,
                         PYTHONPATH=os.pathsep.join(p for p in sys.path
                                                    if p)),
                capture_output=True, text=True, timeout=30)
            assert proc.returncode == 1
            assert "denied" in proc.stderr and "mallory" in proc.stderr
            assert telemetry.metrics.REGISTRY.counters_flat(
                "repro_fleet_denied_total") == \
                {"repro_fleet_denied_total{}": 1}
            # the fleet's own worker still serves
            fleet.submit(TaskSpec(id="after", fn=_double, args=(5,)))
            assert [r.value for r in _poll_all(fleet, 1)] == [10]
        finally:
            fleet.shutdown(grace_s=15.0)

    @pytest.mark.parametrize("hello", [
        ["hello", "fleet-0"],
        {"type": "hello"},
        {"type": "hello", "worker": 7},
    ], ids=["not-a-dict", "no-worker", "non-string-worker"])
    def test_malformed_hello_is_dropped_and_broker_keeps_serving(
            self, hello):
        fleet = PersistentFleet(jobs=1, policy=FAST)
        try:
            peer, conn = socket.socketpair()
            with peer:
                wire.send_msg(peer, hello)
                peer.shutdown(socket.SHUT_WR)
                fleet.broker._handle(conn)  # must return, not raise
                assert peer.recv(1) == b""  # and hang up
            fleet.submit(TaskSpec(id="after", fn=_double, args=(4,)))
            assert [r.value for r in _poll_all(fleet, 1)] == [8]
        finally:
            fleet.shutdown(grace_s=15.0)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fleet_without_workers_is_rejected(self, jobs):
        with pytest.raises(ValueError, match="at least 1 worker"):
            PersistentFleet(jobs=jobs, policy=FAST)


class TestBrokerReady:
    """A ``ready`` with nothing queued waits for work on the broker
    instead of sending the worker to sleep."""

    def test_held_ready_is_answered_with_the_next_task(self):
        broker = fleet_mod.Broker(FAST)
        peer, conn = socket.socketpair()
        try:
            with peer, conn:
                held = threading.Thread(target=broker._on_ready,
                                        args=(conn, "w"))
                held.start()
                time.sleep(0.1)  # the ready finds an empty queue
                broker.add_task(TaskSpec(id="t", fn=_double, args=(3,)))
                peer.settimeout(10)
                message = wire.recv_msg(peer)
                held.join(timeout=10)
            assert message["type"] == "task", message
            assert message["id"] == "t"
        finally:
            broker.close()

    def test_held_readies_lease_each_task_exactly_once(self, monkeypatch):
        """More workers than cores park readies while tasks trickle in:
        every task is leased once and only once."""
        monkeypatch.setattr(fleet_mod, "_READY_HOLD_S", 0.05)
        broker = fleet_mod.Broker(FAST)
        leased = []
        tasks = [f"t{i}" for i in range(40)]

        def worker(name, conn, peer):
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline and len(leased) < len(tasks):
                broker._on_ready(conn, name)
                message = wire.recv_msg(peer)
                if message["type"] == "task":
                    leased.append(message["id"])
                    broker._on_result(name, {
                        "id": message["id"], "ok": True,
                        "payload": wire.dumps(0)})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        pairs = [socket.socketpair() for _ in range(8)]
        try:
            threads = [threading.Thread(target=worker,
                                        args=(f"w{k}", conn, peer))
                       for k, (peer, conn) in enumerate(pairs)]
            for thread in threads:
                thread.start()
            for task_id in tasks:
                broker.add_task(TaskSpec(id=task_id, fn=_double, args=(1,)))
                time.sleep(0.002)
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            for peer, conn in pairs:
                peer.close()
                conn.close()
            broker.close()
        assert sorted(leased) == sorted(tasks)

    def test_ready_without_work_is_answered_idle_with_no_sleep(
            self, monkeypatch):
        monkeypatch.setattr(fleet_mod, "_READY_HOLD_S", 0.05)
        broker = fleet_mod.Broker(FAST)
        peer, conn = socket.socketpair()
        try:
            with peer, conn:
                broker._on_ready(conn, "w")
                assert wire.recv_msg(peer) == {"type": "idle"}
        finally:
            broker.close()


class TestDispatchReport:
    def test_to_dict_aggregates(self):
        ok = TaskResult(task_id="a", value=1, attempts=[
            Attempt(index=1, worker="fleet-0", outcome="ok", wall_s=0.5),
        ])
        retried = TaskResult(task_id="b", value=2, attempts=[
            Attempt(index=1, worker="fleet-1", outcome="worker-died",
                    error="boom"),
            Attempt(index=2, worker="fleet-2", outcome="timeout",
                    error="slow"),
            Attempt(index=3, worker="inline", outcome="ok"),
        ], quarantined=True)
        report = DispatchReport(executor="fleet@1", workers=2,
                                results=[ok, retried],
                                faults="kill:0.3;seed=1")
        record = report.to_dict()
        assert record["executor"] == "fleet@1"
        assert record["tasks"] == 2
        assert record["attempts"] == 4
        assert record["retries"] == 2
        assert record["timeouts"] == 1
        assert record["quarantined"] == ["b"]
        assert record["faults"] == "kill:0.3;seed=1"
        # Only tasks with retries or failures carry full attempt logs.
        assert set(record["task_attempts"]) == {"b"}

    def test_task_failed_error_carries_task_id(self):
        result = TaskResult(task_id="cell", error="remote traceback")
        with pytest.raises(TaskFailedError) as excinfo:
            result.raise_error()
        assert excinfo.value.task_id == "cell"


class TestExecutorRegistry:
    def test_builtins_registered(self):
        assert set(EXECUTORS.names()) == {"inline", "fleet"}
        assert EXECUTORS.identity("fleet") == "fleet@1"
        for name in ("inline", "fleet"):
            ex = EXECUTORS.create(name, jobs=1, policy=FAST)
            assert ex.name == name
            ex.shutdown()

    def test_unknown_executor_gets_did_you_mean(self):
        from repro.registry import RegistryError
        with pytest.raises(RegistryError, match="fleet"):
            EXECUTORS.entry("flete")
