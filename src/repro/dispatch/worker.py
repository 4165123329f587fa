"""Fleet worker process: ``python -m repro.dispatch.worker``.

The lifecycle is a pull loop against the broker (see
:mod:`repro.dispatch.fleet`): ``hello`` once, then ``ready`` →
(``task`` | ``idle`` | ``exit``).  While a task executes in the main
thread, a background thread heartbeats the lease; the result is shipped
back as a separately pickled payload so the broker can survive decoding
garbage.

When ``REPRO_DISPATCH_FAULTS`` is set, the seeded
:class:`~repro.dispatch.faults.FaultPlan` is consulted once per leased
attempt, and at most one fault fires:

* ``kill`` — a timer SIGKILLs this process shortly after execution
  starts (no exception, no cleanup: the hard way workers die);
* ``drop`` — the result is computed and discarded; the next ``ready``
  surrenders the lease;
* ``delay`` — no heartbeats are sent for this attempt, so the broker's
  heartbeat timeout fires;
* ``corrupt`` — the result payload bytes are mangled before sending.

Workers never *retry* anything themselves — retry policy belongs to the
broker, which sees every attempt from every worker.

The fleet spawns each worker with ``--connect`` (its loopback broker)
and ``--worker`` (the name it announced to the broker).  A broker that
never announced the name answers the ``hello`` with ``denied``; the
worker prints the reason and exits 1.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading
import traceback
from typing import Optional, Tuple

from repro.dispatch import wire
from repro.dispatch.faults import ENV_FAULTS, FaultPlan, corrupt_bytes

#: Seconds into an attempt at which the ``kill`` fault fires.
KILL_DELAY_S = 0.02

#: Blocking-recv safety net: the broker answers ``ready`` within about a
#: second, so a silent minute means the broker is gone and the worker
#: exits.
RECV_TIMEOUT_S = 60.0


def _parse_address(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def _heartbeat_loop(sock: socket.socket, lock: threading.Lock,
                    worker: str, task_id: str, interval: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            wire.send_msg(sock, {"type": "heartbeat", "worker": worker,
                                 "task": task_id}, lock=lock)
        except OSError:
            return


def _self_destruct() -> None:
    """SIGKILL this process — no atexit, no finally, no flush."""
    os.kill(os.getpid(), signal.SIGKILL)


def _execute(payload: bytes) -> Tuple[bool, bytes, Optional[str]]:
    """Run one task payload; returns (ok, result_payload, error_text)."""
    try:
        fn, args, kwargs = wire.loads(payload)
        value = fn(*args, **kwargs)
    except BaseException:
        return False, b"", traceback.format_exc(limit=20)
    return True, wire.dumps(value), None


def serve(address: Tuple[str, int], worker: str,
          plan: Optional[FaultPlan] = None) -> int:
    """The worker loop; returns an exit code."""
    if plan is None:
        plan = FaultPlan.parse(os.environ.get(ENV_FAULTS))
    try:
        sock = socket.create_connection(address, timeout=10.0)
    except OSError as exc:
        print(f"worker {worker}: cannot reach broker at "
              f"{address[0]}:{address[1]}: {exc}", file=sys.stderr)
        return 1
    sock.settimeout(RECV_TIMEOUT_S)
    send_lock = threading.Lock()
    wire.send_msg(sock, {"type": "hello", "worker": worker,
                         "pid": os.getpid()},
                  lock=send_lock)
    try:
        while True:
            wire.send_msg(sock, {"type": "ready", "worker": worker},
                          lock=send_lock)
            try:
                message = wire.recv_msg(sock)
            except socket.timeout:
                continue
            kind = message.get("type")
            if kind == "exit":
                return 0
            if kind == "denied":
                print(f"worker {worker}: broker denied the hello: "
                      f"{message.get('error', 'unknown worker')}",
                      file=sys.stderr)
                return 1
            if kind == "idle":
                continue
            if kind != "task":
                return 1

            task_id = message["id"]
            attempt = message.get("attempt", 1)
            fault = plan.draw(task_id, attempt) if plan else None

            if fault == "kill":
                timer = threading.Timer(KILL_DELAY_S, _self_destruct)
                timer.daemon = True
                timer.start()

            stop = threading.Event()
            if fault != "delay":
                beat = threading.Thread(
                    target=_heartbeat_loop,
                    args=(sock, send_lock, worker, task_id,
                          message.get("heartbeat_s", 1.0), stop),
                    daemon=True,
                )
                beat.start()
            try:
                ok, payload, error = _execute(message["payload"])
            finally:
                stop.set()

            if fault == "drop":
                continue
            if ok and fault == "corrupt":
                payload = corrupt_bytes(payload)
            envelope = {"type": "result", "worker": worker,
                        "id": task_id, "ok": ok, "payload": payload}
            if error is not None:
                envelope["error"] = error
            wire.send_msg(sock, envelope, lock=send_lock)
    except (wire.WireError, OSError):
        return 0
    finally:
        try:
            sock.close()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dispatch.worker",
        description="Fleet worker: pull task leases from a dispatch "
                    "broker and execute them.",
    )
    parser.add_argument("--connect", type=_parse_address, required=True,
                        metavar="HOST:PORT",
                        help="broker address to pull leases from")
    parser.add_argument("--worker", required=True,
                        help="worker name the broker's fleet announced")
    args = parser.parse_args(argv)
    return serve(args.connect, args.worker)


if __name__ == "__main__":
    sys.exit(main())
