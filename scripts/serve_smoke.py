#!/usr/bin/env python3
"""Black-box smoke test for voprofd and the voprof-api-1 wire contract.

Drives a real daemon over its Unix socket and asserts the behaviour the
serving layer promises (docs/SERVING.md):

  * every response line parses against the voprof-api-1 envelope;
  * `status` and `metrics` stay responsive while the workers are
    saturated;
  * requests beyond --queue-capacity are rejected immediately with a
    structured `overloaded` error -- admission never blocks;
  * an expired deadline yields `timed_out`;
  * SIGTERM completes every admitted request, flushes the metrics
    snapshot and exits 0;
  * `voprofctl request` speaks the same protocol as a raw socket.

Used by the `serve-smoke` CI job; also runnable locally:

    python3 scripts/serve_smoke.py \
        --voprofd build/tools/voprofd --voprofctl build/tools/voprofctl
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

API = "voprof-api-1"
ERROR_CODES = {
    "bad_request",
    "overloaded",
    "timed_out",
    "shutting_down",
    "internal",
}

FAILURES = []


def check(cond, what):
    marker = "ok" if cond else "FAIL"
    print(f"  [{marker}] {what}")
    if not cond:
        FAILURES.append(what)


def validate_envelope(resp):
    """Assert one parsed response object matches the voprof-api-1 schema."""
    check(resp.get("api") == API, f"response carries api={API}: {resp}")
    check(isinstance(resp.get("id"), str), f"response id is a string: {resp}")
    check(isinstance(resp.get("ok"), bool), f"response ok is a bool: {resp}")
    if resp.get("ok"):
        check("result" in resp and "error" not in resp,
              f"success carries result, not error: {resp}")
    else:
        err = resp.get("error")
        check(isinstance(err, dict), f"failure carries an error object: {resp}")
        if isinstance(err, dict):
            check(err.get("code") in ERROR_CODES,
                  f"error code {err.get('code')!r} is a documented code")
            check(isinstance(err.get("message"), str) and err["message"],
                  f"error message is a non-empty string: {resp}")


class Client:
    """A pipelining NDJSON client over one Unix-socket connection."""

    def __init__(self, path, timeout=30.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv_line(self):
        """One response line, or None on clean EOF."""
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        resp = json.loads(line)
        validate_envelope(resp)
        return resp

    def collect(self, ids):
        """Read until every id in `ids` has answered; keyed by id."""
        pending = set(ids)
        got = {}
        while pending:
            resp = self.recv_line()
            if resp is None:
                raise AssertionError(f"EOF with {sorted(pending)} unanswered")
            got[resp["id"]] = resp
            pending.discard(resp["id"])
        return got

    def roundtrip(self, obj):
        self.send(obj)
        return self.collect([obj["id"]])[obj["id"]]

    def close(self):
        self.sock.close()


def req(rid, op, params=None, deadline_ms=None):
    r = {"api": API, "id": rid, "op": op}
    if deadline_ms is not None:
        r["deadline_ms"] = deadline_ms
    if params is not None:
        r["params"] = params
    return r


def wait_for_socket(path, proc, deadline_s=15.0):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise AssertionError(f"voprofd exited early: rc={proc.returncode}")
        try:
            Client(path, timeout=1.0).close()
            return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"socket {path} never became connectable")


def smoke_envelope_and_status(sock_path):
    print("== status + envelope")
    c = Client(sock_path)
    status = c.roundtrip(req("st1", "status"))
    check(status["ok"], "status succeeds")
    result = status.get("result", {})
    for key in ("jobs", "queue_capacity", "in_flight", "draining",
                "accepted", "completed", "rejected_overloaded"):
        check(key in result, f"status result carries '{key}'")
    check(result.get("test_ops") is True, "test ops are enabled for the smoke")

    # An invalid envelope is rejected wholesale, so the id is not
    # echoed -- read the response positionally, not by id.
    c.send(req("bad1", "status", params=[1, 2]))
    bad = c.recv_line()
    check(bad is not None and not bad["ok"]
          and bad["error"]["code"] == "bad_request",
          "malformed params answer bad_request")
    c.close()


def smoke_overload(sock_path):
    print("== saturation -> overloaded, status stays responsive")
    c = Client(sock_path)
    # jobs=1, queue-capacity=2: two sleeps fill the bound (one running,
    # one queued); everything after that must shed immediately.
    for rid in ("s1", "s2"):
        c.send(req(rid, "sleep", {"ms": 800}))
    time.sleep(0.2)  # let the daemon admit them
    t0 = time.monotonic()
    for rid in ("o1", "o2", "o3", "o4"):
        c.send(req(rid, "sleep", {"ms": 800}))
    got = c.collect(["o1", "o2", "o3", "o4"])
    shed_s = time.monotonic() - t0
    for rid, resp in got.items():
        check(not resp["ok"] and resp["error"]["code"] == "overloaded",
              f"{rid} rejected with overloaded")
    check(shed_s < 0.6, f"rejections arrived in {shed_s * 1000:.0f} ms, "
          "before the admitted sleeps finished (admission never blocks)")

    # Control ops bypass the queue: status answers while workers sleep.
    c2 = Client(sock_path)
    status = c2.roundtrip(req("st2", "status"))
    check(status["ok"], "status succeeds under saturation")
    check(status["result"]["rejected_overloaded"] >= 4,
          "status counts the overload rejections")
    check(status["result"]["in_flight"] >= 1,
          "status sees the admitted work in flight")
    metrics = c2.roundtrip(req("m1", "metrics"))
    check(metrics["ok"]
          and metrics["result"].get("schema") == "voprof-metrics-1"
          and "serve.rejected_overloaded" in metrics["result"]["metrics"],
          "metrics returns the live registry under saturation")
    c2.close()

    admitted = c.collect(["s1", "s2"])
    for rid, resp in admitted.items():
        check(resp["ok"] and resp["result"].get("slept_ms") == 800,
              f"admitted {rid} still completed")
    c.close()


def smoke_deadline(sock_path):
    print("== deadline expiry -> timed_out")
    c = Client(sock_path)
    resp = c.roundtrip(req("d1", "sleep", {"ms": 5000}, deadline_ms=150))
    check(not resp["ok"] and resp["error"]["code"] == "timed_out",
          "expired deadline answers timed_out")
    c.close()


def smoke_predict(sock_path):
    print("== predict over the wire")
    c = Client(sock_path)
    params = {"cpu": 40, "mem": 512, "io": 100, "bw": 2000, "vms": 2,
              "train_duration_s": 1.0}
    resp = c.roundtrip(req("p1", "predict", params))
    check(resp["ok"], f"predict succeeds: {resp}")
    if resp["ok"]:
        check(isinstance(resp["result"], dict) and resp["result"],
              "predict result is a non-empty object")
    c.close()


def smoke_ctl_request(sock_path, voprofctl):
    if not voprofctl:
        return
    print("== voprofctl request speaks the same protocol")
    run = subprocess.run(
        [voprofctl, "request", "--socket", sock_path, "--op", "status"],
        capture_output=True, text=True, timeout=30)
    check(run.returncode == 0, f"voprofctl request exits 0: {run.stderr}")
    resp = json.loads(run.stdout.strip())
    validate_envelope(resp)
    check(resp["ok"] and "queue_capacity" in resp["result"],
          "voprofctl request returns the status result")

    # A rejected request is a nonzero exit, still with a schema response.
    run = subprocess.run(
        [voprofctl, "request", "--socket", sock_path, "--op", "sleep",
         "--deadline-ms", "100", "--params", '{"ms": 5000}'],
        capture_output=True, text=True, timeout=30)
    check(run.returncode != 0, "timed-out request exits nonzero")
    resp = json.loads(run.stdout.strip())
    validate_envelope(resp)
    check(resp["error"]["code"] == "timed_out",
          "voprofctl request surfaces timed_out")


def smoke_sigterm_drain(sock_path, proc, metrics_path):
    print("== SIGTERM completes admitted work, flushes metrics, exits 0")
    c = Client(sock_path)
    for rid in ("w1", "w2"):
        c.send(req(rid, "sleep", {"ms": 600}))
    # Same-connection lines are admitted in arrival order, so once this
    # status answers the sleeps are in flight -- not merely unread bytes
    # the drain is free to drop.
    c.send(req("gate", "status"))
    c.collect(["gate"])

    proc.send_signal(signal.SIGTERM)
    got = c.collect(["w1", "w2"])
    for rid, resp in got.items():
        check(resp["ok"], f"in-flight {rid} completed across SIGTERM")

    rejected = False
    try:
        resp = c.roundtrip(req("late", "sleep", {"ms": 10}))
        rejected = (not resp["ok"]
                    and resp["error"]["code"] == "shutting_down")
    except (OSError, AssertionError):
        rejected = True  # daemon already gone: equally a rejection
    check(rejected, "post-drain work is refused")
    c.close()

    rc = proc.wait(timeout=20)
    check(rc == 0, f"voprofd exits 0 after drain (got {rc})")
    check(not os.path.exists(sock_path), "socket file removed on shutdown")

    with open(metrics_path, encoding="utf-8") as f:
        doc = json.load(f)
    check(doc.get("schema") == "voprof-metrics-1",
          "metrics snapshot carries schema voprof-metrics-1")
    metrics = doc.get("metrics", {})
    serve_keys = [k for k in metrics if k.startswith("serve.")]
    check(bool(serve_keys), f"metrics include serve.* counters: {serve_keys}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--voprofd", required=True, help="path to the daemon")
    ap.add_argument("--voprofctl", default="", help="path to voprofctl")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="voprof-smoke-") as tmp:
        sock_path = os.path.join(tmp, "voprofd.sock")
        metrics_path = os.path.join(tmp, "metrics.json")
        proc = subprocess.Popen(
            [args.voprofd, "--socket", sock_path,
             "--jobs", "1", "--queue-capacity", "2",
             "--train-duration", "1", "--enable-test-ops",
             "--metrics-out", metrics_path])
        try:
            wait_for_socket(sock_path, proc)
            smoke_envelope_and_status(sock_path)
            smoke_overload(sock_path)
            smoke_deadline(sock_path)
            smoke_predict(sock_path)
            smoke_ctl_request(sock_path, args.voprofctl)
            smoke_sigterm_drain(sock_path, proc, metrics_path)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    if FAILURES:
        print(f"\nserve_smoke: {len(FAILURES)} check(s) failed:")
        for f in FAILURES:
            print(f"  - {f}")
        return 1
    print("\nserve_smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
