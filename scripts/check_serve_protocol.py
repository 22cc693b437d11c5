#!/usr/bin/env python3
"""Validate the `regalloc-serve` wire protocol and JSONL request log.

Usage:
  check_serve_protocol.py log FILE.jsonl        validate a daemon request log
  check_serve_protocol.py wire FILE.bin         validate captured response frames
  check_serve_protocol.py probe ADDR [IR_FILE]  live-probe a running daemon

`log` checks, per line: a single JSON object with a numeric `ts_ms` and a
known `event`, carrying exactly the fields that event requires (all string
valued); and, across the stream: timestamps are non-decreasing, the first
event is `listening`, and a `drained` event (if present) is last.

`wire` parses a byte capture of concatenated response frames against the
framed grammar: one `VERB key=value ...\\n` header, then exactly `bytes=<n>`
payload bytes; verbs and per-verb required fields are enforced, and `OK`
payloads must be `.func`/`.report`/`.end`-sectioned with the report's
required keys.

`probe` connects to a live daemon and exercises the grammar end to end:
PING/PONG, an ALLOC round-trip (when an IR file is given), a malformed
header (which must be answered with `ERR code=protocol`, not a hang), and
a `GET /metrics` scrape on the same port.

Exit status 0 on success; 1 with one diagnostic per violation.
"""

import json
import socket
import sys

RESPONSE_VERBS = {"OK", "ERR", "BUSY", "DRAINING", "PONG"}
# The codes `crates/serve/src/proto.rs` states the server sends.
ERR_CODES = {"parse", "target", "protocol", "panic", "alloc"}
RUNGS = {"ip-optimal", "ip-incumbent", "warm-start", "coloring", "spill-all", "none"}
BUDGETS = {"full", "shrunk", "exhausted"}
REPORT_KEYS = {"name", "rung", "reasons", "constraints", "vars", "insts",
               "solver_nodes", "lp_iters", "ip_bytes", "warm_start", "spills"}

# event -> (required fields, optional fields); every value is a JSON string.
LOG_SCHEMAS = {
    "listening": ({"addr", "jobs"}, set()),
    "drain": ({"source"}, set()),
    "drain_demote": (set(), set()),
    "drained": ({"accepted", "responded", "busy", "errors"}, set()),
    "response": ({"verb", "id", "client"},
                 {"rung", "cache", "budget", "granted_ms", "code", "retry_ms",
                  "duration_ms", "build_ms", "solve_ms", "validate_ms"}),
    "http": ({"path"}, set()),
}

errors = []


def fail(msg):
    errors.append(msg)


def check_log(path):
    last_ts = -1
    events = []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{n}: not JSON: {e}")
                continue
            if not isinstance(obj, dict):
                fail(f"{path}:{n}: not an object")
                continue
            ts = obj.get("ts_ms")
            if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
                fail(f"{path}:{n}: ts_ms must be a non-negative integer")
            elif ts < last_ts:
                fail(f"{path}:{n}: ts_ms went backwards ({ts} < {last_ts})")
            else:
                last_ts = ts
            event = obj.get("event")
            if event not in LOG_SCHEMAS:
                fail(f"{path}:{n}: unknown event {event!r}")
                continue
            events.append(event)
            required, optional = LOG_SCHEMAS[event]
            keys = set(obj) - {"ts_ms", "event"}
            for k in required - keys:
                fail(f"{path}:{n}: {event}: missing field {k!r}")
            for k in keys - required - optional:
                fail(f"{path}:{n}: {event}: unexpected field {k!r}")
            for k in keys:
                if not isinstance(obj[k], str):
                    fail(f"{path}:{n}: {event}: field {k!r} must be a string")
            if event == "response":
                check_response_fields(obj, f"{path}:{n}")
    if not events:
        fail(f"{path}: empty log")
        return
    if events[0] != "listening":
        fail(f"{path}: first event is {events[0]!r}, expected 'listening'")
    if "drained" in events and events[-1] != "drained":
        fail(f"{path}: 'drained' must be the final event")


STATUS_COUNTERS = {"accepted", "responded", "busy", "errors", "queued", "active"}

# Fields carrying a duration in milliseconds, rendered as a non-negative
# decimal string (`{:.3}` on the daemon side).
MS_FIELDS = {"duration_ms", "build_ms", "solve_ms", "validate_ms",
             "granted_ms", "retry_ms", "uptime_ms", "total_ms"}


def check_ms_fields(fields, where):
    for k in MS_FIELDS & set(fields):
        v = fields[k]
        try:
            ok = float(v) >= 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            fail(f"{where}: {k} must be a non-negative decimal, got {v!r}")


def check_response_fields(fields, where):
    verb = fields.get("verb")
    if verb not in RESPONSE_VERBS:
        fail(f"{where}: unknown response verb {verb!r}")
        return
    check_ms_fields(fields, where)
    if verb == "OK" and "status" in fields:  # a STATUS report, not an ALLOC OK
        if fields.get("status") != "1":
            fail(f"{where}: STATUS response must carry status=1")
        for k in sorted({"uptime_ms"} | STATUS_COUNTERS):
            if k not in fields:
                fail(f"{where}: STATUS response missing {k!r}")
        for k in STATUS_COUNTERS & set(fields):
            if not str(fields[k]).isdigit():
                fail(f"{where}: STATUS {k} must be a non-negative integer")
        return
    if verb == "OK" and "rung" in fields:  # an ALLOC's OK, not DRAIN's ack
        for k in ("rung", "cache", "budget", "granted_ms"):
            if k not in fields:
                fail(f"{where}: OK allocation response missing {k!r}")
        if fields.get("rung") not in RUNGS:
            fail(f"{where}: unknown rung {fields.get('rung')!r}")
        if fields.get("cache") not in {"hit", "miss"}:
            fail(f"{where}: cache must be hit|miss, got {fields.get('cache')!r}")
        if fields.get("budget") not in BUDGETS:
            fail(f"{where}: unknown budget disposition {fields.get('budget')!r}")
        # The request log adds the phase breakdown to every allocation OK.
        if fields.get("event") == "response" and "duration_ms" not in fields:
            fail(f"{where}: OK allocation log entry missing 'duration_ms'")
    if verb == "BUSY" and "retry_ms" not in fields:
        fail(f"{where}: BUSY without a retry_ms hint")
    if verb == "ERR":
        if fields.get("code") not in ERR_CODES:
            fail(f"{where}: unknown ERR code {fields.get('code')!r}")


def parse_frames(data, where):
    """Split a byte capture into (verb, fields, payload) frames."""
    frames = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:
            fail(f"{where}: trailing bytes with no header newline")
            break
        try:
            header = data[pos:nl].decode("ascii")
        except UnicodeDecodeError:
            fail(f"{where}: non-ASCII header at byte {pos}")
            break
        pos = nl + 1
        parts = header.split(" ")
        verb, fields = parts[0], {}
        if not verb or not verb.isupper():
            fail(f"{where}: bad verb in header {header!r}")
            break
        for p in parts[1:]:
            if "=" not in p or p.startswith("="):
                fail(f"{where}: bad field {p!r} in header {header!r}")
                continue
            k, v = p.split("=", 1)
            fields[k] = v
        payload = b""
        if "bytes" in fields:
            try:
                n = int(fields["bytes"])
            except ValueError:
                fail(f"{where}: non-integer bytes= in {header!r}")
                break
            if pos + n > len(data):
                fail(f"{where}: truncated payload for {header!r}")
                break
            payload = data[pos:pos + n]
            pos += n
        frames.append((verb, fields, payload))
    return frames


def check_response_frame(verb, fields, payload, where):
    if verb not in RESPONSE_VERBS:
        fail(f"{where}: unknown response verb {verb!r}")
        return
    if "id" not in fields:
        fail(f"{where}: {verb} response without an id")
    check_response_fields({"verb": verb, **fields}, where)
    if verb == "OK" and "status" in fields:
        check_status_payload(payload, where)
    elif verb == "OK" and "rung" in fields:
        check_ok_payload(payload, where)


# Each recent-request line in a STATUS payload, e.g.
#   req id=c-1 client=c rung=ip-optimal cache=miss total_ms=1.234 ...
STATUS_REQ_KEYS = ["id", "client", "rung", "cache",
                   "total_ms", "build_ms", "solve_ms", "validate_ms"]


def check_status_payload(payload, where):
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        fail(f"{where}: STATUS payload is not UTF-8")
        return
    for i, line in enumerate(text.splitlines()):
        tag = f"{where}:req{i}"
        parts = line.split(" ")
        if parts[0] != "req":
            fail(f"{tag}: STATUS payload line must start with 'req ': {line!r}")
            continue
        got = {}
        for p in parts[1:]:
            if "=" not in p:
                fail(f"{tag}: bad token {p!r}")
                continue
            k, v = p.split("=", 1)
            got[k] = v
        for k in STATUS_REQ_KEYS:
            if k not in got:
                fail(f"{tag}: missing {k}=")
        if got.get("rung") not in RUNGS:
            fail(f"{tag}: unknown rung {got.get('rung')!r}")
        if got.get("cache") not in {"hit", "miss"}:
            fail(f"{tag}: cache must be hit|miss, got {got.get('cache')!r}")
        check_ms_fields(got, tag)


def check_ok_payload(payload, where):
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        fail(f"{where}: OK payload is not UTF-8")
        return
    lines = text.splitlines()
    for section in (".func", ".report", ".end"):
        if section not in lines:
            fail(f"{where}: OK payload missing {section} section")
            return
    order = [lines.index(s) for s in (".func", ".report", ".end")]
    if order != sorted(order) or lines[-1] != ".end":
        fail(f"{where}: OK payload sections out of order")
    report = {}
    in_report = False
    for line in lines:
        if line == ".report":
            in_report = True
        elif line in (".lints", ".end"):
            in_report = False
        elif in_report and "=" in line:
            k, v = line.split("=", 1)
            report[k] = v
    for k in REPORT_KEYS - set(report):
        fail(f"{where}: OK report missing key {k!r}")


def check_wire(path):
    with open(path, "rb") as f:
        data = f.read()
    frames = parse_frames(data, path)
    if not frames:
        fail(f"{path}: no frames")
    for i, (verb, fields, payload) in enumerate(frames):
        check_response_frame(verb, fields, payload, f"{path}#frame{i}")


def recv_frame(sock_file, where):
    header = sock_file.readline()
    if not header:
        fail(f"{where}: connection closed before a response")
        return None
    data = bytearray(header)
    parts = header.decode("ascii", "replace").strip().split(" ")
    for p in parts[1:]:
        if p.startswith("bytes="):
            data.extend(sock_file.read(int(p.split("=", 1)[1])))
    frames = parse_frames(bytes(data), where)
    return frames[0] if frames else None


def probe(addr, ir_file):
    host, port = addr.rsplit(":", 1)
    capture = bytearray()

    def connect():
        s = socket.create_connection((host, int(port)), timeout=30)
        return s, s.makefile("rb")

    # PING -> PONG, echoing the id.
    s, rf = connect()
    s.sendall(b"PING id=probe1\n")
    frame = recv_frame(rf, "probe:ping")
    if frame:
        verb, fields, _ = frame
        if verb != "PONG" or fields.get("id") != "probe1":
            fail(f"probe: PING answered {verb} id={fields.get('id')!r}")

    # ALLOC round-trip (optional: needs an IR file). The daemon accepts
    # exactly one function per request, so a multi-function file is
    # trimmed to its first `fn ... { ... }` block.
    if ir_file:
        with open(ir_file, encoding="utf-8") as f:
            text = f.read()
        first = []
        for line in text.splitlines(keepends=True):
            first.append(line)
            if line.rstrip("\n") == "}":
                break
        ir = "".join(first).encode("utf-8")
        header = f"ALLOC id=probe2 client=probe bytes={len(ir)}\n"
        s.sendall(header.encode() + ir)
        frame = recv_frame(rf, "probe:alloc")
        if frame:
            verb, fields, payload = frame
            if fields.get("id") != "probe2":
                fail(f"probe: ALLOC response id {fields.get('id')!r}")
            if verb != "OK":
                fail(f"probe: ALLOC answered {verb}, expected OK")
            check_response_frame(verb, fields, payload, "probe:alloc")
            hdr_line = " ".join([verb] + [f"{k}={v}" for k, v in fields.items()])
            capture.extend(hdr_line.encode() + b"\n" + payload)

    # STATUS after the (optional) ALLOC: counters must be present, and
    # any recent-request ring entries must carry the phase breakdown.
    s.sendall(b"STATUS id=probe3\n")
    frame = recv_frame(rf, "probe:status")
    if frame:
        verb, fields, payload = frame
        if verb != "OK" or fields.get("id") != "probe3":
            fail(f"probe: STATUS answered {verb} id={fields.get('id')!r}")
        else:
            check_response_frame(verb, fields, payload, "probe:status")
            if ir_file and not payload:
                fail("probe: STATUS ring is empty right after an ALLOC")
    s.close()

    # A malformed header must be refused (ERR code=protocol), never hung on.
    s, rf = connect()
    s.sendall(b"not a frame\n")
    frame = recv_frame(rf, "probe:malformed")
    if frame:
        verb, fields, _ = frame
        if verb != "ERR" or fields.get("code") != "protocol":
            fail(f"probe: malformed header answered {verb} code={fields.get('code')!r}")
    s.close()

    # /metrics on the same port.
    s, rf = connect()
    s.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
    head = rf.readline().decode("ascii", "replace")
    if "200" not in head:
        fail(f"probe: GET /metrics answered {head.strip()!r}")
    body = rf.read().decode("utf-8", "replace")
    if "serve_responses_total" in body or "serve_queue_depth" in body:
        pass
    else:
        fail("probe: /metrics body has no serve_* series")
    s.close()

    # Validate everything captured on the wire, end to end.
    if capture:
        for i, (verb, fields, payload) in enumerate(parse_frames(bytes(capture), "probe:capture")):
            check_response_frame(verb, fields, payload, f"probe:capture#{i}")


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "log":
        check_log(arg)
    elif mode == "wire":
        check_wire(arg)
    elif mode == "probe":
        probe(arg, sys.argv[3] if len(sys.argv) > 3 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{mode}: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
