//! The `regalloc-serve` wire protocol: line-oriented framed text.
//!
//! Every frame is one ASCII header line (`VERB key=value ...\n`) followed
//! by exactly `bytes=<n>` bytes of payload when the header carries a
//! `bytes` field. Header keys are `[a-z_]+`, values contain no spaces or
//! newlines; unknown keys are ignored (forward compatibility). Requests
//! carry a client-chosen `id` that the terminal response echoes, so
//! clients may pipeline: many requests in flight on one connection,
//! responses matched by id (responses may arrive out of order).
//!
//! This is the one statement of the grammar, as the server speaks it. A
//! reader must accept a header's fields in any order; frames are written
//! with their fields sorted by key, which is the order given here.
//!
//! ```text
//! request   := alloc | ping | drain | status
//! alloc     := "ALLOC bytes=<n> client=<tok> id=<tok>" [" budget_ms=<n>"]
//!              [" fault_seed=<n>"] [" lint=0|1"] [" target=<tok>"] "\n" payload
//! ping      := "PING id=<tok>\n"
//! drain     := "DRAIN id=<tok>\n"
//! status    := "STATUS id=<tok>\n"
//!
//! response  := ok | drained | status_ok | err | busy | draining | pong
//! ok        := "OK budget=full|shrunk|exhausted bytes=<n> cache=hit|miss
//!               granted_ms=<n> id=<tok> rung=<tok> target=<tok> want_ms=<n>\n"
//!               payload
//! drained   := "OK draining=1 id=<tok>\n"
//! status_ok := "OK accepted=<n> active=<n> busy=<n> bytes=<n> errors=<n>
//!               id=<tok> queued=<n> responded=<n> status=1 uptime_ms=<n>\n"
//!               payload
//! err       := "ERR bytes=<n> code=parse|target|protocol|panic|alloc
//!               id=<tok>\n" payload
//! busy      := "BUSY id=<tok> retry_ms=<n>\n"
//! draining  := "DRAINING id=<tok>\n"
//! pong      := "PONG id=<tok>\n"
//! ```
//!
//! A request without `id` is answered with `id=?`, and an `ALLOC`
//! without `client` is charged to the tenant `anon`. An absent `target=`
//! allocates for the daemon's `--target`; an unregistered name is refused
//! with `code=target`. `want_ms` is the deadline asked for with
//! `budget_ms` (the daemon's per-function budget when absent, and never
//! above it); `granted_ms` is what the client's budget bucket granted.
//! `ERR code=parse|target|protocol` refuses a request before admission;
//! `code=alloc` and `code=panic` report an admitted request whose
//! allocation failed.
//!
//! `STATUS` carries the daemon's live counters in its header and a
//! payload of one `req id=... client=... rung=... cache=... total_ms=...
//! build_ms=... solve_ms=... validate_ms=...` line per recently
//! completed request (newest first, bounded ring).
//!
//! The `OK` payload is sectioned text: the accepted allocation between
//! `.func` and `.report` (byte-identical to what `regalloc-driver
//! --dump-allocs` writes for the same input and configuration), the
//! allocation report as `key=value` lines after `.report`, optional lint
//! diagnostics after `.lints`, and a closing `.end`.
//!
//! The protocol guarantee the chaos suite enforces: **every request the
//! server reads gets exactly one terminal response** (`OK`, `ERR`,
//! `BUSY`, `DRAINING`, or `PONG`), even when the solve panics or the
//! server is draining.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Protocol-level error codes carried by `ERR` frames.
pub const ERR_PARSE: &str = "parse";
pub const ERR_TARGET: &str = "target";
pub const ERR_PROTOCOL: &str = "protocol";
pub const ERR_PANIC: &str = "panic";
pub const ERR_ALLOC: &str = "alloc";

/// A parsed header line: verb plus `key=value` fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub verb: String,
    pub fields: BTreeMap<String, String>,
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no fields or payload.
    pub fn new(verb: &str) -> Frame {
        Frame {
            verb: verb.to_string(),
            fields: BTreeMap::new(),
            payload: Vec::new(),
        }
    }

    /// Add a `key=value` field. Keys and values must be token-clean
    /// (no spaces or newlines); debug-asserted, not escaped.
    pub fn field(mut self, key: &str, value: impl ToString) -> Frame {
        let v = value.to_string();
        debug_assert!(!key.contains([' ', '\n']) && !v.contains([' ', '\n']));
        self.fields.insert(key.to_string(), v);
        self
    }

    /// Attach a payload (sets the `bytes` field).
    pub fn with_payload(mut self, payload: Vec<u8>) -> Frame {
        self.fields
            .insert("bytes".to_string(), payload.len().to_string());
        self.payload = payload;
        self
    }

    /// Field accessor.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Parse an integer field.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// The request/response id ("?" when absent, so an id-less malformed
    /// frame still gets an addressable terminal response).
    pub fn id(&self) -> &str {
        self.get("id").unwrap_or("?")
    }

    /// Serialize: header line, then the raw payload, handed to `w` in one
    /// `write_all` so a socket sends the frame without waiting for the
    /// peer to acknowledge the header first.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = self.verb.clone().into_bytes();
        for (k, v) in &self.fields {
            buf.push(b' ');
            buf.extend_from_slice(k.as_bytes());
            buf.push(b'=');
            buf.extend_from_slice(v.as_bytes());
        }
        buf.push(b'\n');
        buf.extend_from_slice(&self.payload);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Parse a header line (no trailing newline) into a payload-less
    /// frame.
    pub fn parse_header(line: &str) -> Result<Frame, String> {
        if line.is_empty() {
            return Err("empty header line".to_string());
        }
        let mut parts = line.split(' ');
        let verb = parts.next().unwrap_or("").to_string();
        if verb.is_empty() || !verb.chars().all(|c| c.is_ascii_uppercase()) {
            return Err(format!("bad verb `{verb}`"));
        }
        let mut frame = Frame::new(&verb);
        for p in parts {
            match p.split_once('=') {
                Some((k, v)) if !k.is_empty() => {
                    frame.fields.insert(k.to_string(), v.to_string());
                }
                _ => return Err(format!("bad field `{p}`")),
            }
        }
        Ok(frame)
    }

    /// Read this frame's payload as declared by its `bytes=` field.
    ///
    /// The length is capped by `max_payload` — a frame above the cap is
    /// rejected here, *before* any allocation of the payload buffer, so a
    /// hostile header cannot OOM the server.
    pub fn read_payload(
        &mut self,
        r: &mut impl BufRead,
        max_payload: usize,
    ) -> std::io::Result<Result<(), String>> {
        if let Some(n) = self.get("bytes") {
            let n: usize = match n.parse() {
                Ok(n) => n,
                Err(_) => return Ok(Err(format!("bad bytes count `{n}`"))),
            };
            if n > max_payload {
                return Ok(Err(format!(
                    "payload of {n} bytes exceeds the {max_payload}-byte cap"
                )));
            }
            let mut payload = vec![0u8; n];
            r.read_exact(&mut payload)?;
            self.payload = payload;
        }
        Ok(Ok(()))
    }

    /// Read one frame. Returns `Ok(None)` on clean EOF before a header.
    pub fn read_from(
        r: &mut impl BufRead,
        max_payload: usize,
    ) -> std::io::Result<Option<Result<Frame, String>>> {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let line = line.trim_end_matches(['\r', '\n']);
        let mut frame = match Frame::parse_header(line) {
            Ok(f) => f,
            Err(e) => return Ok(Some(Err(e))),
        };
        match frame.read_payload(r, max_payload)? {
            Ok(()) => Ok(Some(Ok(frame))),
            Err(e) => Ok(Some(Err(e))),
        }
    }
}

/// Build the sectioned `OK` payload from an allocation outcome.
pub fn ok_payload(r: &regalloc_driver::FunctionResult) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str(".func\n");
    if let Some(f) = &r.func {
        let _ = writeln!(s, "{f}");
    }
    s.push_str(".report\n");
    let reasons: Vec<&str> = r.reasons.iter().map(|c| c.name()).collect();
    let _ = writeln!(s, "name={}", r.name);
    let _ = writeln!(s, "rung={}", r.rung.map_or("none", |x| x.name()));
    let _ = writeln!(s, "reasons={}", reasons.join(","));
    let _ = writeln!(s, "constraints={}", r.num_constraints);
    let _ = writeln!(s, "vars={}", r.num_vars);
    let _ = writeln!(s, "insts={}", r.num_insts);
    let _ = writeln!(s, "solver_nodes={}", r.solver_nodes);
    let _ = writeln!(s, "lp_iters={}", r.lp_iters);
    let _ = writeln!(s, "ip_bytes={}", r.ip_bytes);
    let _ = writeln!(s, "warm_start={}", r.warm_start.name());
    let _ = writeln!(
        s,
        "spills={}",
        r.stats.loads + r.stats.stores + r.stats.remats
    );
    if !r.lints.is_empty() {
        s.push_str(".lints\n");
        for d in &r.lints {
            let _ = writeln!(s, "{d}");
        }
    }
    s.push_str(".end\n");
    s.into_bytes()
}

/// Split an `OK` payload back into its sections (`.func` text and the
/// `.report` key/value map); used by the client and the soak checker.
pub fn parse_ok_payload(payload: &[u8]) -> Result<(String, BTreeMap<String, String>), String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let mut func = String::new();
    let mut report = BTreeMap::new();
    let mut section = "";
    for line in text.lines() {
        match line {
            ".func" | ".report" | ".lints" | ".end" => section = line,
            _ => match section {
                ".func" => {
                    func.push_str(line);
                    func.push('\n');
                }
                ".report" => {
                    if let Some((k, v)) = line.split_once('=') {
                        report.insert(k.to_string(), v.to_string());
                    }
                }
                ".lints" => {}
                _ => return Err(format!("line outside any section: `{line}`")),
            },
        }
    }
    if section != ".end" {
        return Err("payload not terminated by .end".to_string());
    }
    Ok((func, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(f: &Frame) -> Frame {
        let mut buf = Vec::new();
        f.write_to(&mut buf).unwrap();
        Frame::read_from(&mut BufReader::new(&buf[..]), 1 << 20)
            .unwrap()
            .unwrap()
            .unwrap()
    }

    #[test]
    fn frames_round_trip_with_and_without_payload() {
        let ping = Frame::new("PING").field("id", "r1");
        assert_eq!(round_trip(&ping), ping);
        let alloc = Frame::new("ALLOC")
            .field("id", "r2")
            .field("client", "c1")
            .with_payload(b"fn f {\n}\n".to_vec());
        let back = round_trip(&alloc);
        assert_eq!(back.payload, alloc.payload);
        assert_eq!(back.get("client"), Some("c1"));
        assert_eq!(back.get_u64("bytes"), Some(9));
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Accepts every byte offered and counts the `write` calls.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = b".func\nfn f {\n}\n.end\n";
        let frames = [
            (
                Frame::new("PONG").field("id", "r1"),
                "PONG id=r1\n".to_string(),
            ),
            (
                Frame::new("OK")
                    .field("id", "r2")
                    .with_payload(payload.to_vec()),
                format!(
                    "OK bytes={} id=r2\n.func\nfn f {{\n}}\n.end\n",
                    payload.len()
                ),
            ),
        ];
        for (f, wire) in &frames {
            let mut w = CountingWriter::default();
            f.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{} frame took {} writes", f.verb, w.writes);
            assert_eq!(String::from_utf8_lossy(&w.bytes), *wire);
        }
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        let data = b"ALLOC id=r bytes=18446744073709551615\n";
        let got = Frame::read_from(&mut BufReader::new(&data[..]), 1 << 20)
            .unwrap()
            .unwrap();
        assert!(got.is_err(), "huge frame must be refused: {got:?}");
    }

    #[test]
    fn malformed_headers_are_errors_not_panics() {
        for bad in ["\n", "alloc id=1\n", "ALLOC id\n", "ALLOC bytes=x\n"] {
            let got = Frame::read_from(&mut BufReader::new(bad.as_bytes()), 64)
                .unwrap()
                .unwrap();
            assert!(got.is_err(), "`{}` should be rejected", bad.escape_debug());
        }
    }

    #[test]
    fn eof_before_header_is_a_clean_none() {
        let got = Frame::read_from(&mut BufReader::new(&b""[..]), 64).unwrap();
        assert!(got.is_none());
    }
}
