//! mesh-ctl: the opt-in (`MESH_CTL=/path/sock`) Unix-domain control
//! socket — live out-of-process introspection and control for a running
//! heap.
//!
//! ## Protocol (version 1)
//!
//! Line-oriented over `SOCK_STREAM`. On connect the server sends one
//! greeting line, `mesh-ctl 1\n`. Each request is one line; each
//! response is either
//!
//! ```text
//! ok <len>\n<len payload bytes>\n
//! err <message>\n
//! ```
//!
//! The length-prefixed framing keeps the payload binary-safe (the
//! `pprof` envelope is a protobuf, not text). Commands:
//!
//! | request | payload |
//! |---|---|
//! | any [`Report`] name (`stats` `prom` `profile` `pprof` `trace` `sense` `ledger` `spectrum`) | that report, rendered on demand (`err` with the kind's off message when its subsystem is disabled; see the table in [`super::report`]) |
//! | `mesh_now` | runs one meshing pass; summary JSON |
//! | `madvise_now` | purges dirty pages + retires segments; `{}` |
//! | `set <knob> <value>` | applies a whitelisted knob; ack JSON |
//! | `help` | this command list |
//!
//! ## The knob whitelist
//!
//! `set` accepts the rows of [`knobs::KNOBS`] that have a live apply — a
//! row has one iff applying it is a single atomic store on state that
//! every reader already tolerates changing between two loads:
//!
//! <!-- knobs:live -->
//! - `meshing` — master switch for meshing (§6.3 "no meshing" when off): one of 1/0/true/false/yes/no/on/off
//! - `mesh_period_ms` — minimum interval between meshing passes, in ms (§4.5): a number in 0..=4294967295
//! - `probe_limit` — SplitMesher probe limit `t` (§3.3): a number in 1..=4K
//! - `prof_sample_bytes` — mean bytes between samples: a number in 1..=1T
//! - `trace` — slow-path event tracer (mesh-trace): one of 1/0/true/false/yes/no/on/off
//! <!-- /knobs -->
//!
//! The value is parsed by [`knobs::parse`], the parser of the `MESH_*`
//! variables: out of range is an `err` naming the range, never a clamp.
//! Structural configuration (arena size, size classes, hardening,
//! enabling a subsystem that was built disabled) is rejected — those
//! choices sized tables and spawned state at heap birth, and no lock
//! ordering lets a socket command rebuild them under live traffic.
//!
//! ## Threading and fork safety
//!
//! The socket is served entirely by the existing background thread: the
//! listener is non-blocking, [`CtlState::tick`] accepts/reads/responds
//! during the telemetry beat, and `GlobalHeap::next_park` bounds the
//! park at [`CTL_PARK`] while the socket is live. The malloc fast path
//! never touches any of this. All server allocations happen inside the
//! tick's `with_internal_alloc` scope (the background thread wraps the
//! whole beat).
//!
//! The single I/O mutex joins `GlobalHeap::lock_all`'s fork-quiescence
//! set, so `fork()` cannot land mid-response: a client sees either a
//! complete envelope or a clean EOF, never a torn frame. It ranks above
//! the class and arena locks (`sync::RANKS`), so [`CtlState::tick`]
//! extracts complete request lines under it, **drops it** while the
//! dispatcher computes responses (dispatch takes class/arena locks;
//! holding the ctl lock across dispatch would invert that order and
//! deadlock a concurrent `fork`), then re-acquires it to write the
//! frames. The child drops every inherited
//! connection and the inherited listener, unlinks the path, and re-binds
//! it ([`CtlState::rebind_for_child`]) — the path follows the newest
//! process, so operators who fork should configure per-process socket
//! paths (e.g. with `$$` in the wrapper).

use super::Report;
use crate::knobs;
use crate::sync::{Mutex, MutexGuard, Rank};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Park bound for the background thread while the socket is live: the
/// worst-case latency from request to response. Large enough to keep an
/// idle-but-enabled socket near-free, small enough that `mesh-top`
/// refreshes feel live.
pub(crate) const CTL_PARK: Duration = Duration::from_millis(50);

/// Longest accepted *single* request line, bytes. Every real command
/// fits in a fraction of this; anything longer is a confused (or
/// hostile) client. The cap applies per line — complete lines are
/// drained as they arrive, so a pipelined burst of short commands may
/// total far more than this.
const MAX_REQUEST_BYTES: usize = 256;

/// Whole-frame write deadline. A client that cannot drain a frame within
/// this budget forfeits its connection rather than wedging the background
/// thread: the deadline bounds the *entire frame*, not one `write(2)`, so
/// a trickle-reading client cannot hold the I/O lock hostage by accepting
/// one byte per timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Back-off between short-write retries while waiting out `WRITE_TIMEOUT`.
const WRITE_RETRY: Duration = Duration::from_millis(2);

/// The greeting sent on accept: protocol name + version.
const GREETING: &[u8] = b"mesh-ctl 1\n";

/// One accepted client connection and its partial-request buffer.
#[derive(Debug)]
struct CtlConn {
    /// Stable identity: responses computed with the I/O lock dropped are
    /// routed back by id, so a connection that vanished in between
    /// (shutdown, child rebind, client death) just loses its frames.
    id: u64,
    stream: UnixStream,
    buf: Vec<u8>,
}

/// The mutable socket state: the listener and the accepted connections.
/// One mutex guards it all so exactly one guard joins the fork-
/// quiescence set.
#[derive(Debug)]
pub(crate) struct CtlIo {
    /// `None` when binding failed (another live process owns the path) —
    /// the heap then runs with the socket disabled rather than failing
    /// construction.
    listener: Option<UnixListener>,
    conns: Vec<CtlConn>,
    next_id: u64,
}

/// The control-socket server state hung off the global heap.
#[derive(Debug)]
pub(crate) struct CtlState {
    path: PathBuf,
    max_clients: usize,
    io: Mutex<CtlIo>,
}

/// A parsed request.
enum Request<'a> {
    Command(&'a str),
    Set { knob: &'a str, value: &'a str },
}

/// What the dispatcher answered with.
pub(crate) enum Response {
    Ok(Vec<u8>),
    Err(String),
}

impl Response {
    fn ok_str(s: String) -> Response {
        Response::Ok(s.into_bytes())
    }

    fn err(msg: &str) -> Response {
        Response::Err(msg.to_string())
    }

    /// Serializes the wire frame: `ok <len>\n<payload>\n` / `err <msg>\n`.
    fn frame(&self) -> Vec<u8> {
        match self {
            Response::Ok(payload) => {
                let mut out = format!("ok {}\n", payload.len()).into_bytes();
                out.extend_from_slice(payload);
                out.push(b'\n');
                out
            }
            Response::Err(msg) => format!("err {msg}\n").into_bytes(),
        }
    }
}

impl CtlState {
    /// Binds the socket at `path`, handling the stale-socket case: a
    /// leftover path whose owner is gone (connect refused) is unlinked
    /// and re-bound; a path with a *live* owner is left alone and this
    /// heap runs with the socket disabled (two processes cannot share
    /// one listener, and stealing a running server's socket out from
    /// under it would be worse than a warning).
    pub(crate) fn bind(path: &Path, max_clients: usize) -> CtlState {
        let listener = Self::bind_listener(path);
        CtlState {
            path: path.to_path_buf(),
            max_clients: max_clients.max(1),
            io: Mutex::new(Rank::CTL, CtlIo {
                listener,
                conns: Vec::new(),
                next_id: 0,
            }),
        }
    }

    fn bind_listener(path: &Path) -> Option<UnixListener> {
        let listener = match UnixListener::bind(path) {
            Ok(l) => Some(l),
            Err(e) if e.kind() == ErrorKind::AddrInUse => Self::reclaim_stale(path),
            Err(e) => {
                eprintln!(
                    "mesh: ctl bind at {} failed ({e}); control socket disabled",
                    path.display()
                );
                None
            }
        };
        if let Some(l) = &listener {
            // The background thread must never block in accept().
            let _ = l.set_nonblocking(true);
        }
        listener
    }

    /// `EADDRINUSE`: the path already exists. A refused connect means the
    /// previous owner died without unlinking, and the path is reclaimed.
    ///
    /// The probe-unlink-bind sequence is serialized across processes by an
    /// exclusive lock on a `<path>.lock` sidecar: without it, two racers
    /// can both observe "refused", and the second unlink removes the
    /// first's *freshly bound* socket — both then believe they are
    /// listening, and the first's shutdown later unlinks the second's live
    /// path. Under the lock, whichever process reclaims first turns the
    /// other's probe into a live connect, and the loser stands down
    /// without unlinking anything. The sidecar itself is never unlinked
    /// (removing a lockfile re-opens the race it exists to close); it is a
    /// zero-byte file next to the socket.
    fn reclaim_stale(path: &Path) -> Option<UnixListener> {
        let mut lock_path = path.as_os_str().to_os_string();
        lock_path.push(".lock");
        let lock_file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&lock_path);
        // Held until this fn returns; best-effort — an unwritable
        // directory degrades to the (racy) unserialized probe rather than
        // disabling recovery outright.
        let _lock = match lock_file {
            Ok(f) => {
                let _ = f.lock();
                Some(f)
            }
            Err(_) => None,
        };
        match UnixStream::connect(path) {
            // NotFound: the stale owner's own cleanup won the unlink race;
            // the path is simply free now.
            Err(pe)
                if pe.kind() == ErrorKind::ConnectionRefused
                    || pe.kind() == ErrorKind::NotFound =>
            {
                let _ = std::fs::remove_file(path);
                match UnixListener::bind(path) {
                    Ok(l) => Some(l),
                    Err(e2) => {
                        eprintln!(
                            "mesh: ctl rebind of stale socket {} failed ({e2}); \
                             control socket disabled",
                            path.display()
                        );
                        None
                    }
                }
            }
            _ => {
                eprintln!(
                    "mesh: ctl socket {} has a live owner; control socket disabled \
                     for this process",
                    path.display()
                );
                None
            }
        }
    }

    /// The socket path this server was configured with.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the listener actually bound (false: a live owner held the
    /// path, or bind failed).
    pub(crate) fn is_listening(&self) -> bool {
        self.io.lock().listener.is_some()
    }

    /// Holds the I/O lock (fork quiescence: no response write may be in
    /// flight across `fork`).
    pub(crate) fn lock_io(&self) -> MutexGuard<'_, CtlIo> {
        self.io.lock()
    }

    /// Child-side fork recovery: every inherited connection and the
    /// inherited listener belong to the parent — drop them (the parent
    /// keeps serving its accepted clients), unlink the path, and bind a
    /// fresh listener so the child answers on the same address.
    pub(crate) fn rebind_for_child(&self) {
        let mut io = self.io.lock();
        io.conns.clear();
        io.listener = None;
        let _ = std::fs::remove_file(&self.path);
        io.listener = Self::bind_listener(&self.path);
    }

    /// Stops serving: drops all connections (clients see EOF) and the
    /// listener, and unlinks the path. Idempotent.
    pub(crate) fn shutdown(&self) {
        let mut io = self.io.lock();
        if io.listener.is_some() || !io.conns.is_empty() {
            io.conns.clear();
            io.listener = None;
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// One background-thread beat: accepts pending connections (greeting
    /// each; over-cap connections are accepted and immediately dropped),
    /// reads request lines from every client, and answers them through
    /// `dispatch`. Runs under the caller's `with_internal_alloc` scope.
    ///
    /// Three phases around the I/O lock, which ranks above every shard
    /// lock: accept/read under the lock, dispatch with the lock
    /// **dropped** (the handlers take class/arena locks, which rank
    /// below the ctl lock — holding the ctl lock here would
    /// ABBA-deadlock a concurrent `fork`), then
    /// re-acquire to write the response frames. A connection that
    /// disappears between phases (shutdown, child rebind) silently drops
    /// its responses; the requests' side effects (`mesh_now`, `set`)
    /// still land, as the client had fully sent them.
    pub(crate) fn tick(&self, dispatch: &mut dyn FnMut(&str) -> Response) {
        // Phase 1 — under the I/O lock: accept and read. Nothing in here
        // touches a shard lock.
        let mut requests: Vec<(u64, String)> = Vec::new();
        {
            let mut io = self.io.lock();
            let CtlIo {
                listener,
                conns,
                next_id,
            } = &mut *io;
            if let Some(listener) = listener {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if conns.len() >= self.max_clients {
                                drop(stream);
                                continue;
                            }
                            let _ = stream.set_nonblocking(true);
                            let mut conn = CtlConn {
                                id: *next_id,
                                stream,
                                buf: Vec::new(),
                            };
                            *next_id += 1;
                            if write_frame(&mut conn.stream, GREETING) {
                                conns.push(conn);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
            conns.retain_mut(|conn| read_requests(conn, &mut requests));
        }
        if requests.is_empty() {
            return;
        }
        // Phase 2 — lock dropped: the dispatcher takes whatever heap
        // locks it needs; a concurrent lock_all interleaves freely.
        let frames: Vec<(u64, Vec<u8>)> = requests
            .iter()
            .map(|(id, line)| (*id, dispatch(line).frame()))
            .collect();
        // Phase 3 — under the I/O lock again: route each frame back to
        // its connection by id and write it.
        let mut io = self.io.lock();
        for (id, frame) in frames {
            let Some(pos) = io.conns.iter().position(|c| c.id == id) else {
                continue;
            };
            if !write_frame(&mut io.conns[pos].stream, &frame) {
                io.conns.remove(pos);
            }
        }
    }
}

impl Drop for CtlState {
    fn drop(&mut self) {
        // Best-effort path cleanup on heap teardown. A forked child that
        // re-bound the same path races this when the parent exits first;
        // per-process paths avoid that (see module docs).
        self.shutdown();
    }
}

/// Reads whatever the client has sent, appending every complete request
/// line to `out` (tagged with the connection id), and says whether the
/// connection should be kept. Complete lines are drained as they arrive,
/// so [`MAX_REQUEST_BYTES`] bounds a *single line* — a pipelined burst of
/// short commands may total far more — and the residual buffer only ever
/// holds one unterminated partial line.
fn read_requests(conn: &mut CtlConn, out: &mut Vec<(u64, String)>) -> bool {
    let mut chunk = [0u8; 512];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false, // client hung up
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
                    if pos > MAX_REQUEST_BYTES {
                        let _ = write_frame(
                            &mut conn.stream,
                            &Response::err("request line too long").frame(),
                        );
                        return false;
                    }
                    let line: Vec<u8> = conn.buf.drain(..=pos).collect();
                    let Ok(line) = std::str::from_utf8(&line[..pos]) else {
                        let _ = write_frame(
                            &mut conn.stream,
                            &Response::err("request not UTF-8").frame(),
                        );
                        return false;
                    };
                    let line = line.trim();
                    if !line.is_empty() {
                        out.push((conn.id, line.to_string()));
                    }
                }
                if conn.buf.len() > MAX_REQUEST_BYTES {
                    let _ = write_frame(
                        &mut conn.stream,
                        &Response::err("request line too long").frame(),
                    );
                    return false;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Writes one frame on the (non-blocking) stream under a whole-frame
/// deadline. Returns whether the client is still good. `SO_SNDTIMEO`
/// would re-arm per `write(2)`, letting a client that drains one byte
/// per timeout hold the background thread — and with it the I/O lock —
/// indefinitely; the explicit deadline caps the total at
/// [`WRITE_TIMEOUT`] regardless of how the client trickles.
fn write_frame(stream: &mut UnixStream, bytes: &[u8]) -> bool {
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return false,
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return false;
                }
                std::thread::sleep(WRITE_RETRY);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Parses one request line into a [`Request`], or an error message.
fn parse(line: &str) -> Result<Request<'_>, &'static str> {
    let mut words = line.split_whitespace();
    let cmd = words.next().ok_or("empty request")?;
    if cmd == "set" {
        let knob = words.next().ok_or("usage: set <knob> <value>")?;
        let value = words.next().ok_or("usage: set <knob> <value>")?;
        if words.next().is_some() {
            return Err("usage: set <knob> <value>");
        }
        return Ok(Request::Set { knob, value });
    }
    if words.next().is_some() {
        return Err("unexpected argument");
    }
    Ok(Request::Command(cmd))
}

/// The command list returned by `help`: every report name, then the
/// control commands, then the `set` whitelist.
fn help() -> String {
    let reports: Vec<&str> = Report::ALL.iter().map(|k| k.name()).collect();
    format!(
        "{} mesh_now madvise_now set help\nknobs: {}",
        reports.join(" "),
        knobs::live_names().join(" ")
    )
}

impl crate::global_heap::GlobalHeap {
    /// Serves one beat of the control socket, if one is configured.
    /// Called from the background thread's telemetry beat, inside its
    /// `with_internal_alloc` scope, with no shard locks held (both
    /// `mesh_now` and the envelope renderers take their own).
    pub(crate) fn ctl_tick(&self) {
        let Some(ctl) = &self.ctl else { return };
        ctl.tick(&mut |line| self.ctl_dispatch(line));
    }

    /// Answers one request line. A report name is rendered on demand by
    /// the same [`GlobalHeap::render`] every other trigger uses; every
    /// `set` is a single atomic store (see the module docs for the
    /// whitelist argument).
    ///
    /// [`GlobalHeap::render`]: crate::global_heap::GlobalHeap::render
    pub(crate) fn ctl_dispatch(&self, line: &str) -> Response {
        let cmd = match parse(line) {
            Ok(Request::Command(cmd)) => cmd,
            Ok(Request::Set { knob, value }) => return self.ctl_set(knob, value),
            Err(msg) => return Response::err(msg),
        };
        if let Some(kind) = Report::from_name(cmd) {
            return match self.render(kind) {
                Ok(bytes) => Response::Ok(bytes),
                Err(off) => Response::err(off.0),
            };
        }
        match cmd {
            "mesh_now" => {
                let s = self.mesh_now();
                Response::ok_str(format!(
                    "{{\"pairs_meshed\":{},\"pages_released\":{},\"bytes_copied\":{},\
                     \"pairs_probed\":{},\"meshing_enabled\":{}}}",
                    s.pairs_meshed,
                    s.pages_released,
                    s.bytes_copied,
                    s.pairs_probed,
                    self.rt.meshing(),
                ))
            }
            "madvise_now" => {
                self.purge_and_retire();
                Response::ok_str("{\"purged\":true}".to_string())
            }
            "help" => Response::ok_str(help()),
            _ => Response::err("unknown command (try: help)"),
        }
    }

    /// Applies one knob with a live apply: lookup, [`knobs::parse`], the
    /// row's single atomic store. The ack echoes the value as sent; out of
    /// range is an `err` naming the range, never a clamp, and a knob whose
    /// subsystem was built disabled is an error, not a silent no-op.
    fn ctl_set(&self, knob: &str, value: &str) -> Response {
        let Some(row) = knobs::find(knob).filter(|row| row.live.is_some()) else {
            return Response::err("unknown knob (try: help)");
        };
        let applied = knobs::parse(row, value)
            .map_err(|why| format!("{knob}: {why}"))
            .and_then(|v| row.apply_live(self, &v).map(|()| v));
        match applied {
            Ok(v) => Response::ok_str(format!(
                "{{\"knob\":\"{knob}\",\"value\":{}}}",
                knobs::render(&v)
            )),
            Err(why) => Response::Err(why),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mesh-ctl-test-{tag}-{}.sock", std::process::id()))
    }

    /// Env/ctl parity by construction: for every row with a live apply,
    /// the text [`knobs::parse`] (the environment's parser) refuses is
    /// the text `set` refuses, and an accepted `set` acks the value it
    /// was given — never a clamped one.
    #[test]
    fn set_accepts_what_the_environment_accepts_and_acks_it_verbatim() {
        use crate::knobs::{Kind, KNOBS};
        let heap = crate::global_heap::GlobalHeap::new(
            crate::MeshConfig::default()
                .arena_bytes(64 << 20)
                .profiling(true)
                .tracing(true),
            std::sync::Arc::new(crate::stats::Counters::default()),
        )
        .unwrap();
        let set = |name: &str, text: &str| match heap.ctl_dispatch(&format!("set {name} {text}")) {
            Response::Ok(ack) => Ok(String::from_utf8(ack).unwrap()),
            Response::Err(why) => Err(why),
        };
        let mut live = 0;
        for row in KNOBS.iter().filter(|row| row.live.is_some()) {
            live += 1;
            let (min, max) = match row.kind {
                Kind::Num { min, max } => (min as u128, max as u128),
                _ => (0, 1),
            };
            let mut texts: Vec<String> =
                ["0", "1", "64K", "banana", "-1", "18446744073709551615"].map(String::from).into();
            texts.extend([min.wrapping_sub(1), min, max, max + 1].map(|n| n.to_string()));
            texts.push(row.default.to_string());
            for text in &texts {
                let by_env = knobs::parse(row, text);
                let by_ctl = set(row.name, text);
                match (&by_env, &by_ctl) {
                    (Ok(v), Ok(ack)) => assert_eq!(
                        *ack,
                        format!("{{\"knob\":\"{}\",\"value\":{}}}", row.name, knobs::render(v)),
                        "{} {text}: the ack is the value as sent",
                        row.name
                    ),
                    (Err(why), Err(said)) => {
                        assert_eq!(*said, format!("{}: {why}", row.name), "one refusal text")
                    }
                    _ => panic!("{} {text}: env {by_env:?}, ctl {by_ctl:?}", row.name),
                }
            }
        }
        assert_eq!(live, 5);

        // The drifts this closes, pinned: no clamp to 1 ms, no clamp to
        // "sample every byte", no probe limit a pass would spin on.
        for refused in ["prof_sample_bytes 0", "probe_limit 0", "probe_limit 18446744073709551615"] {
            let (name, text) = refused.split_once(' ').unwrap();
            assert!(set(name, text).is_err(), "set {refused}");
        }
        assert_eq!(set("probe_limit", "256").unwrap(), "{\"knob\":\"probe_limit\",\"value\":256}");
        assert_eq!(heap.rt.probe_limit(), 256);
        // A row without a live apply is as unknown as a name with no row.
        for name in ["max_heap_bytes", "harden", "transfer_batch"] {
            assert_eq!(set(name, "1").unwrap_err(), "unknown knob (try: help)");
        }
        let help = match heap.ctl_dispatch("help") {
            Response::Ok(text) => String::from_utf8(text).unwrap(),
            Response::Err(why) => panic!("{why}"),
        };
        assert_eq!(help.lines().nth(1).unwrap(), format!("knobs: {}", knobs::live_names().join(" ")));
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(Response::ok_str("abc".into()).frame(), b"ok 3\nabc\n");
        assert_eq!(Response::err("nope").frame(), b"err nope\n");
        assert_eq!(Response::Ok(vec![0, 1, 2]).frame(), b"ok 3\n\x00\x01\x02\n");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(matches!(parse("stats"), Ok(Request::Command("stats"))));
        assert!(matches!(
            parse("set trace 1"),
            Ok(Request::Set { knob: "trace", value: "1" })
        ));
        assert!(parse("set trace").is_err());
        assert!(parse("set trace 1 2").is_err());
        assert!(parse("stats now").is_err());
    }

    #[test]
    fn bind_serves_and_reclaims_stale_sockets() {
        let path = sock_path("bind");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 2);
        assert!(ctl.is_listening());
        // A second server on the same live path must stand down.
        let loser = CtlState::bind(&path, 2);
        assert!(!loser.is_listening());
        drop(loser);
        assert!(path.exists(), "loser's drop must not unlink the winner's socket");
        drop(ctl);
        assert!(!path.exists(), "shutdown unlinks the socket path");
        // A stale path (owner died without unlinking) is reclaimed.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        let stale = CtlState::bind(&path, 2);
        assert!(stale.is_listening(), "stale socket is unlinked and re-bound");
        drop(stale);
    }

    #[test]
    fn tick_accepts_greets_and_answers() {
        let path = sock_path("tick");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 1);
        let mut client = UnixStream::connect(&path).unwrap();
        // Over-cap client: accepted then dropped.
        let mut extra = UnixStream::connect(&path).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        let mut greeting = [0u8; GREETING.len()];
        client.read_exact(&mut greeting).unwrap();
        assert_eq!(&greeting, GREETING);
        assert_eq!(extra.read(&mut [0u8; 8]).unwrap(), 0, "over-cap sees EOF");
        client.write_all(b"ping\n").unwrap();
        ctl.tick(&mut |line| {
            assert_eq!(line, "ping");
            Response::ok_str("pong".into())
        });
        let mut reply = [0u8; 10];
        client.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"ok 4\npong\n");
        // Client EOF retires the connection on the next tick.
        drop(client);
        ctl.tick(&mut |_| Response::err("unreached"));
        assert!(ctl.io.lock().conns.is_empty());
        drop(ctl);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_request_is_rejected() {
        let path = sock_path("oversize");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 1);
        let mut client = UnixStream::connect(&path).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        client.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1]).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        let mut out = Vec::new();
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        client.read_to_end(&mut out).unwrap(); // greeting + err + EOF
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("err request line too long"), "got {text:?}");
        drop(ctl);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_complete_line_is_rejected() {
        let path = sock_path("oversize-line");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 1);
        let mut client = UnixStream::connect(&path).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        let mut big = vec![b'x'; MAX_REQUEST_BYTES + 1];
        big.push(b'\n');
        client.write_all(&big).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        let mut out = Vec::new();
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        client.read_to_end(&mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("err request line too long"), "got {text:?}");
        drop(ctl);
        let _ = std::fs::remove_file(&path);
    }

    /// The per-line cap must not punish pipelining: many individually
    /// valid short commands whose total exceeds `MAX_REQUEST_BYTES` in
    /// one burst are all answered.
    #[test]
    fn pipelined_burst_exceeding_line_cap_is_answered() {
        let path = sock_path("pipeline");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 1);
        let mut client = UnixStream::connect(&path).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        let mut greeting = [0u8; GREETING.len()];
        client.read_exact(&mut greeting).unwrap();
        let n = 2 * MAX_REQUEST_BYTES / 5; // "ping\n" ×n ≈ 2× the cap
        client.write_all("ping\n".repeat(n).as_bytes()).unwrap();
        let mut served = 0;
        ctl.tick(&mut |line| {
            assert_eq!(line, "ping");
            served += 1;
            Response::ok_str("pong".into())
        });
        assert_eq!(served, n, "every pipelined command is dispatched");
        let mut reply = vec![0u8; b"ok 4\npong\n".len() * n];
        client.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        client.read_exact(&mut reply).unwrap();
        assert!(reply.chunks(10).all(|c| c == b"ok 4\npong\n"));
        drop(ctl);
        let _ = std::fs::remove_file(&path);
    }

    /// Regression test for the fork lock-order inversion: the dispatcher
    /// (which takes class/arena locks ordered *before* the ctl lock in
    /// `GlobalHeap::lock_all`) must run with the I/O lock dropped, or a
    /// concurrent `fork_prepare` holding shard locks and waiting on the
    /// ctl lock would ABBA-deadlock against this thread.
    #[test]
    fn dispatch_runs_with_io_lock_dropped() {
        let path = sock_path("lockfree-dispatch");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 1);
        let mut client = UnixStream::connect(&path).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        client.write_all(b"ping\n").unwrap();
        let mut dispatched = false;
        ctl.tick(&mut |_| {
            assert!(
                ctl.io.try_lock().is_some(),
                "I/O lock held across dispatch: fork lock-order inversion"
            );
            dispatched = true;
            Response::ok_str("pong".into())
        });
        assert!(dispatched);
        drop(ctl);
        let _ = std::fs::remove_file(&path);
    }

    /// A client that stops reading forfeits its connection once the
    /// whole-frame deadline expires — the background thread must not be
    /// wedged by a full socket buffer.
    #[test]
    fn stalled_reader_is_dropped_at_frame_deadline() {
        let path = sock_path("stall");
        let _ = std::fs::remove_file(&path);
        let ctl = CtlState::bind(&path, 1);
        let mut client = UnixStream::connect(&path).unwrap();
        ctl.tick(&mut |_| Response::err("unreached"));
        client.write_all(b"big\n").unwrap();
        // Never read the response: an 8 MiB payload overflows both
        // socket buffers, so the write hits the deadline.
        let started = Instant::now();
        ctl.tick(&mut |_| Response::Ok(vec![b'z'; 8 << 20]));
        assert!(
            started.elapsed() < WRITE_TIMEOUT + Duration::from_secs(5),
            "tick must give up on a stalled reader near the frame deadline"
        );
        assert!(
            ctl.io.lock().conns.is_empty(),
            "stalled connection is dropped"
        );
        drop(client);
        drop(ctl);
        let _ = std::fs::remove_file(&path);
    }

    /// Two processes racing to reclaim the same stale path must elect
    /// exactly one winner, and the loser's drop must not unlink the
    /// winner's live socket (the sidecar flock serializes
    /// probe-unlink-bind).
    #[test]
    fn concurrent_stale_reclaim_elects_one_winner() {
        let path = sock_path("reclaim-race");
        let _ = std::fs::remove_file(&path);
        // Fabricate a stale socket: bound, then owner gone, path left.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let p = path.clone();
                std::thread::spawn(move || CtlState::bind(&p, 2))
            })
            .collect();
        let states: Vec<CtlState> = racers.into_iter().map(|h| h.join().unwrap()).collect();
        let listening = states.iter().filter(|s| s.is_listening()).count();
        assert_eq!(listening, 1, "exactly one racer may reclaim the stale path");
        let (winner, loser): (Vec<CtlState>, Vec<CtlState>) =
            states.into_iter().partition(|s| s.is_listening());
        drop(loser);
        assert!(path.exists(), "loser's drop must not unlink the winner's socket");
        UnixStream::connect(&path).expect("winner still serving after loser drop");
        drop(winner);
        assert!(!path.exists());
    }
}
