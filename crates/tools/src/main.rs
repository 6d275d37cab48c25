//! mesh-top: a live terminal dashboard for a Mesh heap, speaking the
//! mesh-ctl protocol (version 1) over the heap's Unix control socket.
//!
//! ```sh
//! MESH_CTL=/tmp/mesh.$$ LD_PRELOAD=target/release/libmesh.so ./server &
//! mesh-top --socket /tmp/mesh.$$
//! ```
//!
//! Renders per-class occupancy spectra, meshing-ledger pass outcomes
//! (with reject reasons), RSS / PSI / cgroup memory pressure from
//! mesh-sense, and slow-path latency percentiles — refreshed in place.
//! `--once` prints a single frame; `--once --json` emits one combined
//! JSON document for scripting. `--pprof-out FILE` saves the live-heap
//! profile as a pprof protobuf, and `--check-pprof FILE` validates one
//! with the in-tree parser (the CI schema check).
//!
//! Dependency-free by design (ANSI escapes); `mesh-core` is linked only
//! for its readers, [`mesh_core::json`] and [`mesh_core::parse_pprof`].

use mesh_core::json::Json;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

const USAGE: &str = "\
mesh-top: live dashboard for a Mesh heap's mesh-ctl socket

USAGE:
  mesh-top [--socket PATH] [--interval MS] [--once] [--json]
           [--pprof-out FILE] [--check-pprof FILE]

OPTIONS:
  --socket PATH      control socket path (default: $MESH_CTL)
  --interval MS      refresh interval in milliseconds (default 1000)
  --once             render one frame and exit
  --json             with --once: emit one combined JSON document
  --pprof-out FILE   fetch the pprof live-heap profile into FILE
  --check-pprof FILE validate FILE as a pprof profile and print a summary
  -h, --help         this text";

struct Options {
    socket: Option<String>,
    interval: Duration,
    once: bool,
    json: bool,
    pprof_out: Option<String>,
    check_pprof: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        socket: std::env::var("MESH_CTL").ok().filter(|s| !s.is_empty()),
        interval: Duration::from_millis(1000),
        once: false,
        json: false,
        pprof_out: None,
        check_pprof: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--socket" => opts.socket = Some(value("--socket")?),
            "--interval" => {
                let ms: u64 = value("--interval")?
                    .parse()
                    .map_err(|_| "--interval must be an integer (ms)".to_string())?;
                opts.interval = Duration::from_millis(ms.max(50));
            }
            "--once" => opts.once = true,
            "--json" => opts.json = true,
            "--pprof-out" => opts.pprof_out = Some(value("--pprof-out")?),
            "--check-pprof" => opts.check_pprof = Some(value("--check-pprof")?),
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mesh-top: {e}");
            std::process::exit(2);
        }
    };
    // Offline validation needs no socket at all.
    if let Some(file) = &opts.check_pprof {
        std::process::exit(check_pprof(file));
    }
    let Some(socket) = &opts.socket else {
        eprintln!("mesh-top: no socket (pass --socket or set MESH_CTL; see --help)");
        std::process::exit(2);
    };
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mesh-top: cannot connect to {socket}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(file) = &opts.pprof_out {
        match client.request("pprof") {
            Ok(bytes) => {
                if let Err(e) = std::fs::write(file, &bytes) {
                    eprintln!("mesh-top: writing {file}: {e}");
                    std::process::exit(1);
                }
                eprintln!("mesh-top: wrote {} bytes of pprof to {file}", bytes.len());
            }
            Err(e) => {
                eprintln!("mesh-top: pprof: {e}");
                std::process::exit(1);
            }
        }
        if opts.once && !opts.json {
            return;
        }
    }
    loop {
        let frame = Frame::fetch(&mut client);
        if opts.once && opts.json {
            println!("{}", frame.to_json());
            return;
        }
        if opts.once {
            print!("{}", frame.render());
            return;
        }
        // Clear + home, then the frame: flicker-free in-place refresh.
        print!("\x1b[2J\x1b[H{}", frame.render());
        let _ = std::io::stdout().flush();
        std::thread::sleep(opts.interval);
    }
}

fn check_pprof(file: &str) -> i32 {
    let bytes = match std::fs::read(file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mesh-top: reading {file}: {e}");
            return 1;
        }
    };
    match mesh_core::parse_pprof(&bytes) {
        Ok(s) => {
            let types: Vec<String> = s
                .sample_types
                .iter()
                .map(|(t, u)| format!("{t}/{u}"))
                .collect();
            println!(
                "pprof ok: {} samples, {} locations, {} functions, sample_types=[{}], \
                 period={} {}/{}, totals={:?}",
                s.samples,
                s.locations,
                s.functions,
                types.join(", "),
                s.period,
                s.period_type.0,
                s.period_type.1,
                s.totals,
            );
            0
        }
        Err(e) => {
            eprintln!("mesh-top: {file} is not a valid pprof profile: {e}");
            1
        }
    }
}

// ---------------------------------------------------------------------
// Protocol client
// ---------------------------------------------------------------------

struct Client {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(path: &str) -> Result<Client, String> {
        let stream = UnixStream::connect(path).map_err(|e| e.to_string())?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut client = Client {
            stream,
            buf: Vec::new(),
        };
        let greeting = client.read_line()?;
        let mut words = greeting.split_whitespace();
        if words.next() != Some("mesh-ctl") || words.next() != Some("1") {
            return Err(format!("unexpected greeting {greeting:?}"));
        }
        Ok(client)
    }

    /// One request/response round trip; `Err` carries both protocol-level
    /// `err` replies and transport failures.
    fn request(&mut self, cmd: &str) -> Result<Vec<u8>, String> {
        self.stream
            .write_all(format!("{cmd}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let header = self.read_line()?;
        if let Some(msg) = header.strip_prefix("err ") {
            return Err(msg.to_string());
        }
        let len: usize = header
            .strip_prefix("ok ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| format!("malformed response header {header:?}"))?;
        let payload = self.read_exact(len)?;
        self.read_exact(1)?; // trailing newline
        Ok(payload)
    }

    fn read_line(&mut self) -> Result<String, String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..pos].to_vec()).map_err(|e| e.to_string());
            }
            self.fill()?;
        }
    }

    fn read_exact(&mut self, n: usize) -> Result<Vec<u8>, String> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// One dashboard frame
// ---------------------------------------------------------------------

/// Everything one refresh fetched; envelopes that errored (subsystem
/// off) are carried as the error text.
struct Frame {
    stats: Result<String, String>,
    spectrum: Result<Envelope, String>,
    /// The `sense` document; its `ledger` member is the meshing ledger.
    sense: Result<Envelope, String>,
}

/// A fetched JSON report: its raw text (re-embedded verbatim by
/// `--json`) and the parsed value the dashboard reads.
struct Envelope {
    raw: String,
    value: Json,
}

impl Envelope {
    fn parse(raw: String) -> Result<Envelope, String> {
        let value = Json::parse(&raw)?;
        Ok(Envelope { raw, value })
    }
}

impl Frame {
    fn fetch(client: &mut Client) -> Frame {
        let mut text = |cmd: &str| {
            client
                .request(cmd)
                .map(|b| String::from_utf8_lossy(&b).into_owned())
        };
        let stats = text("stats");
        let spectrum = text("spectrum").and_then(Envelope::parse);
        let sense = text("sense").and_then(Envelope::parse);
        Frame {
            stats,
            spectrum,
            sense,
        }
    }

    /// The `--once --json` document: the JSON envelopes verbatim, the
    /// stats text embedded as a string, errors as `{"error": ...}`.
    fn to_json(&self) -> String {
        let embed = |r: &Result<Envelope, String>| match r {
            Ok(e) => e.raw.clone(),
            Err(e) => format!("{{\"error\":{}}}", quote(e)),
        };
        format!(
            "{{\"mesh_top_version\":1,\"stats\":{},\"spectrum\":{},\"sense\":{}}}",
            match &self.stats {
                Ok(s) => quote(s),
                Err(e) => format!("{{\"error\":{}}}", quote(e)),
            },
            embed(&self.spectrum),
            embed(&self.sense),
        )
    }

    fn render(&self) -> String {
        let mut out = String::new();
        match &self.stats {
            Ok(stats) => render_stats(&mut out, stats),
            Err(e) => out.push_str(&format!("stats unavailable: {e}\n")),
        }
        match &self.sense {
            Ok(sense) => render_sense(&mut out, &sense.value),
            Err(e) => out.push_str(&format!("\nsense: {e}\n")),
        }
        match &self.spectrum {
            Ok(spec) => render_spectrum(&mut out, &spec.value),
            Err(e) => out.push_str(&format!("\nspectrum: {e}\n")),
        }
        if let Some(ledger) = self.sense.as_ref().ok().and_then(|s| s.value.field("ledger")) {
            render_ledger(&mut out, ledger);
        }
        out
    }
}

/// `key=value` lookup in the stats line.
fn stat<'a>(stats: &'a str, key: &str) -> &'a str {
    let needle = format!(" {key}=");
    stats
        .find(&needle)
        .map(|i| {
            let rest = &stats[i + needle.len()..];
            rest.split_whitespace().next().unwrap_or("")
        })
        .unwrap_or("?")
}

fn mib(bytes: &str) -> String {
    match bytes.parse::<f64>() {
        Ok(b) => format!("{:.1} MiB", b / (1024.0 * 1024.0)),
        Err(_) => bytes.to_string(),
    }
}

fn render_stats(out: &mut String, stats: &str) {
    let first = stats.lines().next().unwrap_or("");
    let uptime_ms: u64 = stat(first, "uptime_ms").parse().unwrap_or(0);
    out.push_str(&format!(
        "mesh-top · up {:>6.1}s · heap {} (peak {}) · live {} · mallocs {} · frees {}\n",
        uptime_ms as f64 / 1000.0,
        mib(stat(first, "heap_bytes")),
        mib(stat(first, "peak_heap_bytes")),
        mib(stat(first, "live_bytes")),
        stat(first, "mallocs"),
        stat(first, "frees"),
    ));
    out.push_str(&format!(
        "meshing: {} passes · {} pairs meshed · {} pages released · {} purged · {} mapped\n",
        stat(first, "mesh_passes"),
        stat(first, "pairs_meshed"),
        stat(first, "mesh_pages_released"),
        stat(first, "pages_purged"),
        mib(stat(first, "mapped_bytes")),
    ));
    let lat: Vec<&str> = stats
        .lines()
        .filter(|l| l.starts_with("mesh-latency:"))
        .collect();
    if !lat.is_empty() {
        out.push_str("latency (ns):");
        for line in lat {
            out.push_str(&format!(
                "  {} n={} p50={} p99={}",
                stat(line, "op"),
                stat(line, "count"),
                stat(line, "p50_ns"),
                stat(line, "p99_ns"),
            ));
        }
        out.push('\n');
    }
}

fn render_sense(out: &mut String, v: &Json) {
    // Unavailable readings are `null`.
    let num = |object: &str, k: &str| {
        v.field(object)
            .and_then(|o| o.field(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let fmt_mib = |n: f64| {
        if n.is_nan() {
            "—".to_string()
        } else {
            format!("{:.1} MiB", n / (1024.0 * 1024.0))
        }
    };
    let fmt_psi = |n: f64| {
        if n.is_nan() {
            "—".to_string()
        } else {
            format!("{:.2}", n / 1000.0)
        }
    };
    out.push_str(&format!(
        "pressure: rss {} · cgroup {} · psi10 {} · psi60 {} · file {}\n",
        fmt_mib(num("snapshot", "rss_bytes")),
        fmt_mib(num("snapshot", "cgroup_usage_bytes")),
        fmt_psi(num("snapshot", "psi_avg10_milli")),
        fmt_psi(num("snapshot", "psi_avg60_milli")),
        fmt_mib(num("residency", "file_bytes")),
    ));
}

fn render_spectrum(out: &mut String, v: &Json) {
    let Some(classes) = v.field("classes").and_then(|c| c.as_array()) else {
        return;
    };
    out.push_str(
        "\n  class  spans             occupancy bins (low→full)        live/slots   est pairs\n",
    );
    for class in classes {
        let num = |k: &str| class.field(k).and_then(Json::as_f64).unwrap_or(0.0);
        let spans = num("attached_spans");
        let bins: Vec<f64> = class
            .field("bins")
            .and_then(|b| b.as_array())
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let binned: f64 = bins.iter().sum();
        if spans == 0.0 && binned == 0.0 {
            continue;
        }
        let bars: Vec<String> = bins.iter().map(|&b| bar(b, binned.max(1.0))).collect();
        out.push_str(&format!(
            "  {:>5}  {:>5}  {:>28}  {:>10}/{:<8} {:>6}\n",
            num("object_size") as u64,
            spans as u64,
            bars.join(" "),
            num("live_objects") as u64,
            num("total_slots") as u64,
            num("est_meshable_pairs") as u64,
        ));
    }
    let large = v.field("large_spans").and_then(Json::as_f64).unwrap_or(0.0);
    if large > 0.0 {
        out.push_str(&format!(
            "  large  {:>5}  {}\n",
            large as u64,
            mib(&format!(
                "{}",
                v.field("large_bytes").and_then(Json::as_f64).unwrap_or(0.0)
            )),
        ));
    }
}

/// A five-char count+bar cell for one occupancy bin.
fn bar(count: f64, total: f64) -> String {
    const GLYPHS: [&str; 5] = [" ", "▂", "▄", "▆", "█"];
    let frac = (count / total).clamp(0.0, 1.0);
    let idx = if count == 0.0 {
        0
    } else {
        1 + ((frac * 3.999) as usize).min(3)
    };
    format!("{:>4}{}", count as u64, GLYPHS[idx])
}

fn render_ledger(out: &mut String, v: &Json) {
    out.push_str(&format!(
        "\nledger: {} passes recorded\n",
        v.field("passes_recorded").and_then(Json::as_f64).unwrap_or(0.0) as u64
    ));
    if let Some(rej) = v.field("rejected_total").and_then(Json::as_object) {
        let nonzero: Vec<String> = rej
            .iter()
            .filter(|(_, n)| n.as_f64().unwrap_or(0.0) > 0.0)
            .map(|(k, n)| format!("{k}={}", n.as_f64().unwrap_or(0.0) as u64))
            .collect();
        if !nonzero.is_empty() {
            out.push_str(&format!("  rejects: {}\n", nonzero.join(" · ")));
        }
    }
    if let Some(passes) = v.field("passes").and_then(|p| p.as_array()) {
        for pass in passes.iter().rev().take(5) {
            let num = |k: &str| pass.field(k).and_then(Json::as_f64).unwrap_or(0.0);
            let rejects = pass
                .field("rejected")
                .and_then(Json::as_object)
                .map(|rej| {
                    rej.iter()
                        .filter(|(_, n)| n.as_f64().unwrap_or(0.0) > 0.0)
                        .map(|(k, n)| format!("{k}={}", n.as_f64().unwrap_or(0.0) as u64))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "  t+{:>7.1}s  cand {:>4}  probes {:>5}  meshed {:>4}  recovered {:>9}  {}\n",
                num("at_ms") / 1000.0,
                num("candidates") as u64,
                num("probes") as u64,
                num("pairs_meshed") as u64,
                mib(&format!("{}", num("bytes_recovered"))),
                rejects,
            ));
        }
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_line_lookup() {
        let line = "mesh: mallocs=10 frees=4 live_bytes=4096 uptime_ms=1500";
        assert_eq!(stat(line, "mallocs"), "10");
        assert_eq!(stat(line, "live_bytes"), "4096");
        assert_eq!(stat(line, "uptime_ms"), "1500");
        assert_eq!(stat(line, "missing"), "?");
    }

    #[test]
    fn json_frame_escapes_stats_text() {
        let frame = Frame {
            stats: Ok("mesh: a=1\nmesh-latency: op=\"x\"".to_string()),
            spectrum: Err("spectrum off".to_string()),
            sense: Envelope::parse(r#"{"ledger":{"passes_recorded":2}}"#.to_string()),
        };
        let text = frame.to_json();
        let v = Json::parse(&text).expect("frame JSON must itself parse");
        assert_eq!(v.field("mesh_top_version").and_then(Json::as_f64), Some(1.0));
        assert!(v.field("stats").and_then(Json::as_str).unwrap().contains("a=1"));
        assert_eq!(
            v.field("sense")
                .and_then(|s| s.field("ledger"))
                .and_then(|l| l.field("passes_recorded"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert!(v.field("ledger").is_none(), "the ledger is fetched once, inside sense");
        assert!(v
            .field("spectrum")
            .and_then(|s| s.field("error"))
            .and_then(Json::as_str)
            .is_some());
        assert!(frame.render().contains("ledger: 2 passes recorded"));
    }

    #[test]
    fn client_speaks_protocol_v1() {
        use std::os::unix::net::UnixListener;
        let path = std::env::temp_dir().join(format!("mesh-top-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(b"mesh-ctl 1\n").unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"stats\n");
            s.write_all(b"ok 9\nmesh: a=1\n").unwrap();
            let n = s.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"trace\n");
            s.write_all(b"err tracing off\n").unwrap();
        });
        let mut client = Client::connect(path.to_str().unwrap()).unwrap();
        assert_eq!(client.request("stats").unwrap(), b"mesh: a=1");
        assert_eq!(client.request("trace").unwrap_err(), "tracing off");
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
