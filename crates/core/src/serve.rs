//! Kernel-generation as a service: the front-end behind `slingen-serve`.
//!
//! The [`Engine`] turns one shared, sharded [`TuneCache`] into a
//! concurrent request handler: clients submit line-delimited JSON
//! requests naming a paper app, a size, and a target, and receive one
//! JSON response line each — the emitted C (or a summary) plus a cache
//! marker saying how the request was served (`miss` = a search ran,
//! `hit` = in-memory replay, `persisted` = replayed from a cache file,
//! `coalesced` = piggybacked on a concurrent identical request) and a
//! `cycles_source` marker saying which signal ranked the winner
//! (`model` = the scheduler's estimate, `measured` = stage-two hardware
//! timing; see [`crate::measure`]). The JSON codec is hand-rolled —
//! this workspace is offline, no serde.
//!
//! Request schema (one object per line; unknown keys are ignored):
//!
//! ```json
//! {"id": 1, "app": "potrf", "n": 8, "target": "avx2", "emit": "c"}
//! ```
//!
//! * `app` — `potrf | trsyl | trlya | trtri | kf | gpr | l1a`
//! * `n` — operand size, 1..=64
//! * `k` — observation count, kf only (defaults to `n`)
//! * `target` — `scalar | sse2 | avx2 | avx2fma` (default `avx2`)
//! * `emit` — `c` (default: full C in the response) or `summary`
//! * `id` — any scalar, echoed back verbatim
//!
//! [`serve_lines`] runs a worker pool over a line stream: N workers pull
//! requests off a channel and write completed responses (in completion
//! order — correlate by `id`) through a shared writer. Workers share the
//! engine's cache, so identical concurrent requests coalesce onto one
//! search and distinct requests land on distinct cache shards.

use crate::cache::TuneCache;
use crate::measure::MeasureConfig;
use crate::pipeline::{Generated, Options};
use crate::{apps, Target};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Largest accepted operand size: the generator is fully unrolled, so
/// cold searches beyond this are minutes, not milliseconds.
pub const MAX_N: usize = 64;

/// A scalar JSON value (requests are flat objects of scalars).
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Scalar {
    /// Render back as a JSON token (used to echo `id`).
    fn render(&self) -> String {
        match self {
            Scalar::Str(s) => format!("\"{}\"", escape_json(s)),
            Scalar::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Scalar::Bool(b) => b.to_string(),
            Scalar::Null => "null".into(),
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match self {
            Scalar::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 1e9 => Some(*n as usize),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(escaped_capacity(s.len()));
    escape_json_into(&mut out, s);
    out
}

/// Room to reserve for `len` bytes once escaped. Escapes grow emitted C
/// by about one byte per line, so a sixteenth on top of its length
/// covers them; the constant covers short strings with a quote or two.
fn escaped_capacity(len: usize) -> usize {
    len + len / 16 + 8
}

/// [`escape_json`], appending to `out`. Every byte that needs an escape
/// (a control byte, `"` or `\`) is ASCII, so the scan runs over bytes
/// and copies each clean run between two such bytes with one `push_str`.
fn escape_json_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = next_escape(rest.as_bytes()) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Index of the first byte of `b` that needs a JSON escape. Tests eight
/// bytes at a time as one little-endian `u64`, then the last 0-7 bytes
/// one by one.
fn next_escape(b: &[u8]) -> Option<usize> {
    let mut words = b.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let flags = escape_flags(u64::from_le_bytes(word.try_into().unwrap()));
        if flags != 0 {
            return Some(k * 8 + flags.trailing_zeros() as usize / 8);
        }
    }
    let tail = b.len() - words.remainder().len();
    words.remainder().iter().position(|&c| needs_escape(c)).map(|i| tail + i)
}

fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Sets the high bit of each byte of `w` that is `< 0x20`, `"` or `\`,
/// by the "has a byte below n" trick: `(w - n) & !w & 0x80` per byte.
/// A byte with its high bit set is never flagged, so UTF-8 is safe. A
/// borrow only moves upward out of a byte that really matched, so bytes
/// above the lowest flag may be false hits but the lowest flag is
/// always real; callers use only that one.
fn escape_flags(w: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * n as u64) & !x & HIGH;
    below(w, 0x20) | below(w ^ (ONES * b'"' as u64), 1) | below(w ^ (ONES * b'\\' as u64), 1)
}

/// Parse one flat JSON object of scalar values. Rejects nesting,
/// duplicate-insensitive (last key wins), tolerant of whitespace.
fn parse_flat_object(s: &str) -> Result<Vec<(String, Scalar)>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err("expected '\"'".into());
        }
        *i += 1;
        let mut out = String::new();
        loop {
            let c = *b.get(*i).ok_or("unterminated string")?;
            *i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *b.get(*i).ok_or("unterminated escape")?;
                    *i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = s.get(*i..*i + 4).ok_or("truncated \\u escape")?;
                            let v = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            *i += 4;
                            out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err("unknown escape".into()),
                    }
                }
                c if c < 0x20 => return Err("raw control char in string".into()),
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // multi-byte UTF-8: copy the whole char
                    let rest = &s[*i - 1..];
                    let ch = rest.chars().next().ok_or("bad utf8")?;
                    out.push(ch);
                    *i += ch.len_utf8() - 1;
                }
            }
        }
    };
    skip_ws(&mut i);
    if b.get(i) != Some(&b'{') {
        return Err("expected a JSON object".into());
    }
    i += 1;
    let mut fields = Vec::new();
    skip_ws(&mut i);
    if b.get(i) == Some(&b'}') {
        return Ok(fields);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = match b.get(i) {
            Some(b'"') => Scalar::Str(parse_string(&mut i)?),
            Some(b't') if s[i..].starts_with("true") => {
                i += 4;
                Scalar::Bool(true)
            }
            Some(b'f') if s[i..].starts_with("false") => {
                i += 5;
                Scalar::Bool(false)
            }
            Some(b'n') if s[i..].starts_with("null") => {
                i += 4;
                Scalar::Null
            }
            Some(b'{') | Some(b'[') => {
                return Err(format!("key {key:?}: nested values are not supported"))
            }
            Some(_) => {
                let start = i;
                while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                let n: f64 =
                    s[start..i].parse().map_err(|_| format!("key {key:?}: unparsable value"))?;
                Scalar::Num(n)
            }
            None => return Err("truncated object".into()),
        };
        fields.push((key, val));
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                skip_ws(&mut i);
                if i != b.len() {
                    return Err("trailing garbage after object".into());
                }
                return Ok(fields);
            }
            _ => return Err("expected ',' or '}'".into()),
        }
    }
}

/// What the response should carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The full emitted C in the `"c"` field.
    Code,
    /// Winner spec and modeled performance only.
    Summary,
}

/// One parsed generation request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed back verbatim (JSON rendering of whatever the client sent).
    pub id: String,
    /// Paper app name.
    pub app: String,
    /// Operand size.
    pub n: usize,
    /// kf observation count (defaults to `n`).
    pub k: Option<usize>,
    /// Instruction-set target.
    pub target: Target,
    /// Response payload selection.
    pub emit: Emit,
}

impl Request {
    /// Parse one request line. `default_target` fills in a missing
    /// `target` field.
    pub fn parse(line: &str, default_target: Target) -> Result<Request, (String, String)> {
        let fields = parse_flat_object(line).map_err(|e| ("null".to_string(), e))?;
        let id = fields
            .iter()
            .find(|(k, _)| k == "id")
            .map(|(_, v)| v.render())
            .unwrap_or_else(|| "null".into());
        let err = |msg: &str| (id.clone(), msg.to_string());
        let get = |key: &str| fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v);
        let app = match get("app") {
            Some(Scalar::Str(s)) => s.clone(),
            _ => return Err(err("missing or non-string `app`")),
        };
        let n = match get("n").and_then(Scalar::as_usize) {
            Some(n) if (1..=MAX_N).contains(&n) => n,
            Some(_) => return Err(err(&format!("`n` out of range (1..={MAX_N})"))),
            None => return Err(err("missing or non-integer `n`")),
        };
        let k = match get("k") {
            None | Some(Scalar::Null) => None,
            Some(v) => match v.as_usize() {
                Some(k) if (1..=MAX_N).contains(&k) => Some(k),
                _ => return Err(err(&format!("`k` out of range (1..={MAX_N})"))),
            },
        };
        let target = match get("target") {
            None | Some(Scalar::Null) => default_target,
            Some(Scalar::Str(s)) => match Target::parse(s) {
                Some(t) => t,
                None => return Err(err(&format!("unknown target `{s}`"))),
            },
            Some(_) => return Err(err("non-string `target`")),
        };
        let emit = match get("emit") {
            None | Some(Scalar::Null) => Emit::Code,
            Some(Scalar::Str(s)) if s == "c" => Emit::Code,
            Some(Scalar::Str(s)) if s == "summary" => Emit::Summary,
            _ => return Err(err("`emit` must be \"c\" or \"summary\"")),
        };
        Ok(Request { id, app, n, k, target, emit })
    }

    fn program(&self) -> Result<slingen_ir::Program, String> {
        Ok(match self.app.as_str() {
            "potrf" => apps::potrf(self.n),
            "trsyl" => apps::trsyl(self.n),
            "trlya" => apps::trlya(self.n),
            "trtri" => apps::trtri(self.n),
            "kf" => apps::kf_sized(self.n, self.k.unwrap_or(self.n)),
            "gpr" => apps::gpr(self.n),
            "l1a" => apps::l1a(self.n),
            other => return Err(format!("unknown app `{other}`")),
        })
    }
}

/// How a response was served, from its tuning stats.
fn cache_marker(g: &Generated) -> &'static str {
    if g.tuning.coalesced {
        "coalesced"
    } else if g.tuning.cache_hit && g.tuning.persisted {
        "persisted"
    } else if g.tuning.cache_hit {
        "hit"
    } else {
        "miss"
    }
}

/// The serve engine: one shared cache, stateless per-request options.
/// Cheap to share by reference across worker threads.
pub struct Engine {
    cache: TuneCache,
    default_target: Target,
    /// Measured-autotuning config applied to every request (model-only
    /// by default). Hardware mode degrades per-request to the model
    /// when no compiler works, exactly like `generate()`.
    measure: MeasureConfig,
    /// Responses whose winner was ranked by the model resp. by hardware
    /// timing (surfaced in [`Engine::stats_json`]).
    served_model: AtomicU64,
    served_measured: AtomicU64,
}

impl Engine {
    /// An engine over a (possibly warm-loaded) cache.
    pub fn new(cache: TuneCache, default_target: Target) -> Engine {
        Engine {
            cache,
            default_target,
            measure: MeasureConfig::default(),
            served_model: AtomicU64::new(0),
            served_measured: AtomicU64::new(0),
        }
    }

    /// Use a non-default measurement configuration (builder style).
    pub fn with_measure(mut self, measure: MeasureConfig) -> Engine {
        self.measure = measure;
        self
    }

    /// The shared cache (e.g. to `save()` it on shutdown).
    pub fn cache(&self) -> &TuneCache {
        &self.cache
    }

    /// Handle one request line; always returns exactly one response
    /// line (errors are `{"id":...,"ok":false,"error":"..."}`).
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_tagged(line).0
    }

    /// [`Engine::handle_line`] plus whether the request succeeded.
    pub fn handle_line_tagged(&self, line: &str) -> (String, bool) {
        let req = match Request::parse(line, self.default_target) {
            Ok(r) => r,
            Err((id, e)) => {
                return (
                    format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape_json(&e)),
                    false,
                )
            }
        };
        match self.handle(&req) {
            Ok(resp) => (resp, true),
            Err(e) => (
                format!("{{\"id\":{},\"ok\":false,\"error\":\"{}\"}}", req.id, escape_json(&e)),
                false,
            ),
        }
    }

    /// Generate (or replay) the kernel for one parsed request and render
    /// its response line.
    pub fn handle(&self, req: &Request) -> Result<String, String> {
        let program = req.program()?;
        let options = Options {
            cache: self.cache.clone(),
            measure: self.measure.clone(),
            ..Options::for_target(req.target)
        };
        let g = crate::generate(&program, &options).map_err(|e| e.to_string())?;
        let source = g.cycles_source();
        match source {
            "measured" => self.served_measured.fetch_add(1, Ordering::Relaxed),
            _ => self.served_model.fetch_add(1, Ordering::Relaxed),
        };
        // One allocation: the summary fields, then the C escaped in place.
        let c_len = if req.emit == Emit::Code { escaped_capacity(g.c_code.len()) } else { 0 };
        let mut resp = String::with_capacity(256 + req.id.len() + c_len);
        let _ = write!(
            resp,
            "{{\"id\":{},\"ok\":true,\"app\":\"{}\",\"n\":{},\"target\":\"{}\",\"cache\":\"{}\",\
             \"cycles_source\":\"{source}\",\
             \"winner\":\"{}\",\"cycles\":{:.1},\"flops_per_cycle\":{:.3}",
            req.id,
            req.app,
            req.n,
            req.target,
            cache_marker(&g),
            g.spec,
            g.report.cycles,
            g.flops_per_cycle(),
        );
        if req.emit == Emit::Code {
            resp.push_str(",\"c\":\"");
            escape_json_into(&mut resp, &g.c_code);
            resp.push('"');
        }
        resp.push('}');
        Ok(resp)
    }

    /// One-line JSON cache/shard statistics (written to stderr by the
    /// binary on shutdown; `searches` is the cold-search count).
    pub fn stats_json(&self) -> String {
        let t = self.cache.totals();
        format!(
            "{{\"cache_entries\": {}, \"hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"coalesced\": {}, \"searches\": {}, \"served_model\": {}, \
             \"served_measured\": {}}}",
            t.entries,
            t.hits,
            t.misses,
            t.inserts,
            t.coalesced,
            t.searches,
            self.served_model.load(Ordering::Relaxed),
            self.served_measured.load(Ordering::Relaxed)
        )
    }
}

/// Totals of one [`serve_lines`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines handled (blank lines are skipped).
    pub requests: usize,
    /// Requests that produced an error response.
    pub errors: usize,
}

/// Pump line-delimited requests from `input` through a pool of `workers`
/// threads sharing `engine`, writing one response line per request to
/// `output` *in completion order* (correlate by `id`). Returns totals.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    engine: &Engine,
    input: R,
    output: W,
    workers: usize,
) -> std::io::Result<ServeSummary> {
    let (tx, rx) = mpsc::channel::<String>();
    let rx = Mutex::new(rx);
    let out = Mutex::new(output);
    let requests = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let mut read_err = None;
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let line = match rx.lock().unwrap().recv() {
                    Ok(l) => l,
                    Err(_) => break,
                };
                let (resp, ok) = engine.handle_line_tagged(&line);
                requests.fetch_add(1, Ordering::Relaxed);
                if !ok {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                let mut out = out.lock().unwrap();
                let _ = writeln!(out, "{resp}");
                let _ = out.flush();
            });
        }
        for line in input.lines() {
            match line {
                Ok(l) => {
                    if !l.trim().is_empty() && tx.send(l).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    read_err = Some(e);
                    break;
                }
            }
        }
        drop(tx);
    });
    match read_err {
        Some(e) => Err(e),
        None => Ok(ServeSummary {
            requests: requests.load(Ordering::Relaxed),
            errors: errors.load(Ordering::Relaxed),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = Request::parse(
            r#"{"id": "a-1", "app": "kf", "n": 4, "k": 2, "target": "sse2", "emit": "summary"}"#,
            Target::Avx2,
        )
        .unwrap();
        assert_eq!(r.id, "\"a-1\"");
        assert_eq!(r.app, "kf");
        assert_eq!((r.n, r.k), (4, Some(2)));
        assert_eq!(r.target, Target::Sse2);
        assert_eq!(r.emit, Emit::Summary);
    }

    #[test]
    fn defaults_and_numeric_id() {
        let r = Request::parse(r#"{"id":7,"app":"potrf","n":8}"#, Target::Avx2Fma).unwrap();
        assert_eq!(r.id, "7");
        assert_eq!(r.target, Target::Avx2Fma);
        assert_eq!(r.emit, Emit::Code);
        assert_eq!(r.k, None);
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, what) in [
            ("not json", "garbage"),
            ("{\"app\":\"potrf\"}", "missing n"),
            ("{\"app\":\"potrf\",\"n\":0}", "n too small"),
            ("{\"app\":\"potrf\",\"n\":65}", "n too large"),
            ("{\"app\":\"potrf\",\"n\":4,\"target\":\"mmx\"}", "bad target"),
            ("{\"app\":\"potrf\",\"n\":4,\"emit\":\"asm\"}", "bad emit"),
            ("{\"app\":\"potrf\",\"n\":{\"x\":1}}", "nested value"),
            ("{\"n\":4}", "missing app"),
        ] {
            assert!(Request::parse(line, Target::Avx2).is_err(), "{what}: {line}");
        }
    }

    #[test]
    fn unknown_app_is_a_response_error_with_echoed_id() {
        let engine = Engine::new(TuneCache::new(), Target::Avx2);
        let (resp, ok) = engine.handle_line_tagged(r#"{"id":3,"app":"gemm","n":4}"#);
        assert!(!ok);
        assert!(resp.contains("\"id\":3"), "{resp}");
        assert!(resp.contains("unknown app"), "{resp}");
    }

    #[test]
    fn escape_round_trips_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    /// A char-at-a-time escape: the reference the one-pass scan of
    /// `escape_json` must reproduce byte for byte.
    fn escape_json_charwise(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    /// Every ASCII byte alone and all of them in a row, multi-byte UTF-8,
    /// the empty string, the committed potrf8 C of every target, and the
    /// cases that land on each lane of the eight-byte scan:
    /// - each escapable byte at every offset 0..=16 inside a clean run of
    ///   1-, 2-, 3- and 4-byte characters;
    /// - each escapable byte directly followed by a byte its borrow turns
    ///   into a false hit (0x20 and 0x7f below 0x20; `#` and `]` one above
    ///   `"` and `\`), at every offset 0..=7;
    /// - clean strings of every length 0..=17, for the byte-wise tail.
    fn escape_inputs() -> Vec<String> {
        let mut inputs: Vec<String> = (0u8..0x80).map(|b| char::from(b).to_string()).collect();
        inputs.push((0u8..0x80).map(char::from).collect());
        inputs.push(String::new());
        inputs.push("é\"ü\\—\n∑\u{1}𝔽\u{80}\u{7ff}\u{ffff}\u{10ffff}".into());
        let escapable: Vec<char> = (0u8..0x20).chain([b'"', b'\\']).map(char::from).collect();
        for unit in ["a", "é", "—", "𝔽"] {
            for &e in &escapable {
                for offset in 0..=16 {
                    // ASCII pads the escape onto an offset the unit's width
                    // does not divide.
                    let mut s = "b".repeat(offset % unit.len()) + &unit.repeat(offset / unit.len());
                    s.push(e);
                    while s.len() <= 24 {
                        s.push_str(unit);
                    }
                    inputs.push(s);
                }
            }
        }
        for &e in &escapable {
            for next in ['\u{20}', '\u{7f}', '#', ']'] {
                for offset in 0..=7 {
                    inputs.push(format!("{}{e}{next}{}", "a".repeat(offset), "a".repeat(16)));
                }
            }
        }
        inputs.extend((0..=17).map(|len| "x".repeat(len)));
        for target in Target::ALL {
            let path =
                format!("{}/../../tests/snapshots/potrf8_{target}.c", env!("CARGO_MANIFEST_DIR"));
            inputs.push(std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}")));
        }
        inputs
    }

    #[test]
    fn escape_matches_the_charwise_reference() {
        for s in escape_inputs() {
            assert_eq!(escape_json(&s), escape_json_charwise(&s), "{s:?}");
        }
    }

    #[test]
    fn escaped_strings_parse_back() {
        for s in escape_inputs() {
            let parsed = parse_flat_object(&format!("{{\"k\":\"{}\"}}", escape_json(&s)));
            assert_eq!(parsed, Ok(vec![("k".to_string(), Scalar::Str(s.clone()))]), "{s:?}");
        }
    }
}
