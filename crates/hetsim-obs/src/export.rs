//! Trace exporters: Chrome-trace JSON and a compact JSONL stream.
//!
//! Both formats are byte-stable: field order is fixed (sorted keys),
//! numbers use shortest round-trip formatting, and events appear in
//! (rank, program-order) sequence. Exporting the same run twice yields
//! identical bytes — golden-file tests rely on this.
//!
//! The writers stream. [`write_chrome_trace`] and [`write_trace_jsonl`]
//! write each span's fields, in sorted key order, straight to any
//! [`io::Write`] through the number, integer and string primitives of
//! [`crate::json`], the ones `Json`'s `Display` uses; no per-span value
//! tree is built and no whole file is held in memory. The `String`
//! forms, [`chrome_trace_json`] and [`trace_jsonl`], render the same
//! bytes.
//!
//! The JSONL stream is the archival format: [`parse_trace_jsonl`]
//! reconstructs the exact [`RankTrace`]s (bit-identical span times), so
//! traces can be written by `bench-tables` and re-analyzed later without
//! rerunning the simulation.

use crate::json::{write_int, write_num, write_str, Json, MAX_EXACT_INT};
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::{OpKind, RankTrace, TraceRecord};
use std::collections::BTreeMap;
use std::fmt;
use std::io;

/// Writes per-rank traces to `out` in the Chrome trace-event format
/// (the JSON array flavour): open the output in `chrome://tracing` or
/// Perfetto. Each span becomes one complete (`"ph":"X"`) event; virtual
/// seconds map to microseconds, the format's native unit. One event per
/// line. Writes go straight to `out`, so pass a buffered writer.
///
/// # Panics
/// On a non-finite span time, or on bytes, a peer or a rank above
/// 2^53: JSON readers could not hold them exactly.
pub fn write_chrome_trace(out: impl io::Write, traces: &[RankTrace]) -> io::Result<()> {
    stream(out, |w| chrome_events(w, traces))
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut text = String::new();
    chrome_events(&mut text, traces).expect("a String accepts every write");
    text
}

/// Writes per-rank traces to `out` as JSON Lines: one object per span,
/// fields `bytes`, `end`, `kind`, `peer` (omitted when absent), `rank`,
/// `start`; times in virtual seconds at full precision. Writes go
/// straight to `out`, so pass a buffered writer.
///
/// # Panics
/// As [`write_chrome_trace`].
pub fn write_trace_jsonl(out: impl io::Write, traces: &[RankTrace]) -> io::Result<()> {
    stream(out, |w| jsonl_lines(w, traces))
}

/// [`write_trace_jsonl`] into a `String`.
pub fn trace_jsonl(traces: &[RankTrace]) -> String {
    let mut text = String::new();
    jsonl_lines(&mut text, traces).expect("a String accepts every write");
    text
}

fn chrome_events(out: &mut impl fmt::Write, traces: &[RankTrace]) -> fmt::Result {
    out.write_str("[\n")?;
    let mut separator = "";
    for (rank, trace) in traces.iter().enumerate() {
        for record in &trace.records {
            out.write_str(separator)?;
            separator = ",\n";
            out.write_str("{\"args\":{\"bytes\":")?;
            write_int(out, record.bytes)?;
            if let Some(peer) = record.peer {
                out.write_str(",\"peer\":")?;
                write_int(out, peer as u64)?;
            }
            out.write_str("},\"cat\":\"virtual\",\"dur\":")?;
            write_num(out, record.duration().as_secs() * 1e6)?;
            out.write_str(",\"name\":")?;
            write_str(out, record.kind.name())?;
            out.write_str(",\"ph\":\"X\",\"pid\":0,\"tid\":")?;
            write_int(out, rank as u64)?;
            out.write_str(",\"ts\":")?;
            write_num(out, record.start.as_secs() * 1e6)?;
            out.write_char('}')?;
        }
    }
    out.write_str("\n]\n")
}

fn jsonl_lines(out: &mut impl fmt::Write, traces: &[RankTrace]) -> fmt::Result {
    for (rank, trace) in traces.iter().enumerate() {
        for record in &trace.records {
            out.write_str("{\"bytes\":")?;
            write_int(out, record.bytes)?;
            out.write_str(",\"end\":")?;
            write_num(out, record.end.as_secs())?;
            out.write_str(",\"kind\":")?;
            write_str(out, record.kind.name())?;
            if let Some(peer) = record.peer {
                out.write_str(",\"peer\":")?;
                write_int(out, peer as u64)?;
            }
            out.write_str(",\"rank\":")?;
            write_int(out, rank as u64)?;
            out.write_str(",\"start\":")?;
            write_num(out, record.start.as_secs())?;
            out.write_str("}\n")?;
        }
    }
    Ok(())
}

/// A [`fmt::Write`] view of an [`io::Write`] that keeps the I/O error a
/// [`fmt::Error`] cannot carry.
struct IoSink<W> {
    out: W,
    error: Option<io::Error>,
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Runs a formatting `body` against `out`, returning its first I/O error.
fn stream<W: io::Write>(
    out: W,
    body: impl FnOnce(&mut IoSink<W>) -> fmt::Result,
) -> io::Result<()> {
    let mut sink = IoSink { out, error: None };
    body(&mut sink).map_err(|fmt::Error| {
        sink.error.take().expect("only the sink fails: the formatters never do")
    })
}

/// The largest rank [`parse_trace_jsonl`] accepts. It is far above the
/// rank count of every trace `bench-tables` exports (32 at most), and it
/// bounds what one input line can make the parser allocate: one empty
/// trace per rank up to it, 24 MiB.
const MAX_PARSED_RANK: usize = 1 << 20;

fn field<'a>(obj: &'a BTreeMap<String, Json>, key: &str, line: usize) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("line {line}: missing field '{key}'"))
}

fn num(value: &Json, key: &str, line: usize) -> Result<f64, String> {
    value.as_num().ok_or_else(|| format!("line {line}: field '{key}' is not a number"))
}

/// A span time: any number, since [`Json::parse`] rejects text like
/// `1e400` whose value is not finite.
fn time_field(obj: &BTreeMap<String, Json>, key: &str, line: usize) -> Result<SimTime, String> {
    Ok(SimTime::from_secs(num(field(obj, key, line)?, key, line)?))
}

/// A count or index: JSON numbers are `f64`, so a negative, fractional
/// or above-2^53 value is rejected rather than truncated by `as`.
fn int_value<T: TryFrom<u64>>(value: &Json, key: &str, line: usize) -> Result<T, String> {
    let v = num(value, key, line)?;
    if v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT_INT as f64 {
        if let Ok(int) = T::try_from(v as u64) {
            return Ok(int);
        }
    }
    Err(format!("line {line}: field '{key}' is not an integer in 0..=2^53: {v:?}"))
}

/// Parses a [`trace_jsonl`] document back into per-rank traces.
///
/// The inverse of `trace_jsonl` up to trailing empty traces: span times
/// come back bit-identical (shortest round-trip float formatting), and
/// the result has one entry per rank up to the largest rank mentioned.
///
/// A line-numbered error rejects what no exporter writes: a `rank`,
/// `bytes` or `peer` that is negative, fractional or above 2^53, a
/// non-finite time, a span that ends before it starts, and a rank above
/// 2^20 (far more ranks than any traced run has, and a bound on what the
/// parser allocates).
pub fn parse_trace_jsonl(text: &str) -> Result<Vec<RankTrace>, String> {
    let mut traces: Vec<RankTrace> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value = Json::parse(raw).map_err(|e| format!("line {line_no}: {e}"))?;
        let obj =
            value.as_obj().ok_or_else(|| format!("line {line_no}: event is not an object"))?;
        let kind_name = field(obj, "kind", line_no)?
            .as_str()
            .ok_or_else(|| format!("line {line_no}: field 'kind' is not a string"))?;
        let kind = OpKind::from_name(kind_name)
            .ok_or_else(|| format!("line {line_no}: unknown op kind '{kind_name}'"))?;
        let rank: usize = int_value(field(obj, "rank", line_no)?, "rank", line_no)?;
        if rank > MAX_PARSED_RANK {
            return Err(format!("line {line_no}: rank {rank} is above the limit of 2^20"));
        }
        let record = TraceRecord {
            kind,
            start: time_field(obj, "start", line_no)?,
            end: time_field(obj, "end", line_no)?,
            bytes: int_value(field(obj, "bytes", line_no)?, "bytes", line_no)?,
            peer: match obj.get("peer") {
                None | Some(Json::Null) => None,
                Some(v) => Some(int_value(v, "peer", line_no)?),
            },
        };
        if record.end.as_secs() < record.start.as_secs() {
            return Err(format!("line {line_no}: span ends before it starts"));
        }
        if rank >= traces.len() {
            traces.resize_with(rank + 1, RankTrace::default);
        }
        traces[rank].records.push(record);
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tree-building exporters the streaming writers replaced, kept
    // verbatim as the oracle for their bytes.

    fn oracle_event_args(record: &TraceRecord) -> Json {
        let mut args = BTreeMap::new();
        args.insert("bytes".into(), Json::int(record.bytes));
        if let Some(peer) = record.peer {
            args.insert("peer".into(), Json::int(peer as u64));
        }
        Json::Obj(args)
    }

    fn oracle_chrome_trace_json(traces: &[RankTrace]) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (rank, trace) in traces.iter().enumerate() {
            for record in &trace.records {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let mut event = BTreeMap::new();
                event.insert("args".into(), oracle_event_args(record));
                event.insert("cat".into(), Json::str("virtual"));
                event.insert("dur".into(), Json::Num(record.duration().as_secs() * 1e6));
                event.insert("name".into(), Json::str(record.kind.name()));
                event.insert("ph".into(), Json::str("X"));
                event.insert("pid".into(), Json::int(0));
                event.insert("tid".into(), Json::int(rank as u64));
                event.insert("ts".into(), Json::Num(record.start.as_secs() * 1e6));
                out.push_str(&Json::Obj(event).to_string());
            }
        }
        out.push_str("\n]\n");
        out
    }

    fn oracle_trace_jsonl(traces: &[RankTrace]) -> String {
        let mut out = String::new();
        for (rank, trace) in traces.iter().enumerate() {
            for record in &trace.records {
                let mut line = BTreeMap::new();
                line.insert("bytes".into(), Json::int(record.bytes));
                line.insert("end".into(), Json::Num(record.end.as_secs()));
                line.insert("kind".into(), Json::str(record.kind.name()));
                if let Some(peer) = record.peer {
                    line.insert("peer".into(), Json::int(peer as u64));
                }
                line.insert("rank".into(), Json::int(rank as u64));
                line.insert("start".into(), Json::Num(record.start.as_secs()));
                out.push_str(&Json::Obj(line).to_string());
                out.push('\n');
            }
        }
        out
    }

    /// splitmix64 over `state`.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A span time: an awkward fixed value, or any finite non-negative
    /// `f64` small enough that its microsecond form stays finite.
    fn awkward_time(state: &mut u64) -> f64 {
        const FIXED: [f64; 8] = [
            0.0,
            0.1 + 0.2,
            1e-300,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            1e15,
            1.0 / 3.0,
            123_456_789.123_456_79,
        ];
        match draw(state) % 3 {
            0 => FIXED[(draw(state) % FIXED.len() as u64) as usize],
            1 => (draw(state) % 1_000_000) as f64 * 1e-6,
            _ => loop {
                let v = f64::from_bits(draw(state) >> 1);
                if v <= 1e290 {
                    break v;
                }
            },
        }
    }

    /// A count: 0, 2^53, 2^53 - 1, or any value up to 2^53 at a random
    /// magnitude.
    fn awkward_int(state: &mut u64) -> u64 {
        match draw(state) % 4 {
            0 => 0,
            1 => MAX_EXACT_INT - draw(state) % 2,
            _ => (draw(state) % (MAX_EXACT_INT + 1)) >> (draw(state) % 54),
        }
    }

    /// Seeded random traces: every `OpKind`, peers present and absent,
    /// empty ranks between non-empty ones, awkward times and counts.
    fn random_traces(state: &mut u64) -> Vec<RankTrace> {
        let ranks = 1 + (draw(state) % 7) as usize;
        (0..ranks)
            .map(|_| {
                let spans = if draw(state).is_multiple_of(3) { 0 } else { draw(state) % 24 };
                let records = (0..spans)
                    .map(|_| {
                        let (a, b) = (awkward_time(state), awkward_time(state));
                        TraceRecord {
                            kind: OpKind::ALL[(draw(state) % OpKind::ALL.len() as u64) as usize],
                            start: SimTime::from_secs(a.min(b)),
                            end: SimTime::from_secs(a.max(b)),
                            bytes: awkward_int(state),
                            peer: draw(state)
                                .is_multiple_of(2)
                                .then(|| awkward_int(state) as usize),
                        }
                    })
                    .collect();
                RankTrace { records }
            })
            .collect()
    }

    #[test]
    fn streaming_writers_match_the_tree_oracle_on_random_traces() {
        let mut state = 0x0b5e_77ac_e000_0001;
        let (mut kinds, mut peers, mut gaps) = (BTreeMap::new(), [0usize; 2], 0);
        for _ in 0..400 {
            let traces = random_traces(&mut state);
            let mut chrome = Vec::new();
            write_chrome_trace(&mut chrome, &traces).unwrap();
            assert_eq!(String::from_utf8(chrome).unwrap(), oracle_chrome_trace_json(&traces));
            assert_eq!(chrome_trace_json(&traces), oracle_chrome_trace_json(&traces));
            let mut jsonl = Vec::new();
            write_trace_jsonl(&mut jsonl, &traces).unwrap();
            let jsonl = String::from_utf8(jsonl).unwrap();
            assert_eq!(jsonl, oracle_trace_jsonl(&traces));
            assert_eq!(trace_jsonl(&traces), jsonl);

            // The parse inverts the export bit for bit, up to trailing
            // empty ranks.
            let back = parse_trace_jsonl(&jsonl).unwrap();
            let kept = traces.iter().rposition(|t| !t.records.is_empty()).map_or(0, |i| i + 1);
            assert_eq!(back.len(), kept);
            for (a, b) in back.iter().zip(&traces) {
                assert_eq!(a.records.len(), b.records.len());
                for (x, y) in a.records.iter().zip(&b.records) {
                    assert_eq!((x.kind, x.bytes, x.peer), (y.kind, y.bytes, y.peer));
                    assert_eq!(x.start.as_secs().to_bits(), y.start.as_secs().to_bits());
                    assert_eq!(x.end.as_secs().to_bits(), y.end.as_secs().to_bits());
                }
            }

            for record in traces.iter().flat_map(|t| &t.records) {
                *kinds.entry(record.kind.name()).or_insert(0) += 1;
                peers[usize::from(record.peer.is_some())] += 1;
            }
            gaps += traces[..kept].iter().filter(|t| t.records.is_empty()).count();
        }
        // The draw reaches every case the oracle comparison is for.
        assert_eq!(kinds.len(), OpKind::ALL.len(), "{kinds:?}");
        assert!(peers[0] > 0 && peers[1] > 0 && gaps > 0, "{peers:?} {gaps}");
    }

    #[test]
    fn writers_report_the_output_error() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::StorageFull))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let traces = sample_traces();
        let chrome = write_chrome_trace(Full, &traces).unwrap_err();
        assert_eq!(chrome.kind(), io::ErrorKind::StorageFull);
        let jsonl = write_trace_jsonl(Full, &traces).unwrap_err();
        assert_eq!(jsonl.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writers_refuse_non_finite_times() {
        let mut traces = sample_traces();
        traces[1].records[1].end = SimTime::from_secs(f64::INFINITY);
        let _ = write_trace_jsonl(io::sink(), &traces);
    }

    #[test]
    #[should_panic(expected = "exceeds exact f64 range")]
    fn writers_refuse_integers_above_2_53() {
        let mut traces = sample_traces();
        traces[0].records[1].bytes = MAX_EXACT_INT + 1;
        let _ = write_chrome_trace(io::sink(), &traces);
    }

    fn sample_traces() -> Vec<RankTrace> {
        let rec = |kind, start: f64, end: f64, bytes, peer| TraceRecord {
            kind,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            bytes,
            peer,
        };
        vec![
            RankTrace {
                records: vec![
                    rec(OpKind::Compute, 0.0, 1.0 / 3.0, 0, None),
                    rec(OpKind::Send, 1.0 / 3.0, 0.5, 256, Some(1)),
                ],
            },
            RankTrace {
                records: vec![
                    rec(OpKind::Wait, 0.0, 1.0 / 3.0, 0, Some(0)),
                    rec(OpKind::Recv, 1.0 / 3.0, 0.5, 256, Some(0)),
                ],
            },
        ]
    }

    #[test]
    fn chrome_trace_is_a_valid_json_array() {
        let text = chrome_trace_json(&sample_traces());
        let parsed = Json::parse(&text).expect("valid JSON");
        let events = parsed.as_arr().expect("array of events");
        assert_eq!(events.len(), 4);
        let first = events[0].as_obj().unwrap();
        assert_eq!(first["ph"].as_str(), Some("X"));
        assert_eq!(first["name"].as_str(), Some("compute"));
        assert_eq!(first["tid"].as_num(), Some(0.0));
        // Times are microseconds.
        let send = events[1].as_obj().unwrap();
        assert!((send["ts"].as_num().unwrap() - 1e6 / 3.0).abs() < 1e-3);
    }

    #[test]
    fn chrome_trace_records_peer_in_args() {
        let text = chrome_trace_json(&sample_traces());
        let parsed = Json::parse(&text).unwrap();
        let send = parsed.as_arr().unwrap()[1].as_obj().unwrap().clone();
        let args = send["args"].as_obj().unwrap();
        assert_eq!(args["peer"].as_num(), Some(1.0));
        assert_eq!(args["bytes"].as_num(), Some(256.0));
    }

    #[test]
    fn exports_are_byte_stable() {
        let traces = sample_traces();
        assert_eq!(chrome_trace_json(&traces), chrome_trace_json(&traces));
        assert_eq!(trace_jsonl(&traces), trace_jsonl(&traces));
    }

    #[test]
    fn jsonl_roundtrips_bit_identically() {
        let traces = sample_traces();
        let text = trace_jsonl(&traces);
        let back = parse_trace_jsonl(&text).expect("parses");
        assert_eq!(back, traces);
    }

    #[test]
    fn jsonl_roundtrip_preserves_awkward_floats() {
        let traces = vec![RankTrace {
            records: vec![TraceRecord {
                kind: OpKind::Compute,
                start: SimTime::from_secs(0.1 + 0.2),
                end: SimTime::from_secs(std::f64::consts::PI),
                bytes: 0,
                peer: None,
            }],
        }];
        let back = parse_trace_jsonl(&trace_jsonl(&traces)).unwrap();
        assert_eq!(
            back[0].records[0].start.as_secs().to_bits(),
            traces[0].records[0].start.as_secs().to_bits()
        );
        assert_eq!(
            back[0].records[0].end.as_secs().to_bits(),
            traces[0].records[0].end.as_secs().to_bits()
        );
    }

    #[test]
    fn empty_traces_export_cleanly() {
        assert_eq!(parse_trace_jsonl(&trace_jsonl(&[])).unwrap(), Vec::<RankTrace>::new());
        let chrome = chrome_trace_json(&[]);
        assert!(Json::parse(&chrome).unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_trace_jsonl("not json\n").is_err());
        assert!(parse_trace_jsonl("{\"kind\":\"recv\"}\n").is_err(), "missing fields");
        assert!(
            parse_trace_jsonl("{\"bytes\":0,\"end\":1,\"kind\":\"zap\",\"rank\":0,\"start\":0}\n")
                .is_err(),
            "unknown kind"
        );
        // Numbers no exporter writes: each is an error naming its line,
        // never a value truncated by a cast or a panic.
        let good = r#"{"bytes":5,"end":2,"kind":"send","peer":1,"rank":0,"start":1}"#;
        assert!(parse_trace_jsonl(good).is_ok());
        for (from, to, why) in [
            (r#""bytes":5"#, r#""bytes":-5"#, "negative bytes"),
            (r#""bytes":5"#, r#""bytes":1.5"#, "fractional bytes"),
            (r#""bytes":5"#, r#""bytes":9007199254740994"#, "bytes above 2^53"),
            (r#""rank":0"#, r#""rank":-1"#, "negative rank"),
            (r#""rank":0"#, r#""rank":0.7"#, "fractional rank"),
            (r#""rank":0"#, r#""rank":1e300"#, "rank above 2^53"),
            (r#""rank":0"#, r#""rank":1048577"#, "rank above the 2^20 cap"),
            (r#""peer":1"#, r#""peer":-1"#, "negative peer"),
            (r#""peer":1"#, r#""peer":2.5"#, "fractional peer"),
            (r#""peer":1"#, r#""peer":1e17"#, "peer above 2^53"),
            (r#""end":2"#, r#""end":0.5"#, "end before start"),
            (r#""start":1"#, r#""start":1e400"#, "infinite start"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{why}: the substitution must apply");
            let err = parse_trace_jsonl(&format!("{good}\n{bad}\n")).expect_err(why);
            assert!(err.starts_with("line 2: "), "{why}: {err}");
        }
        // The cap itself is a rank.
        let at_cap = good.replace(r#""rank":0"#, r#""rank":1048576"#);
        assert_eq!(parse_trace_jsonl(&at_cap).unwrap().len(), (1 << 20) + 1);
    }
}
