//! Trace exporters: Chrome-trace JSON and a compact JSONL stream.
//!
//! Both formats are byte-stable: field order is fixed (sorted keys),
//! numbers use shortest round-trip formatting, and events appear in
//! (rank, program-order) sequence. Exporting the same run twice yields
//! identical bytes — golden-file tests rely on this.
//!
//! Each writer appends every span, fields in sorted key order, to one
//! reusable byte buffer and hands the buffer to its [`io::Write`] once it
//! holds 64 KiB, so no file is held whole and the output sees a few
//! large writes. Numbers and integers come from
//! [`crate::json`]'s byte-level primitives, which share their digits
//! with `Json`'s `Display`; no per-span value tree is built. What is
//! constant within a rank is rendered once per rank: Chrome's run from
//! `name` to `ts` for each kind, and JSONL's `rank` and `start` keys
//! (JSONL's `kind` field once per kind). A JSONL `start` whose bits equal
//! the previous line's `end` copies that end's digits from the buffer:
//! nearly every span starts where its rank's previous span ended. The
//! `String` forms, [`chrome_trace_json`] and [`trace_jsonl`], run the
//! same writers.
//!
//! The JSONL stream is the archival format: [`parse_trace_jsonl`]
//! reconstructs the exact [`RankTrace`]s (bit-identical span times), so
//! traces can be written by `bench-tables` and re-analyzed later without
//! rerunning the simulation.

use crate::json::{push_int, push_num, write_int, write_str, Json, MAX_EXACT_INT};
use hetsim_cluster::time::SimTime;
use hetsim_mpi::trace::{OpKind, RankTrace, TraceRecord};
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;

/// Writes per-rank traces to `out` in the Chrome trace-event format
/// (the JSON array flavour): open the output in `chrome://tracing` or
/// Perfetto. Each span becomes one complete (`"ph":"X"`) event; virtual
/// seconds map to microseconds, the format's native unit. One event per
/// line. The writer buffers, so `out` need not.
///
/// # Panics
/// On a non-finite span time, or on bytes, a peer or a rank above
/// 2^53: JSON readers could not hold them exactly.
pub fn write_chrome_trace(out: impl io::Write, traces: &[RankTrace]) -> io::Result<()> {
    let mut spans = SpanBuffer::new(out);
    spans.buf.extend_from_slice(b"[\n");
    let mut separator: &[u8] = b"";
    let mut tails = OpKind::ALL.map(|_| String::new());
    for (rank, trace) in traces.iter().enumerate() {
        for (tail, kind) in tails.iter_mut().zip(OpKind::ALL) {
            tail.clear();
            tail.push_str(",\"name\":");
            write_str(tail, kind.name()).expect("a String accepts every write");
            tail.push_str(",\"ph\":\"X\",\"pid\":0,\"tid\":");
            write_int(tail, rank as u64).expect("a String accepts every write");
            tail.push_str(",\"ts\":");
        }
        for record in &trace.records {
            let buf = &mut spans.buf;
            buf.extend_from_slice(separator);
            separator = b",\n";
            buf.extend_from_slice(b"{\"args\":{\"bytes\":");
            push_int(buf, record.bytes);
            if let Some(peer) = record.peer {
                buf.extend_from_slice(b",\"peer\":");
                push_int(buf, peer as u64);
            }
            buf.extend_from_slice(b"},\"cat\":\"virtual\",\"dur\":");
            push_num(buf, record.duration().as_secs() * 1e6);
            buf.extend_from_slice(tails[record.kind as usize].as_bytes());
            push_num(buf, record.start.as_secs() * 1e6);
            buf.push(b'}');
            spans.span_done()?;
        }
    }
    spans.buf.extend_from_slice(b"\n]\n");
    spans.finish()
}

/// [`write_chrome_trace`] into a `String`.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    text_of(|out| write_chrome_trace(out, traces))
}

/// Writes per-rank traces to `out` as JSON Lines: one object per span,
/// fields `bytes`, `end`, `kind`, `peer` (omitted when absent), `rank`,
/// `start`; times in virtual seconds at full precision. The writer
/// buffers, so `out` need not.
///
/// # Panics
/// As [`write_chrome_trace`].
pub fn write_trace_jsonl(out: impl io::Write, traces: &[RankTrace]) -> io::Result<()> {
    let mut spans = SpanBuffer::new(out);
    let kinds = OpKind::ALL.map(|kind| {
        let mut field = String::from(",\"kind\":");
        write_str(&mut field, kind.name()).expect("a String accepts every write");
        field
    });
    let mut rank_start = String::new();
    // The bits of the previous line's `end` and where its digits sit in
    // the buffer, until the buffer is handed on.
    let mut last_end: Option<(u64, Range<usize>)> = None;
    for (rank, trace) in traces.iter().enumerate() {
        rank_start.clear();
        rank_start.push_str(",\"rank\":");
        write_int(&mut rank_start, rank as u64).expect("a String accepts every write");
        rank_start.push_str(",\"start\":");
        for record in &trace.records {
            let buf = &mut spans.buf;
            buf.extend_from_slice(b"{\"bytes\":");
            push_int(buf, record.bytes);
            buf.extend_from_slice(b",\"end\":");
            let end_at = buf.len();
            push_num(buf, record.end.as_secs());
            let end = (record.end.as_secs().to_bits(), end_at..buf.len());
            buf.extend_from_slice(kinds[record.kind as usize].as_bytes());
            if let Some(peer) = record.peer {
                buf.extend_from_slice(b",\"peer\":");
                push_int(buf, peer as u64);
            }
            buf.extend_from_slice(rank_start.as_bytes());
            // Equal bits, not `==`: 0.0 and -0.0 are equal but print
            // differently.
            match last_end {
                Some((bits, digits)) if bits == record.start.as_secs().to_bits() => {
                    buf.extend_from_within(digits)
                }
                _ => push_num(buf, record.start.as_secs()),
            }
            buf.extend_from_slice(b"}\n");
            last_end = if spans.span_done()? { None } else { Some(end) };
        }
    }
    spans.finish()
}

/// [`write_trace_jsonl`] into a `String`.
pub fn trace_jsonl(traces: &[RankTrace]) -> String {
    text_of(|out| write_trace_jsonl(out, traces))
}

fn text_of(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut bytes = Vec::new();
    write(&mut bytes).expect("a Vec accepts every write");
    String::from_utf8(bytes).expect("the writers write UTF-8")
}

/// How many bytes a writer gathers before handing them to its output.
const FLUSH_BYTES: usize = 1 << 16;

/// The buffer the writers append whole spans to, in front of their
/// output.
struct SpanBuffer<W> {
    out: W,
    buf: Vec<u8>,
}

impl<W: io::Write> SpanBuffer<W> {
    fn new(out: W) -> Self {
        // Room for the span that crosses the flush mark.
        SpanBuffer { out, buf: Vec::with_capacity(2 * FLUSH_BYTES) }
    }

    /// Hands the buffer to the output if it holds [`FLUSH_BYTES`], and
    /// says whether it did: the bytes are then gone from the buffer.
    fn span_done(&mut self) -> io::Result<bool> {
        if self.buf.len() < FLUSH_BYTES {
            return Ok(false);
        }
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(true)
    }

    /// Hands the rest to the output and flushes it.
    fn finish(mut self) -> io::Result<()> {
        self.out.write_all(&self.buf)?;
        self.out.flush()
    }
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
/// non-finite time, a span that starts before time 0 (`-0` is time 0),
/// ends before it starts or starts before its rank's previous span ends
/// (a [`RankTrace`] is in time order, which [`crate::critical_path`]
/// relies on), and a rank above 2^20 (far more ranks than any traced run
/// has, and a bound on what the parser allocates).
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
        if record.start.as_secs() < 0.0 {
            return Err(format!("line {line_no}: span starts before time 0"));
        }
        if record.end.as_secs() < record.start.as_secs() {
            return Err(format!("line {line_no}: span ends before it starts"));
        }
        if rank >= traces.len() {
            traces.resize_with(rank + 1, RankTrace::default);
        }
        let records = &mut traces[rank].records;
        if records.last().is_some_and(|last| record.start.as_secs() < last.end.as_secs()) {
            return Err(format!(
                "line {line_no}: span starts before rank {rank}'s previous span ends"
            ));
        }
        records.push(record);
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::critical_path;

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
        const FIXED: [f64; 9] = [
            0.0,
            0.1 + 0.2,
            0.5,
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

    /// Seeded random traces of up to `max_spans` spans per rank: every
    /// `OpKind`, peers present and absent, empty ranks between non-empty
    /// ones, awkward times and counts, and each rank's spans in time
    /// order, as a [`RankTrace`] keeps them. A quarter of the ranks open
    /// with a zero-length span at `+0.0`. Half the spans after a rank's
    /// first, and every one drawn to start before its predecessor ends,
    /// start on the bits their predecessor ended on; a quarter have zero
    /// length, so that an awkward end is reused again. One in eight,
    /// after a `+0.0` end, starts at `-0.0`: equal under `==`, printed
    /// differently.
    fn random_traces(state: &mut u64, max_spans: u64) -> Vec<RankTrace> {
        let ranks = 1 + (draw(state) % 7) as usize;
        (0..ranks)
            .map(|_| {
                let spans = if draw(state).is_multiple_of(3) { 0 } else { draw(state) % max_spans };
                let mut last_end: Option<f64> = None;
                let records = (0..spans)
                    .map(|_| {
                        let (a, b) = (awkward_time(state), awkward_time(state));
                        let (mut start, mut end) = (a.min(b), a.max(b));
                        match (last_end, draw(state) % 8) {
                            (None, 0 | 1) => (start, end) = (0.0, 0.0),
                            (Some(last), 0 | 1) => (start, end) = (last, last),
                            (Some(last), 4) if last.to_bits() == 0 => {
                                (start, end) =
                                    (-0.0, if draw(state).is_multiple_of(2) { -0.0 } else { end })
                            }
                            (Some(last), case) if matches!(case, 2 | 3) || start < last => {
                                (start, end) = (last, end.max(last))
                            }
                            _ => {}
                        }
                        last_end = Some(end);
                        TraceRecord {
                            kind: OpKind::ALL[(draw(state) % OpKind::ALL.len() as u64) as usize],
                            start: SimTime::from_secs(start),
                            end: SimTime::from_secs(end),
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

    /// An output that keeps every write apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl io::Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Checks both writers and both `String` forms against the tree
    /// oracle, and the parse against the traces, on `traces`; returns
    /// the writes of the Chrome and the JSONL writer.
    fn assert_matches_the_oracle(traces: &[RankTrace]) -> [Vec<Vec<u8>>; 2] {
        let (mut chrome, mut jsonl) = (Writes::default(), Writes::default());
        write_chrome_trace(&mut chrome, traces).unwrap();
        assert_eq!(String::from_utf8(chrome.0.concat()).unwrap(), oracle_chrome_trace_json(traces));
        assert_eq!(chrome_trace_json(traces), oracle_chrome_trace_json(traces));
        write_trace_jsonl(&mut jsonl, traces).unwrap();
        let text = String::from_utf8(jsonl.0.concat()).unwrap();
        assert_eq!(text, oracle_trace_jsonl(traces));
        assert_eq!(trace_jsonl(traces), text);

        // The parse inverts the export bit for bit, up to trailing empty
        // ranks.
        let back = parse_trace_jsonl(&text).unwrap();
        let kept = traces.iter().rposition(|t| !t.records.is_empty()).map_or(0, |i| i + 1);
        assert_eq!(back.len(), kept);
        for (a, b) in back.iter().zip(traces) {
            assert_eq!(a.records.len(), b.records.len());
            for (x, y) in a.records.iter().zip(&b.records) {
                assert_eq!((x.kind, x.bytes, x.peer), (y.kind, y.bytes, y.peer));
                assert_eq!(x.start.as_secs().to_bits(), y.start.as_secs().to_bits());
                assert_eq!(x.end.as_secs().to_bits(), y.end.as_secs().to_bits());
            }
        }
        [chrome.0, jsonl.0]
    }

    #[test]
    fn streaming_writers_match_the_tree_oracle_on_random_traces() {
        let mut state = 0x0b5e_77ac_e000_0001;
        let (mut kinds, mut peers, mut gaps) = (BTreeMap::new(), [0usize; 2], 0);
        // Starts on the previous line's end bits, by what that end is.
        let mut chained = BTreeMap::new();
        for _ in 0..400 {
            let traces = random_traces(&mut state, 24);
            assert_matches_the_oracle(&traces);

            let records: Vec<_> = traces.iter().flat_map(|t| &t.records).collect();
            for record in &records {
                *kinds.entry(record.kind.name()).or_insert(0) += 1;
                peers[usize::from(record.peer.is_some())] += 1;
            }
            for pair in records.windows(2) {
                let (end, start) = (pair[0].end.as_secs(), pair[1].start.as_secs());
                let negative_zero = (-0.0f64).to_bits();
                let case = match (end.to_bits(), start.to_bits()) {
                    (0, bits) if bits == negative_zero => "+0 end, -0 start",
                    (a, b) if a != b => continue,
                    (0, _) => "+0",
                    (bits, _) if bits == negative_zero => "-0",
                    _ if end == 1e-300 => "1e-300",
                    _ if end.is_subnormal() => "subnormal",
                    _ if end == 0.5 => "power of two",
                    _ => "other",
                };
                *chained.entry(case).or_insert(0) += 1;
            }
            let kept = traces.iter().rposition(|t| !t.records.is_empty()).map_or(0, |i| i + 1);
            gaps += traces[..kept].iter().filter(|t| t.records.is_empty()).count();
        }
        // The draw reaches every case the oracle comparison is for.
        assert_eq!(kinds.len(), OpKind::ALL.len(), "{kinds:?}");
        assert!(peers[0] > 0 && peers[1] > 0 && gaps > 0, "{peers:?} {gaps}");
        assert_eq!(chained.len(), 7, "{chained:?}");
    }

    #[test]
    fn a_trace_larger_than_the_flush_buffer_matches_the_oracle() {
        let mut state = 0x0b5e_77ac_e000_0002;
        let traces = random_traces(&mut state, 4000);
        for writes in assert_matches_the_oracle(&traces) {
            // Handed on in pieces of at least the flush mark, plus one span.
            assert!(writes.len() > 2, "{} writes", writes.len());
            let (last, full) = writes.split_last().unwrap();
            assert!(last.len() < 2 * FLUSH_BYTES);
            assert!(full.iter().all(|w| (FLUSH_BYTES..2 * FLUSH_BYTES).contains(&w.len())));
        }
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
        // never a value truncated by a cast or a panic. The span before
        // ends where the good one starts.
        let first = r#"{"bytes":5,"end":1,"kind":"send","peer":1,"rank":0,"start":0}"#;
        let good = r#"{"bytes":5,"end":2,"kind":"send","peer":1,"rank":0,"start":1}"#;
        assert!(parse_trace_jsonl(&format!("{first}\n{good}\n")).is_ok());
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
            let err = parse_trace_jsonl(&format!("{first}\n{bad}\n")).expect_err(why);
            assert!(err.starts_with("line 2: "), "{why}: {err}");
        }
        // The cap itself is a rank.
        let at_cap = good.replace(r#""rank":0"#, r#""rank":1048576"#);
        assert_eq!(parse_trace_jsonl(&at_cap).unwrap().len(), (1 << 20) + 1);
    }

    #[test]
    fn spans_out_of_rank_order_are_line_numbered_errors() {
        let span = |rank: usize, start: f64, end: f64| {
            format!(r#"{{"bytes":0,"end":{end},"kind":"compute","rank":{rank},"start":{start}}}"#)
        };
        let parse = |lines: &[String]| parse_trace_jsonl(&(lines.join("\n") + "\n"));
        let negative = "line 1: span starts before time 0";
        assert_eq!(parse(&[span(0, -1.0, 2.0)]), Err(negative.into()));
        assert_eq!(parse(&[span(0, -1e-300, 0.0)]), Err(negative.into()));
        // In order, a rank's path covers its makespan once; given out of
        // order or overlapping, its spans are refused, not walked twice.
        let sorted = parse(&[span(0, 0.0, 1.0), span(0, 1.0, 2.0)]).unwrap();
        assert_eq!(critical_path(&sorted).coverage(), 1.0);
        let before = "line 2: span starts before rank 0's previous span ends";
        assert_eq!(parse(&[span(0, 1.0, 2.0), span(0, 0.0, 1.0)]), Err(before.into()));
        assert_eq!(parse(&[span(0, 0.0, 2.0), span(0, 1.0, 3.0)]), Err(before.into()));
        let third = "line 3: span starts before rank 1's previous span ends";
        assert_eq!(
            parse(&[span(1, 0.0, 3.0), span(0, 5.0, 6.0), span(1, 2.0, 4.0)]),
            Err(third.into())
        );
        // Order holds per rank: interleaved ranks, zero-length spans,
        // spans that touch and a -0 start after a +0 end all parse.
        let interleaved = [
            span(0, 0.0, 0.0),
            span(1, 0.0, 3.0),
            span(0, -0.0, 1.0),
            span(0, 1.0, 1.0),
            span(0, 1.0, 2.0),
            span(1, 3.0, 4.0),
        ];
        assert_eq!(parse(&interleaved).map(|t| t[0].records.len()), Ok(4));
    }

    #[test]
    fn deeply_nested_lines_are_line_numbered_errors() {
        use crate::json::MAX_DEPTH;
        let good = r#"{"bytes":5,"end":2,"kind":"send","peer":1,"rank":0,"start":1}"#;
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let parse = |line: String| parse_trace_jsonl(&format!("{good}\n{line}\n"));
        // At the nesting cap the line is JSON, just not a span.
        assert_eq!(parse(nested(MAX_DEPTH)), Err("line 2: event is not an object".into()));
        // One level past it, or far past it, the parser stops at the
        // level past the cap instead of overflowing its stack.
        let past = format!("line 2: nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}");
        assert_eq!(parse(nested(MAX_DEPTH + 1)), Err(past.clone()));
        assert_eq!(parse(nested(100_000)), Err(past));
    }
}
