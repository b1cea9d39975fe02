//! The record codec against its reference, both directions.
//!
//! `serde_json`'s entry points stream: a derived type writes its JSON text
//! straight into the buffer and reads its fields straight from a cursor.
//! The `Content` tree those methods replaced is still what *defines* the
//! encoding, so it is the reference here: for every record type that
//! reaches the store or a results artifact,
//!
//! * the streamed bytes are the bytes printed from `to_content()`, and the
//!   bytes the commit before this codec printed (`golden/records.tsv`);
//! * the streamed decode is `from_content(parse(text))` — on the texts the
//!   writer produces and on texts it never does: every member dropped,
//!   nulled, retyped, repeated and surrounded by unknown ones, sequences
//!   cut short and run long, integers spelled `3.0`, keys spelled with
//!   `\u` escapes, whitespace between all tokens, trailing data;
//! * on seeded truncations and bit flips of every golden record the two
//!   readers agree on `Ok`/`Err` and on the value, and neither panics.
//!
//! Everything random comes from `HARNESS_SEED`, which every failure
//! prints.

#[path = "codec/samples.rs"]
mod samples;

use bioopera_cluster::{NodeSpec, SimTime, Trace};
use bioopera_core::awareness::{RollupRecord, StreamSummary};
use bioopera_core::dependability::HealthState;
use bioopera_core::metrics::RunReport;
use bioopera_core::shard::{PendingStart, ShardEvent, ShardMeta};
use bioopera_core::{
    EventKind, HistoryEvent, InstanceHeader, InstanceStatus, NodeHealth, RetryState, TaskRecord,
    TaskState,
};
use bioopera_harness::{seed_from_env, DEFAULT_SEED};
use bioopera_ocr::{FieldMap, ProcessTemplate, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::write_content;
use serde::{Content, DeError, Deserialize, JsonReader, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

const GOLDEN: &str = include_str!("golden/records.tsv");

fn golden_lines() -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .lines()
        .map(|line| {
            line.split_once('\t')
                .expect("a golden line is name<TAB>json")
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The reference: through the tree
// ---------------------------------------------------------------------------

fn tree_to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out);
    out
}

fn parse_tree(text: &str) -> Result<Content, DeError> {
    let mut reader = JsonReader::new(text);
    let content = reader.read_content()?;
    reader.end()?;
    Ok(content)
}

/// What a decode came to: the value's `Debug` text (so `NaN` equals
/// itself and `-0.0` differs from `0.0`), or that it failed.
type Outcome = Result<String, ()>;

fn tree_decode<T: Deserialize + Debug>(bytes: &[u8]) -> Outcome {
    let text = std::str::from_utf8(bytes).map_err(drop)?;
    let content = parse_tree(text).map_err(drop)?;
    T::from_content(&content)
        .map(|v| format!("{v:?}"))
        .map_err(drop)
}

fn stream_decode<T: Deserialize + Debug>(bytes: &[u8]) -> Outcome {
    serde_json::from_slice::<T>(bytes)
        .map(|v| format!("{v:?}"))
        .map_err(drop)
}

/// Both readers on `bytes`; they must agree.  Returns what they said.
fn agree<T: Deserialize + Debug>(seed: u64, name: &str, bytes: &[u8]) -> Outcome {
    let streamed = stream_decode::<T>(bytes);
    let reference = tree_decode::<T>(bytes);
    assert_eq!(
        streamed,
        reference,
        "HARNESS_SEED={seed} {name}: the streaming reader (left) and the tree reader (right) \
         disagree on {:?}",
        String::from_utf8_lossy(bytes)
    );
    streamed
}

// ---------------------------------------------------------------------------
// Name → type
// ---------------------------------------------------------------------------

/// Something to do with a golden line at its Rust type.
trait Check {
    fn run<T: Serialize + Deserialize + Debug>(&mut self, name: &str, line: &str);
}

fn dispatch(name: &str, line: &str, check: &mut impl Check) {
    let ty = name.split('/').next().expect("split yields one item");
    match ty {
        "TaskRecord" => check.run::<TaskRecord>(name, line),
        "TaskState" => check.run::<TaskState>(name, line),
        "InstanceHeader" => check.run::<InstanceHeader>(name, line),
        "InstanceStatus" => check.run::<InstanceStatus>(name, line),
        "ShardMeta" => check.run::<ShardMeta>(name, line),
        "RetryState" => check.run::<RetryState>(name, line),
        "NodeHealth" => check.run::<NodeHealth>(name, line),
        "HealthState" => check.run::<HealthState>(name, line),
        "NodeSpec" => check.run::<NodeSpec>(name, line),
        "SimTime" => check.run::<SimTime>(name, line),
        "Value" => check.run::<Value>(name, line),
        "PendingStart" => check.run::<PendingStart>(name, line),
        "EventKind" => check.run::<EventKind>(name, line),
        "ShardEvent" => check.run::<ShardEvent>(name, line),
        "HistoryEvent" => check.run::<HistoryEvent>(name, line),
        "RollupRecord" => check.run::<RollupRecord>(name, line),
        "StreamSummary" => check.run::<StreamSummary>(name, line),
        "ProcessTemplate" => check.run::<ProcessTemplate>(name, line),
        "Trace" => check.run::<Trace>(name, line),
        "RunReport" => check.run::<RunReport>(name, line),
        other => panic!("golden line `{name}`: no Rust type for `{other}`"),
    }
}

fn for_every_golden_line(check: &mut impl Check) {
    for (name, line) in golden_lines() {
        dispatch(name, line, check);
    }
}

// ---------------------------------------------------------------------------
// Golden bytes: the on-disk format is frozen
// ---------------------------------------------------------------------------

#[test]
fn this_build_writes_the_bytes_the_commit_before_the_streaming_codec_wrote() {
    let now = samples::golden_samples();
    let golden = golden_lines();
    let names = |lines: &mut dyn Iterator<Item = &str>| lines.collect::<Vec<_>>().join("\n");
    assert_eq!(
        names(&mut now.iter().map(|(name, _)| name.as_str())),
        names(&mut golden.iter().map(|(name, _)| *name)),
        "samples.rs and golden/records.tsv list different records"
    );
    for ((name, line), (_, old)) in now.iter().zip(&golden) {
        assert_eq!(line, old, "{name}: encoded bytes moved");
    }
}

#[test]
fn every_golden_record_decodes_and_re_encodes_to_itself_both_ways() {
    struct Roundtrip(usize);
    impl Check for Roundtrip {
        fn run<T: Serialize + Deserialize + Debug>(&mut self, name: &str, line: &str) {
            let value: T = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{name}: golden bytes do not decode: {e}"));
            assert_eq!(
                serde_json::to_string(&value).unwrap(),
                line,
                "{name}: streamed"
            );
            assert_eq!(
                serde_json::to_vec(&value).unwrap(),
                line.as_bytes(),
                "{name}"
            );
            assert_eq!(
                tree_to_string(&value),
                line,
                "{name}: printed from the tree"
            );
            let reference = T::from_content(&parse_tree(line).unwrap())
                .unwrap_or_else(|e| panic!("{name}: the tree reader rejects golden bytes: {e}"));
            assert_eq!(format!("{reference:?}"), format!("{value:?}"), "{name}");
            // The default methods — what a hand-written impl that defines
            // only the tree methods gets — say the same.
            struct TreeOnly<'a, T>(&'a T);
            impl<T: Serialize> Serialize for TreeOnly<'_, T> {
                fn to_content(&self) -> Content {
                    self.0.to_content()
                }
            }
            assert_eq!(serde_json::to_string(&TreeOnly(&value)).unwrap(), line);
            self.0 += 1;
        }
    }
    let mut check = Roundtrip(0);
    for_every_golden_line(&mut check);
    assert_eq!(check.0, golden_lines().len());
    assert!(check.0 >= 150, "only {} golden records", check.0);
}

/// Exhaustive on purpose: a new [`EventKind`] variant fails to compile
/// here until `samples::event_kinds` (and so the golden file) has it.
fn kind_ordinal(kind: &EventKind) -> usize {
    match kind {
        EventKind::InstanceStart { .. } => 0,
        EventKind::InstanceComplete { .. } => 1,
        EventKind::InstanceAbort { .. } => 2,
        EventKind::InstanceRecompute { .. } => 3,
        EventKind::InstanceRestart { .. } => 4,
        EventKind::InstanceSuspend { .. } => 5,
        EventKind::InstanceResume { .. } => 6,
        EventKind::TaskStart { .. } => 7,
        EventKind::TaskEnd { .. } => 8,
        EventKind::TaskFail { .. } => 9,
        EventKind::TaskSystemFail { .. } => 10,
        EventKind::TaskNonReport { .. } => 11,
        EventKind::TaskDiskFull { .. } => 12,
        EventKind::TaskBackoff { .. } => 13,
        EventKind::TaskPoisoned { .. } => 14,
        EventKind::TaskMigrate { .. } => 15,
        EventKind::TaskCompensate { .. } => 16,
        EventKind::SubprocessStart { .. } => 17,
        EventKind::SubprocessDuplicate { .. } => 18,
        EventKind::StaleEvent { .. } => 19,
        EventKind::EventSignal { .. } => 20,
        EventKind::NodeCrash { .. } => 21,
        EventKind::NodeRecover { .. } => 22,
        EventKind::NodeQuarantine { .. } => 23,
        EventKind::NodeProbation { .. } => 24,
        EventKind::NodePartition { .. } => 25,
        EventKind::NodeRejoin { .. } => 26,
        EventKind::NodeLoad { .. } => 27,
        EventKind::ClusterFailure => 28,
        EventKind::ClusterRecover => 29,
        EventKind::ClusterUpgrade { .. } => 30,
        EventKind::ServerRecover { .. } => 31,
        EventKind::OperatorSuspend => 32,
        EventKind::OperatorResume => 33,
        EventKind::StoreSpill { .. } => 34,
        EventKind::StoreCompaction { .. } => 35,
        EventKind::StoreRetention { .. } => 36,
        EventKind::Legacy { .. } => 37,
    }
}

#[test]
fn the_samples_hold_every_event_kind() {
    let mut seen = [false; 38];
    for kind in samples::event_kinds() {
        seen[kind_ordinal(&kind)] = true;
    }
    assert!(seen.iter().all(|s| *s), "a variant has no sample: {seen:?}");
}

// ---------------------------------------------------------------------------
// Texts the writer never produces
// ---------------------------------------------------------------------------

/// How to spell a tree as text.
#[derive(Clone, Copy)]
struct Style {
    /// Random whitespace between all tokens.
    whitespace: bool,
    /// Integers as `N.0`.
    float_ints: bool,
    /// The first character of every key as a `\u` escape.
    escaped_keys: bool,
}

impl Style {
    const COMPACT: Style = Style {
        whitespace: false,
        float_ints: false,
        escaped_keys: false,
    };

    fn random(rng: &mut StdRng) -> Style {
        Style {
            whitespace: rng.gen_bool(0.5),
            float_ints: rng.gen_bool(0.25),
            escaped_keys: rng.gen_bool(0.25),
        }
    }
}

fn gap(style: Style, rng: &mut StdRng, out: &mut String) {
    if style.whitespace {
        for _ in 0..rng.gen_range(0..3usize) {
            out.push([' ', '\n', '\t', '\r'][rng.gen_range(0..4usize)]);
        }
    }
}

fn spell_key(key: &str, style: Style, out: &mut String) {
    let mut chars = key.chars();
    match chars.next() {
        Some(first) if style.escaped_keys => {
            out.push('"');
            let mut units = [0u16; 2];
            for unit in first.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
            let mut rest = String::new();
            write_content(&Content::Str(chars.as_str().to_string()), &mut rest);
            out.push_str(&rest[1..]);
        }
        _ => write_content(&Content::Str(key.to_string()), out),
    }
}

fn spell(c: &Content, style: Style, rng: &mut StdRng, out: &mut String) {
    gap(style, rng, out);
    match c {
        Content::I64(v) if style.float_ints => out.push_str(&format!("{v}.0")),
        Content::U64(v) if style.float_ints => out.push_str(&format!("{v}.0")),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spell(item, style, rng, out);
            }
            gap(style, rng, out);
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                gap(style, rng, out);
                spell_key(key, style, out);
                gap(style, rng, out);
                out.push(':');
                spell(value, style, rng, out);
            }
            gap(style, rng, out);
            out.push('}');
        }
        scalar => write_content(scalar, out),
    }
    gap(style, rng, out);
}

/// Every tree one edit away from `c`: a node retyped or nulled, a member
/// dropped, repeated (before and after the real one) or joined by an
/// unknown one, a sequence one item shorter or longer.
fn mutants(c: &Content) -> Vec<Content> {
    let junk = || Content::Seq(vec![Content::Map(vec![("k".into(), Content::Null)])]);
    let mut out = vec![
        Content::Null,
        Content::Bool(false),
        Content::I64(3),
        Content::U64(u64::MAX),
        Content::F64(2.5),
        Content::Str("Ended".into()),
        Content::Seq(Vec::new()),
        Content::Map(Vec::new()),
    ];
    match c {
        Content::Seq(items) => {
            let mut longer = items.clone();
            longer.push(junk());
            out.push(Content::Seq(longer));
            if let Some((_, shorter)) = items.split_last() {
                out.push(Content::Seq(shorter.to_vec()));
            }
            for (i, item) in items.iter().enumerate() {
                for m in mutants(item) {
                    let mut copy = items.clone();
                    copy[i] = m;
                    out.push(Content::Seq(copy));
                }
            }
        }
        Content::Map(entries) => {
            for at in [0, entries.len()] {
                let mut copy = entries.clone();
                copy.insert(at, ("no_such_member".into(), junk()));
                out.push(Content::Map(copy));
            }
            for (i, (key, value)) in entries.iter().enumerate() {
                let mut dropped = entries.clone();
                dropped.remove(i);
                out.push(Content::Map(dropped));
                let mut repeated = entries.clone();
                repeated.push((key.clone(), junk()));
                out.push(Content::Map(repeated));
                let mut shadowed = entries.clone();
                shadowed.insert(0, (key.clone(), junk()));
                out.push(Content::Map(shadowed));
                for m in mutants(value) {
                    let mut copy = entries.clone();
                    copy[i].1 = m;
                    out.push(Content::Map(copy));
                }
            }
        }
        _ => {}
    }
    out
}

/// Most mutants a single record contributes (a template has thousands).
const MUTANTS_PER_RECORD: usize = 400;

#[test]
fn the_streaming_reader_decodes_what_the_tree_reader_decodes() {
    struct Mutations {
        seed: u64,
        rng: StdRng,
        texts: usize,
        accepted: usize,
    }
    impl Check for Mutations {
        fn run<T: Serialize + Deserialize + Debug>(&mut self, name: &str, line: &str) {
            let tree = parse_tree(line).expect("golden bytes parse");
            let mut variants = mutants(&tree);
            while variants.len() > MUTANTS_PER_RECORD {
                let at = self.rng.gen_range(0..variants.len());
                variants.swap_remove(at);
            }
            // The record itself, in every spelling.
            for _ in 0..4 {
                variants.push(tree.clone());
            }
            for variant in &variants {
                let mut text = String::new();
                let style = Style::random(&mut self.rng);
                spell(variant, style, &mut self.rng, &mut text);
                let outcome = agree::<T>(self.seed, name, text.as_bytes());
                self.texts += 1;
                self.accepted += usize::from(outcome.is_ok());
            }
            // Trailing data is rejected, whatever it is.
            for tail in ["1", "x", "}", ",", "null", "\"\""] {
                let text = format!("{line} {tail}");
                assert_eq!(
                    agree::<T>(self.seed, name, text.as_bytes()),
                    Err(()),
                    "{name}: trailing `{tail}` accepted"
                );
            }
            // And the compact spelling of the record is the record.
            let mut text = String::new();
            spell(&tree, Style::COMPACT, &mut self.rng, &mut text);
            assert_eq!(text, line, "{name}: the test's own printer");
        }
    }
    let seed = seed_from_env(DEFAULT_SEED);
    let mut check = Mutations {
        seed,
        rng: StdRng::seed_from_u64(seed),
        texts: 0,
        accepted: 0,
    };
    for_every_golden_line(&mut check);
    eprintln!(
        "HARNESS_SEED={seed}: {} texts compared, {} decoded by both readers",
        check.texts, check.accepted
    );
    // The comparison is not vacuous in either direction.
    assert!(check.texts > 10_000, "only {} texts", check.texts);
    assert!(
        check.accepted * 10 > check.texts,
        "{} accepted",
        check.accepted
    );
    assert!(
        check.accepted * 10 < check.texts * 9,
        "{} accepted",
        check.accepted
    );
}

#[test]
fn truncated_and_bit_flipped_records_never_panic_and_never_split_the_readers() {
    struct Damage {
        seed: u64,
        rng: StdRng,
        survived: usize,
    }
    impl Check for Damage {
        fn run<T: Serialize + Deserialize + Debug>(&mut self, name: &str, line: &str) {
            let bytes = line.as_bytes();
            for _ in 0..40 {
                let at = self.rng.gen_range(0..bytes.len());
                // A truncation is never a record (the only prefix of a
                // value that is a value is a shorter number).
                let cut = agree::<T>(self.seed, name, &bytes[..at]);
                if !line.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                    assert_eq!(cut, Err(()), "{name}: a {at}-byte prefix decoded");
                }
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << self.rng.gen_range(0..8u32);
                let outcome = agree::<T>(self.seed, name, &flipped);
                self.survived += usize::from(outcome.is_ok());
            }
        }
    }
    let seed = seed_from_env(DEFAULT_SEED);
    let mut check = Damage {
        seed,
        rng: StdRng::seed_from_u64(seed ^ 0xF11B),
        survived: 0,
    };
    for_every_golden_line(&mut check);
    // A flip inside a string or a digit leaves a well-formed record: the
    // value comparison above did real work.
    assert!(check.survived > 100, "{} flips decoded", check.survived);
}

// ---------------------------------------------------------------------------
// Seeded values: streamed bytes == tree bytes
// ---------------------------------------------------------------------------

fn random_string(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 12] = [
        "a", "Z", "7", " ", "\"", "\\", "\n", "\u{1}", "é", "✓", "𝄞", "/",
    ];
    (0..rng.gen_range(0..8usize))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    let leaf = depth == 0;
    match rng.gen_range(0..if leaf { 5 } else { 7u32 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Int(rng.gen::<i64>() >> rng.gen_range(0..64u32)),
        3 => Value::Float(match rng.gen_range(0..4u32) {
            0 => f64::NAN,
            1 => rng.gen_range(-1000..1000i64) as f64,
            2 => f64::from_bits(rng.gen()),
            _ => rng.gen::<f64>(),
        }),
        4 => Value::Str(random_string(rng)),
        5 => Value::List(
            (0..rng.gen_range(0..4usize))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(random_fields(rng, depth - 1)),
    }
}

fn random_fields(rng: &mut StdRng, depth: usize) -> BTreeMap<String, Value> {
    (0..rng.gen_range(0..4usize))
        .map(|_| (random_string(rng), random_value(rng, depth)))
        .collect()
}

fn random_task(rng: &mut StdRng) -> TaskRecord {
    let mut rec = TaskRecord::new(random_string(rng));
    rec.state = [TaskState::Ready, TaskState::Ended, TaskState::Failed][rng.gen_range(0..3usize)];
    rec.inputs = FieldMap::from(random_fields(rng, 3));
    rec.outputs = FieldMap::from(random_fields(rng, 2));
    rec.attempts = rng.gen();
    rec.node = rng.gen_bool(0.5).then(|| random_string(rng));
    rec.cpu_ms = rng.gen::<f64>() * 1e6;
    rec.started_at = rng.gen_bool(0.5).then(|| SimTime::from_millis(rng.gen()));
    rec.ready_at = rng.gen_bool(0.5).then(|| SimTime::from_millis(rng.gen()));
    if rng.gen_bool(0.3) {
        let retry = rec.retry_mut();
        retry.sys_failures = rng.gen();
        retry.note_failed_node(&random_string(rng));
    }
    rec
}

fn same_bytes_and_same_value<T: Serialize + Deserialize + Debug>(seed: u64, value: &T) {
    let streamed = serde_json::to_string(value).unwrap();
    assert_eq!(
        streamed,
        tree_to_string(value),
        "HARNESS_SEED={seed}: streamed bytes (left) are not the tree's (right) for {value:?}"
    );
    let back = agree::<T>(seed, "seeded value", streamed.as_bytes());
    assert_eq!(back, Ok(format!("{value:?}")), "HARNESS_SEED={seed}");
}

#[test]
fn seeded_records_stream_to_the_bytes_the_tree_prints() {
    let seed = seed_from_env(DEFAULT_SEED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DEC);
    for _ in 0..300 {
        same_bytes_and_same_value(seed, &random_task(&mut rng));
        let header = InstanceHeader {
            id: rng.gen(),
            template: random_string(&mut rng),
            status: InstanceStatus::Running,
            whiteboard: random_fields(&mut rng, 3),
            parent: rng
                .gen_bool(0.5)
                .then(|| (rng.gen(), random_string(&mut rng))),
            created_at: SimTime::from_millis(rng.gen()),
            ended_at: None,
        };
        same_bytes_and_same_value(seed, &header);
        same_bytes_and_same_value(seed, &random_value(&mut rng, 4));
    }
    // The std containers and scalars, at their edges.
    same_bytes_and_same_value(seed, &(i64::MIN, u64::MAX, 0.5f64, 1e300f64));
    same_bytes_and_same_value(seed, &vec![Some(0.1f32), None, Some(f32::MAX)]);
    same_bytes_and_same_value(seed, &(u8::MAX, i8::MIN, usize::MAX, 'é'));
    same_bytes_and_same_value(seed, &(true, false, i16::MIN, u32::MAX));
    same_bytes_and_same_value(seed, &Some(Box::new(("x".to_string(),))));
    same_bytes_and_same_value(seed, &BTreeMap::from([(String::new(), Vec::<()>::new())]));
    same_bytes_and_same_value(seed, &vec![(); 3]);
}

// ---------------------------------------------------------------------------
// The tolerance table (DESIGN.md "Record codec"), row by row
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Stamp(u64, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Dot(f64),
    Rect { w: u32, h: u32 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Probe {
    id: u64,
    count: u8,
    name: String,
    opt: Option<u32>,
    list: Vec<i64>,
    map: BTreeMap<String, i64>,
    fields: FieldMap,
    ratio: f64,
    stamp: Stamp,
    shape: Shape,
    unit: (),
    marker: Marker,
}

fn probe(text: &str) -> Result<Probe, ()> {
    let streamed = serde_json::from_str::<Probe>(text).map_err(drop);
    let reference = parse_tree(text)
        .and_then(|c| Probe::from_content(&c))
        .map_err(drop);
    assert_eq!(
        streamed.as_ref().map(|p| format!("{p:?}")),
        reference.as_ref().map(|p| format!("{p:?}")),
        "the readers disagree on {text}"
    );
    streamed
}

#[test]
fn the_reader_tolerates_exactly_what_the_design_says() {
    const FULL: &str = r#"{"id":7,"count":2,"name":"n","opt":5,"list":[1,2],"map":{"a":1},
        "fields":{"x":{"Int":[1]}},"ratio":0.5,"stamp":[9,"s"],"shape":{"Rect":{"w":1,"h":2}},
        "unit":null,"marker":null}"#;
    let full = probe(FULL).expect("the full record decodes");
    assert_eq!(full.stamp, Stamp(9, "s".into()));
    assert_eq!(full.shape, Shape::Rect { w: 1, h: 2 });
    let with = |from: &str, to: &str| {
        assert!(FULL.contains(from), "{from} is not in the probe text");
        probe(&FULL.replacen(from, to, 1))
    };

    // Absent members: `Option`, sequences, maps, floats, `()` and unit
    // structs decode from nothing; anything else is a missing field.
    let bare = probe(r#"{"id":7,"count":2,"name":"n","stamp":[9,"s"],"shape":"Empty"}"#).unwrap();
    assert_eq!(bare.opt, None);
    assert!(bare.list.is_empty() && bare.map.is_empty() && bare.fields.is_empty());
    assert!(bare.ratio.is_nan());
    assert_eq!(with(r#""id":7,"#, ""), Err(()));
    assert_eq!(with(r#""name":"n","#, ""), Err(()));
    assert_eq!(with(r#""stamp":[9,"s"],"#, ""), Err(()));
    assert_eq!(with(r#""shape":{"Rect":{"w":1,"h":2}},"#, ""), Err(()));

    // `null` where a value was: the same types take it.
    assert_eq!(with(r#""opt":5"#, r#""opt":null"#).unwrap().opt, None);
    assert!(with("[1,2]", "null").unwrap().list.is_empty());
    assert!(with(r#"{"a":1}"#, "null").unwrap().map.is_empty());
    assert!(with(r#"{"x":{"Int":[1]}}"#, "null")
        .unwrap()
        .fields
        .is_empty());
    assert!(with("0.5", "null").unwrap().ratio.is_nan());
    assert_eq!(with(r#""id":7"#, r#""id":null"#), Err(()));
    assert_eq!(with(r#""name":"n""#, r#""name":null"#), Err(()));
    assert_eq!(with(r#"[9,"s"]"#, "null"), Err(()));

    // Numbers: an integer may be spelled as a whole float; a float may be
    // spelled as an integer; `u64::MAX` survives; a narrower integer
    // wraps (`as`), as it always has.
    assert_eq!(with(r#""id":7"#, r#""id":7.0"#).unwrap().id, 7);
    assert_eq!(with(r#""id":7"#, r#""id":7e2"#).unwrap().id, 700);
    assert_eq!(with(r#""id":7"#, r#""id":7.5"#), Err(()));
    assert_eq!(with(r#""id":7"#, r#""id":-7"#), Err(()));
    assert_eq!(
        with(r#""id":7"#, r#""id":18446744073709551615"#)
            .unwrap()
            .id,
        u64::MAX
    );
    assert_eq!(with(r#""count":2"#, r#""count":258"#).unwrap().count, 2);
    assert_eq!(with("0.5", "3").unwrap().ratio, 3.0);
    assert_eq!(with(r#""id":7"#, r#""id":"7""#), Err(()));

    // Members: unknown ones are stepped over (but must be well-formed),
    // the first of a repeated key wins, a key may be spelled with escapes,
    // order is free.
    assert_eq!(
        with(r#""id":7"#, r#""zzz":[{"k":[]}],"id":7"#).unwrap(),
        full
    );
    assert_eq!(with(r#""id":7"#, r#""zzz":[{"k":]}],"id":7"#), Err(()));
    assert_eq!(with(r#""id":7"#, r#""id":7,"id":"junk""#).unwrap(), full);
    assert_eq!(with(r#""id":7"#, r#""id":7,"id":[1,"#), Err(()));
    assert_eq!(with(r#""id":7"#, r#""\u0069d":7"#).unwrap(), full);
    assert_eq!(
        with(r#""name":"n""#, r#""\u006eam\u0065":"n""#).unwrap(),
        full
    );
    assert_eq!(
        with(r#""id":7,"count":2"#, r#""count":2,"id":7"#).unwrap(),
        full
    );
    // A map type keeps the *last* of a repeated key (it always has).
    assert_eq!(with(r#"{"a":1}"#, r#"{"a":1,"a":2}"#).unwrap().map["a"], 2);
    assert_eq!(
        with(r#"{"x":{"Int":[1]}}"#, r#"{"x":{"Int":[1]},"x":"Null"}"#)
            .unwrap()
            .fields["x"],
        Value::Null
    );

    // Sequences for fixed-length types may run long, not short.
    assert_eq!(with(r#"[9,"s"]"#, r#"[9,"s",{"more":1}]"#).unwrap(), full);
    assert_eq!(with(r#"[9,"s"]"#, "[9]"), Err(()));
    assert_eq!(with(r#"[9,"s"]"#, r#"{"0":9,"1":"s"}"#), Err(()));

    // Enums: a unit variant is its name, a payload variant a map of
    // exactly one member; neither spelling stands in for the other.
    assert_eq!(
        with(r#"{"Rect":{"w":1,"h":2}}"#, r#""Empty""#)
            .unwrap()
            .shape,
        Shape::Empty
    );
    assert_eq!(
        with(r#"{"Rect":{"w":1,"h":2}}"#, r#"{"Dot":[1.5,0]}"#)
            .unwrap()
            .shape,
        Shape::Dot(1.5)
    );
    assert_eq!(
        with(r#"{"Rect":{"w":1,"h":2}}"#, r#"{"Empty":null}"#),
        Err(())
    );
    assert_eq!(with(r#"{"Rect":{"w":1,"h":2}}"#, r#""Rect""#), Err(()));
    assert_eq!(with(r#"{"Rect":{"w":1,"h":2}}"#, "{}"), Err(()));
    assert_eq!(
        with(
            r#"{"Rect":{"w":1,"h":2}}"#,
            r#"{"Rect":{"w":1,"h":2},"Dot":[1]}"#
        ),
        Err(())
    );
    assert_eq!(
        with(
            r#"{"Rect":{"w":1,"h":2}}"#,
            r#"{"Rect":{"w":1,"h":2},"Rect":{"w":1,"h":2}}"#
        ),
        Err(())
    );
    assert_eq!(with(r#"{"Rect":{"w":1,"h":2}}"#, r#"{"Oval":[]}"#), Err(()));

    // `()` and a unit struct read from any one value.
    assert_eq!(
        with(r#""unit":null"#, r#""unit":[1,{"a":2}]"#).unwrap(),
        full
    );
    assert_eq!(
        with(r#""marker":null"#, r#""marker":"anything""#).unwrap(),
        full
    );

    // The document is one value.
    assert_eq!(probe(&format!("{FULL} {{}}")), Err(()));
    assert_eq!(probe(&format!(" \n\t{FULL}\r\n ")).unwrap(), full);
}

/// The history reader's two pre-taxonomy shapes still load, through the
/// tree (its impl is hand-written and defines only `from_content`).
#[test]
fn legacy_history_records_decode_as_before() {
    let seed = seed_from_env(DEFAULT_SEED);
    for (text, kind, detail) in [
        (
            r#"{"at":[1000],"kind":"task.end","detail":"A on n1"}"#,
            "task.end",
            "A on n1",
        ),
        (r#"{"at":[1000],"kind":"site.custom"}"#, "site.custom", ""),
        (
            r#"{ "detail" : "détail", "at" : [ 1000.0 ], "kind" : "k" }"#,
            "k",
            "détail",
        ),
    ] {
        let expected = HistoryEvent {
            at: SimTime::from_secs(1),
            kind: EventKind::Legacy {
                kind: kind.into(),
                detail: detail.into(),
            },
        };
        assert_eq!(
            agree::<HistoryEvent>(seed, "legacy history", text.as_bytes()),
            Ok(format!("{expected:?}"))
        );
    }
    // A bare kind that *is* a unit variant's name is that variant, and a
    // typed record with a stray `detail` is refused.
    let typed = r#"{"at":[1000],"kind":"ClusterFailure"}"#;
    let event: HistoryEvent = serde_json::from_str(typed).unwrap();
    assert_eq!(event.kind, EventKind::ClusterFailure);
    let stray = r#"{"at":[1000],"kind":{"NodeCrash":{"node":"n"}},"detail":"x"}"#;
    assert_eq!(
        agree::<HistoryEvent>(seed, "stray detail", stray.as_bytes()),
        Err(())
    );
}

// ---------------------------------------------------------------------------
// Nesting is bounded
// ---------------------------------------------------------------------------

#[test]
fn a_record_nested_past_the_bound_is_an_error_not_a_stack_overflow() {
    use serde::json::MAX_DEPTH;
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    // Through the tree reader, the typed readers and the skip path (an
    // unknown member, a surplus item), closed or left open.
    let hostile = "[".repeat(100_000);
    assert!(serde_json::from_slice::<Value>(hostile.as_bytes()).is_err());
    assert!(serde_json::from_str::<Vec<i64>>(&hostile).is_err());
    assert!(serde_json::from_str::<Vec<Vec<()>>>(&deep(100_000)).is_err());
    assert!(parse_tree(&hostile).is_err());
    assert!(parse_tree(&"{\"k\":".repeat(100_000)).is_err());
    let unknown = format!(r#"{{"round":1,"zzz":{hostile}"#);
    assert!(serde_json::from_str::<ShardMeta>(&unknown).is_err());
    let surplus = format!("[1,{}]", deep(100_000));
    assert!(serde_json::from_str::<SimTime>(&surplus).is_err());
    let nested_value = format!(
        "{}\"Null\"{}",
        r#"{"List":[["#.repeat(50_000),
        "]]}".repeat(50_000)
    );
    assert!(serde_json::from_str::<Value>(&nested_value).is_err());

    // The bound itself: MAX_DEPTH levels decode, one more does not —
    // read as a tree, and stepped over.
    assert!(parse_tree(&deep(MAX_DEPTH)).is_ok());
    assert!(parse_tree(&deep(MAX_DEPTH + 1)).is_err());
    let skipped = |n: usize| format!("[1,{}]", deep(n));
    assert!(serde_json::from_str::<SimTime>(&skipped(MAX_DEPTH - 1)).is_ok());
    assert!(serde_json::from_str::<SimTime>(&skipped(MAX_DEPTH)).is_err());
    // A value nested as deep as the bound allows still round-trips.
    let mut value = Value::Null;
    for _ in 0..(MAX_DEPTH / 3) {
        value = Value::List(vec![value]);
    }
    let text = serde_json::to_string(&value).unwrap();
    assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), value);
    let deeper = Value::List(vec![value]);
    assert!(serde_json::from_str::<Value>(&serde_json::to_string(&deeper).unwrap()).is_err());
}
