//! Seeded fuzzing of the hand-written text readers: the OCR parser
//! (`bioopera_ocr::parser`, behind `bioopera validate|fmt|run`) and the
//! store's MANIFEST reader (behind every `Store::open_with`, its one
//! caller).
//!
//! The inputs are mutations of real texts — the paper's templates as the
//! printer prints them, and the manifest a leveled store with a retention
//! watermark commits: every truncation, bit flips (every one of the
//! manifest's, seeded ones of the templates') and seeded byte insertions.
//! Every input parses or comes back as an `Err`; none may panic.  A
//! failure names the `HARNESS_SEED` and the mutation that reproduce it.

use bioopera_harness::{seed_from_env, tiny_leveled_policy, DEFAULT_SEED};
use bioopera_ocr::parser::{parse_library, parse_process};
use bioopera_ocr::to_ocr_text;
use bioopera_store::{Disk, MemDisk, Space, Store};
use bioopera_workloads::{allvsall, tower};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One mutation of a text.
#[derive(Debug)]
enum Mutation {
    /// Keep the first `n` bytes.
    Truncate(usize),
    /// Flip bit `bit` of the byte at `at`.
    Flip { at: usize, bit: u8 },
    /// Insert `byte` before the byte at `at`.
    Insert { at: usize, byte: u8 },
}

impl Mutation {
    fn apply(&self, text: &[u8]) -> Vec<u8> {
        let mut out = text.to_vec();
        match *self {
            Mutation::Truncate(n) => out.truncate(n),
            Mutation::Flip { at, bit } => out[at] ^= 1 << bit,
            Mutation::Insert { at, byte } => out.insert(at, byte),
        }
        out
    }
}

/// Bytes that mean something to one reader or the other.
const STRUCTURAL: &[u8] = b"{}()[];,:.\"'=<>!&|+-*/%0123456789 \n\t\r";

/// Every truncation of `text`; every bit flip when `seeded` is `None`,
/// else that many seeded ones; and as many seeded byte insertions as
/// there are flips — half of them structural bytes, half any byte at all.
fn mutations(text: &[u8], rng: &mut StdRng, seeded: Option<usize>) -> Vec<Mutation> {
    let mut out: Vec<Mutation> = (0..text.len()).map(Mutation::Truncate).collect();
    match seeded {
        None => out.extend((0..text.len() * 8).map(|i| Mutation::Flip {
            at: i / 8,
            bit: (i % 8) as u8,
        })),
        Some(n) => out.extend((0..n).map(|_| Mutation::Flip {
            at: rng.gen_range(0..text.len()),
            bit: rng.gen_range(0..8u64) as u8,
        })),
    }
    for _ in 0..seeded.unwrap_or(text.len() * 8) {
        let byte = if rng.gen_range(0..2u64) == 0 {
            STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
        } else {
            rng.gen_range(0..=255u64) as u8
        };
        out.push(Mutation::Insert {
            at: rng.gen_range(0..=text.len()),
            byte,
        });
    }
    out
}

/// Feed every mutation of `text` to `read`, which answers whether the
/// input was accepted.  Panics name the seed and the mutation; the counts
/// of accepted and refused inputs are returned.
fn fuzz(
    what: &str,
    seed: u64,
    text: &[u8],
    seeded: Option<usize>,
    read: impl Fn(&[u8]) -> bool,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut accepted, mut refused) = (0, 0);
    let mut panics = Vec::new();
    for m in mutations(text, &mut rng, seeded) {
        match catch_unwind(AssertUnwindSafe(|| read(&m.apply(text)))) {
            Ok(true) => accepted += 1,
            Ok(false) => refused += 1,
            Err(_) => panics.push(format!("HARNESS_SEED={seed} {what}: {m:?}")),
        }
    }
    assert!(
        panics.is_empty(),
        "{} inputs panicked instead of returning Err; first: {}",
        panics.len(),
        panics[0]
    );
    (accepted, refused)
}

#[test]
fn the_ocr_parser_refuses_mangled_templates_without_panicking() {
    let seed = seed_from_env(DEFAULT_SEED);
    let templates = [
        allvsall::top_template(),
        allvsall::chunk_template(),
        tower::tower_template(),
    ];
    let as_text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    for (i, t) in templates.iter().enumerate() {
        let text = to_ocr_text(t);
        assert_eq!(
            &parse_process(&text).unwrap(),
            t,
            "the printed text reparses"
        );
        let (accepted, refused) = fuzz(
            &t.name,
            seed ^ i as u64,
            text.as_bytes(),
            Some(1_500),
            |b| parse_process(&as_text(b)).is_ok(),
        );
        assert!(refused > text.len() / 2, "{}: {refused} refused", t.name);
        assert!(accepted > 0, "{}: no mutation survived", t.name);
    }
    let library: String = templates.iter().map(to_ocr_text).collect();
    assert_eq!(parse_library(&library).unwrap().len(), templates.len());
    fuzz("library", seed, library.as_bytes(), Some(1_500), |b| {
        parse_library(&as_text(b)).is_ok()
    });
}

#[test]
fn the_manifest_reader_refuses_mangled_manifests_without_panicking() {
    let seed = seed_from_env(DEFAULT_SEED);
    let policy = Some(tiny_leveled_policy());
    // A leveled store with runs in L0 and deeper, live counts and a
    // retention watermark: every kind of line a manifest has.
    let image = MemDisk::new();
    let store = Store::open_with(image.clone(), policy).unwrap();
    for i in 0..160u32 {
        store
            .put(Space::History, format!("ev/{i:04}"), vec![i as u8; 40])
            .unwrap();
        store
            .put(Space::Instance, format!("inst/{}", i % 7), vec![7; 24])
            .unwrap();
    }
    store
        .retain_below(Space::History, "ev/", "ev/0100")
        .unwrap();
    drop(store);
    let manifest = image.read("MANIFEST").unwrap().unwrap();
    let text = String::from_utf8(manifest.clone()).unwrap();
    for line in ["live ", "retain ", "run ", "lrun "] {
        assert!(text.contains(line), "no `{line}` line in:\n{text}");
    }

    let (accepted, refused) = fuzz("MANIFEST", seed, &manifest, None, |bytes| {
        let disk = MemDisk::new();
        for name in image.list().unwrap() {
            let data = image.read(&name).unwrap().unwrap();
            disk.write_atomic(&name, &data).unwrap();
        }
        disk.write_atomic("MANIFEST", bytes).unwrap();
        Store::open_with(disk, policy).is_ok()
    });
    assert!(
        refused > 0 && accepted > 0,
        "{accepted} accepted, {refused} refused"
    );
}
