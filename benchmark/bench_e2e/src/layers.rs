//! The per-layer numbers of a traced repetition, all taken from outside.
//!
//! Three sources: the spans and counters the interposers recorded while
//! the workload ran; `StoreStats`; and *replays* — public calls of one
//! layer timed on what the workload left behind (its final disk image,
//! its persisted events, its templates, its database).  A replay times
//! the layer's code on the workload's own data, not the layer's share of
//! the run: the share is what the spans give.
//!
//! Every workload reports every metric; a layer the workload does not
//! use reports 0.

use crate::disk::copy_image;
use crate::stats;
use crate::tracer::{self_times, Kind, Span};
use crate::workloads::{mix, Artifacts, RepOutcome, Res, ShardArtifacts};
use bioopera_cluster::{SimKernel, SimTime};
use bioopera_core::navigator::{self, InstanceView};
use bioopera_core::shard::{
    merge_outboxes, owner, DispatchService, Payload, ShardEvent, StepOutput,
};
use bioopera_core::{
    Awareness, AwarenessIndex, HistoryEvent, InstanceHeader, InstanceStatus, TaskRecord,
};
use bioopera_darwin::pam::FIXED_PAM;
use bioopera_darwin::{
    align_score_many, refine_pam_distance_banded, AlignParams, AlignScratch, PamFamily, SequenceDb,
};
use bioopera_store::{MemDisk, Space, Store};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Layers = BTreeMap<String, f64>;

const KB: f64 = 1024.0;
const PROBES: u64 = 10_000;

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

pub fn measure(out: &RepOutcome, spans: &[Span]) -> Res<Layers> {
    let mut m = Layers::new();
    from_counters(out, &mut m);
    from_spans(out, spans, &mut m);
    let image = copy_image(out.disk.inner())?;
    replay_store(&image, &out.artifacts, &mut m)?;
    replay_shard(out.artifacts.shard.as_ref(), &mut m);
    replay_templates(&out.artifacts, &mut m)?;
    replay_kernel(out.artifacts.kernel_events, &mut m);
    replay_darwin(out.artifacts.darwin.as_ref(), &mut m);
    Ok(m)
}

/// Disk and store counters, kept by the wrapper and by `StoreStats`.
fn from_counters(out: &RepOutcome, m: &mut Layers) {
    let d = out.disk.counts();
    m.insert("store.disk.append_calls".into(), d.append_calls as f64);
    m.insert("store.disk.append_kb".into(), d.append_bytes as f64 / KB);
    m.insert(
        "store.disk.write_atomic_calls".into(),
        d.write_atomic_calls as f64,
    );
    m.insert(
        "store.disk.write_atomic_kb".into(),
        d.write_atomic_bytes as f64 / KB,
    );
    m.insert("store.disk.read_calls".into(), d.read_calls as f64);
    m.insert("store.disk.read_kb".into(), d.read_bytes as f64 / KB);
    m.insert("store.disk.delete_calls".into(), d.delete_calls as f64);

    let s = &out.drive.store;
    m.insert("store.batches_applied".into(), s.batches_applied as f64);
    m.insert("store.spills".into(), s.spills as f64);
    m.insert("store.run_merges".into(), s.run_merges as f64);
    m.insert("store.max_merge_kb".into(), s.max_merge_bytes as f64 / KB);
    m.insert(
        "store.cache_hit_ratio".into(),
        ratio(s.cache_hits, s.cache_hits + s.cache_misses),
    );
    m.insert(
        "store.bloom_skip_ratio".into(),
        ratio(s.bloom_skips, s.bloom_skips + s.run_probes),
    );

    m.insert(
        "core.engine.steps".into(),
        (out.drive.run_steps_s.len() + out.drive.recover_steps_s.len()) as f64,
    );
    m.insert("core.engine.events".into(), out.events as f64);
    let events = out.events.max(1) as f64;
    m.insert(
        "core.engine.allocs_per_event".into(),
        out.drive.allocs as f64 / events,
    );
    m.insert(
        "core.engine.alloc_kb_per_event".into(),
        out.drive.alloc_bytes as f64 / KB / events,
    );
    m.insert(
        "cluster.kernel.events".into(),
        out.artifacts.kernel_events as f64,
    );
}

/// Busy and self times from the recorded spans.
fn from_spans(out: &RepOutcome, spans: &[Span], m: &mut Layers) {
    let busy = |pick: &dyn Fn(Kind) -> bool| {
        spans
            .iter()
            .filter(|s| pick(s.kind))
            .map(|s| s.nanos() as f64 / 1e9)
            .sum::<f64>()
    };
    let calls = |kind: Kind| spans.iter().filter(|s| s.kind == kind).count() as f64;
    m.insert("store.disk.busy_s".into(), busy(&Kind::is_disk));
    m.insert("library.program_calls".into(), calls(Kind::Program));
    m.insert(
        "library.program_busy_s".into(),
        busy(&|k| k == Kind::Program),
    );
    m.insert("core.dispatcher.choose_calls".into(), calls(Kind::Policy));
    m.insert(
        "core.dispatcher.choose_busy_s".into(),
        busy(&|k| k == Kind::Policy),
    );

    let (mut step_self, mut recover_self) = (0.0, 0.0);
    for (i, ns) in self_times(spans) {
        match spans[i].kind {
            Kind::Step => step_self += ns as f64 / 1e9,
            Kind::Recover => recover_self += ns as f64 / 1e9,
            _ => {}
        }
    }
    m.insert("core.engine.step_self_s".into(), step_self);
    m.insert("core.engine.recover_self_s".into(), recover_self);

    let of = |kind: Kind| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.nanos() as f64)
            .collect()
    };
    let steps = of(Kind::Step);
    let (p50, max) = if steps.is_empty() {
        (0.0, 0.0)
    } else {
        let s = stats::summary(&steps);
        (s.median / 1e6, s.max / 1e6)
    };
    m.insert("core.engine.step_p50_ms".into(), p50);
    m.insert("core.engine.step_max_ms".into(), max);
    let submits = of(Kind::Submit);
    m.insert(
        "core.engine.submit_us".into(),
        submits.iter().sum::<f64>() / 1e3 / submits.len().max(1) as f64,
    );

    // A root span is its self time plus what its children cover, so the
    // spans of the drive loop account for the loop's wall time except
    // for what the driver itself does between two engine calls.
    let in_roots: f64 = [Kind::Step, Kind::Recover]
        .into_iter()
        .map(|k| busy(&|kind| kind == k))
        .sum();
    m.insert(
        "trace.coverage_frac".into(),
        in_roots / out.drive.wall_s.max(f64::MIN_POSITIVE),
    );
}

/// `store`, record codec and awareness, replayed on a copy of the final
/// disk image.
fn replay_store(image: &MemDisk, art: &Artifacts, m: &mut Layers) -> Res<()> {
    let t0 = Instant::now();
    let store = Store::open_with(image.clone(), art.tiered)?;
    m.insert("store.open_s".into(), secs(t0));

    let t0 = Instant::now();
    let instance_records = store.scan_prefix(Space::Instance, "")?;
    m.insert("store.scan_instance_s".into(), secs(t0));

    // Seeded probes: keys the image holds, then the same keys made absent.
    let present: Vec<&str> = (0..PROBES)
        .map(|i| {
            let at = mix(i) % instance_records.len().max(1) as u64;
            instance_records
                .get(at as usize)
                .map_or("", |(k, _)| k.as_str())
        })
        .collect();
    let t0 = Instant::now();
    for key in &present {
        black_box(store.get(Space::Instance, key)?);
    }
    m.insert("store.get_hit_us".into(), secs(t0) * 1e6 / PROBES as f64);
    let absent: Vec<String> = present.iter().map(|k| format!("{k}~absent")).collect();
    let t0 = Instant::now();
    for key in &absent {
        black_box(store.get(Space::Instance, key)?);
    }
    m.insert("store.get_miss_us".into(), secs(t0) * 1e6 / PROBES as f64);

    // Record codec: decode every record of the image into its public
    // type, then encode it again.
    let history_records = store.scan_prefix(Space::History, "")?;
    let mut headers: Vec<InstanceHeader> = Vec::new();
    let mut tasks: Vec<TaskRecord> = Vec::new();
    let mut history: Vec<HistoryEvent> = Vec::new();
    let mut shard_events: Vec<ShardEvent> = Vec::new();
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for (key, value) in &instance_records {
        if key.ends_with("/header") {
            headers.push(serde_json::from_slice(value)?);
        } else if key.contains("/task/") {
            tasks.push(serde_json::from_slice(value)?);
        } else {
            continue;
        }
        bytes += value.len();
    }
    for (key, value) in &history_records {
        if key.starts_with("ev/") {
            history.push(serde_json::from_slice(value)?);
        } else if key.starts_with("sev/") {
            shard_events.push(serde_json::from_slice(value)?);
        } else {
            continue;
        }
        bytes += value.len();
    }
    m.insert("core.codec.decode_s".into(), secs(t0));
    m.insert("core.codec.kb".into(), bytes as f64 / KB);
    let t0 = Instant::now();
    let mut encoded = 0usize;
    for h in &headers {
        encoded += serde_json::to_vec(h)?.len();
    }
    for t in &tasks {
        encoded += serde_json::to_vec(t)?.len();
    }
    for e in &history {
        encoded += serde_json::to_vec(e)?.len();
    }
    for e in &shard_events {
        encoded += serde_json::to_vec(e)?.len();
    }
    black_box(encoded);
    m.insert("core.codec.encode_s".into(), secs(t0));

    // Awareness: reopen from the rollup, fold every persisted event into
    // a fresh index, and ask it the dashboard's questions.
    let t0 = Instant::now();
    let awareness = Awareness::open_tail(&store)?;
    m.insert("core.awareness.open_tail_s".into(), secs(t0));
    let persisted = awareness.all(&store)?;
    let t0 = Instant::now();
    let mut index = AwarenessIndex::default();
    for ev in &persisted {
        index.ingest(ev);
    }
    m.insert(
        "core.awareness.ingest_us_per_event".into(),
        secs(t0) * 1e6 / persisted.len().max(1) as f64,
    );
    let t0 = Instant::now();
    black_box(index.counts_by_kind());
    black_box(index.of_kind("task.end").len());
    m.insert("core.awareness.query_us".into(), secs(t0) * 1e6);
    Ok(())
}

/// The serial barrier term of the sharded engine: the router's merge and
/// the dispatch service, fed what the run fed them.
fn replay_shard(shard: Option<&ShardArtifacts>, m: &mut Layers) {
    let Some(s) = shard else {
        m.insert("core.shard.router.merge_us_per_event".into(), 0.0);
        m.insert("core.shard.services.dispatch_us_per_grant".into(), 0.0);
        return;
    };
    // Re-partition the persisted events into the per-round, per-shard
    // outboxes they came from.
    let mut rounds: BTreeMap<u64, Vec<StepOutput>> = BTreeMap::new();
    for ev in &s.events {
        let outs = rounds
            .entry(ev.round)
            .or_insert_with(|| (0..s.shards).map(|_| StepOutput::default()).collect());
        // Barrier-side events carry no owning instance.
        let shard = if ev.instance == u64::MAX {
            0
        } else {
            owner(ev.instance, s.shards)
        };
        outs[shard].events.push(ev.clone());
    }
    let t0 = Instant::now();
    for (_, outs) in rounds {
        black_box(merge_outboxes(outs));
    }
    m.insert(
        "core.shard.router.merge_us_per_event".into(),
        secs(t0) * 1e6 / s.events.len().max(1) as f64,
    );

    let mut service = DispatchService::new(s.nodes, s.node_capacity, 3);
    let per_round = (s.nodes * s.node_capacity).max(1) as u64;
    let t0 = Instant::now();
    let mut requested = 0u64;
    let mut round = 0u64;
    while requested < s.grants {
        let batch = per_round.min(s.grants - requested);
        for i in 0..batch {
            let id = requested + i + 1;
            service.request(id, "A".to_string(), (id, 0));
        }
        requested += batch;
        let (grants, _) = service.assign(round);
        for g in &grants {
            if let Payload::Grant { node, .. } = &g.payload {
                service.release(node, false, round);
            }
        }
        round += 1;
    }
    m.insert(
        "core.shard.services.dispatch_us_per_grant".into(),
        secs(t0) * 1e6 / s.grants.max(1) as f64,
    );
}

/// Navigator and OCR on the workload's templates.
fn replay_templates(art: &Artifacts, m: &mut Layers) -> Res<()> {
    const ROUNDS: u32 = 200;
    let top = art
        .templates
        .first()
        .ok_or("the workload registered no template")?;
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        let mut header = InstanceHeader {
            id: 1,
            template: top.name.clone(),
            status: InstanceStatus::Running,
            whiteboard: BTreeMap::new(),
            parent: None,
            created_at: SimTime::ZERO,
            ended_at: None,
        };
        let mut tasks = BTreeMap::new();
        let mut view = InstanceView {
            template: top,
            header: &mut header,
            tasks: &mut tasks,
        };
        black_box(navigator::init_instance(&mut view, &art.initial)?);
        black_box(navigator::reevaluate(&mut view, SimTime::ZERO)?);
    }
    m.insert(
        "core.navigator.init_us".into(),
        secs(t0) * 1e6 / f64::from(ROUNDS),
    );

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        for t in &art.templates {
            let text = bioopera_ocr::to_ocr_text(t);
            let parsed = bioopera_ocr::parse_process(&text)
                .map_err(|e| format!("{} does not parse back: {e:?}", t.name))?;
            bioopera_ocr::validate(&parsed)
                .map_err(|e| format!("{} does not validate: {e:?}", t.name))?;
        }
    }
    m.insert(
        "ocr.parse_validate_us".into(),
        secs(t0) * 1e6 / f64::from(ROUNDS),
    );
    Ok(())
}

/// The simulator's event queue: schedule and pop as many events as the
/// run processed.
fn replay_kernel(events: u64, m: &mut Layers) {
    if events == 0 {
        m.insert("cluster.kernel.pop_us".into(), 0.0);
        return;
    }
    let t0 = Instant::now();
    let mut kernel: SimKernel<u64> = SimKernel::new();
    for i in 0..events {
        kernel.schedule_at(SimTime::from_millis(mix(i) % 3_000_000_000), i);
    }
    while let Some(popped) = kernel.pop() {
        black_box(popped);
    }
    m.insert(
        "cluster.kernel.pop_us".into(),
        secs(t0) * 1e6 / events as f64,
    );
}

/// The alignment kernels on the workload's own database.
fn replay_darwin(
    darwin: Option<&(std::sync::Arc<SequenceDb>, std::sync::Arc<PamFamily>)>,
    m: &mut Layers,
) {
    let Some((db, pam)) = darwin else {
        m.insert("darwin.align.mcells_per_s".into(), 0.0);
        m.insert("darwin.refine.us_per_match".into(), 0.0);
        return;
    };
    const QUERIES: usize = 16;
    const PAIRS: usize = 64;
    let params = AlignParams::default();
    let mut scratch = AlignScratch::new();
    let mut scores = Vec::new();
    let matrix = pam.nearest(FIXED_PAM);
    let mut cells = 0u64;
    let t0 = Instant::now();
    for q in 0..QUERIES.min(db.len()) {
        align_score_many(
            &db.sequences[q],
            &db.sequences[q + 1..],
            matrix,
            &params,
            None,
            &mut scratch,
            &mut scores,
        );
        cells += scores.iter().map(|s| s.cells).sum::<u64>();
    }
    m.insert(
        "darwin.align.mcells_per_s".into(),
        cells as f64 / 1e6 / secs(t0).max(f64::MIN_POSITIVE),
    );

    // Refinement runs on matches; neighbours in a generated database are
    // mostly family members, as matches are.
    let pairs = PAIRS.min(db.len().saturating_sub(1));
    let t0 = Instant::now();
    for i in 0..pairs {
        black_box(refine_pam_distance_banded(
            &db.sequences[i],
            &db.sequences[i + 1],
            pam,
            &params,
            &mut scratch,
        ));
    }
    m.insert(
        "darwin.refine.us_per_match".into(),
        secs(t0) * 1e6 / pairs.max(1) as f64,
    );
}
