//! # bioopera-workloads
//!
//! The paper's workloads, expressed as BioOpera processes:
//!
//! * [`allvsall`] — the **all-vs-all** self-comparison of §4/Fig. 3, in a
//!   *real-compute* mode (alignments actually run; used by the granularity
//!   experiment and the examples) and a *cost-model* mode (TEU durations
//!   synthesized from the same per-cell model; used for the SP38-scale
//!   Table 1 / Figures 5–6 runs);
//! * [`bio`] — the supporting mini-algorithms for the tower of
//!   information: codon translation, ORF finding, distance matrices,
//!   neighbor-joining trees, Chou–Fasman secondary-structure prediction;
//! * [`tower`] — the **tower of information** (§1, Fig. 1) as a nested
//!   BioOpera process over those algorithms;
//! * [`baseline`] — the "manual Perl-script" status quo the paper argues
//!   against: same jobs, same cluster, no persistence, operator-driven
//!   restarts; used by the dependability ablation.
//! * [`chaos`] — the flaky-node chaos scenario exercising the
//!   dependability policies (retry budgets, backoff, quarantine) against
//!   the masked-failure requeue livelock.
//! * [`toys`] — the chain, fan and parent toy processes the engine's
//!   tests, the torture harness and the shard bench share.

pub mod allvsall;
pub mod baseline;
pub mod bio;
pub mod chaos;
pub mod tower;
pub mod toys;

pub use allvsall::{
    fixed_pass_with_workers, refine_pass_with_workers, AllVsAllConfig, AllVsAllMode, AllVsAllSetup,
};
pub use baseline::{BaselineOutcome, ScriptDriver};
pub use chaos::{flaky_node_run, ChaosConfig, ChaosOutcome};
