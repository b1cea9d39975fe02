//! # bioopera-darwin
//!
//! The bioinformatics substrate standing in for **Darwin** (Gonnet et al.),
//! the "interpreted computer language for the biosciences" that BioOpera
//! calls out to for every computational task of the all-vs-all process.
//!
//! Darwin itself and the GCB scoring matrices are not available, so this
//! crate implements the same algorithmic structure from scratch
//! (substitution documented in `DESIGN.md`):
//!
//! * a 20-letter amino-acid [`alphabet`] with background frequencies and
//!   physico-chemical property vectors,
//! * a **Dayhoff-style PAM matrix family** ([`pam`]) built by powering a
//!   reversible 1-PAM Markov mutation model derived from those properties,
//!   yielding log-odds score matrices for any PAM distance,
//! * **Smith–Waterman/Gotoh local alignment** with affine gap penalties
//!   ([`align`]), the algorithm the paper cites (SW81 + GCB92 matrices and
//!   "an affine gap penalty"), with a runtime-dispatched striped SIMD
//!   lane ([`simd`]) that stays bit-identical to the scalar oracle,
//! * **PAM-distance refinement** ([`refine`]): re-scoring a match across a
//!   ladder of PAM matrices to find the distance maximizing similarity —
//!   exactly the all-vs-all's second stage,
//! * a synthetic **SwissProt-like dataset generator** ([`dataset`]) that
//!   evolves protein families under the same mutation model, so that
//!   all-vs-all finds genuine homologies at varied PAM distances,
//! * the [`cost`] model translating alignment work into reference-CPU
//!   milliseconds for the cluster simulator (including the per-process
//!   Darwin interpreter start-up cost that drives the granularity
//!   experiment's fine-grain regime).

pub mod align;
pub mod alphabet;
pub mod cost;
pub mod dataset;
pub mod matches;
pub mod pam;
pub mod refine;
pub mod sequence;
pub mod simd;

pub use align::{
    align_local, align_local_with, align_score, align_score_bounded_with, align_score_many,
    align_score_naive, align_score_with, AlignParams, AlignScratch, Alignment, ScoreOnly,
};
pub use alphabet::{AminoAcid, ALPHABET_SIZE};
pub use cost::CostModel;
pub use dataset::{DatasetConfig, SequenceDb};
pub use matches::{Match, MatchSet};
pub use pam::{PamFamily, ScoreMatrix};
pub use refine::{
    refine_pam_distance, refine_pam_distance_banded, refine_pam_distance_with, refine_query_banded,
    Refined,
};
pub use sequence::Sequence;
pub use simd::SimdLevel;
