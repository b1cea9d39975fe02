//! # bioopera-ocr
//!
//! The **Opera Canonical Representation** (OCR): BioOpera's process language
//! (paper §3.1).  A *process* is an annotated directed graph whose nodes are
//! tasks (activities, blocks, subprocesses, parallel tasks) and whose arcs
//! are control connectors `(T_s, T_t, C_act)` and data-flow connectors.
//!
//! This crate is the engine-independent half of the system: it defines
//!
//! * the dynamic [`value::Value`] model used on the whiteboard and in task
//!   input/output structures,
//! * the activation-condition / guard expression language ([`expr`]),
//! * the process model itself ([`model`]),
//! * a fluent [`builder`] API,
//! * the textual OCR [`parser`] and [`printer`] ("OCR acts as a persistent
//!   scripting language interpreted by the navigator"),
//! * static [`validate`](validate()) checks run before a template is admitted to the
//!   template space.
//!
//! Execution semantics live in `bioopera-core`; nothing here knows about
//! clusters, scheduling, or persistence.

pub mod builder;
pub mod expr;
pub mod model;
pub mod parser;
pub mod printer;
pub mod validate;
pub mod value;

pub use builder::ProcessBuilder;
pub use expr::{EvalError, Expr};
pub use model::{
    Block, ControlConnector, DataFlow, DataRef, EventAction, EventHandler, ExternalBinding,
    FailureHandler, FailurePolicy, FieldDecl, ParallelBody, ProcessTemplate, Sphere, Task,
    TaskKind, TypeTag,
};
pub use parser::{parse_process, ParseError};
pub use printer::to_ocr_text;
pub use validate::{validate, ValidationError};
pub use value::{FieldMap, Value};
