//! # BioOpera
//!
//! A reproduction of **"Dependable Computing in Virtual Laboratories"**
//! (Alonso, Bausch, Pautasso, Hallett, Kahn — ETH Zürich, ICDE 2001):
//! a process-support system that dependably runs month-long scientific
//! computations on a cluster, with persistent execution state, automatic
//! failure masking and recovery, pluggable scheduling, monitoring, and
//! what-if planning.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`ocr`] — the Opera Canonical Representation: process model, textual
//!   parser/printer, guard expressions, validation;
//! * [`store`] — the embedded WAL + sorted-run storage engine behind the
//!   persistent template/instance/configuration/history spaces;
//! * [`cluster`] — the deterministic discrete-event cluster simulator
//!   (nodes, failures, network outages, external users, adaptive load
//!   monitoring);
//! * [`engine`] — the BioOpera server: navigator, dispatcher, recovery
//!   manager, awareness model, planner, runtime;
//! * [`darwin`] — the bioinformatics substrate (PAM matrices,
//!   Smith–Waterman/Gotoh, synthetic SwissProt-like datasets);
//! * [`workloads`] — the paper's workloads: the all-vs-all process, the
//!   tower of information, and the manual-script baseline.
//!
//! ## Quickstart
//!
//! ```
//! use bioopera::engine::{ActivityLibrary, ProgramOutput, Runtime, RuntimeConfig};
//! use bioopera::cluster::{Cluster, NodeSpec};
//! use bioopera::ocr::{ProcessBuilder, TypeTag, Value};
//! use bioopera::store::MemDisk;
//! use std::collections::BTreeMap;
//!
//! // A process: generate a number, double it.
//! let template = ProcessBuilder::new("Demo")
//!     .whiteboard_field("result", TypeTag::Int)
//!     .activity("Gen", "demo.gen", |t| t.output("x", TypeTag::Int))
//!     .activity("Double", "demo.double", |t| {
//!         t.input("x", TypeTag::Int).output("y", TypeTag::Int)
//!     })
//!     .connect("Gen", "Double")
//!     .flow_to_task("Gen", "x", "Double", "x")
//!     .flow_to_whiteboard("Double", "y", "result")
//!     .build()
//!     .unwrap();
//!
//! let mut lib = ActivityLibrary::new();
//! lib.register("demo.gen", |_| Ok(ProgramOutput::from_fields([("x", Value::Int(21))], 1000.0)));
//! lib.register("demo.double", |inputs| {
//!     let x = inputs["x"].as_int().unwrap();
//!     Ok(ProgramOutput::from_fields([("y", Value::Int(2 * x))], 1000.0))
//! });
//!
//! let cluster = Cluster::new("lab", vec![NodeSpec::new("n1", 2, 500, "linux")]);
//! let mut rt = Runtime::new(MemDisk::new(), cluster, lib, RuntimeConfig::default()).unwrap();
//! rt.register_template(&template).unwrap();
//! let id = rt.submit("Demo", BTreeMap::new()).unwrap();
//! rt.run_to_completion().unwrap();
//! assert_eq!(rt.whiteboard(id).unwrap()["result"], Value::Int(42));
//! ```

pub use bioopera_cluster as cluster;
pub use bioopera_core as engine;
pub use bioopera_darwin as darwin;
pub use bioopera_ocr as ocr;
pub use bioopera_store as store;
pub use bioopera_workloads as workloads;
