//! # cuart-host — the end-to-end query engine
//!
//! The paper measures throughput "in an end-to-end manner, including CPU
//! overhead for processing the lookups afterwards, PCIe transfer times and
//! pipelining" (§4.1). This crate is that measurement harness:
//!
//! * [`gpu_runner`] — composes per-batch kernel times (sampled from the
//!   `cuart-gpu-sim` simulator) with the PCIe and multi-stream pipeline
//!   models into end-to-end throughput, for CuART and both GRT variants
//!   (CUDA / OpenCL, §4.1),
//! * [`cpu_runner`] — *real, measured* multi-threaded CPU lookups over the
//!   classic ART and over the CuART layout (Figure 7), plus mutex-guarded
//!   atomic CPU updates (Figure 17),
//! * [`hybrid`] — the CPU/GPU split of §3.2.3 option 1: long keys answered
//!   by host threads while the GPU serves the rest (Figures 13/14),
//! * [`oversized`] — the §5.1 out-of-core extension: indexes larger than
//!   device memory, partitioned by key range with access-driven migration
//!   between device and host,
//! * [`scheduler`] — the concurrent serving layer: N producer threads
//!   submit requests through bounded MPSC queues; one executor thread per
//!   simulated device coalesces them into adaptive batches (size target
//!   or deadline), sorts each batch for locality and inverts the
//!   permutation on return. With several devices the key space is
//!   partitioned by the §3.3 LUT prefix, with concurrent
//!   split/dispatch/merge routing and per-shard overload isolation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu_runner;
pub mod gpu_runner;
pub mod hybrid;
pub mod oversized;
pub mod scheduler;

pub use gpu_runner::{E2eReport, Engine, RunConfig};
pub use hybrid::HybridReport;
pub use scheduler::{
    Answer, Op, RangeRows, Request, SchedError, Scheduler, SchedulerClient, SchedulerConfig,
    SchedulerStats, ShardStats, ShardedStats,
};
