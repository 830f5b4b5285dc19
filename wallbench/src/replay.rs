//! Replays lookup batches straight through `cuart-gpu-sim` to split their
//! wall time: key packing, the functional pass, the timing pass and the
//! result readback. The replay runs beside the session in blocks of about
//! [`BLOCK_KEYS`] keys (see `SessionConn::replay`): close enough in time
//! that both see the same machine conditions, far enough apart that the
//! replay's own copy of the index seldom evicts the session's from the
//! host caches.

use cuart::kernels::{CuartLookupKernel, DeviceTree};
use cuart::CuartIndex;
use cuart_gpu_sim::batch::{
    alloc_results, pack_keys, pack_keys_into, read_results, KeyBatchLayout,
};
use cuart_gpu_sim::cache::Cache;
use cuart_gpu_sim::exec::launch_with_cache;
use cuart_gpu_sim::{BufferId, DeviceConfig, DeviceMemory, PhasedKernel, ThreadCtx};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Keys of session lookups queued before they are replayed together.
const BLOCK_KEYS: usize = 64 * 1024;

/// Times the functional pass of a launch: from the first thread's start to
/// the last thread's end, per phase. The rest of the launch is the timing
/// pass.
struct Timed<K> {
    inner: K,
    threads: usize,
    phase_start: Cell<Option<Instant>>,
    functional: Cell<Duration>,
}

impl<K: PhasedKernel> PhasedKernel for Timed<K> {
    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn execute_phase(&self, phase: usize, tid: usize, ctx: &mut ThreadCtx<'_>) {
        if tid == 0 {
            self.phase_start.set(Some(Instant::now()));
        }
        self.inner.execute_phase(phase, tid, ctx);
        if tid + 1 == self.threads {
            if let Some(t) = self.phase_start.take() {
                self.functional.set(self.functional.get() + t.elapsed());
            }
        }
    }
}

/// Wall seconds per stage of one batch (or, summed, of many).
#[derive(Default, Clone, Copy)]
pub struct Split {
    pub pack_s: f64,
    pub functional_s: f64,
    pub timing_s: f64,
    pub readback_s: f64,
    pub raw_accesses: u64,
}

impl Split {
    pub fn add(&mut self, o: &Split) {
        self.pack_s += o.pack_s;
        self.functional_s += o.functional_s;
        self.timing_s += o.timing_s;
        self.readback_s += o.readback_s;
        self.raw_accesses += o.raw_accesses;
    }

    pub fn total_s(&self) -> f64 {
        self.pack_s + self.functional_s + self.timing_s + self.readback_s
    }
}

/// A fresh upload of an index with one persistent L2 and staging for
/// batches of up to `cap` keys.
pub struct Replayer {
    dev: DeviceConfig,
    mem: DeviceMemory,
    tree: DeviceTree,
    l2: Cache,
    queries: BufferId,
    layout: KeyBatchLayout,
    results: BufferId,
    expect: HashMap<Vec<u8>, u64>,
    pending: Vec<Vec<Vec<u8>>>,
    pending_keys: usize,
    /// One split per replayed batch, in order.
    pub splits: Vec<Split>,
    /// The first wrong answer, if any.
    pub error: Option<String>,
}

impl Replayer {
    /// `expect` maps every key a batch may hold to its stored value.
    pub fn new(
        index: &CuartIndex,
        dev: &DeviceConfig,
        cap: usize,
        expect: HashMap<Vec<u8>, u64>,
    ) -> Result<Replayer, String> {
        let mut mem = DeviceMemory::new();
        let tree = index.upload(&mut mem);
        let (queries, layout) = pack_keys(
            &mut mem,
            "replay-queries",
            &vec![Vec::new(); cap],
            index.device_key_stride(),
        )
        .map_err(|e| format!("replay staging: {e}"))?;
        let results = alloc_results(&mut mem, "replay-results", cap);
        Ok(Replayer {
            dev: *dev,
            mem,
            tree,
            l2: Cache::new(&dev.l2),
            queries,
            layout,
            results,
            expect,
            pending: Vec::new(),
            pending_keys: 0,
            splits: Vec::new(),
            error: None,
        })
    }

    /// Queue a lookup batch; replay the queue once it is a block.
    pub fn push(&mut self, keys: Vec<Vec<u8>>) {
        self.pending_keys += keys.len();
        self.pending.push(keys);
        if self.pending_keys >= BLOCK_KEYS {
            self.flush();
        }
    }

    /// Replay every queued batch.
    pub fn flush(&mut self) {
        for keys in std::mem::take(&mut self.pending) {
            self.batch(&keys);
        }
        self.pending_keys = 0;
    }

    /// Replay one lookup batch and check its answers.
    fn batch(&mut self, keys: &[Vec<u8>]) {
        let t0 = Instant::now();
        if let Err(e) = pack_keys_into(&mut self.mem, self.queries, &self.layout, keys) {
            self.error.get_or_insert(format!("replay pack: {e}"));
            return;
        }
        let t1 = Instant::now();
        let kernel = Timed {
            inner: CuartLookupKernel {
                tree: self.tree,
                queries: self.queries,
                layout: self.layout,
                results: self.results,
                count: keys.len(),
            },
            threads: keys.len(),
            phase_start: Cell::new(None),
            functional: Cell::new(Duration::ZERO),
        };
        let report = launch_with_cache(&self.dev, &mut self.mem, &kernel, keys.len(), &mut self.l2);
        let t2 = Instant::now();
        let vals = read_results(&self.mem, self.results, keys.len());
        let t3 = Instant::now();
        if let Some((k, v)) = keys
            .iter()
            .zip(&vals)
            .find(|(k, v)| self.expect.get(*k) != Some(*v))
        {
            self.error.get_or_insert(format!(
                "replay: wrong lookup answer for key {k:02x?}: got {v}"
            ));
        }
        let functional_s = kernel.functional.get().as_secs_f64();
        self.splits.push(Split {
            pack_s: (t1 - t0).as_secs_f64(),
            functional_s,
            timing_s: (t2 - t1).as_secs_f64() - functional_s,
            readback_s: (t3 - t2).as_secs_f64(),
            raw_accesses: report.raw_accesses,
        });
    }
}
