//! The closed-loop client: draws requests from its seeded stream, times
//! each call, and checks every answer against its reference model.

use crate::conn::{CallError, Conn, Ranges};
use crate::data::{Data, Model, Rng};
use crate::percentile;
use cuart::insert::insert_status;
use cuart::update::status;
use cuart_gpu_sim::exec::KernelReport;
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

/// Ranges per range request, and stored keys each range spans.
const RANGES_PER_CALL: usize = 16;
const RANGE_WIDTH: usize = 16;
const TAIL_RANGE_CALLS: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Lookup = 0,
    Update = 1,
    Insert = 2,
    Range = 3,
}

/// What the client sends: lookups in the warm-up and the window, then a
/// tail of writes and ranges.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Keys per lookup, update or insert call.
    pub keys: usize,
    /// Sort each call's keys, as the scheduler does before dispatch.
    pub sort: bool,
}

/// Timings and counts of one client run (or, merged, of several).
#[derive(Default)]
pub struct Record {
    /// Wall latency of every measured call, per [`Kind`], in ms.
    pub lat_ms: [Vec<f64>; 4],
    /// Ops answered inside the timed window.
    pub window_ops: u64,
    pub start: Option<Instant>,
    pub end: Option<Instant>,
    /// Ops attempted and refused in measured calls.
    pub attempted: u64,
    pub failed: u64,
    /// Ops sent in every call, warm-up included.
    pub all_ops: u64,
    /// Modeled kernel totals of the first measured lookup calls.
    pub modeled: KernelReport,
    pub modeled_keys: u64,
    /// Modeled same-address atomic conflicts of measured write calls.
    pub write_conflicts: u64,
}

impl Record {
    pub fn merge(&mut self, o: Record) {
        for (mine, theirs) in self.lat_ms.iter_mut().zip(o.lat_ms) {
            mine.extend(theirs);
        }
        self.window_ops += o.window_ops;
        self.start = match (self.start, o.start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.end = match (self.end, o.end) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.all_ops += o.all_ops;
        self.modeled.accumulate(&o.modeled);
        self.modeled_keys += o.modeled_keys;
        self.write_conflicts += o.write_conflicts;
    }

    pub fn window_s(&self) -> f64 {
        match (self.start, self.end) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.window_ops as f64 / self.window_s()
    }

    /// Ops answered per second spent inside calls, for a window that
    /// holds only lookups: excludes the client's own request building and
    /// answer checks.
    pub fn lookup_ops_per_call_s(&self) -> f64 {
        self.window_ops as f64 / (self.lat(&[Kind::Lookup]).iter().sum::<f64>() / 1e3)
    }

    /// Latency percentile `q` of every measured call of `kinds`.
    pub fn latency(&self, kinds: &[Kind], q: f64) -> f64 {
        percentile(&self.lat(kinds), q)
    }

    /// Latencies of the given kinds, merged.
    pub fn lat(&self, kinds: &[Kind]) -> Vec<f64> {
        kinds
            .iter()
            .flat_map(|&k| self.lat_ms[k as usize].iter().copied())
            .collect()
    }
}

struct Outcome {
    kind: Kind,
    ms: f64,
    ops: u64,
    ok: bool,
}

pub struct Client<'d, C> {
    pub conn: C,
    model: Model,
    shape: Shape,
    rec: Record,
    data: &'d Data,
    rng: Rng,
    /// Keys whose state is unknown after a refused write; never checked.
    unknown: BTreeSet<Vec<u8>>,
}

impl<'d, C: Conn> Client<'d, C> {
    pub fn new(conn: C, data: &'d Data, shape: Shape, seed: u64) -> Self {
        Client {
            conn,
            model: Model::new(data),
            shape,
            rec: Record::default(),
            data,
            rng: Rng::new(seed, 1),
            unknown: BTreeSet::new(),
        }
    }

    /// `n` distinct indices into the stored keys.
    fn distinct_keys(&mut self, n: usize) -> Vec<usize> {
        let len = self.model.keys.len();
        let mut seen = HashSet::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n.min(len) {
            let i = self.rng.below(len);
            if seen.insert(i) {
                out.push(i);
            }
        }
        out
    }

    fn sort_by_key(&self, idx: &mut [usize]) {
        if self.shape.sort {
            idx.sort_unstable_by(|&a, &b| self.model.keys[a].cmp(&self.model.keys[b]));
        }
    }

    /// Make one call of `kind`, time it and check the answer.
    fn call(&mut self, kind: Kind) -> Result<Outcome, String> {
        let n = self.shape.keys;
        let (ms, ops, ok) = match kind {
            Kind::Lookup => {
                let len = self.model.keys.len();
                let mut idx: Vec<usize> = (0..n).map(|_| self.rng.below(len)).collect();
                self.sort_by_key(&mut idx);
                let keys: Vec<Vec<u8>> = idx.iter().map(|&i| self.model.keys[i].clone()).collect();
                self.conn
                    .note_request(&|| cuart_net::Op::Lookup(keys.clone()));
                let t = Instant::now();
                let r = self.conn.lookup(keys);
                let ms = ms_since(t);
                let ok = match r {
                    Ok(vals) => {
                        self.check_lookup(&idx, &vals)?;
                        true
                    }
                    Err(e) => refused(e)?,
                };
                (ms, n, ok)
            }
            Kind::Update | Kind::Insert => {
                let (idx, keys): (Vec<usize>, Vec<Vec<u8>>) = if kind == Kind::Update {
                    let mut idx = self.distinct_keys(n);
                    self.sort_by_key(&mut idx);
                    let keys = idx.iter().map(|&i| self.model.keys[i].clone()).collect();
                    (idx, keys)
                } else {
                    let mut fresh = BTreeSet::new();
                    while fresh.len() < n {
                        fresh.insert(self.model.fresh_key(&mut self.rng));
                    }
                    (Vec::new(), fresh.into_iter().collect())
                };
                let ops: Vec<(Vec<u8>, u64)> =
                    keys.into_iter().map(|k| (k, self.rng.value())).collect();
                if kind == Kind::Update {
                    self.conn
                        .note_request(&|| cuart_net::Op::Update(ops.clone()));
                } else {
                    self.conn
                        .note_request(&|| cuart_net::Op::Insert(ops.clone()));
                }
                let req = ops.clone();
                let t = Instant::now();
                let r = if kind == Kind::Update {
                    self.conn.update(req)
                } else {
                    self.conn.insert(req)
                };
                let ms = ms_since(t);
                let ok = match r {
                    Ok(statuses) => {
                        check_statuses(kind, &ops, &statuses)?;
                        if kind == Kind::Update {
                            for (&i, (_, v)) in idx.iter().zip(&ops) {
                                self.model.set(i, *v);
                            }
                        } else {
                            for (k, v) in ops.iter() {
                                self.model.add(k.clone(), *v);
                            }
                        }
                        true
                    }
                    Err(e) => {
                        self.unknown.extend(ops.iter().map(|(k, _)| k.clone()));
                        refused(e)?
                    }
                };
                (ms, ops.len(), ok)
            }
            Kind::Range => {
                let sorted = &self.data.sorted;
                let ranges: Ranges = (0..RANGES_PER_CALL)
                    .map(|_| {
                        let j = self.rng.below(sorted.len());
                        let hi = (j + RANGE_WIDTH - 1).min(sorted.len() - 1);
                        (sorted[j].clone(), sorted[hi].clone())
                    })
                    .collect();
                self.conn
                    .note_request(&|| cuart_net::Op::Range(ranges.clone()));
                let req = ranges.clone();
                let t = Instant::now();
                let r = self.conn.range(req);
                let ms = ms_since(t);
                let ok = match r {
                    Ok(rows) => {
                        self.check_ranges(&ranges, &rows)?;
                        true
                    }
                    Err(e) => refused(e)?,
                };
                (ms, ranges.len(), ok)
            }
        };
        Ok(Outcome {
            kind,
            ms,
            ops: ops as u64,
            ok,
        })
    }

    fn check_lookup(&self, idx: &[usize], vals: &[u64]) -> Result<(), String> {
        if vals.len() != idx.len() {
            return Err(format!(
                "lookup returned {} values for {} keys",
                vals.len(),
                idx.len()
            ));
        }
        for (&i, &v) in idx.iter().zip(vals) {
            let key = &self.model.keys[i];
            if v != self.model.vals[i] && !self.unknown.contains(key) {
                return Err(format!(
                    "wrong lookup answer for key {key:02x?}: got {v}, want {}",
                    self.model.vals[i]
                ));
            }
        }
        Ok(())
    }

    fn check_ranges(&self, ranges: &Ranges, rows: &[crate::conn::Rows]) -> Result<(), String> {
        if rows.len() != ranges.len() {
            return Err(format!(
                "range returned {} row lists for {} ranges",
                rows.len(),
                ranges.len()
            ));
        }
        for ((lo, hi), got) in ranges.iter().zip(rows) {
            if got.windows(2).any(|w| w[0].0 >= w[1].0) || got.iter().any(|(k, _)| k < lo || k > hi)
            {
                return Err(format!(
                    "range [{lo:02x?}, {hi:02x?}] rows unsorted or out of bounds"
                ));
            }
            let mine: Vec<(&Vec<u8>, u64)> = got
                .iter()
                .filter(|(k, _)| !self.unknown.contains(k))
                .map(|(k, v)| (k, *v))
                .collect();
            let want: Vec<(&Vec<u8>, u64)> = self
                .model
                .map
                .range(lo.clone()..=hi.clone())
                .filter(|(k, _)| !self.unknown.contains(*k))
                .map(|(k, v)| (k, *v))
                .collect();
            if mine != want {
                return Err(format!(
                    "wrong range rows for [{lo:02x?}, {hi:02x?}]: got {} own rows, want {}",
                    mine.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }

    fn note(&mut self, o: &Outcome, modeled: bool) {
        self.rec.lat_ms[o.kind as usize].push(o.ms);
        self.rec.attempted += o.ops;
        if !o.ok {
            self.rec.failed += o.ops;
            return;
        }
        if let Some(r) = self.conn.last_report() {
            if modeled {
                self.rec.modeled.accumulate(r);
                self.rec.modeled_keys += o.ops;
            }
            if matches!(o.kind, Kind::Update | Kind::Insert) {
                self.rec.write_conflicts += r.atomic_conflicts;
            }
        }
    }

    /// Unmeasured lookup calls.
    pub fn warm(&mut self, calls: usize) -> Result<(), String> {
        for _ in 0..calls {
            let o = self.call(Kind::Lookup)?;
            self.rec.all_ops += o.ops;
        }
        Ok(())
    }

    /// The timed window: lookup calls until `secs` have passed and at
    /// least `min_calls` were made. The first `modeled_calls` also add
    /// their modeled kernel reports, so those totals repeat exactly.
    fn run_window(
        &mut self,
        secs: f64,
        min_calls: usize,
        modeled_calls: usize,
    ) -> Result<(), String> {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut calls = 0;
        while calls < min_calls || Instant::now() < end {
            let o = self.call(Kind::Lookup)?;
            self.note(&o, calls < modeled_calls);
            self.rec.all_ops += o.ops;
            if o.ok {
                self.rec.window_ops += o.ops;
            }
            calls += 1;
        }
        self.rec.start = Some(start);
        self.rec.end = Some(Instant::now());
        Ok(())
    }

    /// `calls` unwindowed calls of `kind`: one phase of the tail.
    fn run_phase(&mut self, kind: Kind, calls: usize) -> Result<(), String> {
        for _ in 0..calls {
            let o = self.call(kind)?;
            self.note(&o, false);
            self.rec.all_ops += o.ops;
        }
        Ok(())
    }

    /// The warm-up, the timed window and the tail; returns what was
    /// measured.
    pub fn run(
        &mut self,
        warm_calls: usize,
        window: Window,
        tail_calls: usize,
    ) -> Result<Record, String> {
        self.warm(warm_calls)?;
        self.run_window(window.secs, window.min_calls, window.modeled_calls)?;
        for (kind, calls) in tail_phases(tail_calls) {
            self.run_phase(kind, calls)?;
        }
        Ok(std::mem::take(&mut self.rec))
    }
}

/// The tail after the window: fixed counts of update, insert and range
/// calls, which give the write and range latencies. Range calls are cheap,
/// so there are always [`TAIL_RANGE_CALLS`] of them when there is a tail
/// at all.
fn tail_phases(write_calls: usize) -> [(Kind, usize); 3] {
    let range_calls = if write_calls == 0 {
        0
    } else {
        TAIL_RANGE_CALLS
    };
    [
        (Kind::Update, write_calls),
        (Kind::Insert, write_calls),
        (Kind::Range, range_calls),
    ]
}

fn check_statuses(kind: Kind, ops: &[(Vec<u8>, u64)], statuses: &[u64]) -> Result<(), String> {
    if statuses.len() != ops.len() {
        return Err(format!(
            "{kind:?} returned {} statuses for {} ops",
            statuses.len(),
            ops.len()
        ));
    }
    for ((k, _), &s) in ops.iter().zip(statuses) {
        let good = match kind {
            Kind::Update => s == status::APPLIED,
            _ => s == insert_status::INSERTED || s == insert_status::SPILLED,
        };
        if !good {
            return Err(format!("wrong {kind:?} status {s} for key {k:02x?}"));
        }
    }
    Ok(())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn refused(e: CallError) -> Result<bool, String> {
    match e {
        CallError::Refused => Ok(false),
        CallError::Fatal(msg) => Err(msg),
    }
}

/// How long a timed window runs; see [`Client::run_window`].
#[derive(Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub min_calls: usize,
    pub modeled_calls: usize,
}
