//! One calling surface over the three entry points a workload can drive:
//! a direct `CuartSession`, an in-process `SchedulerClient` and a TCP
//! `NetClient`. The request stream and the answer checks are shared, so
//! the layers are timed on exactly the same work.

use crate::replay::Replayer;
use cuart::CuartSession;
use cuart_gpu_sim::exec::KernelReport;
use cuart_host::{SchedError, SchedulerClient};
use cuart_net::{NetClient, NetError};

pub type Rows = Vec<(Vec<u8>, u64)>;
pub type Ops = Vec<(Vec<u8>, u64)>;
pub type Ranges = Vec<(Vec<u8>, Vec<u8>)>;

/// Why a call returned no answer.
#[derive(Debug)]
pub enum CallError {
    /// The system refused, shed or failed the request; counted in the
    /// error rate.
    Refused,
    /// The connection itself broke; the run stops.
    Fatal(String),
}

pub trait Conn {
    fn lookup(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, CallError>;
    fn update(&mut self, ops: Ops) -> Result<Vec<u64>, CallError>;
    fn insert(&mut self, ops: Ops) -> Result<Vec<u64>, CallError>;
    fn range(&mut self, ranges: Ranges) -> Result<Vec<Rows>, CallError>;

    /// Sees each request before it is timed (see [`WireCount`]).
    fn note_request(&mut self, _op: &dyn Fn() -> cuart_net::Op) {}

    /// The modeled kernel report of the last call, where the layer
    /// returns one.
    fn last_report(&self) -> Option<&KernelReport> {
        None
    }
}

pub struct SessionConn<'a> {
    session: CuartSession<'a>,
    /// When set, lookup batches are also replayed on the bare simulator,
    /// outside the timed calls.
    pub replay: Option<Replayer>,
    last: KernelReport,
}

impl<'a> SessionConn<'a> {
    /// Journal shadowing is on, as the scheduler sets it: without it,
    /// range rows miss device-leg writes.
    pub fn new(mut session: CuartSession<'a>) -> Self {
        session.set_journal_shadowing(true);
        SessionConn {
            session,
            replay: None,
            last: KernelReport::default(),
        }
    }

    fn keep<T>(&mut self, r: Result<(T, KernelReport), cuart::CuartError>) -> Result<T, CallError> {
        match r {
            Ok((v, report)) => {
                self.last = report;
                Ok(v)
            }
            Err(_) => Err(CallError::Refused),
        }
    }
}

impl Conn for SessionConn<'_> {
    fn lookup(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, CallError> {
        let r = self.session.lookup_batch(&keys);
        self.keep(r)
    }

    fn update(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        let r = self.session.update_batch(&ops);
        self.keep(r)
    }

    fn insert(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        let r = self.session.insert_batch(&ops);
        self.keep(r)
    }

    fn range(&mut self, ranges: Ranges) -> Result<Vec<Rows>, CallError> {
        let r = self.session.range_batch(&ranges);
        self.keep(r)
    }

    fn note_request(&mut self, op: &dyn Fn() -> cuart_net::Op) {
        if let Some(r) = &mut self.replay {
            if let cuart_net::Op::Lookup(keys) = op() {
                r.push(keys);
            }
        }
    }

    fn last_report(&self) -> Option<&KernelReport> {
        Some(&self.last)
    }
}

fn sched<T>(r: Result<T, SchedError>) -> Result<T, CallError> {
    r.map_err(|e| match e {
        SchedError::QueueFull
        | SchedError::AdmissionTimeout
        | SchedError::DeadlineExceeded
        | SchedError::Session(_) => CallError::Refused,
        other => CallError::Fatal(other.to_string()),
    })
}

impl Conn for SchedulerClient {
    fn lookup(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, CallError> {
        sched(SchedulerClient::lookup(self, keys))
    }

    fn update(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        sched(SchedulerClient::update(self, ops))
    }

    fn insert(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        sched(SchedulerClient::insert(self, ops))
    }

    fn range(&mut self, ranges: Ranges) -> Result<Vec<Rows>, CallError> {
        sched(SchedulerClient::range(self, ranges))
    }
}

fn net<T>(r: Result<T, NetError>) -> Result<T, CallError> {
    r.map_err(|e| match e {
        NetError::Remote(..) => CallError::Refused,
        other => CallError::Fatal(other.to_string()),
    })
}

pub struct NetConn(pub NetClient);

impl Conn for NetConn {
    fn lookup(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, CallError> {
        net(self.0.lookup(keys))
    }

    fn update(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        net(self.0.update(ops))
    }

    fn insert(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        net(self.0.insert(ops))
    }

    fn range(&mut self, ranges: Ranges) -> Result<Vec<Rows>, CallError> {
        net(self.0.range(ranges))
    }
}

/// Any connection, counting the bytes of the request frames its calls
/// would put on the wire (the server counts only the bytes it sends
/// back). The encoding runs before each timed call, not inside it.
pub struct WireCount<C> {
    pub inner: C,
    pub request_bytes: u64,
}

impl<C: Conn> Conn for WireCount<C> {
    fn lookup(&mut self, keys: Vec<Vec<u8>>) -> Result<Vec<u64>, CallError> {
        self.inner.lookup(keys)
    }

    fn update(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        self.inner.update(ops)
    }

    fn insert(&mut self, ops: Ops) -> Result<Vec<u64>, CallError> {
        self.inner.insert(ops)
    }

    fn range(&mut self, ranges: Ranges) -> Result<Vec<Rows>, CallError> {
        self.inner.range(ranges)
    }

    fn note_request(&mut self, op: &dyn Fn() -> cuart_net::Op) {
        let req = cuart_net::Request {
            id: 1,
            deadline_us: 0,
            op: op(),
        };
        if let Ok(payload) = cuart_net::proto::encode_request(&req) {
            self.request_bytes += (cuart_net::proto::FRAME_HEADER_BYTES + payload.len()) as u64;
        }
        self.inner.note_request(op);
    }

    fn last_report(&self) -> Option<&KernelReport> {
        self.inner.last_report()
    }
}
