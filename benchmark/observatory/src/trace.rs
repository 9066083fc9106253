//! Driver-side spans: one per call the driver makes into the top layer, kept
//! in preallocated memory and written out only after the pass.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The call a span surrounds. `Txn` is the root: one logical transaction,
/// retries included.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Call {
    Txn,
    Begin,
    Get,
    Scan,
    Update,
    Commit,
    Send,
    Recv,
}

impl Call {
    fn op(self) -> &'static str {
        match self {
            Call::Txn => "txn",
            Call::Begin => "begin",
            Call::Get => "get",
            Call::Scan => "scan",
            Call::Update => "update",
            Call::Commit => "commit",
            Call::Send => "send",
            Call::Recv => "recv",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `client << 32 | transaction sequence number`.
    pub trace: u64,
    /// Unique within the client; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where the driver reports its calls. The gated run uses [`NoTrace`], which
/// compiles to nothing, so it reads no clock it does not need.
pub trait Sink {
    fn begin_txn(&mut self, trace: u64);
    fn end_txn(&mut self);
    /// Returns the start time to hand back to [`Sink::end`].
    fn start(&mut self) -> u64;
    fn end(&mut self, call: Call, start_ns: u64);
}

pub struct NoTrace;

impl Sink for NoTrace {
    fn begin_txn(&mut self, _: u64) {}
    fn end_txn(&mut self) {}
    fn start(&mut self) -> u64 {
        0
    }
    fn end(&mut self, _: Call, _: u64) {}
}

/// Records every span of one client.
pub struct Recorder {
    pub spans: Vec<Span>,
    root: usize,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            spans: Vec::with_capacity(spans),
            root: 0,
        }
    }
}

impl Sink for Recorder {
    fn begin_txn(&mut self, trace: u64) {
        self.root = self.spans.len();
        self.spans.push(Span {
            trace,
            id: self.root as u32 + 1,
            parent: 0,
            call: Call::Txn,
            start_ns: now_ns(),
            end_ns: 0,
        });
    }

    fn end_txn(&mut self) {
        self.spans[self.root].end_ns = now_ns();
    }

    fn start(&mut self) -> u64 {
        now_ns()
    }

    fn end(&mut self, call: Call, start_ns: u64) {
        let end_ns = now_ns();
        let root = &self.spans[self.root];
        self.spans.push(Span {
            trace: root.trace,
            id: self.spans.len() as u32 + 1,
            parent: root.id,
            call,
            start_ns,
            end_ns,
        });
    }
}

/// Write `spans` as JSON lines. `layer` prefixes every call but the root:
/// `engine.get`, `server.recv`, `cluster.commit`.
pub fn write_jsonl<'a>(
    path: &Path,
    layer: &str,
    spans: impl Iterator<Item = &'a Span>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let name = match s.call {
            Call::Txn => "txn".to_string(),
            c => format!("{layer}.{}", c.op()),
        };
        writeln!(
            out,
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Exact order statistic: the smallest sample with at least `p` percent of
/// the samples at or below it. `sorted` must be sorted; empty gives 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the spans of one pass say, per call and per transaction shape.
#[derive(Default)]
pub struct SpanStats {
    pub begin: Vec<u64>,
    pub get: Vec<u64>,
    pub scan: Vec<u64>,
    pub update: Vec<u64>,
    pub commit_ro: Vec<u64>,
    pub commit_rw: Vec<u64>,
    /// Root durations of transactions whose last attempt wrote one key / two.
    pub txn_one_write: Vec<u64>,
    pub txn_two_writes: Vec<u64>,
    pub send_ns: u64,
    pub recv_ns: u64,
    /// Root duration minus the time its children cover: the driver's own cost.
    pub self_ns: u64,
    pub txns: u64,
}

impl SpanStats {
    /// Fold one client's spans in. They arrive in recording order: a root,
    /// then its children, attempt after attempt.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut i = 0;
        while i < spans.len() {
            let root = spans[i];
            debug_assert_eq!(root.call, Call::Txn);
            i += 1;
            let mut covered = 0;
            let mut writes = 0;
            while i < spans.len() && spans[i].call != Call::Txn {
                let s = spans[i];
                let d = s.dur_ns();
                covered += d;
                match s.call {
                    Call::Begin => {
                        writes = 0;
                        self.begin.push(d);
                    }
                    Call::Get => self.get.push(d),
                    Call::Scan => self.scan.push(d),
                    Call::Update => {
                        writes += 1;
                        self.update.push(d);
                    }
                    Call::Commit if writes == 0 => self.commit_ro.push(d),
                    Call::Commit => self.commit_rw.push(d),
                    Call::Send => self.send_ns += d,
                    Call::Recv => self.recv_ns += d,
                    Call::Txn => unreachable!("roots end the inner loop"),
                }
                i += 1;
            }
            match writes {
                0 => {}
                1 => self.txn_one_write.push(root.dur_ns()),
                _ => self.txn_two_writes.push(root.dur_ns()),
            }
            self.self_ns += root.dur_ns().saturating_sub(covered);
            self.txns += 1;
        }
    }

    pub fn sort(&mut self) {
        for v in [
            &mut self.begin,
            &mut self.get,
            &mut self.scan,
            &mut self.update,
            &mut self.commit_ro,
            &mut self.commit_rw,
            &mut self.txn_one_write,
            &mut self.txn_two_writes,
        ] {
            v.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn self_time_is_root_minus_children() {
        let mut r = Recorder::with_capacity(8);
        r.begin_txn(1);
        let a = r.start();
        r.end(Call::Begin, a);
        let b = r.start();
        r.end(Call::Update, b);
        let c = r.start();
        r.end(Call::Commit, c);
        r.end_txn();
        let mut st = SpanStats::default();
        st.absorb(&r.spans);
        let children: u64 = r.spans[1..].iter().map(Span::dur_ns).sum();
        assert_eq!(st.self_ns, r.spans[0].dur_ns() - children);
        assert_eq!((st.commit_rw.len(), st.commit_ro.len()), (1, 0));
        assert_eq!(st.txn_one_write.len(), 1);
    }
}
