//! In-memory spans recorded around the harness's calls into each layer.
//!
//! A span's name is `<layer>.<call>`; top-level spans (one per operation)
//! use the `bench` layer. Spans nest by call order on one thread, every
//! span carries the id of the operation it belongs to, and nothing is
//! written until [`Tracer::write_json`] runs at the end of the traced run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: String,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Time a layer spent inside another layer's span that the harness
/// cannot wrap itself, measured by the program: e.g. the engine's own
/// per-job wall times inside a pipeline run.
struct Attribution {
    span: usize,
    layer: &'static str,
    ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    attributions: Vec<Attribution>,
    stack: Vec<usize>,
    ops: u32,
}

/// Single-threaded span recorder. A disabled tracer runs the wrapped
/// calls and records nothing, so timed runs share the traced code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new top-level operation span named `bench.<name>`.
    pub fn op<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        {
            let mut s = self.state.borrow_mut();
            assert!(s.stack.is_empty(), "operations do not nest");
            s.ops += 1;
        }
        self.span(&format!("bench.{name}"), f)
    }

    /// Runs `f` inside a span named `name`, a child of the open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut s = self.state.borrow_mut();
            let id = s.spans.len();
            let (op, parent) = (s.ops, s.stack.last().copied());
            s.spans.push(Span {
                name: name.to_string(),
                op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            s.stack.push(id);
            id
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.spans[id].start_ns = start;
        s.spans[id].end_ns = end;
        s.stack.pop();
        out
    }

    /// Attributes `secs` measured by the program inside the most recently
    /// closed span named `name` to `layer`, taking it out of that span's
    /// self time.
    pub fn attribute(&self, name: &str, layer: &'static str, secs: f64) {
        if !self.enabled {
            return;
        }
        let mut s = self.state.borrow_mut();
        let span = s
            .spans
            .iter()
            .rposition(|sp| sp.name == name)
            .expect("attribution names a recorded span");
        s.attributions.push(Attribution {
            span,
            layer,
            ns: (secs * 1e9) as u64,
        });
    }

    /// Total seconds in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let s = self.state.borrow();
        s.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Total seconds in spans named `name` within operation `op`.
    pub fn op_total_s(&self, op: &str, name: &str) -> f64 {
        let s = self.state.borrow();
        let root = format!("bench.{op}");
        let ops: Vec<u32> = s
            .spans
            .iter()
            .filter(|sp| sp.parent.is_none() && sp.name == root)
            .map(|sp| sp.op)
            .collect();
        s.spans
            .iter()
            .filter(|sp| sp.name == name && ops.contains(&sp.op))
            .map(|sp| (sp.end_ns - sp.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Operations started so far; pass it to [`Tracer::self_times`] to
    /// leave out the operations started after this point.
    pub fn ops(&self) -> u32 {
        self.state.borrow().ops
    }

    /// Self time per layer in seconds over the first `ops` operations:
    /// each span's duration minus the part its child spans and
    /// attributions cover, summed by layer. An attribution takes at most
    /// what its span has left.
    pub fn self_times(&self, ops: u32) -> BTreeMap<String, f64> {
        let s = self.state.borrow();
        let mut covered = vec![0u64; s.spans.len()];
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                covered[p] += sp.end_ns - sp.start_ns;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for a in &s.attributions {
            let sp = &s.spans[a.span];
            if sp.op > ops {
                continue;
            }
            let ns =
                a.ns.min((sp.end_ns - sp.start_ns).saturating_sub(covered[a.span]));
            covered[a.span] += ns;
            *out.entry(a.layer.to_string()).or_default() += ns as f64 / 1e9;
        }
        for (sp, cov) in s.spans.iter().zip(covered) {
            if sp.op > ops {
                continue;
            }
            let layer = sp.name.split('.').next().unwrap_or("bench");
            let own = (sp.end_ns - sp.start_ns).saturating_sub(cov);
            *out.entry(layer.to_string()).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write;
        let s = self.state.borrow();
        let mut buf = String::new();
        for (id, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                buf,
                r#"{{"id":{id},"op":{},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                sp.op, sp.name, sp.start_ns, sp.end_ns
            );
        }
        std::fs::write(path, buf)
    }
}
