//! The benchmark's own spans and the metric record it prints.
//!
//! A [`Tracer`] wraps calls the benchmark makes into a layer's public
//! API. Switched off, [`Tracer::span`] only calls the closure: no clock
//! read, no allocation. Switched on, each span records its name, start,
//! end, parent span and the run id; spans stay in memory until the run
//! ends and are then written out as JSON lines. A span's self time is
//! its duration minus the time its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the tracer's span list.
    parent: Option<usize>,
}

impl Span {
    fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder for one run of the benchmark.
pub struct Tracer {
    on: bool,
    run_id: String,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, String::new())
    }

    /// A recording tracer; `run_id` tags every span it writes out.
    pub fn recording(run_id: String) -> Self {
        Self::new(true, run_id)
    }

    fn new(on: bool, run_id: String) -> Self {
        Tracer {
            on,
            run_id,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span called `name` (a plain call when off).
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Nanoseconds since the tracer's epoch (0 when off): the start of
    /// a span [`Tracer::close`] records later.
    pub fn mark(&self) -> u64 {
        if !self.on {
            return 0;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span called `name` from `start_ns` (a [`Tracer::mark`])
    /// to now, inside the innermost open span; for work the benchmark
    /// only sees the end of, through a callback.
    pub fn close(&self, name: &str, start_ns: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: self.mark(),
            parent,
        });
    }

    /// Summed duration of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Self time per span: duration minus the children's durations.
    fn self_s(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::dur_s).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.dur_s();
            }
        }
        own
    }

    /// The spans as JSON lines: name, start, end, parent, run id and
    /// self time.
    pub fn jsonl(&self) -> String {
        let spans = self.spans.borrow();
        let own = self.self_s();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run_id\": {}, \"self_s\": {}}}",
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                json_str(&self.run_id),
                own[i],
            );
        }
        out
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
