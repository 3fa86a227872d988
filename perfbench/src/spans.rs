//! In-memory spans recorded by the benchmark around its calls into the
//! solver's layers. Written out as JSON when the run ends; each layer's
//! host time is its span's self time.

use simgrid::Json;
use std::time::Instant;

/// One closed (or still open) interval on the host clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder was created.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which pass of the traced pipeline the span belongs to.
    pub run: usize,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: usize,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }
}

impl Spans {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Spans opened from now on carry run id `run`.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    pub fn run(&self) -> usize {
        self.run
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` and any span still open inside it.
    pub fn exit(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Duration of span `id` minus the time its children cover.
    pub fn self_secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start) - children
    }

    /// Self time of the span named `name` in run `run`.
    pub fn self_secs_of(&self, run: usize, name: &str) -> f64 {
        let id = self
            .spans
            .iter()
            .position(|s| s.run == run && s.name == name)
            .unwrap_or_else(|| panic!("no span `{name}` in run {run}"));
        self.self_secs(id)
    }

    /// Every span with its parent and self time.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::num(id as f64)),
                        ("name".into(), Json::str(s.name)),
                        ("start_s".into(), Json::num(s.start)),
                        ("end_s".into(), Json::num(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                        ("run".into(), Json::num(s.run as f64)),
                        ("self_s".into(), Json::num(self.self_secs(id))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        let outer = spans.enter("outer");
        spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        spans.exit(outer);
        let inner = spans.self_secs_of(0, "inner");
        assert!(inner >= 0.02);
        let outer_self = spans.self_secs(outer);
        assert!(outer_self >= 0.0 && outer_self < inner);
        let doc = spans.to_json();
        assert_eq!(doc.as_arr().map(<[Json]>::len), Some(2));
    }
}
