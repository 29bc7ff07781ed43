//! The traced run's span tree.
//!
//! Every span is opened and closed by the benchmark's own code around public
//! calls of the library; nothing is added inside the program. Spans keep an
//! explicit parent so self time (a span's duration minus its children's) can
//! be folded per layer, and each closed span is also recorded into a
//! [`FlightRecorder`] track so the whole run exports as one Chrome trace.
//! Everything stays in memory until [`Spans::finish`].

use std::collections::BTreeMap;
use std::time::Instant;
use subsonic_obs::{chrome, Category, FlightRecorder, TrackRecorder};

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// Span tree plus the recorder it mirrors into.
pub struct Spans {
    pub recorder: FlightRecorder,
    track: TrackRecorder,
    list: Vec<Span>,
    open: Vec<usize>,
}

/// The layers of the ladder, most specific first: a span belongs to the
/// first layer its name starts with.
const LAYERS: [(&str, Category); 11] = [
    ("solvers", Category::Compute),
    ("grid", Category::Halo),
    ("net.wire", Category::Halo),
    ("net.link", Category::Net),
    ("net.supervisor", Category::Sync),
    ("net.recovery", Category::Recovery),
    ("exec.checkpoint", Category::Checkpoint),
    ("exec", Category::Compute),
    ("cluster", Category::Net),
    ("obs", Category::Sync),
    ("model", Category::Sync),
];

fn layer_of(name: &'static str) -> (&'static str, Category) {
    LAYERS
        .iter()
        .copied()
        .find(|(layer, _)| name.starts_with(layer))
        .unwrap_or((name, Category::Sync))
}

impl Spans {
    /// Spans recorded into a fresh enabled recorder (track pid 100, so it
    /// never collides with the supervisor and worker tracks a traced job
    /// adopts into the same recorder).
    pub fn new() -> Self {
        let recorder = FlightRecorder::enabled(1 << 16);
        let track = recorder.track(100, 0, "perfbench", "ladder");
        Spans {
            recorder,
            track,
            list: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.list.len();
        self.list.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let span = &mut self.list[id];
        span.end = Some(end);
        self.track
            .span_wall(layer_of(span.name).1, span.name, span.start, end);
        out
    }

    /// Self seconds per layer: each span's duration minus its children's,
    /// summed over the spans of the layer.
    pub fn self_time(&self) -> BTreeMap<&'static str, f64> {
        let dur = |s: &Span| s.end.map_or(0.0, |e| (e - s.start).as_secs_f64());
        let mut own: Vec<f64> = self.list.iter().map(dur).collect();
        for s in &self.list {
            if let Some(p) = s.parent {
                own[p] -= dur(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in self.list.iter().zip(own) {
            *out.entry(layer_of(s.name).0).or_insert(0.0) += t;
        }
        out
    }

    /// Closes the track and renders every recorded track as a Chrome trace.
    pub fn finish(mut self) -> String {
        self.track.finish();
        chrome::export(&self.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_self_time() {
        assert_eq!(layer_of("exec.checkpoint.save").0, "exec.checkpoint");
        assert_eq!(layer_of("exec.threaded").0, "exec");
        assert_eq!(layer_of("net.link.pingpong").0, "net.link");
        let mut s = Spans::new();
        s.scope("exec.checkpoint", |s| {
            s.scope("exec.checkpoint.save", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let t = s.self_time();
        assert_eq!(t.len(), 1);
        assert!(t["exec.checkpoint"] >= 0.005);
        assert!(s.finish().contains("exec.checkpoint.save"));
    }
}
