//! Execution timeline for the out-of-memory scheduler: every simulated
//! transfer and kernel becomes an event, so runs can be inspected (and
//! asserted on) as a Gantt chart — the visual form of the §V-B claim that
//! transfers and sampling of different partitions overlap.

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Host→device partition copy.
    Copy,
    /// Sampling kernel over a partition's queue.
    Kernel,
}

/// One scheduled operation on a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEvent {
    /// Copy or kernel.
    pub kind: EventKind,
    /// Stream the operation ran on.
    pub stream: usize,
    /// Partition it concerned.
    pub partition: usize,
    /// Simulated start time (seconds).
    pub start: f64,
    /// Simulated end time (seconds).
    pub end: f64,
}

/// Validates stream-serialization invariants: events on one stream never
/// overlap, and every event has non-negative duration. Returns the first
/// violation as text.
pub fn validate(events: &[TimelineEvent]) -> Result<(), String> {
    let mut by_stream: std::collections::BTreeMap<usize, Vec<&TimelineEvent>> = Default::default();
    for e in events {
        if e.end < e.start {
            return Err(format!("negative duration: {e:?}"));
        }
        by_stream.entry(e.stream).or_default().push(e);
    }
    for (stream, mut evs) in by_stream {
        evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for w in evs.windows(2) {
            if w[1].start < w[0].end - 1e-12 {
                return Err(format!("stream {stream} overlap: {:?} then {:?}", w[0], w[1]));
            }
        }
    }
    Ok(())
}

/// Renders an ASCII Gantt chart, one row per stream, `#` for kernels and
/// `=` for copies, `width` columns spanning the run.
pub fn render(events: &[TimelineEvent], width: usize) -> String {
    if events.is_empty() {
        return String::from("(empty timeline)\n");
    }
    let t_end = events.iter().map(|e| e.end).fold(0.0, f64::max).max(1e-12);
    let streams = events.iter().map(|e| e.stream).max().unwrap() + 1;
    let mut rows = vec![vec![' '; width]; streams];
    for e in events {
        let a = ((e.start / t_end) * width as f64) as usize;
        let b = (((e.end / t_end) * width as f64) as usize).clamp(a + 1, width);
        let ch = match e.kind {
            EventKind::Copy => '=',
            EventKind::Kernel => '#',
        };
        for c in &mut rows[e.stream][a.min(width - 1)..b] {
            // Kernels draw over copies if rounding collapses them.
            if *c == ' ' || ch == '#' {
                *c = ch;
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("timeline ({:.3} ms total; '=' copy, '#' kernel)\n", t_end * 1e3));
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("stream {i} |{}|\n", row.iter().collect::<String>()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, stream: usize, start: f64, end: f64) -> TimelineEvent {
        TimelineEvent { kind, stream, partition: 0, start, end }
    }

    #[test]
    fn validate_accepts_serialized_streams() {
        let events = vec![
            ev(EventKind::Copy, 0, 0.0, 1.0),
            ev(EventKind::Kernel, 0, 1.0, 2.0),
            ev(EventKind::Kernel, 1, 0.5, 1.5),
        ];
        assert!(validate(&events).is_ok());
    }

    #[test]
    fn validate_rejects_overlap_and_negative() {
        let events = vec![ev(EventKind::Copy, 0, 0.0, 1.0), ev(EventKind::Kernel, 0, 0.5, 2.0)];
        assert!(validate(&events).is_err());
        assert!(validate(&[ev(EventKind::Copy, 0, 2.0, 1.0)]).is_err());
    }

    #[test]
    fn render_shows_streams() {
        let events = vec![
            ev(EventKind::Copy, 0, 0.0, 0.5),
            ev(EventKind::Kernel, 0, 0.5, 1.0),
            ev(EventKind::Kernel, 1, 0.0, 1.0),
        ];
        let s = render(&events, 20);
        assert!(s.contains("stream 0 |"));
        assert!(s.contains("stream 1 |"));
        assert!(s.contains('='));
        assert!(s.contains('#'));
    }

    #[test]
    fn render_empty() {
        assert_eq!(render(&[], 10), "(empty timeline)\n");
    }
}
