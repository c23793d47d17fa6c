//! Spans and allocation counts for the traced in-process replay.
//!
//! A span wraps one library call: name, start, end, parent span and the
//! request it served. The counting global allocator attributes every
//! allocation made between a span's begin and end to it. Spans are kept
//! in memory and written out once the replay ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The benchmark binary's global allocator: `System`, plus a count of
/// allocations and bytes while a traced replay runs.
pub struct CountingAlloc;

// Relaxed is enough: the counters publish no other data, and the replay
// that reads them runs on the thread that allocates.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only touches atomics
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout requirements pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// One traced library call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index of the request the call served (0 for set-up).
    pub req: u32,
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; every call is a no-op when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// The request the next spans belong to.
    pub req: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        COUNTING.store(on, Relaxed);
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Opens a span; pass the token to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        // The tracer's own bookkeeping is not the traced call's.
        COUNTING.store(false, Relaxed);
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        });
        self.stack.push(idx);
        COUNTING.store(true, Relaxed);
        self.spans[idx].start_ns = self.t0.elapsed().as_nanos() as u64;
        idx
    }

    pub fn end(&mut self, token: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let span = &mut self.spans[token];
        span.end_ns = end_ns;
        span.allocs = ALLOCS.load(Relaxed) - span.allocs;
        span.bytes = BYTES.load(Relaxed) - span.bytes;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(token), "spans close innermost first");
    }

    /// Stops counting and hands the spans over.
    pub fn finish(self) -> Vec<Span> {
        COUNTING.store(false, Relaxed);
        self.spans
    }
}

/// Self time per span name: each span's duration minus the time its
/// child spans cover, summed, with the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.ns().saturating_sub(child);
        e.1 += 1;
    }
    out
}

/// Writes spans as tab-separated lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::from("idx\tname\tstart_ns\tend_ns\tparent\treq\tallocs\tbytes\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}\n",
            s.name, s.start_ns, s.end_ns, s.req, s.allocs, s.bytes
        ));
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(out.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
            allocs: 0,
            bytes: 0,
        };
        let spans = vec![
            span("req", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["req"], (50, 1));
        assert_eq!(t["a"], (30, 1));
    }
}
