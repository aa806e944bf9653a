//! Span probes for the traced replay.
//!
//! The benchmark builds an instrumented copy of the program's crates in
//! which chosen public functions open a span on entry (`enter`) that
//! closes when the function returns. Spans are recorded per thread, summed
//! into self times and written as Chrome trace-event JSON.
//!
//! A span's self time is its duration minus the durations of the spans it
//! directly encloses, so the self times of all spans under one operation
//! add up to the operation's root span. While recording is off, `enter`
//! is one atomic load and the returned guard does nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Open {
    name: &'static str,
    start: Instant,
    allocs: u64,
    children: f64,
}

struct Event {
    name: &'static str,
    op: u64,
    start_us: f64,
    dur_us: f64,
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    op: u64,
    stack: Vec<Open>,
    events: Vec<Event>,
    self_ms: BTreeMap<&'static str, f64>,
    allocs: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        r.borrow_mut().epoch.get_or_insert_with(Instant::now);
    });
    ENABLED.store(on, Ordering::SeqCst);
}

/// Numbers the operation that the following spans belong to.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// An open span; it closes when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct Span(bool);

/// Opens a span named `name` on this thread.
pub fn enter(name: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span(false);
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.push(Open {
            name,
            start: Instant::now(),
            allocs: 0,
            children: 0.0,
        });
        // Read after the push, so the recorder's own allocation is not
        // counted against the span.
        let open = r.stack.last_mut().expect("just pushed");
        open.allocs = ALLOCS.load(Ordering::Relaxed);
        open.start = Instant::now();
    });
    Span(true)
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        let end = Instant::now();
        let allocs = ALLOCS.load(Ordering::Relaxed);
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let open = r.stack.pop().expect("span stack matches calls");
            let dur_ms = end.duration_since(open.start).as_secs_f64() * 1e3;
            *r.self_ms.entry(open.name).or_default() += dur_ms - open.children;
            *r.allocs.entry(open.name).or_default() += allocs - open.allocs;
            if let Some(parent) = r.stack.last_mut() {
                parent.children += dur_ms;
            }
            let epoch = r.epoch.expect("epoch set when enabled");
            let event = Event {
                name: open.name,
                op: r.op,
                start_us: open.start.duration_since(epoch).as_secs_f64() * 1e6,
                dur_us: dur_ms * 1e3,
            };
            r.events.push(event);
        });
    }
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = enter(name);
    f()
}

/// Runs `f` with recording off, then restores the previous state: for the
/// benchmark's own checks, which call into the program between operations.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::SeqCst);
    let out = f();
    ENABLED.store(was, Ordering::SeqCst);
    out
}

/// Adds `n` to the count `name` while recording.
pub fn count(name: &'static str, n: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    REC.with(|r| *r.borrow_mut().counts.entry(name).or_default() += n);
}

/// Adds `n` to the count `name` while recording and inside an open span
/// named `parent` on this thread.
pub fn count_within(parent: &'static str, name: &'static str, n: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.stack.iter().any(|open| open.name == parent) {
            *r.counts.entry(name).or_default() += n;
        }
    });
}

/// Summed self time per span name, in milliseconds.
pub fn self_times() -> BTreeMap<&'static str, f64> {
    REC.with(|r| r.borrow().self_ms.clone())
}

/// Summed allocations per span name, nested spans' included.
pub fn allocs() -> BTreeMap<&'static str, u64> {
    REC.with(|r| r.borrow().allocs.clone())
}

/// Summed counts per name.
pub fn counts() -> BTreeMap<&'static str, u64> {
    REC.with(|r| r.borrow().counts.clone())
}

/// How many spans other than `root` have closed on this thread.
pub fn spans_besides(root: &str) -> usize {
    REC.with(|r| r.borrow().events.iter().filter(|e| e.name != root).count())
}

/// Writes every recorded span as Chrome trace-event JSON (opens in
/// `chrome://tracing` or Perfetto).
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    REC.with(|r| {
        let r = r.borrow();
        for (i, e) in r.events.iter().enumerate() {
            let cat = e.name.split('.').next().unwrap_or(e.name);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"op\":{}}}}}",
                if i > 0 { ",\n" } else { "" },
                e.name,
                e.start_us,
                e.dur_us,
                e.op
            );
        }
    });
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

/// The process allocator, wrapped to count allocations while recording.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        set_enabled(true);
        span("t.root", || {
            let _child = enter("t.child");
            count_within("t.root", "t.inside", 2);
            count_within("t.elsewhere", "t.outside", 2);
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        set_enabled(false);
        let t = self_times();
        let root_ms = REC.with(|r| {
            r.borrow()
                .events
                .iter()
                .find(|e| e.name == "t.root")
                .map(|e| e.dur_us / 1e3)
        });
        let sum = t["t.root"] + t["t.child"];
        assert!((sum - root_ms.unwrap()).abs() < 1e-6);
        assert!(t["t.child"] >= 2.0);
        assert_eq!(counts().get("t.inside"), Some(&2));
        assert_eq!(counts().get("t.outside"), None);
        assert_eq!(spans_besides("t.root"), 1);
    }
}
