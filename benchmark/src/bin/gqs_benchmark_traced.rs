//! The traced benchmark binary: per-layer metrics. The only place a
//! counting allocator is installed — and the only `unsafe` of the crate —
//! so the end-to-end binary measures the program with the system
//! allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gqs_benchmark::cli::{bench_dir, guard_rails, parse_args};
use gqs_benchmark::layers::trace;
use gqs_benchmark::report::result_line;

/// The system allocator, counting each thread's calls and requested bytes.
struct Counting;

thread_local! {
    // Per thread, so that sweep workers do not contend on one cache line;
    // spans are recorded on the main thread, which reads its own counters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last frees can run after its locals are gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local cells of plain integers, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // which is `System`'s; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's `(allocations, bytes)` so far.
fn counters() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

fn main() {
    let fail = |code: i32, e: String| -> ! {
        eprintln!("gqs_benchmark_traced: {e}");
        std::process::exit(code)
    };
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(2, e));
    let Some(workload) = args.workload else { fail(2, "--workload is required".into()) };
    if let Err(e) = guard_rails() {
        fail(1, e);
    }
    let traced = trace(workload, args.seed, args.size(), counters);
    let out = bench_dir().join("out");
    let path = out.join(format!("trace_{}.json", workload.name()));
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, traced.trace.compact()))
    {
        fail(1, format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("wrote {}", path.display());
    for (name, unit, value) in &traced.metrics {
        println!("{name:<34} {value:>18.6} {unit}");
    }
    println!(
        "{}",
        result_line(
            traced.correct,
            traced.attempted,
            traced.failed,
            traced.metrics.iter().copied()
        )
        .compact()
    );
    std::process::exit(i32::from(!traced.correct));
}
