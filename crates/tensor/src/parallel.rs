//! Shared worker pool for data-parallel tensor kernels.
//!
//! The GEMM and convolution kernels in this crate split their work into
//! independent tasks (output-row blocks for GEMM, batch samples for
//! convolution) and run them on one process-wide pool of worker threads.
//! The pool is created lazily on first use and reused for every
//! subsequent kernel call — no per-call thread spawning.
//!
//! ## Determinism
//!
//! Parallelism here never changes results. Work is partitioned so that
//! every output element is produced by exactly one task with the same
//! floating-point accumulation order as the sequential kernel, so results
//! are **bitwise identical** for any thread count (see the property tests
//! in `tests/properties.rs`).
//!
//! ## Configuration
//!
//! The thread count is resolved in this order:
//!
//! 1. [`set_num_threads`] — programmatic override, wins over everything;
//! 2. the `INSITU_THREADS` environment variable, read once on first use
//!    — an integer in `1..=`[`MAX_THREADS`]; anything else panics at the
//!    first kernel call rather than silently running another count;
//! 3. [`std::thread::available_parallelism`], when the variable is
//!    unset or empty.
//!
//! A count of 1 disables the pool entirely: every kernel takes its plain
//! sequential path, exactly reproducing single-threaded behavior.
//!
//! ## The split
//!
//! `par_split` is the only code in the crate that plans a split or cuts
//! a buffer into per-task slices. A kernel names its unit (an 8-element
//! group, a plane, an MR-row panel, a sample) and the buffers it
//! writes, each as a `PerUnit` with its elements per unit; the helper
//! checks every buffer against the unit count, then hands each task its
//! unit range and the matching sub-slices.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use insitu_telemetry as telemetry;

/// Upper bound on pool threads, far above any realistic core count
/// here; `INSITU_THREADS` values above it are rejected.
pub const MAX_THREADS: usize = 64;

/// Kernels stay sequential below this much work (~multiply-accumulates);
/// waking the pool costs more than a tiny op. This is a performance
/// heuristic only — results are identical either way.
const PAR_MIN_FLOPS: u64 = 1 << 18;

/// Resolved thread count; 0 means "not resolved yet".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while a thread is executing pool tasks (and permanently on
    /// workers): nested parallel calls run inline instead of re-entering
    /// the pool, which would deadlock the waiting outer call.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Sets the number of threads used by parallel kernels (clamped to
/// `1..=`[`MAX_THREADS`]). Takes effect for every subsequent kernel call
/// in the process; `set_num_threads(1)` restores pure sequential
/// execution. Results do not depend on this value — only speed does.
pub fn set_num_threads(n: usize) {
    CONFIGURED.store(n.clamp(1, MAX_THREADS), Ordering::Release);
}

/// The number of threads parallel kernels currently use.
///
/// On first call (unless [`set_num_threads`] ran earlier) this resolves
/// the default from the `INSITU_THREADS` environment variable, falling
/// back to [`std::thread::available_parallelism`] when it is unset.
///
/// # Panics
///
/// Panics if `INSITU_THREADS` is set to anything but an integer in
/// `1..=`[`MAX_THREADS`].
pub fn num_threads() -> usize {
    let n = CONFIGURED.load(Ordering::Acquire);
    if n != 0 {
        return n;
    }
    let resolved = default_threads();
    // Racing first calls resolve the same value; either store wins.
    let _ = CONFIGURED.compare_exchange(0, resolved, Ordering::AcqRel, Ordering::Acquire);
    CONFIGURED.load(Ordering::Acquire)
}

fn default_threads() -> usize {
    let v = std::env::var("INSITU_THREADS").unwrap_or_default();
    parse_threads(&v).unwrap_or_else(|e| panic!("{e}"))
}

/// Parses an `INSITU_THREADS` value: empty means the detected core
/// count (capped at [`MAX_THREADS`]); anything else must be an integer
/// in `1..=MAX_THREADS`.
fn parse_threads(v: &str) -> Result<usize, String> {
    let v = v.trim();
    if v.is_empty() {
        return Ok(host_cores().min(MAX_THREADS));
    }
    match v.parse::<usize>() {
        Ok(n) if (1..=MAX_THREADS).contains(&n) => Ok(n),
        _ => Err(format!("INSITU_THREADS={v}: expected an integer in 1..={MAX_THREADS}")),
    }
}

/// `dyn` task closure with the borrow lifetime erased. Sound because
/// [`run_pooled`] blocks until every claimed task has finished running
/// (see the SAFETY notes there and in [`Job::work`]).
struct JobFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine from any thread)
// and is only dereferenced while the submitting call keeps it alive.
unsafe impl Send for JobFn {}
// SAFETY: as for `Send`: sharing the pointer only shares calls to a
// `Sync` closure that outlives every dereference.
unsafe impl Sync for JobFn {}

/// One batch of tasks submitted to the pool.
struct Job {
    func: JobFn,
    /// Total task count; tasks are claimed via `next`.
    tasks: usize,
    next: AtomicUsize,
    /// Workers that have picked this job up; capped at `helper_limit` so
    /// lowering the thread count mid-process takes effect immediately.
    joiners: AtomicUsize,
    helper_limit: usize,
    /// Tasks not yet finished; the submitter waits for this to hit zero.
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Job {
    /// Claims and runs tasks until the task counter is exhausted.
    fn work(&self) {
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.tasks {
                break;
            }
            // SAFETY: `run_pooled` returns only after `remaining` hits
            // zero, and `remaining` hits zero only after every claimed
            // task (including this one) finishes — so the closure behind
            // `func` outlives this call. A worker arriving after the
            // final decrement claims `t >= tasks` and never gets here.
            let f = unsafe { &*self.func.0 };
            if catch_unwind(AssertUnwindSafe(|| f(t))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            let mut rem = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut rem = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct PoolState {
    /// Bumped on every submission so sleeping workers can tell a new job
    /// from a spurious wakeup.
    generation: u64,
    job: Option<Arc<Job>>,
    /// Worker threads spawned so far (grown lazily, never shrunk).
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    bell: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { generation: 0, job: None, spawned: 0 }),
        bell: Condvar::new(),
    })
}

fn worker_loop() {
    let pool = pool();
    // Workers never re-enter the pool from inside a task.
    IN_PARALLEL.with(|c| c.set(true));
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.generation != last_gen {
                    last_gen = st.generation;
                    if let Some(j) = st.job.clone() {
                        break j;
                    }
                }
                st = pool.bell.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        if job.joiners.fetch_add(1, Ordering::AcqRel) < job.helper_limit {
            let _t = telemetry::span("pool.work");
            job.work();
        }
    }
}

/// Runs `f(0), f(1), …, f(tasks - 1)`, distributing the calls over the
/// worker pool. Every index runs exactly once; the call returns after all
/// of them finish. Tasks must be independent — the caller is responsible
/// for making their side effects disjoint.
///
/// Runs inline (plain sequential loop, ascending order) when the thread
/// count is 1, when there is at most one task, or when called from inside
/// another parallel task.
///
/// # Panics
///
/// If a task panics, the remaining tasks still run, and the panic is
/// re-raised here once all of them finish.
fn parallel_for<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = num_threads();
    if tasks <= 1 || threads <= 1 || IN_PARALLEL.with(|c| c.get()) {
        for t in 0..tasks {
            f(t);
        }
        return;
    }
    run_pooled(tasks, threads, &f);
}

fn run_pooled(tasks: usize, threads: usize, f: &(dyn Fn(usize) + Sync)) {
    let _t = telemetry::span_with("pool.job", || format!("{tasks} tasks x{threads}"));
    telemetry::counter_add("pool.jobs", "", 1);
    telemetry::counter_add("pool.tasks", "", tasks as u64);
    // Erase the borrow lifetime so workers can hold the closure pointer.
    #[allow(clippy::transmute_ptr_to_ptr)] // cast can't erase the lifetime
    let func = JobFn(
        // SAFETY: this erases a lifetime, it accesses no memory. This
        // function does not return until `Job::wait` observes all tasks
        // finished, so the raw pointer never outlives the borrow it was
        // made from — dangling copies held by late workers are never
        // dereferenced (see `Job::work`).
        unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        },
    );
    let helper_limit = (threads - 1).min(tasks - 1).min(MAX_THREADS);
    let job = Arc::new(Job {
        func,
        tasks,
        next: AtomicUsize::new(0),
        joiners: AtomicUsize::new(0),
        helper_limit,
        remaining: Mutex::new(tasks),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    let pool = pool();
    {
        let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.spawned < helper_limit {
            let idx = st.spawned;
            thread::Builder::new()
                .name(format!("insitu-worker-{idx}"))
                .spawn(worker_loop)
                .expect("failed to spawn insitu worker thread");
            st.spawned += 1;
        }
        st.generation = st.generation.wrapping_add(1);
        st.job = Some(Arc::clone(&job));
        pool.bell.notify_all();
    }
    // The submitting thread works too, so `threads` threads participate.
    IN_PARALLEL.with(|c| c.set(true));
    job.work();
    IN_PARALLEL.with(|c| c.set(false));
    // Time spent blocked on stragglers: the pool's queue/idle cost as
    // seen by the submitter.
    let wait_start = telemetry::enabled().then(std::time::Instant::now);
    job.wait();
    if let Some(t0) = wait_start {
        telemetry::counter_add("pool.wait_ns", "", t0.elapsed().as_nanos() as u64);
    }
    // Retire the job so late-waking workers don't hold the (now dead)
    // closure pointer longer than needed.
    {
        let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cur) = &st.job {
            if Arc::ptr_eq(cur, &job) {
                st.job = None;
            }
        }
    }
    if job.panicked.load(Ordering::Acquire) {
        panic!("a parallel tensor kernel task panicked");
    }
}

/// Physical cores the host actually has, resolved once. Distinct from
/// [`num_threads`], which callers may set to anything: the *requested*
/// count sizes the pool, but kernels never split work wider than the
/// hardware (see [`plan_parts`]) — on a 1-core host, extra threads only
/// add dispatch and contention cost without any parallel speedup.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of parallel parts to split `units` work items into, given the
/// total floating-point work. Returns 1 (sequential) for small jobs or
/// an effective thread count of 1; otherwise
/// `min(threads, host_cores, units)` — the requested thread count is
/// capped at [`host_cores`], because splitting beyond the physical
/// cores is a pure loss (the parts time-slice one core and pay the
/// pool's dispatch overhead on top).
fn plan_parts(units: usize, flops: u64) -> usize {
    let t = num_threads().min(host_cores());
    if t <= 1 || units <= 1 || flops < PAR_MIN_FLOPS {
        1
    } else {
        t.min(units)
    }
}

/// The `part`-th of `parts` balanced contiguous sub-ranges of `0..n`.
fn split_range(n: usize, parts: usize, part: usize) -> Range<usize> {
    debug_assert!(part < parts);
    let base = n / parts;
    let extra = n % parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    start..start + len
}

/// One `&mut [T]` handed to [`par_split`], cut into units of `per`
/// elements: the task running units `r` gets elements
/// `r.start * per..r.end * per`, clipped to the buffer, so only the
/// last unit may be short.
pub(crate) struct PerUnit<'a, T> {
    base: *mut T,
    len: usize,
    per: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: `len` and `per` are plain data every task only reads, and
// `base` is dereferenced only through `Split::piece`, whose callers cut
// disjoint ranges: sharing a `PerUnit` hands each task its own `&mut`
// piece, which is sending `&mut [T]` to another thread, sound whenever
// `T: Send`.
unsafe impl<T: Send> Sync for PerUnit<'_, T> {}

impl<'a, T> PerUnit<'a, T> {
    /// Borrows `buf` for one split, `per` elements per unit.
    pub(crate) fn new(buf: &'a mut [T], per: usize) -> Self {
        PerUnit { base: buf.as_mut_ptr(), len: buf.len(), per, _borrow: PhantomData }
    }
}

/// The buffers one [`par_split`] call cuts: a [`PerUnit`] or a tuple of
/// them.
pub(crate) trait Split: Sync {
    /// What one task receives: the sub-slice of every buffer.
    type Piece;

    /// Panics unless every buffer holds exactly `units` units (the last
    /// one may be short).
    fn check(&self, units: usize);

    /// The sub-slices covering units `r`.
    ///
    /// # Safety
    ///
    /// `r` must not overlap any other range this value is cut at while
    /// the pieces live.
    unsafe fn piece(&self, r: &Range<usize>) -> Self::Piece;
}

impl<'a, T: Send> Split for PerUnit<'a, T> {
    type Piece = &'a mut [T];

    fn check(&self, units: usize) {
        let (len, per) = (self.len, self.per);
        let holds = units.checked_mul(per).is_some_and(|cap| len <= cap && cap - len < per.max(1));
        assert!(
            holds,
            "par_split: a buffer of {len} elements does not hold {units} units of {per}"
        );
    }

    unsafe fn piece(&self, r: &Range<usize>) -> &'a mut [T] {
        let start = (r.start * self.per).min(self.len);
        let end = (r.end * self.per).min(self.len);
        // SAFETY: `start..end` lies inside the borrowed buffer, and the
        // caller never cuts overlapping ranges, so no two pieces alias.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(start), end - start) }
    }
}

macro_rules! split_tuple {
    ($($buf:ident $b:ident),+) => {
        impl<$($buf: Split),+> Split for ($($buf,)+) {
            type Piece = ($($buf::Piece,)+);

            fn check(&self, units: usize) {
                let ($($b,)+) = self;
                $($b.check(units);)+
            }

            unsafe fn piece(&self, r: &Range<usize>) -> Self::Piece {
                let ($($b,)+) = self;
                // SAFETY: the caller's disjointness promise holds for
                // every buffer of the tuple.
                unsafe { ($($b.piece(r),)+) }
            }
        }
    };
}

// One impl per arity a kernel uses: ReLU train and maxpool (2), the
// f32 conv forward (3), the i8 conv forward (4), the conv backward (7).
split_tuple!(A a, B b);
split_tuple!(A a, B b, C c);
split_tuple!(A a, B b, C c, D d);
split_tuple!(A a, B b, C c, D d, E e, F f, G g);

/// Runs `f` over disjoint, contiguous ranges covering `0..units`,
/// handing each range the pieces of `bufs` it covers.
///
/// [`plan_parts`] sizes the split from `flops`. One part is a single
/// inline call, `f(0..units, whole buffers)`; more run on the pool as
/// balanced ranges (see [`split_range`]). Each range is one task, so a
/// kernel that needs whole groups, planes, panels or samples per task
/// makes that its unit.
///
/// # Panics
///
/// Panics before running anything if a buffer does not hold `units`
/// units of its per-unit length (only the last may be short), so a
/// sizing bug is a panic rather than an out-of-bounds piece. A panic in
/// `f` is re-raised once every task finishes.
pub(crate) fn par_split<B, F>(units: usize, flops: u64, bufs: B, f: F)
where
    B: Split,
    F: Fn(Range<usize>, B::Piece) + Sync,
{
    bufs.check(units);
    let parts = plan_parts(units, flops);
    parallel_for(parts, |p| {
        let r = split_range(units, parts, p);
        // SAFETY: `split_range` partitions `0..units` and `parallel_for`
        // runs each part exactly once, so no range is cut twice.
        let piece = unsafe { bufs.piece(&r) };
        f(r, piece);
    });
}

/// Runs `f(i, chunk_i)` over the consecutive `chunk_len`-sized chunks of
/// `data` in parallel (the last chunk may be shorter). Chunks are
/// disjoint, so no synchronization is needed inside `f`.
///
/// This is the building block training uses to parallelize batch
/// assembly; it makes one sequential pass when the pool is disabled.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be nonzero");
    let chunks = data.len().div_ceil(chunk_len);
    // The caller sized the chunks, so no work threshold applies.
    par_split(chunks, u64::MAX, PerUnit::new(data, chunk_len), |r, part| {
        for (i, chunk) in r.zip(part.chunks_mut(chunk_len)) {
            f(i, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that change the global thread count. (The count
    /// never affects results, but these tests assert on specific
    /// configurations.)
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads(n: usize, f: impl FnOnce()) {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = num_threads();
        set_num_threads(n);
        let result = catch_unwind(AssertUnwindSafe(f));
        set_num_threads(prev);
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn insitu_threads_values_are_validated() {
        for (v, n) in [("1", 1), (" 4 ", 4), ("64", 64)] {
            assert_eq!(parse_threads(v), Ok(n), "{v:?}");
        }
        for v in ["0", "-1", "abc", "4x", "65"] {
            let err = parse_threads(v).unwrap_err();
            assert!(err.contains("1..=64"), "{v:?}: {err}");
        }
    }

    #[test]
    fn set_num_threads_round_trips_and_clamps() {
        with_threads(3, || assert_eq!(num_threads(), 3));
        with_threads(0, || assert_eq!(num_threads(), 1));
        with_threads(MAX_THREADS + 10, || assert_eq!(num_threads(), MAX_THREADS));
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        for threads in [1, 2, 4] {
            with_threads(threads, || {
                let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
                parallel_for(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
                }
            });
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        with_threads(4, || {
            let total = AtomicUsize::new(0);
            parallel_for(4, |_| {
                // Inner call must not deadlock waiting for pool workers
                // that are all busy with the outer job.
                parallel_for(8, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(total.load(Ordering::Relaxed), 32);
        });
    }

    #[test]
    fn pool_is_reused_across_calls() {
        with_threads(2, || {
            for _ in 0..50 {
                let total = AtomicUsize::new(0);
                parallel_for(8, |i| {
                    total.fetch_add(i, Ordering::Relaxed);
                });
                assert_eq!(total.load(Ordering::Relaxed), 28);
            }
        });
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        with_threads(2, || {
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_for(8, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        panic!("boom");
                    }
                });
            }));
            assert!(result.is_err());
            assert_eq!(ran.load(Ordering::Relaxed), 8);
        });
    }

    #[test]
    fn split_range_partitions_exactly() {
        for n in [0usize, 1, 5, 64, 65, 1000] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut next = 0;
                for p in 0..parts {
                    let r = split_range(n, parts, p);
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn par_chunks_mut_matches_serial_chunks() {
        with_threads(4, || {
            let mut data = vec![0u32; 103];
            par_chunks_mut(&mut data, 10, |i, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (i * 1000 + j) as u32;
                }
            });
            let mut expect = vec![0u32; 103];
            for (i, chunk) in expect.chunks_mut(10).enumerate() {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (i * 1000 + j) as u32;
                }
            }
            assert_eq!(data, expect);
        });
    }

    #[test]
    fn one_planned_part_is_one_inline_call_over_every_unit() {
        let caller = thread::current().id();
        // One thread, or a job below the work threshold at four.
        for (threads, flops) in [(1, u64::MAX), (4, PAR_MIN_FLOPS - 1)] {
            with_threads(threads, || {
                let mut buf = vec![0u32; 29]; // 10 units of 3, the last short
                let calls = Mutex::new(Vec::new());
                par_split(10, flops, PerUnit::new(&mut buf, 3), |r, piece| {
                    calls.lock().unwrap().push((r, piece.len(), thread::current().id()));
                });
                assert_eq!(calls.into_inner().unwrap(), vec![(0..10, 29, caller)]);
            });
        }
    }

    #[test]
    fn split_ranges_are_disjoint_ordered_and_cover_every_unit() {
        const UNITS: usize = 103;
        const LEN: usize = 3 * UNITS - 1; // the last unit is short
        for threads in [2, 4] {
            with_threads(threads, || {
                let mut buf: Vec<usize> = (0..LEN).collect();
                let mut mask = vec![0u8; UNITS];
                let ranges = Mutex::new(Vec::new());
                let bufs = (PerUnit::new(&mut buf, 3), PerUnit::new(&mut mask, 1));
                par_split(UNITS, u64::MAX, bufs, |r, (piece, m)| {
                    // Each piece is exactly the range's elements.
                    assert_eq!(piece.len(), (3 * r.end).min(LEN) - 3 * r.start);
                    assert_eq!(piece.first(), Some(&(3 * r.start)));
                    assert_eq!(m.len(), r.len());
                    piece.iter_mut().for_each(|v| *v += 1);
                    m.iter_mut().for_each(|v| *v += 1);
                    ranges.lock().unwrap().push(r);
                });
                let mut ranges = ranges.into_inner().unwrap();
                assert_eq!(ranges.len(), threads.min(host_cores()));
                ranges.sort_by_key(|r| r.start);
                let mut next = 0;
                for r in &ranges {
                    assert!(!r.is_empty());
                    assert_eq!(r.start, next, "ranges must tile 0..units in order");
                    next = r.end;
                }
                assert_eq!(next, UNITS);
                // Every element and every mask byte was handed out once.
                assert!(buf.iter().enumerate().all(|(i, &v)| v == i + 1));
                assert!(mask.iter().all(|&v| v == 1));
            });
        }
    }

    #[test]
    #[should_panic(expected = "does not hold 4 units of 3")]
    fn a_buffer_short_of_its_units_panics() {
        let mut whole = vec![0f32; 12];
        let mut short = vec![0f32; 9];
        let bufs = (PerUnit::new(&mut whole, 3), PerUnit::new(&mut short, 3));
        par_split(4, u64::MAX, bufs, |_, _| panic!("nothing may run"));
    }

    #[test]
    fn plan_parts_thresholds() {
        with_threads(4, || {
            let effective = 4.min(host_cores());
            assert_eq!(plan_parts(8, PAR_MIN_FLOPS - 1), 1, "small jobs stay sequential");
            assert_eq!(plan_parts(8, PAR_MIN_FLOPS), effective, "capped by host cores");
            assert_eq!(plan_parts(2, u64::MAX), effective.min(2), "capped by unit count");
            assert_eq!(plan_parts(1, u64::MAX), 1);
        });
        with_threads(1, || {
            assert_eq!(plan_parts(1000, u64::MAX), 1);
        });
    }

    #[test]
    fn plan_parts_never_exceeds_host_cores() {
        // Requesting more threads than the machine has must not widen
        // the split: the extra parts would time-slice one core and pay
        // pool dispatch for nothing (the regression BENCH_kernels.json
        // recorded on a 1-core host).
        with_threads(MAX_THREADS, || {
            assert!(plan_parts(usize::MAX, u64::MAX) <= host_cores());
        });
    }
}
