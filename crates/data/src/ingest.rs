//! Producer-driven streaming ingestion: a frame source on its own
//! thread, a bounded backpressure queue, and a grow-only arena that
//! recycles frame storage so steady-state ingestion performs zero heap
//! allocations.
//!
//! Channel topology:
//!
//! ```text
//!   StreamSource ──► producer thread ──► IngestQueue (bounded) ──► consumer
//!        ▲                                                            │
//!        └──── FrameArena ◄── recycle channel (unbounded) ◄───────────┘
//! ```
//!
//! The producer materializes frame *N+1* while the consumer computes
//! on frame *N*; the queue bound is the only coupling. When the
//! consumer falls behind, the configured [`QueueFullPolicy`] decides
//! whether the producer stalls (`Block` — lossless, the
//! differential-testing mode) or evicts the oldest queued frame
//! (`DropOldest` — lossy, the real-time mode). Consumed frames return
//! their storage to the producer's [`FrameArena`] through an unbounded
//! recycle channel; the recycle direction must never apply
//! backpressure, or a full recycle channel would block the consumer
//! while the producer blocks on the full frame queue — a circular
//! wait. At most `capacity + 2` frames are ever in flight (the queued
//! frames plus one in each hand), so after that many frames the
//! producer allocates nothing.

use crate::concepts::Concept;
use crate::dataset::Dataset;
use crate::drift::Condition;
use crate::error::DataError;
use crate::Result;
use insitu_tensor::{Rng, Tensor};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Recyclable raw storage of one frame: the flattened image floats and
/// the label vector, capacity preserved across reuses.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Flattened `(N, 3, 36, 36)` image storage.
    pub images: Vec<f32>,
    /// Per-sample labels.
    pub labels: Vec<usize>,
}

/// A grow-only pool of [`FrameBuf`]s.
///
/// `acquire` hands out a cleared buffer from the free list, minting a
/// fresh (empty) one only when the list is dry; `recycle` returns a
/// buffer to the list with its capacity intact. The fresh/reused
/// counters are the arena-reuse gate the ingestion tests assert on: in
/// steady state every frame acquires a reused buffer and the fresh
/// count stays bounded by the pipeline's in-flight window.
#[derive(Debug, Default)]
pub struct FrameArena {
    free: Vec<FrameBuf>,
    fresh: u64,
    reused: u64,
}

impl FrameArena {
    /// Takes a cleared buffer, reusing a recycled one when available.
    pub fn acquire(&mut self) -> FrameBuf {
        match self.free.pop() {
            Some(mut buf) => {
                buf.images.clear();
                buf.labels.clear();
                self.reused += 1;
                buf
            }
            None => {
                self.fresh += 1;
                FrameBuf::default()
            }
        }
    }

    /// Returns a buffer to the free list (capacity preserved).
    pub fn recycle(&mut self, buf: FrameBuf) {
        self.free.push(buf);
    }

    /// Buffers minted because the free list was empty.
    pub fn fresh_buffers(&self) -> u64 {
        self.fresh
    }

    /// Acquisitions served from the free list.
    pub fn reused_buffers(&self) -> u64 {
        self.reused
    }
}

/// One materialized stage travelling from the producer to the consumer.
#[derive(Debug)]
pub struct Frame {
    /// Monotone production index (0-based).
    pub seq: u64,
    /// The stage's samples.
    pub data: Dataset,
    /// Wall-clock nanoseconds the producer spent materializing it.
    pub produce_ns: u64,
}

impl Frame {
    /// Decomposes the frame into recyclable storage.
    pub fn into_buf(self) -> FrameBuf {
        let (images, labels) = self.data.into_parts();
        FrameBuf { images: images.into_vec(), labels }
    }
}

/// A source of stream frames driven by the ingestion producer thread.
///
/// Implementations materialize each frame's samples into buffers
/// acquired from the passed [`FrameArena`] so consumed frames can hand
/// their storage back. Returning `Ok(None)` ends the stream.
pub trait StreamSource: Send {
    /// Materializes the next frame, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns an error when the source cannot produce a valid frame;
    /// the pipeline forwards it to the consumer via
    /// [`IngestPipeline::finish`].
    fn next_frame(&mut self, arena: &mut FrameArena) -> Result<Option<Dataset>>;

    /// Number of frames still to come, when known.
    fn frames_hint(&self) -> Option<usize> {
        None
    }
}

/// Builds a dataset around storage taken from an arena buffer.
fn dataset_from_buf(buf: FrameBuf, num_classes: usize) -> Result<Dataset> {
    let n = buf.labels.len();
    let images = Tensor::from_vec(
        [n, crate::concepts::CHANNELS, crate::concepts::IMAGE_SIZE, crate::concepts::IMAGE_SIZE],
        buf.images,
    )?;
    Dataset::from_parts(images, buf.labels, num_classes)
}

/// Replays a pre-materialized `Vec<Dataset>` as a frame stream.
///
/// Each frame's samples are copied from the shared stream into a
/// recycled arena buffer — the source never clones image storage beyond
/// that single unavoidable copy into the arena, and in steady state
/// performs no heap allocation at all.
#[derive(Debug)]
pub struct ReplaySource {
    stream: Arc<Vec<Dataset>>,
    next: usize,
}

impl ReplaySource {
    /// Wraps a shared stage sequence.
    pub fn new(stream: Arc<Vec<Dataset>>) -> ReplaySource {
        ReplaySource { stream, next: 0 }
    }
}

impl StreamSource for ReplaySource {
    fn next_frame(&mut self, arena: &mut FrameArena) -> Result<Option<Dataset>> {
        let Some(stage) = self.stream.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        let mut buf = arena.acquire();
        buf.images.extend_from_slice(stage.images().as_slice());
        buf.labels.extend_from_slice(stage.labels());
        Ok(Some(dataset_from_buf(buf, stage.num_classes())?))
    }

    fn frames_hint(&self) -> Option<usize> {
        Some(self.stream.len().saturating_sub(self.next))
    }
}

/// Per-frame drift severity ramp of a [`SyntheticDriftSource`]: frame
/// `i` is generated under `Condition::with_severity(start + i * step)`
/// (clamped to `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSchedule {
    /// Severity of the first frame.
    pub start: f32,
    /// Severity increase per frame.
    pub step: f32,
}

/// Synthesizes a drifting sensor stream frame by frame — the live
/// counterpart of pre-generating a `Vec<Dataset>` with a severity
/// ramp. Samples are rendered and corrupted directly inside recycled
/// arena buffers ([`Dataset::generate_into`]), so steady-state
/// production allocates nothing.
#[derive(Debug, Clone)]
pub struct SyntheticDriftSource {
    frames: usize,
    frame_size: usize,
    num_classes: usize,
    schedule: DriftSchedule,
    concepts: Vec<Concept>,
    rng: Rng,
    produced: usize,
}

impl SyntheticDriftSource {
    /// Creates a source of `frames` frames of `frame_size` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `num_classes == 0` or the
    /// schedule's starting severity is outside `[0, 1]`.
    pub fn new(
        frames: usize,
        frame_size: usize,
        num_classes: usize,
        schedule: DriftSchedule,
        seed: u64,
    ) -> Result<SyntheticDriftSource> {
        if num_classes == 0 {
            return Err(DataError::BadConfig { reason: "num_classes must be > 0".into() });
        }
        Condition::with_severity(schedule.start)?;
        let concepts: Vec<Concept> = (0..num_classes)
            .map(|c| Concept::for_class(c, num_classes))
            .collect::<Result<_>>()?;
        Ok(SyntheticDriftSource {
            frames,
            frame_size,
            num_classes,
            schedule,
            concepts,
            rng: Rng::seed_from(seed),
            produced: 0,
        })
    }

    fn condition_for(&self, frame: usize) -> Result<Condition> {
        let severity =
            (self.schedule.start + self.schedule.step * frame as f32).clamp(0.0, 1.0);
        Condition::with_severity(severity)
    }

    /// Runs the remaining frames serially into an owned `Vec<Dataset>`
    /// — the sequential oracle for differential tests: a pipeline fed
    /// by this source must deliver bitwise-identical frames in the
    /// same order (under the lossless `Block` policy). The source
    /// itself is not advanced.
    ///
    /// # Errors
    ///
    /// Returns any generation error.
    pub fn materialize(&self) -> Result<Vec<Dataset>> {
        let mut replica = self.clone();
        let mut arena = FrameArena::default();
        let mut out = Vec::with_capacity(self.frames - self.produced.min(self.frames));
        while let Some(frame) = replica.next_frame(&mut arena)? {
            out.push(frame);
        }
        Ok(out)
    }
}

impl StreamSource for SyntheticDriftSource {
    fn next_frame(&mut self, arena: &mut FrameArena) -> Result<Option<Dataset>> {
        if self.produced >= self.frames {
            return Ok(None);
        }
        let condition = self.condition_for(self.produced)?;
        self.produced += 1;
        let mut buf = arena.acquire();
        Dataset::generate_into(
            &self.concepts,
            &condition,
            &mut self.rng,
            self.frame_size,
            &mut buf.images,
            &mut buf.labels,
        )?;
        Ok(Some(dataset_from_buf(buf, self.num_classes)?))
    }

    fn frames_hint(&self) -> Option<usize> {
        Some(self.frames - self.produced.min(self.frames))
    }
}

/// What a full [`IngestQueue`] does with the next pushed frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueFullPolicy {
    /// Stall the producer until the consumer drains a slot. Lossless:
    /// the consumer sees every frame in order, which is what makes the
    /// overlapped session bitwise comparable to the sequential oracle.
    #[default]
    Block,
    /// Evict the oldest queued frame (recycling its storage) and keep
    /// producing. Lossy but live: the consumer always sees the
    /// freshest frames, the real-time sensor semantics.
    DropOldest,
}

/// State shared between the producer and consumer sides of the queue.
#[derive(Debug)]
struct QueueState {
    frames: VecDeque<Frame>,
    /// The producer finished (end of stream or error): `pop` drains
    /// what is left, then returns `None`.
    closed: bool,
    /// The consumer is gone: `push` fails so the producer stops.
    abandoned: bool,
    dropped: u64,
    max_depth: usize,
}

/// A bounded MPSC frame queue with blocking push/pop, depth
/// inspection, and an eviction mode — the backpressure coupling
/// between the ingestion producer and the compute consumer.
///
/// (The vendored channel shim has no `try_send`/depth API, and the
/// policies need both; a mutex-and-condvar queue over a `VecDeque` is
/// all this takes.)
#[derive(Debug)]
pub struct IngestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl IngestQueue {
    /// Creates a queue holding at most `capacity.max(1)` frames.
    pub fn new(capacity: usize) -> Arc<IngestQueue> {
        Arc::new(IngestQueue {
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                closed: false,
                abandoned: false,
                dropped: 0,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Pushes a frame under `policy`. Returns the evicted frame under
    /// [`QueueFullPolicy::DropOldest`] (so the producer can recycle
    /// its storage), or the rejected frame as `Err` once the consumer
    /// has abandoned the queue.
    pub fn push(
        &self,
        frame: Frame,
        policy: QueueFullPolicy,
    ) -> std::result::Result<Option<Frame>, Box<Frame>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let evicted = match policy {
            QueueFullPolicy::Block => {
                while state.frames.len() >= self.capacity && !state.abandoned {
                    state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                if state.abandoned {
                    return Err(Box::new(frame));
                }
                None
            }
            QueueFullPolicy::DropOldest => {
                if state.abandoned {
                    return Err(Box::new(frame));
                }
                if state.frames.len() >= self.capacity {
                    state.dropped += 1;
                    state.frames.pop_front()
                } else {
                    None
                }
            }
        };
        state.frames.push_back(frame);
        state.max_depth = state.max_depth.max(state.frames.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(evicted)
    }

    /// Pops the next frame in production order, blocking while the
    /// queue is empty but still open; `None` once the producer closed
    /// the queue and every queued frame was drained.
    pub fn pop(&self) -> Option<Frame> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(frame) = state.frames.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Frames currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).frames.len()
    }

    /// Frames evicted so far under [`QueueFullPolicy::DropOldest`].
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// High-water mark of the queue depth.
    pub fn max_depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).max_depth
    }

    /// Producer side: no more frames are coming.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
    }

    /// Consumer side: stop accepting frames and wake a blocked
    /// producer so it can exit (the consumer is leaving early).
    pub fn abandon(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).abandoned = true;
        self.not_full.notify_all();
    }
}

/// Tuning knobs of an [`IngestPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Frame capacity of the bounded queue (clamped to at least 1).
    pub capacity: usize,
    /// What the producer does when the queue is full.
    pub policy: QueueFullPolicy,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig { capacity: 4, policy: QueueFullPolicy::Block }
    }
}

/// What the producer thread did over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProducerReport {
    /// Frames materialized (including later-dropped ones).
    pub frames: u64,
    /// Frames evicted under [`QueueFullPolicy::DropOldest`].
    pub dropped: u64,
    /// Arena buffers minted fresh (the zero-steady-state-allocation
    /// gate: bounded by `queue capacity + 2` regardless of stream
    /// length).
    pub fresh_buffers: u64,
    /// Arena acquisitions served by recycled buffers.
    pub reused_buffers: u64,
    /// Total wall-clock nanoseconds spent materializing frames.
    pub produce_ns_total: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: u64,
}

/// A running ingestion pipeline: one producer thread materializing
/// frames from a [`StreamSource`] into a bounded [`IngestQueue`], plus
/// the recycle channel through which the consumer returns frame
/// storage to the producer's [`FrameArena`].
#[derive(Debug)]
pub struct IngestPipeline {
    queue: Arc<IngestQueue>,
    recycle_tx: mpsc::Sender<FrameBuf>,
    producer: Option<JoinHandle<Result<ProducerReport>>>,
}

impl IngestPipeline {
    /// Spawns the producer thread over `source`.
    pub fn spawn(mut source: Box<dyn StreamSource>, config: IngestConfig) -> IngestPipeline {
        let queue = IngestQueue::new(config.capacity);
        let (recycle_tx, recycle_rx) = mpsc::channel::<FrameBuf>();
        let policy = config.policy;
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || -> Result<ProducerReport> {
                let mut arena = FrameArena::default();
                let mut seq = 0u64;
                let mut produce_ns_total = 0u64;
                let run = (|| -> Result<()> {
                    loop {
                        // Reclaim whatever the consumer has finished
                        // with before materializing the next frame.
                        while let Ok(buf) = recycle_rx.try_recv() {
                            arena.recycle(buf);
                        }
                        let t0 = Instant::now();
                        let Some(data) = source.next_frame(&mut arena)? else {
                            return Ok(());
                        };
                        let produce_ns =
                            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        produce_ns_total += produce_ns;
                        let frame = Frame { seq, data, produce_ns };
                        seq += 1;
                        match queue.push(frame, policy) {
                            Ok(Some(evicted)) => arena.recycle(evicted.into_buf()),
                            Ok(None) => {}
                            // Consumer gone: stop producing quietly.
                            Err(_frame) => return Ok(()),
                        }
                    }
                })();
                // Close on *every* exit — an error path that leaves
                // the queue open would block the consumer forever.
                queue.close();
                run?;
                Ok(ProducerReport {
                    frames: seq,
                    dropped: queue.dropped(),
                    fresh_buffers: arena.fresh_buffers(),
                    reused_buffers: arena.reused_buffers(),
                    produce_ns_total,
                    max_queue_depth: queue.max_depth() as u64,
                })
            })
        };
        IngestPipeline { queue, recycle_tx, producer: Some(producer) }
    }

    /// Pops the next frame in production order (blocking while the
    /// producer is still working on it); `None` at end of stream.
    pub fn next_frame(&self) -> Option<Frame> {
        self.queue.pop()
    }

    /// Frames currently queued ahead of the consumer.
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// Frames evicted so far under [`QueueFullPolicy::DropOldest`].
    pub fn dropped(&self) -> u64 {
        self.queue.dropped()
    }

    /// Returns a consumed frame's storage to the producer arena.
    pub fn recycle(&self, frame: Frame) {
        // The producer may already be gone; its arena dying with it is
        // fine — the send only fails once nothing will allocate again.
        let _ = self.recycle_tx.send(frame.into_buf());
    }

    /// Shuts the pipeline down and returns the producer's report.
    /// Frames still queued are discarded. Call after `next_frame`
    /// returned `None` for an orderly end-of-stream harvest, or early
    /// to cancel (a blocked producer is woken and exits).
    ///
    /// # Errors
    ///
    /// Returns the producer's error, or [`DataError::BadConfig`] if
    /// the producer thread panicked.
    pub fn finish(mut self) -> Result<ProducerReport> {
        self.queue.abandon();
        let handle = self.producer.take().expect("finish consumes the only handle");
        match handle.join() {
            Ok(report) => report,
            Err(_) => Err(DataError::BadConfig {
                reason: "ingest producer thread panicked".into(),
            }),
        }
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        // Dropped without `finish` (consumer bailing out early, or
        // unwinding through an error): wake and join the producer so
        // no thread outlives the pipeline.
        if let Some(handle) = self.producer.take() {
            self.queue.abandon();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(n: usize, seed: u64) -> Vec<Dataset> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| Dataset::generate(6, 4, &Condition::in_situ(), &mut rng).unwrap())
            .collect()
    }

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = FrameArena::default();
        let mut buf = arena.acquire();
        buf.images.extend_from_slice(&[1.0; 64]);
        buf.labels.push(3);
        let cap = buf.images.capacity();
        arena.recycle(buf);
        let again = arena.acquire();
        assert!(again.images.is_empty() && again.labels.is_empty());
        assert!(again.images.capacity() >= cap);
        assert_eq!(arena.fresh_buffers(), 1);
        assert_eq!(arena.reused_buffers(), 1);
    }

    #[test]
    fn queue_is_fifo_and_drains_after_close() {
        let q = IngestQueue::new(2);
        for seq in 0..2 {
            let data = Dataset::generate(1, 2, &Condition::ideal(), &mut Rng::seed_from(seq))
                .unwrap();
            q.push(Frame { seq, data, produce_ns: 0 }, QueueFullPolicy::Block).unwrap();
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        q.close();
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn drop_oldest_evicts_in_order_and_counts() {
        let q = IngestQueue::new(2);
        let mut evicted = Vec::new();
        for seq in 0..5 {
            let data = Dataset::generate(1, 2, &Condition::ideal(), &mut Rng::seed_from(seq))
                .unwrap();
            if let Some(old) =
                q.push(Frame { seq, data, produce_ns: 0 }, QueueFullPolicy::DropOldest).unwrap()
            {
                evicted.push(old.seq);
            }
        }
        assert_eq!(evicted, vec![0, 1, 2]);
        assert_eq!(q.dropped(), 3);
        q.close();
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 4);
        assert!(q.pop().is_none());
    }

    #[test]
    fn abandoned_queue_rejects_pushes() {
        let q = IngestQueue::new(1);
        q.abandon();
        let data = Dataset::generate(1, 2, &Condition::ideal(), &mut Rng::seed_from(1)).unwrap();
        assert!(q.push(Frame { seq: 0, data, produce_ns: 0 }, QueueFullPolicy::Block).is_err());
    }

    #[test]
    fn replay_pipeline_delivers_the_stream_bitwise() {
        let stream = Arc::new(stages(5, 40));
        let pipeline = IngestPipeline::spawn(
            Box::new(ReplaySource::new(Arc::clone(&stream))),
            IngestConfig { capacity: 2, policy: QueueFullPolicy::Block },
        );
        let mut seen = 0usize;
        while let Some(frame) = pipeline.next_frame() {
            assert_eq!(frame.seq, seen as u64);
            assert_eq!(&frame.data, &stream[seen], "frame {seen} must replay bitwise");
            seen += 1;
            pipeline.recycle(frame);
        }
        assert_eq!(seen, 5);
        let report = pipeline.finish().unwrap();
        assert_eq!(report.frames, 5);
        assert_eq!(report.dropped, 0);
        // The arena-reuse gate: fresh allocations bounded by the
        // in-flight window, never the stream length.
        assert!(
            report.fresh_buffers <= 2 + 2,
            "fresh {} exceeds capacity + 2",
            report.fresh_buffers
        );
        assert!(report.reused_buffers >= report.frames - report.fresh_buffers);
    }

    #[test]
    fn synthetic_source_matches_its_materialized_oracle() {
        let schedule = DriftSchedule { start: 0.3, step: 0.1 };
        let source = SyntheticDriftSource::new(4, 5, 3, schedule, 77).unwrap();
        assert_eq!(source.frames_hint(), Some(4));
        let oracle = source.materialize().unwrap();
        assert_eq!(oracle.len(), 4);
        // materialize() must not advance the source.
        assert_eq!(source.frames_hint(), Some(4));
        let pipeline = IngestPipeline::spawn(Box::new(source), IngestConfig::default());
        for stage in &oracle {
            let frame = pipeline.next_frame().expect("stream ends early");
            assert_eq!(&frame.data, stage);
            pipeline.recycle(frame);
        }
        assert!(pipeline.next_frame().is_none());
        pipeline.finish().unwrap();
    }

    #[test]
    fn block_policy_stalls_the_producer_at_capacity() {
        let stream = Arc::new(stages(6, 41));
        let pipeline = IngestPipeline::spawn(
            Box::new(ReplaySource::new(stream)),
            IngestConfig { capacity: 2, policy: QueueFullPolicy::Block },
        );
        // A deliberately slow consumer: the producer may only ever be
        // capacity + 1 frames ahead of what we have popped.
        let mut popped = 0u64;
        while let Some(frame) = pipeline.next_frame() {
            std::thread::sleep(std::time::Duration::from_millis(5));
            popped += 1;
            assert!(
                frame.seq < popped + 2,
                "producer ran ahead: seq {} after {popped} pops",
                frame.seq
            );
            pipeline.recycle(frame);
        }
        let report = pipeline.finish().unwrap();
        assert_eq!(report.frames, 6);
        assert_eq!(report.dropped, 0);
        assert!(report.max_queue_depth <= 2);
    }

    #[test]
    fn drop_oldest_pipeline_drops_under_a_slow_consumer() {
        let stream = Arc::new(stages(12, 42));
        let pipeline = IngestPipeline::spawn(
            Box::new(ReplaySource::new(stream)),
            IngestConfig { capacity: 1, policy: QueueFullPolicy::DropOldest },
        );
        let mut consumed = 0u64;
        let mut last_seq = None::<u64>;
        while let Some(frame) = pipeline.next_frame() {
            // Order is preserved even when frames go missing.
            if let Some(prev) = last_seq {
                assert!(frame.seq > prev);
            }
            last_seq = Some(frame.seq);
            std::thread::sleep(std::time::Duration::from_millis(10));
            consumed += 1;
            pipeline.recycle(frame);
        }
        let report = pipeline.finish().unwrap();
        assert_eq!(report.frames, 12);
        assert_eq!(report.dropped + consumed, 12, "every frame is consumed or dropped");
        assert!(report.dropped > 0, "a 10 ms consumer against instant replay must drop");
        assert!(report.fresh_buffers <= 1 + 2);
    }

    #[test]
    fn early_finish_cancels_a_blocked_producer() {
        let stream = Arc::new(stages(8, 43));
        let pipeline = IngestPipeline::spawn(
            Box::new(ReplaySource::new(stream)),
            IngestConfig { capacity: 1, policy: QueueFullPolicy::Block },
        );
        let frame = pipeline.next_frame().unwrap();
        drop(frame);
        // Cancel mid-stream: the blocked producer must wake and exit.
        let report = pipeline.finish().unwrap();
        assert!(report.frames < 8);
    }

    #[test]
    fn dropping_the_pipeline_joins_the_producer() {
        let stream = Arc::new(stages(8, 44));
        let pipeline = IngestPipeline::spawn(
            Box::new(ReplaySource::new(stream)),
            IngestConfig { capacity: 1, policy: QueueFullPolicy::Block },
        );
        let _ = pipeline.next_frame();
        drop(pipeline); // must not hang
    }
}
