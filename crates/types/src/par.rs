//! Index-ordered parallel map over a work-stealing batch counter — the
//! one worker pool behind `Engine::diagnose_all_parallel`,
//! `discovery::screen_parallel` and the simulator's background shards.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Work-stealing batch size for `len` items over the workers
/// [`map_indexed`] will really run (`threads`, at least one, at most one
/// per item): small enough that every worker can claim work (≈4 batches
/// per worker when the load allows), large enough to amortize the atomic
/// claim on big runs.
pub fn batch_size(len: usize, threads: usize) -> usize {
    let workers = threads.clamp(1, len.max(1));
    (len / (4 * workers)).clamp(1, 32)
}

/// `(0..len).map(f).collect()`, fanned out over up to `threads` workers.
///
/// Per-index cost is usually skewed (a symptom on a busy router, a dense
/// candidate series, a large shard), so static chunking leaves workers
/// idle behind the unlucky chunk. Each worker instead claims the next
/// `batch` indexes from an atomic counter until the range drains, tags
/// results with their index, and the merge re-sorts: the output is what
/// the sequential map returns, in the same order, at any worker count.
/// Runs inline, spawning nothing, when `threads <= 1` or `len <= 1`.
pub fn map_indexed<T: Send>(
    len: usize,
    threads: usize,
    batch: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let batch = batch.max(1);
    // Relaxed: the counter only hands out indexes; results reach the
    // caller through `join`.
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let start = next.fetch_add(batch, Ordering::Relaxed);
                        if start >= len {
                            return local;
                        }
                        for i in start..(start + batch).min(len) {
                            local.push((i, f(i)));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("map_indexed worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_visits_each_index_once_in_order() {
        for len in [0usize, 1, 2, 7, 64, 257] {
            for threads in [0usize, 1, 2, 5] {
                for batch in [0usize, 1, 3, 32] {
                    let calls = AtomicUsize::new(0);
                    let out = map_indexed(len, threads, batch, |i| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        i * i
                    });
                    let want: Vec<usize> = (0..len).map(|i| i * i).collect();
                    assert_eq!(out, want, "len={len} threads={threads} batch={batch}");
                    assert_eq!(calls.load(Ordering::Relaxed), len);
                }
            }
        }
    }
}
