//! Load generators: an open loop that sends on a Poisson schedule and a
//! closed loop of waiting clients. Both run at most one request per client
//! thread at a time, and every client owns its own connection state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the load generator saw it.
pub struct Sample<R> {
    /// Request index; the workload derives the request from it.
    pub index: u64,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: R,
}

impl<R> Sample<R> {
    /// Latency from the due time: a stalled generator delays later
    /// requests, and that wait counts.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> Duration {
        self.sent - self.due
    }
}

/// Arrival offsets of a Poisson process at `rate` per second lasting
/// `seconds`, drawn from `seed`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let n = (rate * seconds).round().max(1.0) as u64;
    let mut at = 0.0;
    (0..n)
        .map(|k| {
            // 1 - u lies in (0, 1], so the log is finite.
            let u = 1.0 - crate::stats::unit(crate::stats::mix_all(&[seed, 0x0A22_17A1, k]));
            at += -u.ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Send request `first_index + k` at `start + offsets[k]` from `clients`
/// (one per thread). A request whose client is still busy when it falls
/// due goes out as soon as one frees up, late, and its latency still runs
/// from the due time.
pub fn open_loop<C: Send, R: Send>(
    clients: Vec<C>,
    offsets: &[Duration],
    first_index: u64,
    call: impl Fn(&mut C, u64) -> R + Sync,
) -> Vec<Sample<R>> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(offsets.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, out, call) = (&next, &out, &call);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(offset) = offsets.get(k) else { break };
                    let due = start + *offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let index = first_index + k as u64;
                    let sent = Instant::now();
                    let reply = call(&mut client, index);
                    let done = Instant::now();
                    mine.push(Sample {
                        index,
                        due,
                        sent,
                        done,
                        reply,
                    });
                }
                out.lock().expect("no sampler panicked").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("no sampler panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Each client sends its next request when the previous one returns, until
/// `duration` has passed. Returns the samples and the wall time from the
/// start to the last reply.
pub fn closed_loop<C: Send, R: Send>(
    clients: Vec<C>,
    duration: Duration,
    first_index: u64,
    call: impl Fn(&mut C, u64) -> R + Sync,
) -> (Vec<Sample<R>>, Duration) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop = start + duration;
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, out, call) = (&next, &out, &call);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while Instant::now() < stop {
                    let index = first_index + next.fetch_add(1, Ordering::Relaxed) as u64;
                    let sent = Instant::now();
                    let reply = call(&mut client, index);
                    mine.push(Sample {
                        index,
                        due: sent,
                        sent,
                        done: Instant::now(),
                        reply,
                    });
                }
                out.lock().expect("no sampler panicked").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("no sampler panicked");
    samples.sort_by_key(|s| s.index);
    let wall = samples
        .iter()
        .map(|s| s.done)
        .max()
        .map_or(duration, |last| last - start);
    (samples, wall)
}
