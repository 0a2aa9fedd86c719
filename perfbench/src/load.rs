//! Load generation from one process: an open loop that sends on a fixed
//! schedule and times each request from when it was due, and a closed
//! loop in which each client sends its next request when the previous
//! reply arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::http::Client;
use crate::oracle::{verify, Request};
use crate::stats;
use crate::trace::Tracer;

/// Requests per chunk for [`Phase::chunk_quantile_us`]: enough for 10
/// samples beyond a chunk's p95.
pub const CHUNK: usize = 200;

/// How far ahead of a due time the open loop stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(100);

#[derive(Clone, Copy)]
pub enum Schedule {
    /// Request `i` is due at `i / rate` seconds after the start.
    Open { rate: f64 },
    /// Clients send back to back.
    Closed,
}

/// What one load phase observed.
#[derive(Default)]
pub struct Phase {
    /// Latency of each successful request (µs), one list per [`run`]
    /// merged into this phase. Open loop: from its due time; closed loop:
    /// from its send.
    pub slices: Vec<Vec<f64>>,
    /// Pages per second of each [`run`] (segment) merged into this phase.
    pub slice_pages_per_s: Vec<f64>,
    /// Open loop only: how late each request was sent (µs).
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Pages in successful requests.
    pub pages: u64,
    pub connects: u64,
    pub wall_s: f64,
    pub first_failure: Option<String>,
}

impl Phase {
    pub fn pages_per_s(&self) -> f64 {
        self.pages as f64 / self.wall_s
    }

    /// The quiet quartile (the third) of the segments' pages per second.
    pub fn segment_pages_per_s(&self) -> f64 {
        stats::quiet_quartile(&self.slice_pages_per_s, false)
    }

    /// Every latency of the phase (µs).
    pub fn latency_us(&self) -> Vec<f64> {
        self.slices.concat()
    }

    /// The quiet quartile (the first; the median of fewer than
    /// [`stats::QUIET_MIN`] chunks), over chunks of about [`CHUNK`]
    /// consecutive requests of each slice, of each chunk's nearest-rank `q`
    /// latency (µs). A stall of the shared machine then moves the figure
    /// only if it spreads over three quarters of the chunks; it would move
    /// a pooled quantile at once.
    pub fn chunk_quantile_us(&self, q: f64) -> Option<f64> {
        let per_chunk: Vec<f64> = self
            .slices
            .iter()
            .filter(|l| !l.is_empty())
            .flat_map(|l| {
                let n = (l.len() / CHUNK).max(1);
                (0..n).map(move |c| &l[c * l.len() / n..(c + 1) * l.len() / n])
            })
            .map(|chunk| stats::quantile(&stats::sorted(chunk.to_vec()), q))
            .collect();
        (!per_chunk.is_empty()).then(|| stats::quiet_quartile(&per_chunk, true))
    }

    /// Adds a later phase (or one client's share of this one).
    pub fn merge(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.slices.extend(other.slices);
        self.slice_pages_per_s.extend(other.slice_pages_per_s);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.pages += other.pages;
        self.connects += other.connects;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Sends `requests` (cycled) to `addr` from `clients` threads for
/// `duration`, checking every reply against the oracle. Requests still
/// in flight at the deadline complete and count.
pub fn run(
    addr: SocketAddr,
    requests: &[Request],
    schedule: Schedule,
    duration: Duration,
    clients: usize,
    tracer: &mut Tracer,
) -> Phase {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + duration;
    let forks: Vec<Tracer> = (0..clients).map(|_| tracer.fork()).collect();
    let parts: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .map(|mut tr| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut phase = Phase::default();
                    let mut latencies = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let start = match schedule {
                            Schedule::Open { rate } => {
                                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                                if due >= deadline {
                                    break;
                                }
                                // Sleep short of the due time, then spin: a
                                // plain sleep oversleeps by tens of µs.
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    if wait > SPIN {
                                        std::thread::sleep(wait - SPIN);
                                    }
                                }
                                while Instant::now() < due {
                                    std::hint::spin_loop();
                                }
                                phase.late_us.push(due.elapsed().as_secs_f64() * 1e6);
                                due
                            }
                            Schedule::Closed => {
                                let now = Instant::now();
                                if now >= deadline {
                                    break;
                                }
                                now
                            }
                        };
                        let request = &requests[i % requests.len()];
                        let span = tr.begin("client.request", None, Some(i as u64));
                        let reply = client.send("POST", "/extract", &request.body, &mut tr, span);
                        tr.end(span);
                        let latency_us = start.elapsed().as_secs_f64() * 1e6;
                        phase.attempted += 1;
                        let checked = reply.and_then(|r| {
                            tr.set_server_request(span, r.request_id);
                            verify(r.status, &r.body, &request.expected)
                        });
                        match checked {
                            Ok(()) => {
                                latencies.push(latency_us);
                                phase.pages += request.pages as u64;
                            }
                            Err(e) => {
                                phase.failed += 1;
                                phase.first_failure.get_or_insert(e);
                            }
                        }
                    }
                    phase.connects = client.connects;
                    phase.slices = vec![latencies];
                    (phase, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let mut total = Phase {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (phase, tr) in parts {
        total.merge(phase);
        tracer.absorb(tr);
    }
    total.slices = vec![total.slices.concat()];
    total.slice_pages_per_s = vec![total.pages_per_s()];
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_over_half_the_chunks_does_not_move_the_chunked_quantile() {
        // 20 chunks of 200 requests, 11 of them stalled, and 1 short slice.
        let mut stalled = vec![1.0; 20 * CHUNK];
        stalled[2 * CHUNK..13 * CHUNK].fill(50.0);
        let phase = Phase {
            slices: vec![stalled, vec![2.0; 100]],
            ..Phase::default()
        };
        assert_eq!(phase.chunk_quantile_us(0.95), Some(1.0));
        let pooled = stats::sorted(phase.latency_us());
        assert_eq!(stats::quantile(&pooled, 0.95), 50.0);
        assert_eq!(Phase::default().chunk_quantile_us(0.5), None);
    }
}
