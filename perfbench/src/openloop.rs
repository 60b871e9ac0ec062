//! An open-loop load generator.
//!
//! One generator thread submits request `i` when it falls due,
//! whatever happened to earlier requests; a second thread collects the
//! answers. Latency runs from the due time, not the send time, so a
//! stall in the system (or in the generator) is charged to every
//! request that fell due during it. How late the generator ran is
//! recorded per request.

use parlap_primitives::StreamRng;
use std::future::Future;
use std::pin::Pin;
use std::sync::mpsc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// One request's timeline, in seconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Record<T> {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub output: T,
}

impl<T> Record<T> {
    /// Latency from the due time.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request.
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
}

/// `count` Poisson arrivals at `rate` per second, conditioned on all
/// `count` landing in `[0, count / rate)`: sorted uniform draws on that
/// interval. Conditioning fixes the offered load of a run exactly; the
/// burstiness within it is still Poisson.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<f64> {
    let mut rng = StreamRng::new(seed, 0x6172_7269);
    let span = count as f64 / rate;
    let mut t: Vec<f64> = (0..count).map(|_| rng.next_f64() * span).collect();
    t.sort_by(f64::total_cmp);
    t
}

struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Run the open loop: `submit(i)` is called on the generator thread at
/// `schedule[i]` seconds after the start and returns a future for the
/// answer, which the collector thread polls. Returns one record per
/// request, in request order, once every answer is in.
pub fn run<T, F, S>(schedule: &[f64], mut submit: S) -> Vec<Record<T>>
where
    S: FnMut(usize) -> F + Send,
    F: Future<Output = T> + Unpin + Send,
    T: Send,
{
    let n = schedule.len();
    // A short lead lets both threads start before the first due time.
    let origin = Instant::now() + Duration::from_millis(5);
    let since = move |at: Instant| at.saturating_duration_since(origin).as_secs_f64();
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, f64, F)>();
        let collector = scope.spawn(move || {
            let waker = Waker::from(Arc::new(Unpark(thread::current())));
            let mut cx = Context::from_waker(&waker);
            let mut pending: Vec<(usize, f64, F)> = Vec::new();
            let mut out: Vec<Option<Record<T>>> = (0..n).map(|_| None).collect();
            let mut remaining = n;
            while remaining > 0 {
                while let Ok(item) = rx.try_recv() {
                    pending.push(item);
                }
                let mut k = 0;
                while k < pending.len() {
                    if let Poll::Ready(output) = Pin::new(&mut pending[k].2).poll(&mut cx) {
                        let done = since(Instant::now());
                        let (i, sent, _) = pending.swap_remove(k);
                        out[i] = Some(Record { due: schedule[i], sent, done, output });
                        remaining -= 1;
                    } else {
                        k += 1;
                    }
                }
                if remaining > 0 {
                    // Woken by a ready answer or a new request; the
                    // timeout only bounds a missed wake-up.
                    thread::park_timeout(Duration::from_millis(20));
                }
            }
            out.into_iter().map(|r| r.expect("every request is collected")).collect::<Vec<_>>()
        });
        let collector_thread = collector.thread().clone();
        let generator = scope.spawn(move || {
            for (i, &due) in schedule.iter().enumerate() {
                let at = origin + Duration::from_secs_f64(due);
                let now = Instant::now();
                if at > now {
                    thread::sleep(at - now);
                }
                let sent = since(Instant::now());
                let future = submit(i);
                tx.send((i, sent, future)).expect("collector outlives the generator");
                collector_thread.unpark();
            }
        });
        generator.join().expect("generator thread panicked");
        collector.join().expect("collector thread panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail;

    #[test]
    fn poisson_schedule_is_seeded_and_increasing() {
        let a = poisson_schedule(100.0, 1000, 3);
        assert_eq!(a, poisson_schedule(100.0, 1000, 3));
        assert_ne!(a, poisson_schedule(100.0, 1000, 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // All 1000 arrivals land in the first 10 s, spread across it.
        assert!(a[0] >= 0.0 && a[999] < 10.0 && a[999] > 9.9, "{}", a[999]);
        assert!((a[499] - 5.0).abs() < 0.5, "{}", a[499]);
    }

    /// A fake service that answers at once, except that submitting
    /// request 10 stalls for 100 ms. Requests due during the stall are
    /// sent late, and their latency — timed from the due time —
    /// carries the stall, as does the generator's lag.
    #[test]
    fn a_stall_is_charged_to_later_requests_and_to_the_lag() {
        let schedule: Vec<f64> = (0..200).map(|i| i as f64 * 0.001).collect();
        let stall = Duration::from_millis(100);
        let records = run(&schedule, |i| {
            if i == 10 {
                thread::sleep(stall);
            }
            std::future::ready(i)
        });
        assert_eq!(records.len(), 200);
        assert!(records.iter().enumerate().all(|(i, r)| r.output == i));
        // Request 10 itself: latency at least the stall.
        assert!(records[10].latency() >= 0.1);
        // Request 11 fell due 1 ms into the stall: ≥ 99 ms late.
        assert!(records[11].lag() >= 0.099, "lag {}", records[11].lag());
        assert!(records[11].latency() >= 0.099);
        // Request 60 fell due halfway through: ≥ 50 ms.
        assert!(records[60].latency() >= 0.05);
        // Every latency covers the lag.
        assert!(records.iter().all(|r| r.latency() >= r.lag() && r.lag() >= 0.0));
        // The lag tail shows the stall (p95 of 200: 10 samples beyond).
        let lags: Vec<f64> = records.iter().map(Record::lag).collect();
        let t = tail(&lags);
        assert_eq!(t.percentile, 95.0);
        assert!(t.value >= 0.08, "lag tail {t:?}");
    }

    /// Answers that complete out of order are timed when they complete,
    /// not when an earlier, slower answer does.
    #[test]
    fn answers_are_timed_when_ready() {
        let schedule = vec![0.0, 0.001];
        let (tx, rx) = mpsc::channel::<()>();
        let mut rx = Some(rx);
        let records = run(&schedule, move |i| -> Pin<Box<dyn Future<Output = usize> + Send>> {
            if i == 0 {
                // Completes only after request 1 has been answered.
                let rx = rx.take().expect("request 0 is submitted once");
                Box::pin(Blocked { rx, released: false, then: Instant::now() })
            } else {
                tx.send(()).expect("request 0 is waiting");
                Box::pin(std::future::ready(1))
            }
        });
        assert!(records[0].done - records[1].done >= 0.01, "{records:?}");
    }

    struct Blocked {
        rx: mpsc::Receiver<()>,
        released: bool,
        then: Instant,
    }

    impl Future for Blocked {
        type Output = usize;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
            if !self.released {
                self.released = self.rx.try_recv().is_ok();
            }
            if self.released && self.then.elapsed() >= Duration::from_millis(20) {
                return Poll::Ready(0);
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}
