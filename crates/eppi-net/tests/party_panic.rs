//! A party that panics must not hang the run: its peers are woken, and
//! `run_parties` re-raises the panicking party's own payload. Each probe
//! runs on a detached thread with a 5 s bound, so a regression fails the
//! test instead of hanging the suite.

use eppi_net::threaded::{run_parties, TransportError};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const BOUND: Duration = Duration::from_secs(5);

/// Runs `probe` on its own thread and returns its panic message, failing
/// if it did not finish within [`BOUND`] or did not panic.
fn panic_within_bound(probe: impl FnOnce() + Send + 'static) -> String {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(probe));
        let _ = tx.send(outcome.err().map(message));
    });
    rx.recv_timeout(BOUND)
        .expect("the run did not return within 5 s")
        .expect("the run returned instead of re-raising the party's panic")
}

fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn a_panicking_party_wakes_a_peer_blocked_in_recv() {
    let msg = panic_within_bound(|| {
        run_parties::<u64, u64, _>(2, |mut h| {
            if h.me().index() == 0 {
                panic!("party 0 gives up");
            }
            // Party 1 holds a sender to its own channel, so only the
            // death notice can end this wait.
            h.recv().1
        });
    });
    assert_eq!(msg, "party 0 gives up");
}

#[test]
fn the_first_party_to_panic_is_re_raised_when_every_peer_fails_after_it() {
    // Party 2 dies; parties 0 and 1 block in `gather` and panic naming
    // it. The run re-raises party 2's own payload, not theirs.
    let msg = panic_within_bound(|| {
        run_parties::<u64, Vec<u64>, _>(3, |mut h| {
            if h.me().index() == 2 {
                panic!("malformed batch at party 2");
            }
            h.gather().into_iter().map(|(_, v)| v).collect()
        });
    });
    assert_eq!(msg, "malformed batch at party 2");
}

#[test]
fn bounded_receives_report_a_dead_peer_as_disconnected() {
    let msg = panic_within_bound(|| {
        run_parties::<u64, (), _>(3, |mut h| match h.me().index() {
            0 => panic!("party 0 gives up"),
            1 => {
                let err = h.recv_timeout(Duration::from_secs(30)).unwrap_err();
                assert_eq!(err, TransportError::Disconnected);
                // Every later receive fails at once too.
                let err = h.gather_timeout(Duration::from_secs(30)).unwrap_err();
                assert_eq!(err, TransportError::Disconnected);
            }
            _ => {
                let err = h.gather_timeout(Duration::from_secs(30)).unwrap_err();
                assert_eq!(err, TransportError::Disconnected);
            }
        });
    });
    assert_eq!(msg, "party 0 gives up");
}
