//! A threaded GMW party that panics must not leave the other parties
//! waiting on its messages: the run re-raises its panic within 5 s.

use eppi_mpc::builder::{to_bits, CircuitBuilder};
use eppi_mpc::circuit::InputLayout;
use eppi_protocol::execute_threaded;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn a_party_with_a_bad_input_ends_the_threaded_run_promptly() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut cb = CircuitBuilder::new();
        let (a, b, c) = (cb.input_word(4), cb.input_word(4), cb.input_word(4));
        let sum = cb.add_words_expand(&a, &b);
        let c_wide = cb.resize_word(&c, 5);
        let lt = cb.lt_words(&sum, &c_wide);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![4, 4, 4]);
        // Party 1 supplies one bit too few: only its own thread
        // notices, while parties 0 and 2 wait for its input shares.
        let inputs = vec![to_bits(3, 4), to_bits(5, 3), to_bits(9, 4)];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_threaded(&circuit, &layout, &inputs, 70)
        }));
        let _ = tx.send(outcome.err().map(message));
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the threaded run did not return within 5 s")
        .expect("the threaded run returned instead of re-raising the party's panic");
    assert!(msg.contains("party 1 supplied wrong input count"), "{msg}");
}
