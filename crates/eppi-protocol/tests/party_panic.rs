//! A pipelined party whose lane worker panics must not leave the other
//! parties' routers waiting out their 30 s receive timeout: the run
//! re-raises the worker's panic within 5 s.

use eppi_mpc::builder::{to_bits, CircuitBuilder};
use eppi_mpc::circuit::InputLayout;
use eppi_protocol::{execute_pipelined, LaneSpec};
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
fn a_panicking_lane_worker_ends_the_pipelined_run_promptly() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut cb = CircuitBuilder::new();
        let (a, b, c) = (cb.input_word(4), cb.input_word(4), cb.input_word(4));
        let sum = cb.add_words_expand(&a, &b);
        let c_wide = cb.resize_word(&c, 5);
        let lt = cb.lt_words(&sum, &c_wide);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![4, 4, 4]);
        let good = vec![to_bits(3, 4), to_bits(5, 4), to_bits(9, 4)];
        // Party 1 supplies one bit too few on lane 1: only its worker
        // notices, after the other parties have started every lane.
        let bad = vec![to_bits(3, 4), to_bits(5, 3), to_bits(9, 4)];
        let lanes: Vec<LaneSpec<'_>> = [&good, &bad, &good]
            .into_iter()
            .enumerate()
            .map(|(i, inputs)| LaneSpec {
                circuit: &circuit,
                layout: &layout,
                inputs,
                seed: 70 + i as u64,
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| execute_pipelined(&lanes, 2)));
        let _ = tx.send(outcome.err().map(message));
    });
    let msg = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the pipelined run did not return within 5 s")
        .expect("the pipelined run returned instead of re-raising the worker's panic");
    assert!(msg.contains("party 1 supplied wrong input count"), "{msg}");
}
