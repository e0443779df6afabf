//! Property tests for the workload generator.

use elog_sim::{cases, SimRng, SimTime};
use elog_workload::spec::EPSILON;
use elog_workload::{ArrivalProcess, OidPicker, TxMix, TxType, WorkloadDriver, WorkloadEvent};

fn draw_type(rng: &mut SimRng) -> TxType {
    TxType {
        probability: 1.0,
        duration: SimTime::from_millis(rng.range(10..20_000).max(2)),
        data_records: rng.range(1..10) as u32,
        record_size: rng.range(1..500) as u32,
    }
}

/// Data-record write offsets are strictly increasing and the last one
/// lands exactly ε before the transaction's duration (Figure 3).
#[test]
fn write_offsets_follow_figure3() {
    cases::run("write_offsets_follow_figure3", 64, |rng| {
        let ty = draw_type(rng);
        let mut prev = SimTime::ZERO;
        for seq in 1..=ty.data_records {
            let off = ty.data_write_offset(seq);
            assert!(off >= prev, "offsets must be non-decreasing");
            assert!(off <= ty.duration.saturating_sub(EPSILON));
            prev = off;
        }
        assert_eq!(
            ty.data_write_offset(ty.data_records),
            ty.duration.saturating_sub(EPSILON)
        );
    });
}

/// Sampling frequencies converge to the configured pdf for arbitrary
/// two-way splits.
#[test]
fn sampling_matches_pdf() {
    cases::run("sampling_matches_pdf", 64, |rng| {
        let p = 0.05 + rng.next_f64() * 0.9;
        let mix = TxMix::new(vec![
            TxType {
                probability: 1.0 - p,
                duration: SimTime::from_secs(1),
                data_records: 1,
                record_size: 10,
            },
            TxType {
                probability: p,
                duration: SimTime::from_secs(2),
                data_records: 1,
                record_size: 10,
            },
        ])
        .unwrap();
        let n = 20_000;
        let hits = (0..n).filter(|_| mix.sample(rng) == 1).count();
        let observed = hits as f64 / n as f64;
        assert!((observed - p).abs() < 0.03, "p {p} observed {observed}");
    });
}

/// The picker never hands out a held oid, and held-count bookkeeping
/// matches a reference set under arbitrary pick/release interleavings.
#[test]
fn picker_matches_reference_model() {
    cases::run("picker_matches_reference_model", 64, |rng| {
        let mut p = OidPicker::new(5_000);
        let mut held: Vec<elog_model::Oid> = Vec::new();
        for _ in 0..rng.range(1..300) {
            if rng.next_f64() < 0.5 || held.is_empty() {
                let oid = p.pick(rng);
                assert!(!held.contains(&oid), "duplicate pick {oid}");
                held.push(oid);
            } else {
                let oid = held.remove(held.len() / 2);
                assert!(p.release(oid));
            }
            assert_eq!(p.held(), held.len());
        }
    });
}

/// Driver conservation: after any run, started = active + committed +
/// killed, and every commit releases exactly its own oids. Retiring the
/// survivors in a random order — acks and kills mixed — then leaves
/// nothing held, nothing released twice and an empty window.
#[test]
fn driver_conserves_transactions() {
    cases::run("driver_conserves_transactions", 64, |rng| {
        let bursts = rng.range(1..60);
        let frac = rng.next_f64();
        let mut d = WorkloadDriver::new(
            TxMix::paper_mix(frac),
            ArrivalProcess::Deterministic { rate_tps: 100.0 },
            10_000_000,
            SimTime::from_secs(3_600),
            rng,
        );
        let mut t = SimTime::ZERO;
        let mut live: Vec<elog_model::Tid> = Vec::new();
        let mut events = Vec::new();
        for i in 0..bursts {
            let new = d.on_arrival(t, &mut events).expect("before horizon");
            // Write the data records the plan scheduled.
            let writes = events
                .iter()
                .filter(|(_, e)| matches!(e, WorkloadEvent::WriteData { .. }))
                .count();
            for s in 0..writes {
                d.on_write_data(
                    t + SimTime::from_millis(s as u64 + 1),
                    new.tid,
                    s as u32 + 1,
                );
            }
            live.push(new.tid);
            // Finish every third transaction immediately, kill every
            // seventh.
            if i % 3 == 0 {
                d.on_write_commit(t + SimTime::from_millis(50), new.tid);
                let ups = d.on_commit_ack(t + SimTime::from_millis(60), new.tid);
                assert_eq!(ups.len(), writes);
                live.pop();
            } else if i % 7 == 0 {
                d.on_kill(new.tid);
                live.pop();
            }
            t += SimTime::from_millis(100);
        }
        let s = d.stats();
        assert_eq!(s.started, bursts);
        assert_eq!(s.started, s.committed + s.killed + d.active_txns() as u64);
        // Held oids are exactly the live transactions' updates.
        let mut expected_held = 0;
        for tid in &live {
            for oid in d.oids_of(*tid).expect("live") {
                assert!(d.picker().is_held(oid), "{oid} of {tid} not held");
                expected_held += 1;
            }
        }
        assert_eq!(d.picker().held(), expected_held);

        while !live.is_empty() {
            let tid = live.swap_remove(rng.range(0..live.len() as u64) as usize);
            if rng.next_f64() < 0.5 {
                d.on_write_commit(t, tid);
                d.on_commit_ack(t + SimTime::from_millis(10), tid);
            } else {
                d.on_kill(tid);
            }
        }
        assert_eq!(d.active_txns(), 0);
        assert_eq!(d.picker().held(), 0);
        assert_eq!(d.picker().double_releases(), 0);
        assert_eq!(d.window_len(), (0, 0));
    });
}
