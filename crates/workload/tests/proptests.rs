//! Property tests for the workload generator.

use elog_sim::{SimRng, SimTime};
use elog_workload::spec::EPSILON;
use elog_workload::{ArrivalProcess, OidPicker, TxMix, TxType, WorkloadDriver, WorkloadEvent};
use proptest::prelude::*;

fn arb_type(prob: f64) -> impl Strategy<Value = TxType> {
    (10u64..20_000, 1u32..10, 1u32..500).prop_map(move |(dur_ms, records, size)| TxType {
        probability: prob,
        duration: SimTime::from_millis(dur_ms.max(2)),
        data_records: records,
        record_size: size,
    })
}

proptest! {
    /// Data-record write offsets are strictly increasing and the last one
    /// lands exactly ε before the transaction's duration (Figure 3).
    #[test]
    fn write_offsets_follow_figure3(ty in arb_type(1.0)) {
        let mut prev = SimTime::ZERO;
        for seq in 1..=ty.data_records {
            let off = ty.data_write_offset(seq);
            prop_assert!(off >= prev, "offsets must be non-decreasing");
            prop_assert!(off <= ty.duration.saturating_sub(EPSILON));
            prev = off;
        }
        prop_assert_eq!(
            ty.data_write_offset(ty.data_records),
            ty.duration.saturating_sub(EPSILON)
        );
    }

    /// Sampling frequencies converge to the configured pdf for arbitrary
    /// two-way splits.
    #[test]
    fn sampling_matches_pdf(p in 0.05f64..0.95, seed in 1u64..) {
        let mix = TxMix::new(vec![
            TxType { probability: 1.0 - p, duration: SimTime::from_secs(1), data_records: 1, record_size: 10 },
            TxType { probability: p, duration: SimTime::from_secs(2), data_records: 1, record_size: 10 },
        ]).unwrap();
        let mut rng = SimRng::new(seed);
        let n = 20_000;
        let hits = (0..n).filter(|_| mix.sample(&mut rng) == 1).count();
        let observed = hits as f64 / n as f64;
        prop_assert!((observed - p).abs() < 0.03, "p {p} observed {observed}");
    }

    /// The picker never hands out a held oid, and held-count bookkeeping
    /// matches a reference set under arbitrary pick/release interleavings.
    #[test]
    fn picker_matches_reference_model(ops in proptest::collection::vec(any::<bool>(), 1..300), seed in 1u64..) {
        let mut p = OidPicker::new(5_000);
        let mut rng = SimRng::new(seed);
        let mut held: Vec<elog_model::Oid> = Vec::new();
        for pick in ops {
            if pick || held.is_empty() {
                let oid = p.pick(&mut rng);
                prop_assert!(!held.contains(&oid), "duplicate pick {oid}");
                held.push(oid);
            } else {
                let oid = held.remove(held.len() / 2);
                prop_assert!(p.release(oid));
            }
            prop_assert_eq!(p.held(), held.len());
        }
    }

    /// Driver conservation: after any run, started = active + committed +
    /// killed, and every commit releases exactly its own oids.
    #[test]
    fn driver_conserves_transactions(bursts in 1u64..60, seed in 1u64.., frac in 0.0f64..1.0) {
        let mut d = WorkloadDriver::new(
            TxMix::paper_mix(frac),
            ArrivalProcess::Deterministic { rate_tps: 100.0 },
            10_000_000,
            SimTime::from_secs(3_600),
            &SimRng::new(seed),
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
                d.on_write_data(t + SimTime::from_millis(s as u64 + 1), new.tid, s as u32 + 1);
            }
            live.push(new.tid);
            // Finish every third transaction immediately, kill every
            // seventh.
            if i % 3 == 0 {
                d.on_write_commit(t + SimTime::from_millis(50), new.tid);
                let ups = d.on_commit_ack(t + SimTime::from_millis(60), new.tid);
                prop_assert_eq!(ups.len(), writes);
                live.pop();
            } else if i % 7 == 0 {
                d.on_kill(new.tid);
                live.pop();
            }
            t += SimTime::from_millis(100);
        }
        let s = d.stats();
        prop_assert_eq!(s.started, bursts);
        prop_assert_eq!(
            s.started,
            s.committed + s.killed + d.active_txns() as u64
        );
        // Held oids are exactly the live transactions' updates.
        let expected_held: usize = live
            .iter()
            .map(|tid| d.updates_of(*tid).map_or(0, <[_]>::len))
            .sum();
        prop_assert_eq!(d.picker().unwrap().held(), expected_held);
    }
}
