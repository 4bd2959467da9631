//! End-to-end: real STM threads publish through the tap while a
//! monitor thread checks the stream live.

use jungle_core::ids::ProcId;
use jungle_mc::SharedVerdictMemo;
use jungle_monitor::{Monitor, MonitorConfig};
use jungle_obs::Backpressure;
use jungle_stm::{atomically, Ctx, GlobalLockStm, StmTap, StrongStm, TmAlgo};
use std::sync::Arc;

/// `threads` workers each run `txns` read-modify-write transactions on
/// their own variable — disjoint footprints, so every window is opaque
/// and cross-window reads are justified by the tracked seeds alone.
fn drive<A: TmAlgo + Send + Sync + 'static>(tm: Arc<A>, tap: Arc<StmTap>, threads: u32, txns: u64) {
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let tm = tm.clone();
            let tap = tap.clone();
            std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(t), None).with_tap(tap);
                for _ in 0..txns {
                    atomically(&*tm, &mut cx, |tx| {
                        let v = tx.read(t as usize)?;
                        tx.write(t as usize, v + 1)
                    });
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn live_stream_is_clean_under_block_policy() {
    let tap = Arc::new(StmTap::new(1 << 12, Backpressure::Block));
    let tm = Arc::new(GlobalLockStm::new(8));
    let memo = Arc::new(SharedVerdictMemo::new());
    let mut mon = Monitor::new(MonitorConfig::new().window(16)).with_memo(memo);

    let consumer = {
        let tap = tap.clone();
        std::thread::spawn(move || mon.run(&tap))
    };
    drive(tm, tap.clone(), 4, 200);
    tap.close();
    let stats = consumer.join().unwrap();

    // Block policy: nothing lost, every published event ingested.
    assert_eq!(stats.events_dropped, 0);
    assert_eq!(stats.ops_ingested, tap.published());
    // 800 committed txns at window 16 → at least 50 windows.
    assert!(
        stats.windows_sealed >= 50,
        "sealed {}",
        stats.windows_sealed
    );
    assert_eq!(stats.violations, 0, "disjoint workload must be clean");
    assert!(
        stats.triage_cleared >= stats.windows_sealed / 2,
        "triage must clear most disjoint-footprint windows: {stats:?}"
    );
}

#[test]
fn strong_stm_stream_is_clean_too() {
    let tap = Arc::new(StmTap::new(1 << 12, Backpressure::Block));
    let tm = Arc::new(StrongStm::new(8));
    let mut mon = Monitor::new(MonitorConfig::new().window(8));
    let consumer = {
        let tap = tap.clone();
        std::thread::spawn(move || mon.run(&tap))
    };
    drive(tm, tap.clone(), 4, 100);
    tap.close();
    let stats = consumer.join().unwrap();
    assert_eq!(stats.events_dropped, 0);
    assert_eq!(stats.violations, 0);
    assert!(stats.windows_sealed >= 1);
    assert_eq!(stats.ops_ingested, tap.published());
}

#[test]
fn drop_policy_accounts_exactly_even_when_saturated() {
    // Tiny ring, no consumer while producing: most events drop, but
    // the ledger must balance to the last event.
    let tap = Arc::new(StmTap::new(8, Backpressure::Drop));
    let tm = Arc::new(GlobalLockStm::new(4));
    drive(tm, tap.clone(), 2, 50);
    tap.close();
    let mut mon = Monitor::new(MonitorConfig::new().window(4));
    let stats = mon.run(&tap);
    assert!(stats.events_dropped > 0, "ring of 8 must saturate");
    assert_eq!(stats.ops_ingested, tap.published());
    assert_eq!(stats.events_dropped, tap.dropped());
    // Exactness: every publish attempt is either ingested or counted
    // dropped — never silently lost.
    assert_eq!(
        stats.ops_ingested + stats.events_dropped,
        tap.published() + tap.dropped()
    );
}

#[test]
fn live_mixed_traffic_counts_every_nontransactional_event() {
    let tap = Arc::new(StmTap::new(1 << 10, Backpressure::Block));
    let tm = Arc::new(GlobalLockStm::new(4));
    let mut mon = Monitor::new(MonitorConfig::new().window(8));
    let consumer = {
        let tap = tap.clone();
        std::thread::spawn(move || mon.run(&tap))
    };
    let (threads, txns) = (2u32, 100u64);
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let (tm, tap) = (tm.clone(), tap.clone());
            std::thread::spawn(move || {
                let mut cx = Ctx::new(ProcId(t), Some(tap));
                let var = t as usize;
                for _ in 0..txns {
                    atomically(&*tm, &mut cx, |tx| {
                        let v = tx.read(var)?;
                        tx.write(var, v + 1)
                    });
                    tm.nt_read(&mut cx, var);
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    tap.close();
    let stats = consumer.join().unwrap();
    // Two events per non-transactional read, none of them judged. (A
    // non-transactional *write* would make the transactional
    // sub-history read values it never saw written.)
    assert_eq!(stats.nontxn_skipped, 2 * u64::from(threads) * txns);
    assert_eq!(stats.ops_ingested, tap.published());
    assert_eq!((stats.events_dropped, stats.violations), (0, 0));
    assert!(stats.windows_sealed >= 25, "{stats:?}");
}
