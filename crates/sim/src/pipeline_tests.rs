//! Pipeline behaviour tests driven by hand-built traces.

use crate::config::SimConfig;
use crate::pipeline::Simulator;
use samie_lsq::{ConventionalLsq, LoadStoreQueue, SamieConfig, SamieLsq};
use trace_isa::{MicroOp, VecTrace};

fn alu_trace() -> VecTrace {
    VecTrace::named(vec![MicroOp::alu(0x1000, [0, 0])], "alu")
}

#[test]
fn independent_alus_reach_high_ipc() {
    let mut sim = Simulator::paper(ConventionalLsq::unbounded(), alu_trace());
    let stats = sim.run(50_000);
    // 8-wide machine, 6 int ALUs, no dependencies: ALU-bound at ~6 IPC.
    assert!(stats.ipc() > 5.0, "ipc = {}", stats.ipc());
    assert!(stats.ipc() <= 6.01, "ipc = {}", stats.ipc());
}

#[test]
fn serial_dependency_chain_limits_ipc_to_one() {
    let trace = VecTrace::named(vec![MicroOp::alu(0x1000, [1, 0])], "chain");
    let mut sim = Simulator::paper(ConventionalLsq::unbounded(), trace);
    let stats = sim.run(10_000);
    assert!(stats.ipc() < 1.05, "ipc = {}", stats.ipc());
    assert!(stats.ipc() > 0.8, "ipc = {}", stats.ipc());
}

#[test]
fn nonpipelined_divides_throttle_throughput() {
    let trace = VecTrace::named(
        vec![MicroOp::compute(0x1000, trace_isa::OpClass::IntDiv, [0, 0])],
        "div",
    );
    let mut sim = Simulator::paper(ConventionalLsq::unbounded(), trace);
    let stats = sim.run(2_000);
    // 3 dividers, 20-cycle non-pipelined: at most 3/20 = 0.15 IPC.
    assert!(stats.ipc() < 0.16, "ipc = {}", stats.ipc());
}

#[test]
fn loads_hit_the_cache_and_commit() {
    // Loads sweeping a 1 KB array: warm after the first pass.
    let ops: Vec<MicroOp> = (0..128)
        .map(|i| MicroOp::load(0x1000 + i * 4, 0x8000 + i * 8, 8, [0, 0]))
        .collect();
    let mut sim = Simulator::paper(ConventionalLsq::unbounded(), VecTrace::named(ops, "loads"));
    let stats = sim.run(20_000);
    assert_eq!(stats.loads + stats.stores + stats.branches, stats.loads);
    assert!(stats.l1d.accesses() > 0);
    assert!(
        stats.l1d.miss_ratio() < 0.1,
        "miss ratio {}",
        stats.l1d.miss_ratio()
    );
    // 4 ports bound load throughput.
    assert!(stats.ipc() <= 4.05, "ipc = {}", stats.ipc());
}

#[test]
fn store_load_forwarding_skips_the_cache() {
    // store A; load A — every load forwards.
    let ops = vec![
        MicroOp::store(0x1000, 0x9000, 8, [0, 0]),
        MicroOp::load(0x1004, 0x9000, 8, [0, 0]),
    ];
    let mut sim = Simulator::paper(ConventionalLsq::paper(), VecTrace::named(ops, "fwd"));
    let stats = sim.run(10_000);
    assert!(
        stats.forwarded_loads * 10 > stats.loads * 9,
        "forwards {} of {} loads",
        stats.forwarded_loads,
        stats.loads
    );
    // Forwarded loads never touch the D-cache; only store commits do.
    assert!(stats.l1d.read_accesses < stats.loads / 5);
}

#[test]
fn well_predicted_loop_fetches_smoothly() {
    // A 9-op loop with a backward branch taken 100 % of the time: the
    // predictor + BTB learn it perfectly.
    let mut ops: Vec<MicroOp> = (0..8)
        .map(|i| MicroOp::alu(0x1000 + i * 4, [0, 0]))
        .collect();
    ops.push(MicroOp::branch(0x1000 + 8 * 4, true, 0x1000, [0, 0]));
    let mut sim = Simulator::paper(ConventionalLsq::unbounded(), VecTrace::named(ops, "loop"));
    let stats = sim.run(20_000);
    assert!(
        stats.mispredict_ratio() < 0.01,
        "mispredicts {}",
        stats.mispredict_ratio()
    );
    // Taken branch each 9 ops bounds fetch: ~9 per 2 cycles... at least 3 IPC.
    assert!(stats.ipc() > 3.0, "ipc = {}", stats.ipc());
}

#[test]
fn random_branches_cost_ipc() {
    // A branch whose direction alternates with period 2 is predictable;
    // compare against one driven by a PRNG embedded in the trace closure.
    let mut x = 0x1234_5678_u64;
    let mut ops = Vec::new();
    for i in 0..4096u64 {
        if i % 4 == 3 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (x >> 33) & 1 == 1;
            ops.push(MicroOp::branch(
                0x1000 + i * 4,
                taken,
                0x1000 + (i + 2) * 4,
                [0, 0],
            ));
        } else {
            ops.push(MicroOp::alu(0x1000 + i * 4, [0, 0]));
        }
    }
    let mut sim = Simulator::paper(
        ConventionalLsq::unbounded(),
        VecTrace::named(ops, "rand-br"),
    );
    let stats = sim.run(40_000);
    assert!(
        stats.mispredict_ratio() > 0.25,
        "ratio {}",
        stats.mispredict_ratio()
    );
    let mut smooth = Simulator::paper(ConventionalLsq::unbounded(), alu_trace());
    let smooth_stats = smooth.run(40_000);
    assert!(
        stats.ipc() < smooth_stats.ipc() * 0.7,
        "{} vs {}",
        stats.ipc(),
        smooth_stats.ipc()
    );
}

#[test]
fn aliasing_loads_forward_from_inflight_stores() {
    // Each iteration: a slow divide (stalls the commit pointer), then a
    // store and an aliasing load. The divide backlog keeps stores
    // in-flight when their loads execute, so loads must forward.
    let ops = vec![
        MicroOp::compute(0x1000, trace_isa::OpClass::IntDiv, [0, 0]),
        MicroOp::store(0x1004, 0xa000, 8, [0, 0]),
        MicroOp::load(0x1008, 0xa000, 8, [0, 0]),
        MicroOp::alu(0x100c, [1, 0]),
    ];
    let mut sim = Simulator::paper(ConventionalLsq::paper(), VecTrace::named(ops, "order"));
    let stats = sim.run(8_000);
    assert!(
        stats.forwarded_loads * 2 > stats.loads,
        "forwards {} of {} loads",
        stats.forwarded_loads,
        stats.loads
    );
    // Loads that executed after their store committed read the freshly
    // written line from the cache instead; forwarded loads never read it.
    assert!(stats.l1d.read_accesses <= stats.loads.saturating_sub(stats.forwarded_loads) + 16);
}

#[test]
fn readybit_blocks_loads_behind_unknown_store_addresses() {
    // The store's address depends on a long divide; the aliasing load's
    // agen completes immediately but must not access memory until the
    // store's address is known — so it always forwards (or reads the
    // line the store just wrote), never stale data. We check the
    // ordering observable: no load completes before the older store's
    // address resolution, which forces IPC below the divide ceiling.
    let ops = vec![
        MicroOp::compute(0x1000, trace_isa::OpClass::IntDiv, [0, 0]),
        MicroOp::store(0x1004, 0xa000, 8, [1, 0]), // address after the divide
        MicroOp::load(0x1008, 0xa000, 8, [0, 0]),  // agen immediately
        MicroOp::alu(0x100c, [3, 0]),
    ];
    let mut sim = Simulator::paper(ConventionalLsq::paper(), VecTrace::named(ops, "readybit"));
    let stats = sim.run(8_000);
    // 3 dividers x 20 cycles non-pipelined bound the whole loop: 4 ops per
    // divide -> IPC <= 0.6. If loads ignored readyBit they would still be
    // bound by this, so additionally require that some loads forwarded
    // (they waited for the store address and then saw its datum).
    assert!(stats.ipc() <= 0.62, "ipc {}", stats.ipc());
    assert!(stats.forwarded_loads > 0, "no forwarding at all");
}

#[test]
fn samie_places_and_commits() {
    let ops = vec![
        MicroOp::store(0x1000, 0xb000, 8, [0, 0]),
        MicroOp::load(0x1004, 0xb000, 8, [0, 0]),
        MicroOp::load(0x1008, 0xb008, 8, [0, 0]),
        MicroOp::alu(0x100c, [2, 0]),
    ];
    let mut sim = Simulator::paper(SamieLsq::paper(), VecTrace::named(ops, "samie"));
    let stats = sim.run(20_000);
    assert!(stats.ipc() > 1.0, "ipc = {}", stats.ipc());
    assert_eq!(stats.deadlock_flushes, 0);
    assert!(stats.forwarded_loads > 0);
    // Same-line loads reuse the entry's cached location: way-known
    // accesses must appear.
    assert!(stats.l1d.way_known_accesses > 0, "no way-known accesses");
    // The cached translation spares the D-TLB.
    assert!(stats.dtlb_accesses < stats.l1d.accesses());
}

#[test]
fn samie_deadlocks_are_detected_and_flushed() {
    // A SAMIE-LSQ with a single bank/entry/slot, no shared entries beyond
    // one, and a tiny AddrBuffer, fed with loads that all map to distinct
    // lines of the same bank: constant conflicts, guaranteed deadlocks,
    // but forward progress via flush-and-replay.
    let cfg = SamieConfig {
        banks: 1,
        entries_per_bank: 1,
        slots_per_entry: 1,
        shared_entries: 1,
        abuf_slots: 2,
    };
    // Every iteration: a load whose address waits on a 20-cycle divide,
    // then two loads with immediate addresses. The young loads fill the
    // single entry, the shared entry and the AddrBuffer before the old
    // load's address arrives — the §3.3 deadlock: the old load reaches
    // the ROB head unplaced and only a flush can free the entries its
    // younger neighbours hold.
    let mut ops = Vec::new();
    for i in 0..8u64 {
        ops.push(MicroOp::compute(
            0x1000 + i * 16,
            trace_isa::OpClass::IntDiv,
            [0, 0],
        ));
        ops.push(MicroOp::load(0x1004 + i * 16, 0xc000 + i * 192, 8, [1, 0]));
        ops.push(MicroOp::load(0x1008 + i * 16, 0xc040 + i * 192, 8, [0, 0]));
        ops.push(MicroOp::load(0x100c + i * 16, 0xc080 + i * 192, 8, [0, 0]));
    }
    let mut sim = Simulator::paper(SamieLsq::new(cfg), VecTrace::named(ops, "deadlock"));
    let stats = sim.run(3_000);
    assert!(stats.committed >= 3_000, "must make forward progress");
    assert!(
        stats.deadlock_flushes + stats.nospace_flushes > 0,
        "this configuration must conflict (deadlocks {}, nospace {})",
        stats.deadlock_flushes,
        stats.nospace_flushes
    );
}

#[test]
fn samie_matches_conventional_ipc_on_friendly_code() {
    let ops: Vec<MicroOp> = (0..64)
        .map(|i| {
            if i % 3 == 0 {
                MicroOp::load(0x1000 + i * 4, 0xd000 + (i / 3) * 8, 8, [0, 0])
            } else {
                MicroOp::alu(0x1000 + i * 4, [1, 0])
            }
        })
        .collect();
    let mut conv = Simulator::paper(
        ConventionalLsq::paper(),
        VecTrace::named(ops.clone(), "friendly"),
    );
    let conv_ipc = conv.run(30_000).ipc();
    let mut samie = Simulator::paper(SamieLsq::paper(), VecTrace::named(ops, "friendly"));
    let samie_ipc = samie.run(30_000).ipc();
    let loss = (conv_ipc - samie_ipc) / conv_ipc;
    assert!(
        loss.abs() < 0.02,
        "IPC loss {loss} (conv {conv_ipc}, samie {samie_ipc})"
    );
}

#[test]
fn warm_up_resets_statistics() {
    let mut sim = Simulator::paper(ConventionalLsq::unbounded(), alu_trace());
    sim.warm_up(5_000);
    let s = sim.stats();
    assert_eq!(s.committed, 0);
    assert_eq!(s.cycles, 0);
    let s = sim.run(1_000);
    // The final cycle may commit a full group past the target.
    assert!(
        (1_000..1_008).contains(&s.committed),
        "committed {}",
        s.committed
    );
}

#[test]
fn conventional_lsq_full_stalls_dispatch_not_correctness() {
    // A tiny conventional LSQ with long-latency feeding dependencies: the
    // LSQ fills, dispatch stalls, everything still commits.
    let ops = vec![
        MicroOp::compute(0x1000, trace_isa::OpClass::FpDiv, [0, 0]),
        MicroOp::load(0x1004, 0xe000, 8, [1, 0]),
        MicroOp::load(0x1008, 0xe008, 8, [0, 0]),
    ];
    let mut sim = Simulator::paper(
        ConventionalLsq::with_capacity(2),
        VecTrace::named(ops, "tiny-lsq"),
    );
    let stats = sim.run(3_000);
    assert_eq!(stats.committed, 3_000);
    let occ = sim.lsq().occupancy();
    assert!(occ.conv_entries <= 2);
}

#[test]
fn deterministic_across_runs() {
    let mk = || {
        let spec = spec_traces::by_name("gcc").unwrap();
        let trace = spec_traces::SpecTrace::new(spec, 99);
        Simulator::new(SimConfig::paper(), SamieLsq::paper(), trace)
    };
    let a = mk().run(20_000);
    let b = mk().run(20_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l1d.accesses(), b.l1d.accesses());
    assert_eq!(a.lsq.bus_sends, b.lsq.bus_sends);
}

#[test]
fn spec_trace_runs_under_all_lsqs() {
    for name in ["gcc", "swim", "ammp", "mcf"] {
        let spec = spec_traces::by_name(name).unwrap();
        let t1 = spec_traces::SpecTrace::new(spec, 7);
        let mut sim = Simulator::paper(SamieLsq::paper(), t1);
        let s = sim.run(30_000);
        assert!(s.ipc() > 0.1, "{name}: samie ipc {}", s.ipc());
        let t2 = spec_traces::SpecTrace::new(spec, 7);
        let mut sim = Simulator::paper(ConventionalLsq::paper(), t2);
        let s = sim.run(30_000);
        assert!(s.ipc() > 0.1, "{name}: conventional ipc {}", s.ipc());
    }
}
