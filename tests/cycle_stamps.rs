//! Golden cycle stamps: the `ExecStats`, the full trace stream (sequence
//! number, cycle stamp, event), the tier residency and the cycle ledger of
//! small programs that between them commit transactions, take check,
//! capacity and sticky-overflow aborts, step the §V-C ladder, deoptimize
//! and call JS functions inside transactions (with and without the
//! transaction-aware callee variant).
//!
//! The executor accounts register-only instructions in batches and flushes
//! the batch before any instruction that touches memory, calls, checks,
//! transactions or returns. Every trace stamp is read after such a flush,
//! so batching must leave every line here unchanged. On a mismatch the
//! actual transcript is left in the target's test tmpdir
//! (`cycle_stamps.actual.txt`) for diffing against the golden file.

use std::fmt::Write as _;

use nomap_vm::{Architecture, Vm, VmConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/cycle_stamps.txt");

/// One scenario: a program, a configuration, and the calls to make after
/// `run_main` (`(function, times)`; only the last result of each entry is
/// recorded).
struct Scenario {
    name: &'static str,
    config: VmConfig,
    src: &'static str,
    calls: &'static [(&'static str, usize)],
}

/// A hot summing loop that only commits.
const COMMIT: &str = "
    var data = new Array(64);
    for (var i = 0; i < 64; i++) { data[i] = i; }
    function sum() {
        var s = 0;
        for (var i = 0; i < 64; i++) { s += data[i]; }
        return s;
    }
    function run() { return sum(); }
";

/// Type speculation fails after tier-up: a check abort under NoMap, an
/// OSR exit (deoptimization) under Base.
const TYPE_CHANGE: &str = "
    function addup(a) {
        var s = 0;
        for (var i = 0; i < a.length; i++) { s += a[i]; }
        return s;
    }
    var ints = new Array(50);
    for (var i = 0; i < 50; i++) { ints[i] = i; }
    function run() { return addup(ints); }
    function poison() { ints[25] = 0.5; return addup(ints); }
    function heal() { ints[25] = 25; return 0; }
";

/// Writes more lines than RTM's L1D write budget (512 lines): capacity
/// aborts step the ladder Nest → Inner → InnerTiled.
const RTM_CAPACITY: &str = "
    var N = 5000;
    var big = new Array(N);
    function smash(seed) {
        var acc = 0;
        for (var i = 0; i < N; i++) {
            big[i] = (i ^ seed) & 1023;
            acc = (acc + big[i]) & 1048575;
        }
        return acc;
    }
    function run() { return smash(99); }
";

/// The same overflow against ROT's 4096-line L2 write budget.
const ROT_CAPACITY: &str = "
    var N = 36000;
    var big = new Array(N);
    function smash(seed) {
        var acc = 0;
        for (var i = 0; i < N; i++) {
            big[i] = (i ^ seed) & 1023;
            acc = (acc + big[i]) & 1048575;
        }
        return acc;
    }
    function run() { return smash(99); }
";

/// A JS call inside a transaction; `poison` makes the callee's speculation
/// fail while the caller's transaction is live.
const CALL_IN_TX: &str = "
    function helper(x) { return ((x * 3) + 1) & 255; }
    var data = new Array(100);
    for (var i = 0; i < 100; i++) { data[i] = i; }
    function work() {
        var s = 0;
        for (var i = 0; i < 100; i++) { s += helper(data[i]); }
        return s;
    }
    function run() { return work(); }
    function poison() { data[50] = 0.5; return work(); }
    function heal() { data[50] = 50; return 0; }
";

/// Int32 overflow inside a transaction: SOF aborts at `XEnd` under ROT.
const STICKY_OVERFLOW: &str = "
    var start = 0;
    function acc(n) {
        var s = start;
        for (var i = 0; i < n; i++) { s = s + 1000; }
        return s;
    }
    function run() { return acc(100); }
    function overflow() { start = 2147480000; return acc(100); }
    function reset() { start = 0; return 0; }
";

fn scenarios() -> Vec<Scenario> {
    let cfg = VmConfig::new;
    let mut callees = cfg(Architecture::NoMap);
    callees.txn_callees = true;
    let warm_poison: &[(&str, usize)] = &[("run", 70), ("poison", 1), ("heal", 1), ("run", 3)];
    vec![
        Scenario {
            name: "commit",
            config: cfg(Architecture::NoMap),
            src: COMMIT,
            calls: &[("run", 70)],
        },
        Scenario {
            name: "check-abort",
            config: cfg(Architecture::NoMap),
            src: TYPE_CHANGE,
            calls: warm_poison,
        },
        Scenario {
            name: "deopt",
            config: cfg(Architecture::Base),
            src: TYPE_CHANGE,
            calls: warm_poison,
        },
        Scenario {
            name: "rtm-capacity-ladder",
            config: cfg(Architecture::NoMapRtm),
            src: RTM_CAPACITY,
            calls: &[("run", 8)],
        },
        Scenario {
            name: "rot-capacity-ladder",
            config: cfg(Architecture::NoMap),
            src: ROT_CAPACITY,
            calls: &[("run", 4)],
        },
        Scenario {
            name: "call-in-tx",
            config: cfg(Architecture::NoMap),
            src: CALL_IN_TX,
            calls: warm_poison,
        },
        Scenario {
            name: "call-in-tx-callee",
            config: callees,
            src: CALL_IN_TX,
            calls: warm_poison,
        },
        Scenario {
            name: "sticky-overflow",
            config: cfg(Architecture::NoMap),
            src: STICKY_OVERFLOW,
            calls: &[("run", 70), ("overflow", 1), ("reset", 1), ("run", 2)],
        },
    ]
}

fn transcript(s: &Scenario) -> String {
    let mut out = String::new();
    let mut vm = Vm::with_config(s.src, s.config).expect("compiles");
    vm.enable_tracing(1 << 16);
    vm.enable_profiling();
    vm.run_main().expect("main");
    writeln!(out, "== {} ({:?})", s.name, s.config.arch).unwrap();
    for &(func, times) in s.calls {
        let mut last = None;
        for _ in 0..times {
            last = Some(vm.call(func, &[]).expect("call"));
        }
        writeln!(out, "call {func} x{times} -> {:?}", last.expect("at least one call")).unwrap();
    }
    vm.flush_profile_to_trace();
    writeln!(out, "stats {:?}", vm.stats).unwrap();
    assert_eq!(vm.trace_emitted() as usize, vm.trace().len(), "ring must hold every event");
    for rec in vm.trace() {
        writeln!(out, "event {} {} {:?}", rec.seq, rec.cycles, rec.event).unwrap();
    }
    for (name, res) in &vm.trace_metrics().residency {
        writeln!(out, "residency {name} {res:?}").unwrap();
    }
    let ledger = &vm.profile().expect("profiling enabled").ledger;
    for (key, cycles) in ledger.regions() {
        writeln!(out, "ledger {key:?} {cycles}").unwrap();
    }
    out
}

#[test]
fn cycle_stamps_match_golden() {
    let actual: String = scenarios().iter().map(transcript).collect();
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cycle_stamps.actual.txt");
    std::fs::write(&dump, &actual).expect("write actual transcript");
    let golden = std::fs::read_to_string(GOLDEN).expect("golden transcript");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "line {} differs from {GOLDEN} (actual: {})", i + 1, dump.display());
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "transcript length differs from {GOLDEN} (actual: {})",
        dump.display()
    );
}
