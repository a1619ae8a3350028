//! Reference oracle: what every op must return.
//!
//! Corpus programs' `run()` values come from `expected/returns.txt`, which
//! [`generate`] derives from `TierLimit::Interpreter` runs under `Base` —
//! no JIT, no HTM — so the tiers and the HTM model under test never vouch
//! for themselves. Contention digests depend on the guest seed, so they are
//! derived in-process from the interpreter-capped run under the same seed
//! ([`contention_digest`]).

use std::collections::BTreeMap;

use nomap_vm::{Architecture, TierLimit, Value, Vm, VmConfig, VmError};
use nomap_workloads::{run_contention, ContentionSpec, ContentionWorkload, Placement};

use crate::programs;

const COMMITTED: &str = include_str!("../expected/returns.txt");

/// `run()` calls per program when generating the expected values; all of
/// them must agree, since the benchmark checks every call against one value.
const GENERATE_CALLS: u32 = 3;

/// Expected `run()` return value per corpus program.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    returns: BTreeMap<String, Value>,
}

impl Oracle {
    /// The committed table in `expected/returns.txt`.
    ///
    /// # Panics
    ///
    /// Panics when the committed file is malformed (a build-time asset).
    pub fn committed() -> Self {
        Oracle::parse(COMMITTED).expect("expected/returns.txt is well-formed")
    }

    /// Parses the `<program> <value-bits-hex> <number>` line format
    /// (`#` starts a comment).
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut returns = BTreeMap::new();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let mut fields = line.split_whitespace();
            let (Some(id), Some(bits)) = (fields.next(), fields.next()) else {
                return Err(format!("malformed oracle line `{line}`"));
            };
            let bits = u64::from_str_radix(bits, 16)
                .map_err(|e| format!("bad value bits in `{line}`: {e}"))?;
            returns.insert(id.to_owned(), Value::from_bits(bits));
        }
        Ok(Oracle { returns })
    }

    /// Expected `run()` value of `program`.
    pub fn expected(&self, program: &str) -> Option<Value> {
        self.returns.get(program).copied()
    }

    /// Replaces one expected value (tests use it to check that a wrong
    /// value is caught).
    pub fn set(&mut self, program: &str, value: Value) {
        self.returns.insert(program.to_owned(), value);
    }

    /// Renders the table in the committed file format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# program  value-bits  number\n\
             # run() of each corpus program under TierLimit::Interpreter and Base.\n\
             # Regenerate: cargo run --release --manifest-path benchmark/Cargo.toml -- expected\n",
        );
        for (id, v) in &self.returns {
            out.push_str(&format!("{id} {:016x} {}\n", v.to_bits(), show(*v)));
        }
        out
    }
}

/// True when `got` is the value `want` denotes: numbers compare by value
/// (an int32 and a double holding the same number agree), everything else
/// by representation.
pub fn same_value(got: Value, want: Value) -> bool {
    if got.is_number() && want.is_number() {
        got.as_number().to_bits() == want.as_number().to_bits()
    } else {
        got.to_bits() == want.to_bits()
    }
}

fn show(v: Value) -> String {
    if v.is_number() {
        v.as_number().to_string()
    } else {
        "non-number".to_owned()
    }
}

/// A configuration that runs only the interpreter under `Base`.
fn interpreter_config() -> VmConfig {
    let mut config = VmConfig::new(Architecture::Base);
    config.tier_limit = TierLimit::Interpreter;
    config
}

/// Derives the oracle from interpreter runs of every corpus program the
/// benchmark uses, and cross-checks the kernels shared with
/// `nomap_workloads::native` against their Rust implementations.
///
/// # Errors
///
/// Reports a guest error, a `run()` whose value changes between calls, or
/// a native cross-check mismatch.
pub fn generate() -> Result<Oracle, String> {
    let mut returns = BTreeMap::new();
    for (id, source) in programs::all_corpus_programs() {
        let mut vm =
            Vm::with_config(source, interpreter_config()).map_err(|e| format!("{id}: {e}"))?;
        vm.run_main().map_err(|e| format!("{id}: {e}"))?;
        let first = vm.call("run", &[]).map_err(|e| format!("{id}: {e}"))?;
        for _ in 1..GENERATE_CALLS {
            let v = vm.call("run", &[]).map_err(|e| format!("{id}: {e}"))?;
            if !same_value(v, first) {
                return Err(format!("{id}: run() is not the same on every call"));
            }
        }
        returns.insert(id.to_owned(), first);
    }
    let oracle = Oracle { returns };
    let errors = native_cross_check(&oracle);
    if errors.is_empty() {
        Ok(oracle)
    } else {
        Err(errors.join("; "))
    }
}

/// Kernels that `nomap_workloads::native::run_native` implements with the
/// same algorithm as the MiniJS source.
const NATIVE_KERNELS: [&str; 5] = ["fibo", "sieve", "takfp", "heapsort", "nbody"];

/// Compares the oracle's value of fibo, sieve, takfp, heapsort and nbody
/// with their native checksums; returns one message per mismatch.
pub fn native_cross_check(oracle: &Oracle) -> Vec<String> {
    NATIVE_KERNELS
        .iter()
        .filter_map(|id| {
            let native = nomap_workloads::native::run_native(id).checksum;
            match oracle.expected(id) {
                Some(v) if v.is_number() && v.as_number() == native => None,
                Some(v) => Some(format!("{id}: oracle {} but native {native}", show(v))),
                None => Some(format!("{id}: missing from the oracle")),
            }
        })
        .collect()
}

/// Digest of the interpreter-capped contention run with the same rounds
/// and guest seed as `spec` (the digest does not depend on the
/// architecture, only on the guest's logical work).
///
/// # Errors
///
/// Propagates guest errors.
pub fn contention_digest(
    w: &ContentionWorkload,
    placement: Placement,
    spec: &ContentionSpec,
) -> Result<u64, VmError> {
    let spec = ContentionSpec { config: interpreter_config(), ..*spec };
    Ok(run_contention(w, placement, &spec)?.checksum)
}
