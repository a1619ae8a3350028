//! The corpus census behind `nomap census`: every corpus report from one
//! warm-up per (architecture, workload) pair.
//!
//! The requested reports' architecture sets are merged, each (arch,
//! workload) pair of the union is one fleet shard, and a shard warms its
//! program once ([`Warmed`]) and runs every report that wants that pair on
//! the same VM. Reports are then rendered document by document in
//! canonical order — report kind, then the report's architecture order,
//! then corpus order — so the text is byte-identical for any `--jobs`
//! value.

use nomap_fleet::{run_sharded, FleetConfig, FleetSummary};
use nomap_vm::{
    obj, AbortsReport, Architecture, CorpusReport, IpaReport, JsonValue, LintReport, MemdepReport,
    ProveReport, VmError, Warmed,
};

use crate::Workload;

/// A corpus report kind, in canonical output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Verifier diagnostics ([`LintReport`]).
    Lint,
    /// The check-elision census ([`ProveReport`]).
    Prove,
    /// The interprocedural verdict delta ([`IpaReport`]).
    Ipa,
    /// The memory-dependence transform census ([`MemdepReport`]).
    Memdep,
    /// The abort-forensics calibration ([`AbortsReport`]).
    Aborts,
}

impl Kind {
    /// Every kind, in output order.
    pub const ALL: [Kind; 5] = [Kind::Lint, Kind::Prove, Kind::Ipa, Kind::Memdep, Kind::Aborts];

    /// The kind's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lint => LintReport::KIND,
            Kind::Prove => ProveReport::KIND,
            Kind::Ipa => IpaReport::KIND,
            Kind::Memdep => MemdepReport::KIND,
            Kind::Aborts => AbortsReport::KIND,
        }
    }

    /// Looks a kind up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The architectures the kind sweeps by default.
    fn archs(self) -> &'static [Architecture] {
        match self {
            Kind::Lint => LintReport::ARCHS,
            Kind::Prove => ProveReport::ARCHS,
            Kind::Ipa => IpaReport::ARCHS,
            Kind::Memdep => MemdepReport::ARCHS,
            Kind::Aborts => AbortsReport::ARCHS,
        }
    }
}

/// What a census covers.
#[derive(Debug)]
pub struct CensusSpec {
    /// Reports to produce (any order; output follows [`Kind::ALL`]).
    pub kinds: Vec<Kind>,
    /// Restricts every report to this architecture.
    pub arch: Option<Architecture>,
    /// `run()` calls in each pair's warm-up.
    pub warmup: u32,
}

impl CensusSpec {
    /// The architectures `kind` sweeps under this spec, in row order.
    fn archs(&self, kind: Kind) -> Vec<Architecture> {
        match self.arch {
            Some(a) => vec![a],
            None => kind.archs().to_vec(),
        }
    }

    fn wants(&self, kind: Kind, arch: Architecture) -> bool {
        self.kinds.contains(&kind) && self.archs(kind).contains(&arch)
    }

    /// Every architecture some requested report sweeps, canonical order:
    /// each is warmed once per workload.
    fn swept(&self) -> Vec<Architecture> {
        Architecture::ALL
            .into_iter()
            .filter(|&a| Kind::ALL.into_iter().any(|k| self.wants(k, a)))
            .collect()
    }
}

/// One rendered report document: its rows, then its summary line.
#[derive(Debug, PartialEq)]
pub struct Document {
    /// File stem (`prove_corpus_base`, `memdep_census`, ...).
    pub name: String,
    /// The text, one line per row plus the summary line.
    pub text: String,
    /// Every report in the document as one JSON document.
    pub json: String,
}

/// The outcome of one census.
#[derive(Debug)]
pub struct Census {
    /// Documents in canonical order.
    pub documents: Vec<Document>,
    /// Failed shards and fired failure predicates, canonical order.
    pub errors: Vec<String>,
    /// Fleet scheduling telemetry (nondeterministic; stderr only).
    pub summary: FleetSummary,
}

/// One (architecture, workload) pair's reports, a slot per kind.
#[derive(Default)]
struct Pair {
    lint: Option<LintReport>,
    prove: Option<ProveReport>,
    ipa: Option<IpaReport>,
    memdep: Option<MemdepReport>,
    aborts: Option<AbortsReport>,
}

fn analyze_if<R: CorpusReport>(want: bool, w: &mut Warmed) -> Result<Option<R>, VmError> {
    want.then(|| R::analyze(w)).transpose()
}

/// Runs the census over `workloads`: each (arch, workload) pair the
/// requested reports need is warmed once, on the fleet.
pub fn run_census(workloads: &[Workload], spec: &CensusSpec, fleet: &FleetConfig) -> Census {
    let archs = spec.swept();
    let n = workloads.len();
    let run = run_sharded(archs.len() * n, fleet, |i| {
        let (arch, w) = (archs[i / n], &workloads[i % n]);
        let fail = |e: VmError| format!("{}/{}: {e}", arch.name(), w.id);
        let warmed = &mut Warmed::new(w.source, arch, spec.warmup).map_err(fail)?;
        Ok(Pair {
            lint: analyze_if(spec.wants(Kind::Lint, arch), warmed).map_err(fail)?,
            prove: analyze_if(spec.wants(Kind::Prove, arch), warmed).map_err(fail)?,
            ipa: analyze_if(spec.wants(Kind::Ipa, arch), warmed).map_err(fail)?,
            memdep: analyze_if(spec.wants(Kind::Memdep, arch), warmed).map_err(fail)?,
            aborts: analyze_if(spec.wants(Kind::Aborts, arch), warmed).map_err(fail)?,
        })
    });

    let mut census = Census { documents: Vec::new(), errors: Vec::new(), summary: run.summary };
    for shard in &run.shards {
        if let Err(e) = &shard.outcome {
            census.errors.push(format!("census failed after {} attempt(s): {e}", shard.attempts));
        }
    }
    let pair = |arch: Architecture, wi: usize| {
        let ai = archs.iter().position(|&a| a == arch).expect("swept architecture");
        run.shards[ai * n + wi].outcome.as_ref().ok()
    };
    for kind in Kind::ALL.into_iter().filter(|k| spec.kinds.contains(k)) {
        let archs = spec.archs(kind);
        match kind {
            Kind::Lint => render(&mut census, &archs, workloads, &pair, |p| p.lint.as_ref()),
            Kind::Prove => render(&mut census, &archs, workloads, &pair, |p| p.prove.as_ref()),
            Kind::Ipa => render(&mut census, &archs, workloads, &pair, |p| p.ipa.as_ref()),
            Kind::Memdep => render(&mut census, &archs, workloads, &pair, |p| p.memdep.as_ref()),
            Kind::Aborts => render(&mut census, &archs, workloads, &pair, |p| p.aborts.as_ref()),
        }
    }
    census
}

/// Renders report `R`'s documents: architectures sharing a document stem
/// share one document and one summary line.
fn render<'a, R: CorpusReport + 'a>(
    census: &mut Census,
    archs: &[Architecture],
    workloads: &[Workload],
    pair: &impl Fn(Architecture, usize) -> Option<&'a Pair>,
    slot: impl Fn(&'a Pair) -> Option<&'a R>,
) {
    let mut documents: Vec<(String, Vec<Architecture>)> = Vec::new();
    for &arch in archs {
        let name = R::document(arch);
        match documents.iter_mut().find(|(n, _)| *n == name) {
            Some((_, doc_archs)) => doc_archs.push(arch),
            None => documents.push((name, vec![arch])),
        }
    }
    for (name, doc_archs) in documents {
        let mut text = String::new();
        let mut reports: Vec<&R> = Vec::new();
        let mut failures = 0usize;
        let mut arch_docs = Vec::new();
        for &arch in &doc_archs {
            let mut rows = Vec::new();
            for (wi, w) in workloads.iter().enumerate() {
                let Some(report) = pair(arch, wi).and_then(&slot) else { continue };
                for line in report.lines(w.id, arch) {
                    text.push_str(&line);
                    text.push('\n');
                }
                let fired = report.failures();
                if fired > 0 {
                    census.errors.push(format!(
                        "{} {}/{}: {fired} {}",
                        R::KIND,
                        arch.name(),
                        w.id,
                        R::FAILURE
                    ));
                }
                failures += fired;
                rows.push(obj(vec![("workload", w.id.into()), ("report", report.to_json(arch))]));
                reports.push(report);
            }
            arch_docs.push(obj(vec![
                ("arch", arch.name().into()),
                ("workloads", JsonValue::Array(rows)),
            ]));
        }
        text.push_str(&R::summary_line(&doc_archs, &reports));
        text.push('\n');
        let json = obj(vec![
            ("census", R::KIND.into()),
            ("archs", JsonValue::Array(arch_docs)),
            ("failures", failures.into()),
        ]);
        let json = format!("{}\n", json.render());
        census.documents.push(Document { name, text, json });
    }
}
