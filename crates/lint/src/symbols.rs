//! The workspace symbol table: every indexed item of every file, with the
//! lookup maps the global passes need.
//!
//! Built from the per-file [`crate::ast::FileIndex`]es, the table offers:
//!
//! - function lookup by bare name, by `(self type, name)` and by trait
//!   membership (the call-graph resolver and the ledger-coverage rule);
//! - auto-discovered **domain enums** — every `pub enum` in a domain crate
//!   that derives both `Serialize` and `Clone` — replacing the
//!   hand-maintained `DOMAIN_ENUMS` list that went stale once already
//!   (PR 2 had to append `FaultKind` manually);
//! - the scheduler **entry points** (`PowerScheduler::plan`,
//!   `plan_subset`, `degrade::run_with_faults`) that root the
//!   replay-critical subgraph and the panic blast-radius report.

use crate::ast::{FnItem, ParsedSource};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose public serializable enums are domain enums (exhaustive
/// matching enforced). `workload` hosts `ScalabilityClass`; `obs` hosts
/// the trace-event taxonomy; the rest hold the simulator and fault enums.
pub const DOMAIN_ENUM_CRATES: [&str; 7] = [
    "core",
    "cluster",
    "simnode",
    "workload",
    "baselines",
    "obs",
    "serve",
];

/// The scheduler trait whose `plan`/`plan_subset` implementations are the
/// public entry points of the replay-critical subgraph.
pub const SCHEDULER_TRAIT: &str = "PowerScheduler";

/// Free functions that are additional entry points (the fault harness —
/// since the engine refactor a thin wrapper over [`ENTRY_ENGINE_TYPE`] —
/// the sharded two-level campaign coordinators, and the open-loop
/// service harness).
pub const ENTRY_FREE_FNS: [&str; 4] = [
    "run_with_faults",
    "run_sharded",
    "run_sharded_service",
    "run_service",
];

/// Entry-point method names on [`SCHEDULER_TRAIT`].
pub const ENTRY_METHODS: [&str; 2] = ["plan", "plan_subset"];

/// The engine owning the canonical epoch cycle: its public cycle methods
/// root the replay-critical subgraph directly, so harnesses that call the
/// engine without going through `run_with_faults` (the queue dispatcher)
/// stay inside the determinism and blast-radius passes.
pub const ENTRY_ENGINE_TYPE: &str = "EpochEngine";

/// Entry-point method names on [`ENTRY_ENGINE_TYPE`] — the monolithic
/// cycle plus the split begin/prepare/settle/finish phases the sharded
/// coordinator interleaves across racks.
pub const ENTRY_ENGINE_METHODS: [&str; 7] = [
    "coordinate",
    "execute",
    "run",
    "begin_run",
    "prepare_epoch",
    "settle_epoch",
    "finish_run",
];

/// Global function id: index into [`SymbolTable::fns`].
pub type FnId = usize;

/// One function, tied back to its file.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Index of the file in the workspace file list.
    pub file: usize,
    /// Index into that file's `FileIndex::fns`.
    pub item: usize,
}

/// The cross-file symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All functions, in (file, source) order.
    pub fns: Vec<FnSym>,
    /// name → function ids (methods and free fns mixed).
    pub by_name: BTreeMap<String, Vec<FnId>>,
    /// (self type, name) → function ids.
    pub by_qual: BTreeMap<(String, String), Vec<FnId>>,
    /// (file index, item index) → global id.
    pub by_item: BTreeMap<(usize, usize), FnId>,
    /// Names of all types that appear as `impl` self types, struct or enum
    /// names anywhere in the workspace (used to tell `Vec::new` from
    /// `KnowledgeDb::new`).
    pub known_types: BTreeSet<String>,
    /// Auto-discovered domain enums, sorted.
    pub domain_enums: Vec<String>,
}

/// Crate name of a workspace-relative path (`crates/<name>/src/…`).
pub fn crate_of(path: &str) -> Option<&str> {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => Some(name),
        _ => None,
    }
}

impl SymbolTable {
    /// Build the table from the parsed workspace.
    pub fn build(files: &[ParsedSource]) -> Self {
        let mut table = SymbolTable::default();
        let mut enums = BTreeSet::new();
        for (file_idx, file) in files.iter().enumerate() {
            for (item_idx, f) in file.unit.index.fns.iter().enumerate() {
                let id: FnId = table.fns.len();
                table.fns.push(FnSym {
                    file: file_idx,
                    item: item_idx,
                });
                table.by_item.insert((file_idx, item_idx), id);
                table.by_name.entry(f.name.clone()).or_default().push(id);
                if let Some(ty) = &f.owner.self_ty {
                    table
                        .by_qual
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    table.known_types.insert(ty.clone());
                }
                if let Some(tr) = &f.owner.in_trait_decl {
                    // Trait default methods resolve under the trait name
                    // too (`Trait::method` call syntax).
                    table
                        .by_qual
                        .entry((tr.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
            for s in &file.unit.index.structs {
                table.known_types.insert(s.name.clone());
            }
            let in_domain_crate =
                crate_of(&file.path).is_some_and(|c| DOMAIN_ENUM_CRATES.contains(&c));
            for e in &file.unit.index.enums {
                table.known_types.insert(e.name.clone());
                if in_domain_crate
                    && e.is_pub
                    && !e.in_test
                    && e.derives.iter().any(|d| d == "Serialize")
                    && e.derives.iter().any(|d| d == "Clone")
                {
                    enums.insert(e.name.clone());
                }
            }
        }
        table.domain_enums = enums.into_iter().collect();
        table
    }

    /// The function item behind an id.
    pub fn item<'a>(&self, files: &'a [ParsedSource], id: FnId) -> Option<&'a FnItem> {
        let sym = self.fns.get(id)?;
        files.get(sym.file)?.unit.index.fns.get(sym.item)
    }

    /// The workspace-relative path of the file defining `id`.
    pub fn path<'a>(&self, files: &'a [ParsedSource], id: FnId) -> Option<&'a str> {
        let sym = self.fns.get(id)?;
        files.get(sym.file).map(|f| f.path.as_str())
    }

    /// Entry points: non-test `PowerScheduler::plan`/`plan_subset` impls
    /// (and trait defaults), the free fault-harness functions, and the
    /// `EpochEngine` cycle methods. Sorted by id.
    pub fn entry_points(&self, files: &[ParsedSource]) -> Vec<FnId> {
        let mut out = Vec::new();
        for id in 0..self.fns.len() {
            let Some(f) = self.item(files, id) else {
                continue;
            };
            if f.in_test || f.body.is_none() {
                continue;
            }
            let is_sched_method = ENTRY_METHODS.contains(&f.name.as_str())
                && (f.owner.trait_ty.as_deref() == Some(SCHEDULER_TRAIT)
                    || f.owner.in_trait_decl.as_deref() == Some(SCHEDULER_TRAIT));
            let is_free_entry =
                ENTRY_FREE_FNS.contains(&f.name.as_str()) && f.owner.self_ty.is_none();
            let is_engine_method = ENTRY_ENGINE_METHODS.contains(&f.name.as_str())
                && f.owner.self_ty.as_deref() == Some(ENTRY_ENGINE_TYPE);
            if is_sched_method || is_free_entry || is_engine_method {
                out.push(id);
            }
        }
        out
    }

    /// Human-readable label for a function (`Type::name`, `Trait::name`
    /// or plain `name`).
    pub fn label(&self, files: &[ParsedSource], id: FnId) -> String {
        let Some(f) = self.item(files, id) else {
            return format!("fn#{id}");
        };
        match (&f.owner.self_ty, &f.owner.in_trait_decl) {
            (Some(ty), _) => format!("{ty}::{}", f.name),
            (None, Some(tr)) => format!("{tr}::{}", f.name),
            (None, None) => f.name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_unit;
    use std::sync::Arc;

    fn build(sources: &[(&str, &str)]) -> (Vec<ParsedSource>, SymbolTable) {
        let parsed: Vec<ParsedSource> = sources
            .iter()
            .map(|(path, src)| ParsedSource {
                path: path.to_string(),
                unit: Arc::new(parse_unit(src)),
            })
            .collect();
        let table = SymbolTable::build(&parsed);
        (parsed, table)
    }

    #[test]
    fn discovers_domain_enums_from_derives() {
        let (_, table) = build(&[
            (
                "crates/cluster/src/faults.rs",
                "#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]\n\
                 pub enum FaultKind { NodeCrash }\n\
                 #[derive(Debug, Clone)]\npub enum Internal { A }",
            ),
            (
                "crates/workload/src/class.rs",
                "#[derive(Debug, Clone, Copy, Serialize, Deserialize)]\n\
                 pub enum ScalabilityClass { Linear }",
            ),
            (
                "crates/simkit/src/units.rs",
                "#[derive(Debug, Clone, Serialize)]\npub enum NotDomain { X }",
            ),
        ]);
        assert_eq!(table.domain_enums, vec!["FaultKind", "ScalabilityClass"]);
    }

    #[test]
    fn entry_points_find_scheduler_impls_and_free_fns() {
        let (parsed, table) = build(&[(
            "crates/core/src/x.rs",
            "impl PowerScheduler for Clip { fn plan(&mut self) { go() } fn name(&self) {} }\n\
             pub fn run_with_faults() { }\n\
             #[cfg(test)]\nmod t { impl PowerScheduler for Fake { fn plan(&mut self) {} } }",
        )]);
        let entries = table.entry_points(&parsed);
        let labels: Vec<String> = entries.iter().map(|&id| table.label(&parsed, id)).collect();
        assert_eq!(labels, vec!["Clip::plan", "run_with_faults"]);
    }

    #[test]
    fn entry_points_find_engine_cycle_methods() {
        let (parsed, table) = build(&[(
            "crates/core/src/engine.rs",
            "impl EpochEngine { pub fn run(&mut self) {} pub fn coordinate(&mut self) {} \
             pub fn execute(&mut self) {} pub fn budget(&self) {} }\n\
             impl Dispatcher { pub fn run(&mut self) {} }",
        )]);
        let entries = table.entry_points(&parsed);
        let labels: Vec<String> = entries.iter().map(|&id| table.label(&parsed, id)).collect();
        // Cycle methods only, and only on EpochEngine: accessors and other
        // types' `run` methods are not roots.
        assert_eq!(
            labels,
            vec![
                "EpochEngine::run",
                "EpochEngine::coordinate",
                "EpochEngine::execute"
            ]
        );
    }

    #[test]
    fn qualified_lookup() {
        let (_, table) = build(&[(
            "crates/core/src/a.rs",
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\nfn go() {}",
        )]);
        assert_eq!(table.by_name.get("go").map(Vec::len), Some(3));
        assert_eq!(
            table.by_qual.get(&("A".into(), "go".into())).map(Vec::len),
            Some(1)
        );
        assert!(table.known_types.contains("A"));
        assert!(table.known_types.contains("B"));
    }
}
