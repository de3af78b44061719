//! Multi-VM fleet management.
//!
//! The paper's premise is cloud scale: "Today's clouds run many thousands
//! of VMs" and security should be an infrastructure-level service with
//! "zero-touch" management (§2). [`Fleet`] is that service surface: many
//! independently configured [`Crimes`]-protected VMs behind one handle,
//! with staggered epoch driving, an incident queue, and aggregate
//! statistics — one tenant's compromise never blocks another's epochs.

use std::collections::BTreeMap;
use std::sync::Arc;

use crimes_telemetry::{Clock, RealClock};
use crimes_vm::{Vm, VmError};
use crimes_vmi::Symbols;

use crate::analyzer::Analysis;
use crate::config::CrimesConfig;
use crate::error::CrimesError;
use crate::framework::{Crimes, EpochOutcome};

/// Summary of one fleet-wide epoch round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetEpochSummary {
    /// VMs whose epoch committed.
    pub committed: Vec<String>,
    /// VMs whose audit failed this round (now pending investigation).
    pub new_incidents: Vec<String>,
    /// VMs skipped because an incident is already pending.
    pub skipped_pending: Vec<String>,
    /// VMs whose audit was inconclusive this round (speculation extended;
    /// outputs still buffered).
    pub extended: Vec<String>,
    /// VMs that ran degraded this round: the audit passed but the backup
    /// was unreachable, so outputs stayed impounded under their drain
    /// generations.
    pub degraded: Vec<String>,
    /// VMs rerouted to their standby backup this round (the consecutive
    /// drain-session failure streak crossed
    /// [`CrimesConfig::failover_threshold`]).
    pub failovers: Vec<String>,
    /// VMs newly quarantined this round. They need operator replacement.
    pub quarantined: Vec<String>,
    /// VMs skipped because they were already quarantined in an earlier
    /// round (also counted in
    /// [`Counter::FleetSkips`](crimes_telemetry::Counter::FleetSkips)).
    pub skipped_quarantined: Vec<String>,
    /// VMs whose epoch failed with a non-quarantine error this round,
    /// with the error that stopped them. Their framework recovered (or
    /// rolled back) per its own fail-closed rules; the round went on to
    /// the remaining tenants instead of aborting — one tenant's broken
    /// guest never costs its neighbours their epoch.
    pub errored: Vec<(String, CrimesError)>,
}

/// Aggregate fleet statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Committed epochs across all VMs, lifetime.
    pub committed_epochs: u64,
    /// Incidents detected, lifetime.
    pub incidents_detected: u64,
    /// Incidents resolved (rolled back), lifetime.
    pub incidents_resolved: u64,
}

/// The fleet's zero-touch failover rule, applied after every tenant
/// boundary by the serial round and the scheduler alike: reroute the
/// tenant's drain to the standby once its consecutive drain-session
/// failures cross its configured threshold, so the backlog can flush at
/// its next boundary.
pub(crate) fn failover_if_due(crimes: &mut Crimes) -> bool {
    let threshold = crimes.config().failover_threshold;
    if threshold > 0 && crimes.checkpointer().drain_session_failures() >= threshold {
        crimes.failover_backup();
        return true;
    }
    false
}

/// File one tenant's result in the round summary. Per-tenant failures are
/// recorded, never propagated: quarantine is terminal per-VM, not
/// fleet-fatal, and any other error leaves the round to go on to the
/// remaining tenants.
pub(crate) fn file_outcome(
    summary: &mut FleetEpochSummary,
    name: &str,
    outcome: Result<EpochOutcome, CrimesError>,
    failover: bool,
) {
    let name = name.to_owned();
    if failover {
        summary.failovers.push(name.clone());
    }
    match outcome {
        Ok(EpochOutcome::Committed { .. }) => summary.committed.push(name),
        Ok(EpochOutcome::AttackDetected { .. }) => summary.new_incidents.push(name),
        Ok(EpochOutcome::Extended { .. }) => summary.extended.push(name),
        Ok(EpochOutcome::Degraded { .. }) => summary.degraded.push(name),
        Err(CrimesError::Quarantined { .. }) => summary.quarantined.push(name),
        Err(e) => summary.errored.push((name, e)),
    }
}

/// A fleet of protected VMs, keyed by tenant-visible name.
///
/// Tenants on one kernel build share one parsed System.map: the fleet
/// keeps a [`Symbols`] per distinct map its tenants run, and a tenant
/// whose map equals one of them opens its introspection on that parse
/// instead of making its own. The table lives and dies with the fleet and
/// its tenants; nothing outlives them, so a monitor that restarts parses
/// again.
#[derive(Debug, Default)]
pub struct Fleet {
    vms: BTreeMap<String, Crimes>,
    stats: FleetStats,
    /// One parse per distinct System.map among the tenants.
    kernels: Vec<Symbols>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Fleet::default()
    }

    /// Protect `vm` under `name`.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or protection cannot initialise.
    pub fn add_vm(
        &mut self,
        name: &str,
        vm: Vm,
        config: CrimesConfig,
    ) -> Result<&mut Crimes, CrimesError> {
        self.add_vm_with_clock(name, vm, config, Arc::new(RealClock::new()))
    }

    /// Like [`add_vm`](Self::add_vm), but timing the tenant's audit
    /// pipeline against an injected [`Clock`](crimes_telemetry::Clock).
    /// Determinism tests give every tenant its own
    /// [`TestClock`](crimes_telemetry::TestClock) so fleet rounds are
    /// reproducible in virtual time.
    ///
    /// # Errors
    ///
    /// Fails if the name is taken or protection cannot initialise. A
    /// tenant that fails leaves the fleet as it was.
    pub fn add_vm_with_clock(
        &mut self,
        name: &str,
        vm: Vm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<&mut Crimes, CrimesError> {
        if self.vms.contains_key(name) {
            return Err(CrimesError::InvalidState("vm name already in use"));
        }
        let shared = self
            .kernels
            .iter()
            .find(|kernel| kernel.map() == vm.system_map())
            .cloned();
        let crimes = Crimes::protect_on(vm, config, clock, shared.as_ref())?;
        if shared.is_none() {
            self.kernels.push(crimes.symbols().clone());
        }
        Ok(self.vms.entry(name.to_owned()).or_insert(crimes))
    }

    /// Stop protecting a VM, returning its framework (and guest).
    pub fn remove_vm(&mut self, name: &str) -> Option<Crimes> {
        let removed = self.vms.remove(name)?;
        let vms = &self.vms;
        self.kernels
            .retain(|kernel| vms.values().any(|c| Symbols::ptr_eq(c.symbols(), kernel)));
        Some(removed)
    }

    /// Access a protected VM.
    pub fn get(&self, name: &str) -> Option<&Crimes> {
        self.vms.get(name)
    }

    /// Mutable access to a protected VM.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Crimes> {
        self.vms.get_mut(name)
    }

    /// Tenant names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.vms.keys().map(String::as_str).collect()
    }

    /// Number of protected VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// `true` when no VM is protected.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Names of VMs awaiting investigation/rollback.
    pub fn pending_incidents(&self) -> Vec<&str> {
        self.vms
            .iter()
            .filter(|(_, c)| c.has_pending_incident())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Names of quarantined VMs (suspended, outputs impounded; awaiting
    /// operator replacement).
    pub fn quarantined_vms(&self) -> Vec<&str> {
        self.vms
            .iter()
            .filter(|(_, c)| c.is_quarantined())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Scheduler access to the tenant map: the fleet scheduler borrows
    /// several tenants' frameworks at once (one on each pause lane),
    /// which the public per-name accessors cannot express.
    pub(crate) fn vms_mut(&mut self) -> &mut BTreeMap<String, Crimes> {
        &mut self.vms
    }

    /// Fleet-level telemetry: every tenant's counters, histograms, and
    /// worker shard totals merged into one
    /// [`Telemetry`](crimes_telemetry::Telemetry) (deterministic — merging
    /// is element-wise and order-independent). `None` for an empty fleet,
    /// since phase labels come from the tenants themselves.
    pub fn aggregate_telemetry(&self) -> Option<crimes_telemetry::Telemetry> {
        let mut tenants = self.vms.values();
        let mut total = *tenants.next()?.telemetry();
        for crimes in tenants {
            total.merge(crimes.telemetry());
        }
        Some(total)
    }

    /// Drive one epoch on every healthy VM. `work` runs each tenant's
    /// guest for its configured interval; VMs with pending incidents are
    /// skipped (their state is frozen for forensics), so one tenant's
    /// compromise never stalls the rest of the fleet.
    ///
    /// Per-tenant failures never abort the round: quarantines land in
    /// [`FleetEpochSummary::quarantined`] and every other error in
    /// [`FleetEpochSummary::errored`], and the remaining tenants still
    /// run their epochs.
    ///
    /// # Errors
    ///
    /// Reserved for fleet-level failures; per-tenant errors are reported
    /// in the summary instead.
    pub fn run_epoch_round<W>(&mut self, mut work: W) -> Result<FleetEpochSummary, CrimesError>
    where
        W: FnMut(&str, &mut Vm, u64) -> Result<(), VmError>,
    {
        let mut summary = FleetEpochSummary::default();
        for (name, crimes) in &mut self.vms {
            if crimes.is_quarantined() {
                crimes.note_fleet_skip();
                summary.skipped_quarantined.push(name.clone());
                continue;
            }
            if crimes.has_pending_incident() {
                summary.skipped_pending.push(name.clone());
                continue;
            }
            let outcome = crimes.run_epoch(|vm, ms| work(name, vm, ms));
            let failover = failover_if_due(crimes);
            file_outcome(&mut summary, name, outcome, failover);
        }
        self.count_round(&summary);
        Ok(summary)
    }

    /// Add a finished round's commits and incidents to the lifetime
    /// stats.
    pub(crate) fn count_round(&mut self, summary: &FleetEpochSummary) {
        self.stats.committed_epochs = self
            .stats
            .committed_epochs
            .saturating_add(summary.committed.len() as u64);
        self.stats.incidents_detected = self
            .stats
            .incidents_detected
            .saturating_add(summary.new_incidents.len() as u64);
    }

    /// Run the automated response for one pending incident.
    ///
    /// # Errors
    ///
    /// Fails for unknown names or when no incident is pending there.
    pub fn investigate(&mut self, name: &str) -> Result<Analysis, CrimesError> {
        self.vms
            .get_mut(name)
            .ok_or(CrimesError::InvalidState("no such vm"))?
            .investigate()
    }

    /// Resolve one pending incident: roll the VM back and resume it.
    /// Returns the number of buffered outputs discarded.
    ///
    /// # Errors
    ///
    /// Fails for unknown names or when no incident is pending there.
    pub fn rollback_and_resume(&mut self, name: &str) -> Result<usize, CrimesError> {
        let discarded = self
            .vms
            .get_mut(name)
            .ok_or(CrimesError::InvalidState("no such vm"))?
            .rollback_and_resume()?;
        self.stats.incidents_resolved = self.stats.incidents_resolved.saturating_add(1);
        Ok(discarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::BlacklistScanModule;
    use crimes_workloads::attacks;

    fn guest(seed: u64) -> Vm {
        let mut b = Vm::builder();
        b.pages(4096).seed(seed);
        b.build()
    }

    fn config() -> CrimesConfig {
        let mut b = CrimesConfig::builder();
        b.epoch_interval_ms(20);
        b.build().expect("valid config")
    }

    fn fleet_of(n: u64) -> Fleet {
        let mut fleet = Fleet::new();
        for i in 0..n {
            let crimes = fleet
                .add_vm(&format!("tenant-{i}"), guest(100 + i), config())
                .unwrap();
            crimes.register_module(Box::new(BlacklistScanModule::bundled()));
        }
        fleet
    }

    #[test]
    fn round_commits_every_healthy_vm() {
        let mut fleet = fleet_of(3);
        assert_eq!(fleet.len(), 3);
        let summary = fleet
            .run_epoch_round(|_name, vm, ms| {
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .unwrap();
        assert_eq!(summary.committed.len(), 3);
        assert!(summary.new_incidents.is_empty());
        assert_eq!(fleet.stats().committed_epochs, 3);
    }

    #[test]
    fn one_compromised_tenant_does_not_stall_the_rest() {
        let mut fleet = fleet_of(3);
        // tenant-1 gets hit this round.
        let summary = fleet
            .run_epoch_round(|name, vm, _| {
                if name == "tenant-1" {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(summary.new_incidents, vec!["tenant-1".to_owned()]);
        assert_eq!(summary.committed.len(), 2);
        assert_eq!(fleet.pending_incidents(), vec!["tenant-1"]);

        // Next round: the frozen tenant is skipped, others proceed.
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).unwrap();
        assert_eq!(summary.skipped_pending, vec!["tenant-1".to_owned()]);
        assert_eq!(summary.committed.len(), 2);

        // Zero-touch response, then the tenant rejoins.
        let analysis = fleet.investigate("tenant-1").unwrap();
        assert!(analysis.report.to_text().contains("mirai"));
        fleet.rollback_and_resume("tenant-1").unwrap();
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).unwrap();
        assert_eq!(summary.committed.len(), 3);
        assert_eq!(fleet.stats().incidents_detected, 1);
        assert_eq!(fleet.stats().incidents_resolved, 1);
    }

    #[test]
    fn one_errored_tenant_does_not_abort_the_round() {
        let mut fleet = fleet_of(3);
        // tenant-1's guest work fails with a plain VM error (bogus pid).
        let summary = fleet
            .run_epoch_round(|name, vm, _| {
                if name == "tenant-1" {
                    vm.dirty_arena_page(9_999, 0, 0, 1)?;
                }
                Ok(())
            })
            .expect("round is not aborted by a per-tenant error");
        assert_eq!(summary.errored.len(), 1);
        assert_eq!(summary.errored[0].0, "tenant-1");
        assert!(matches!(summary.errored[0].1, CrimesError::Vm(_)));
        // The tenants after the erroring one in iteration order still ran.
        assert_eq!(
            summary.committed,
            vec!["tenant-0".to_owned(), "tenant-2".to_owned()]
        );
        // The errored tenant is healthy again the next round.
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).expect("round");
        assert!(summary.errored.is_empty());
        assert_eq!(summary.committed.len(), 3);
    }

    #[test]
    fn quarantined_tenant_is_skipped_not_fatal() {
        let mut fleet = Fleet::new();
        let mut b = CrimesConfig::builder();
        b.epoch_interval_ms(20).max_consecutive_extensions(0);
        fleet
            .add_vm("fragile", guest(7), b.build().expect("valid config"))
            .expect("add");

        // Every audit overruns: the first round quarantines the tenant.
        let scope = crimes_faults::install(
            crimes_faults::FaultPlan::disabled().with_rate(
                crimes_faults::FaultPoint::AuditOverrun,
                crimes_faults::SCALE,
            ),
            21,
        );
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).expect("round");
        drop(scope);
        assert_eq!(summary.quarantined, vec!["fragile".to_owned()]);
        assert!(summary.committed.is_empty());
        assert_eq!(fleet.quarantined_vms(), vec!["fragile"]);

        // Later rounds skip it without erroring, even with faults gone;
        // the skip is reported separately from the round that actually
        // quarantined the tenant, and counted per-tenant.
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).expect("round");
        assert!(summary.quarantined.is_empty());
        assert_eq!(summary.skipped_quarantined, vec!["fragile".to_owned()]);
        assert_eq!(
            fleet
                .get("fragile")
                .expect("present")
                .telemetry()
                .counter(crimes_telemetry::Counter::FleetSkips),
            1
        );

        // Operator replacement: remove and re-add a fresh instance.
        let broken = fleet.remove_vm("fragile").expect("present");
        assert!(broken.is_quarantined());
        fleet.add_vm("fragile", guest(8), config()).expect("re-add");
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).expect("round");
        assert_eq!(summary.committed, vec!["fragile".to_owned()]);
    }

    #[test]
    fn fleet_reroutes_to_the_standby_after_repeated_drain_failures() {
        let mut fleet = Fleet::new();
        let mut b = CrimesConfig::builder();
        b.epoch_interval_ms(20)
            .pause_workers(2)
            .staging_buffers(3)
            .max_staged_backlog(2)
            .failover_threshold(2);
        fleet
            .add_vm("tenant", guest(11), b.build().expect("valid config"))
            .expect("add");
        fleet
            .get_mut("tenant")
            .expect("present")
            .register_module(Box::new(BlacklistScanModule::bundled()));

        // The backup refuses every drain session this round: the tenant
        // degrades, its failure streak crosses the threshold, and the
        // fleet reroutes it to the standby — zero-touch.
        let scope = crimes_faults::install(
            crimes_faults::FaultPlan::disabled().with_rate(
                crimes_faults::FaultPoint::BackupOutage,
                crimes_faults::SCALE,
            ),
            31,
        );
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).expect("round");
        drop(scope);
        assert_eq!(summary.degraded, vec!["tenant".to_owned()]);
        assert_eq!(summary.failovers, vec!["tenant".to_owned()]);
        assert!(summary.quarantined.is_empty());
        let crimes = fleet.get("tenant").expect("present");
        assert_eq!(
            crimes.checkpointer().drain_session_failures(),
            0,
            "failover reset the streak"
        );
        assert_eq!(
            crimes
                .telemetry()
                .counter(crimes_telemetry::Counter::BackupFailovers),
            1
        );
        assert_eq!(crimes.pending_drain_count(), 1);

        // Next round against the (reachable) standby: the backlog flushes
        // and the tenant commits as if nothing happened.
        let summary = fleet.run_epoch_round(|_, _, _| Ok(())).expect("round");
        assert_eq!(summary.committed, vec!["tenant".to_owned()]);
        assert!(summary.failovers.is_empty());
        let crimes = fleet.get("tenant").expect("present");
        assert_eq!(crimes.pending_drain_count(), 0);
        assert!(crimes.checkpointer().verify_backup().is_ok());
        let replay = crimes_journal::EvidenceJournal::replay(crimes.journal().bytes());
        assert_eq!(replay.failovers, 1);
        assert_eq!(replay.degraded_epochs, 1);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut fleet = Fleet::new();
        fleet.add_vm("a", guest(1), config()).unwrap();
        assert!(matches!(
            fleet.add_vm("a", guest(2), config()),
            Err(CrimesError::InvalidState(_))
        ));
    }

    #[test]
    fn remove_returns_the_framework() {
        let mut fleet = fleet_of(1);
        assert!(fleet.get("tenant-0").is_some());
        let crimes = fleet.remove_vm("tenant-0").unwrap();
        assert_eq!(crimes.committed_epochs(), 0);
        assert!(fleet.is_empty());
        assert!(fleet.remove_vm("tenant-0").is_none());
    }

    #[test]
    fn unknown_names_error() {
        let mut fleet = Fleet::new();
        assert!(fleet.investigate("ghost").is_err());
        assert!(fleet.rollback_and_resume("ghost").is_err());
        assert!(fleet.get("ghost").is_none());
        assert!(fleet.get_mut("ghost").is_none());
    }

    #[test]
    fn aggregate_telemetry_merges_every_tenant() {
        use crimes_telemetry::Counter;
        let mut fleet = fleet_of(3);
        assert!(Fleet::new().aggregate_telemetry().is_none());
        for _ in 0..2 {
            fleet.run_epoch_round(|_, _, _| Ok(())).unwrap();
        }
        let total = fleet.aggregate_telemetry().expect("non-empty fleet");
        assert_eq!(total.counter(Counter::EpochsCommitted), 6);
        assert_eq!(total.audit_ns().count(), 6);
        assert_eq!(total.dirty_pages().count(), 6);
        // The merge is the element-wise sum of the per-tenant bundles.
        let by_hand: u64 = fleet
            .names()
            .iter()
            .map(|n| fleet.get(n).unwrap().telemetry().counter(Counter::EpochsCommitted))
            .sum();
        assert_eq!(total.counter(Counter::EpochsCommitted), by_hand);
    }

    fn parses(crimes: &Crimes) -> u64 {
        crimes.telemetry().counter(crimes_telemetry::Counter::SymbolParses)
    }

    /// A small guest on the stock kernel build.
    fn small_guest(seed: u64) -> Vm {
        let mut b = Vm::builder();
        b.pages(320).seed(seed);
        b.build()
    }

    #[test]
    fn same_kernel_tenants_share_one_parse() {
        let mut fleet = Fleet::new();
        for i in 0..32 {
            fleet
                .add_vm(&format!("tenant-{i:02}"), small_guest(i), config())
                .expect("add");
        }
        let total = fleet.aggregate_telemetry().expect("non-empty fleet");
        assert_eq!(total.counter(crimes_telemetry::Counter::SymbolParses), 1);
        assert_eq!(fleet.kernels.len(), 1);
        let first = fleet.get("tenant-00").expect("present").symbols().clone();
        assert_eq!(parses(fleet.get("tenant-00").expect("present")), 1);
        for name in fleet.names() {
            let crimes = fleet.get(name).expect("present");
            assert!(Symbols::ptr_eq(crimes.symbols(), &first), "{name}");
        }
        // The shared table goes with the last tenant that runs it.
        let names: Vec<String> = fleet.names().into_iter().map(str::to_owned).collect();
        for name in names {
            assert_eq!(fleet.kernels.len(), 1);
            fleet.remove_vm(&name).expect("present");
        }
        assert!(fleet.kernels.is_empty());
    }

    #[test]
    fn a_tenant_on_another_kernel_build_parses_its_own() {
        let mut fleet = Fleet::new();
        fleet.add_vm("stock", small_guest(1), config()).expect("add");
        let mut other = small_guest(2);
        other
            .system_map_mut()
            .insert("crimes_extra_symbol", crimes_vm::Gva(0xffff_8800_7000_0000));
        fleet.add_vm("patched", other, config()).expect("add");
        fleet.add_vm("stock-2", small_guest(3), config()).expect("add");
        assert_eq!(fleet.kernels.len(), 2);
        let [stock, patched, stock_2] =
            ["stock", "patched", "stock-2"].map(|n| fleet.get(n).expect("present"));
        assert_eq!((parses(stock), parses(patched), parses(stock_2)), (1, 1, 0));
        assert!(!Symbols::ptr_eq(stock.symbols(), patched.symbols()));
        assert!(Symbols::ptr_eq(stock.symbols(), stock_2.symbols()));
        assert!(patched.symbols().map().lookup("crimes_extra_symbol").is_some());
        // Removing the only tenant on a build drops its table.
        fleet.remove_vm("patched").expect("present");
        assert_eq!(fleet.kernels.len(), 1);
    }

    #[test]
    fn shared_symbols_never_skip_the_guest_banner_check() {
        let mut fleet = Fleet::new();
        fleet.add_vm("honest", small_guest(1), config()).expect("add");
        let mut forged = small_guest(2);
        assert_eq!(forged.system_map(), fleet.get("honest").expect("present").vm().system_map());
        let banner = forged.layout().banner;
        forged
            .memory_mut()
            .write(banner, b"Linux version 2.6.32-forged\0");
        let err = fleet.add_vm("forged", forged, config()).err();
        assert!(
            matches!(err, Some(CrimesError::Vmi(crimes_vmi::VmiError::UnsupportedKernel(_)))),
            "{err:?}"
        );
        assert_eq!(fleet.names(), vec!["honest"]);
        assert_eq!(fleet.kernels.len(), 1);
        let total = fleet.aggregate_telemetry().expect("non-empty fleet");
        assert_eq!(total.counter(crimes_telemetry::Counter::SymbolParses), 1);
    }

    #[test]
    fn two_fleets_share_nothing() {
        let (mut a, mut b) = (Fleet::new(), Fleet::new());
        a.add_vm("t", small_guest(1), config()).expect("add");
        b.add_vm("t", small_guest(1), config()).expect("add");
        let (a, b) = (a.get("t").expect("present"), b.get("t").expect("present"));
        assert_eq!((parses(a), parses(b)), (1, 1));
        assert!(!Symbols::ptr_eq(a.symbols(), b.symbols()));
    }

    #[test]
    fn recovering_a_fleet_tenant_parses_cold() {
        let mut fleet = Fleet::new();
        for name in ["a", "b"] {
            fleet.add_vm(name, small_guest(1), config()).expect("add");
        }
        let tenant = fleet.get("b").expect("present");
        assert_eq!(parses(tenant), 0);
        let recovered = Crimes::recover(
            tenant.vm().clone(),
            tenant.checkpointer().backup().clone(),
            *tenant.config(),
            Arc::new(RealClock::new()),
            tenant.journal().bytes(),
        )
        .expect("recover");
        assert_eq!(parses(&recovered), 1, "a fresh monitor parses its own");
        assert!(!Symbols::ptr_eq(recovered.symbols(), tenant.symbols()));
    }

    /// Attacks a tenant of a shared fleet, investigates the incident and
    /// checks that nothing in it parsed System.map: the counter stands
    /// still, and every dump ships the fleet's one parse.
    fn investigate_without_parsing(
        attack: impl FnOnce(&mut Vm) -> Result<(), VmError>,
        module: impl FnOnce(&Crimes) -> Box<dyn crate::detector::ScanModule>,
        replayed: bool,
    ) -> String {
        let mut fleet = Fleet::new();
        fleet.add_vm("first", small_guest(1), config()).expect("add");
        let crimes = fleet.add_vm("victim", small_guest(2), config()).expect("add");
        let module = module(crimes);
        crimes.register_module(module);
        let pid = crimes.vm_mut().spawn_process("app", 1000, 16).expect("spawn");
        let obj = crimes.vm_mut().malloc(pid, 64).expect("malloc");
        assert!(crimes.run_epoch(|_, _| Ok(())).expect("clean").is_committed());
        let mut attack = Some(attack);
        let outcome = crimes
            .run_epoch(|vm, _| {
                vm.write_user(pid, obj, &[1; 64], 0)?;
                attack.take().map_or(Ok(()), |a| a(vm))
            })
            .expect("boundary");
        assert!(matches!(outcome, EpochOutcome::AttackDetected { .. }));
        let before = fleet.aggregate_telemetry().expect("fleet");
        let analysis = fleet.investigate("victim").expect("analysis");
        let after = fleet.aggregate_telemetry().expect("fleet");
        let counted = |t: &crimes_telemetry::Telemetry| {
            t.counter(crimes_telemetry::Counter::SymbolParses)
        };
        assert_eq!((counted(&before), counted(&after)), (1, 1));
        let shared = fleet.get("first").expect("present").symbols();
        let dumps = &analysis.dumps;
        assert_eq!(dumps.attack_instant.is_some(), replayed);
        for dump in [&dumps.last_good, &dumps.audit_failure]
            .into_iter()
            .chain(dumps.attack_instant.as_ref())
        {
            assert!(Symbols::ptr_eq(dump.symbols(), shared), "{:?}", dump.kind());
        }
        fleet.rollback_and_resume("victim").expect("rollback");
        analysis.report.to_text()
    }

    #[test]
    fn a_blacklist_incident_parses_nothing() {
        let text = investigate_without_parsing(
            |vm| attacks::inject_malware_launch(vm, "mirai").map(drop),
            |_| Box::new(BlacklistScanModule::bundled()),
            false,
        );
        assert!(text.contains("mirai"));
    }

    #[test]
    fn a_replayed_canary_incident_parses_nothing() {
        let text = investigate_without_parsing(
            |vm| {
                let pid = vm.spawn_process("victim", 1000, 16)?;
                vm.malloc(pid, 64)?;
                attacks::inject_heap_overflow(vm, pid, 32, 8).map(drop)
            },
            |c| Box::new(crate::modules::CanaryScanModule::new(c.vm().canary_secret())),
            true,
        );
        assert!(text.contains("pinpointed"));
    }

    #[test]
    fn a_syscall_hook_incident_parses_nothing() {
        let text = investigate_without_parsing(
            |vm| attacks::inject_syscall_hijack(vm, 42).map(drop),
            |c| {
                let session = crimes_vmi::VmiSession::open(c.symbols(), c.vm().memory())
                    .expect("open on the tenant's symbols");
                let module = crate::modules::SyscallTableModule::capture(&session, c.vm().memory());
                Box::new(module.expect("capture"))
            },
            false,
        );
        assert!(text.contains("syscall 42"));
    }

    #[test]
    fn names_are_sorted() {
        let mut fleet = Fleet::new();
        fleet.add_vm("zeta", guest(1), config()).unwrap();
        fleet.add_vm("alpha", guest(2), config()).unwrap();
        assert_eq!(fleet.names(), vec!["alpha", "zeta"]);
    }
}
