//! The hypervisor-side canary scanner — the scanning half of the
//! guest-aided buffer-overflow module (§4.2).
//!
//! The guest's malloc wrapper publishes a table of canary addresses at the
//! `crimes_canary_table` symbol. At each checkpoint the scanner walks the
//! live records, translates each canary's user GVA through the owning
//! task's address space, and compares the bytes against the per-VM secret.
//! A mismatch is a [`CanaryViolation`].
//!
//! Two scan scopes are provided:
//!
//! * [`CanaryScanner::scan_all`] — validate every live canary,
//! * [`CanaryScanner::scan_dirty`] — only canaries on pages dirtied this
//!   epoch (the optimisation the Checkpointer's dirty-page list enables;
//!   clean pages cannot have had a canary trampled).

use crimes_vm::layout::{canary_offsets, CANARY_LEN, CANARY_RECORD_SIZE};
use crimes_vm::symbols::names;
use crimes_vm::{DirtyBitmap, Gpa, Guest, GuestMemory, Gva, Pfn};

use crate::error::VmiError;
use crate::session::{AddressSpace, VmiSession};

/// The guest's canary table, bulk-read once per scan into a buffer the
/// caller keeps — the one decoder the serial scans and the fused walk's
/// staging share.
struct CanaryTable<'r> {
    records: &'r [u8],
}

/// One live record, its canary translated to a GPA inside the image.
struct LiveCanary<'a> {
    record_idx: usize,
    pid: u32,
    canary_gpa: Gpa,
    rec: Guest<&'a [u8]>,
}

impl<'r> CanaryTable<'r> {
    /// Validate the guest-written record count at the head of the table
    /// and bulk-read the records it claims into `buf` — the batching that
    /// makes the paper's ~90k canaries/ms validation rate possible. `buf`
    /// grows only past the largest table it has held.
    ///
    /// The header word lives in guest memory, so a compromised guest can
    /// write any value there. The count is plausible only if that many
    /// records fit between the header and the end of guest memory;
    /// anything larger is evidence of tampering and fails closed instead
    /// of sizing a buffer from a forged value.
    fn read(session: &VmiSession, mem: &GuestMemory, buf: &'r mut Vec<u8>) -> Result<Self, VmiError> {
        let table = session.hot_symbol(names::CANARY_TABLE)?;
        let claimed = mem.peek_u64(table)?;
        let extent = (mem.size_bytes() as u64).saturating_sub(table.0.saturating_add(8));
        let max = extent / CANARY_RECORD_SIZE;
        let count = claimed
            .extent(usize::try_from(max).unwrap_or(usize::MAX))
            .map_err(|e| VmiError::ImplausibleTableHeader {
                what: "canary",
                claimed: e.value,
                max,
            })?;
        // `count` records fit inside guest memory, so this cannot overflow.
        buf.clear();
        buf.resize(count * CANARY_RECORD_SIZE as usize, 0);
        mem.peek(table.add(8), buf)?;
        Ok(CanaryTable { records: buf })
    }

    /// Records the header claimed.
    fn len(&self) -> usize {
        self.records.len() / CANARY_RECORD_SIZE as usize
    }

    /// Hand every live record whose owner translates to `each`, and
    /// return how many live records did not translate (a hidden owner,
    /// or a canary outside its owner's mapping). A mapping that leaves
    /// the image is a hard error, not a skip.
    fn for_each_live(
        &self,
        session: &VmiSession,
        mut each: impl FnMut(LiveCanary<'_>) -> Result<(), VmiError>,
    ) -> Result<usize, VmiError> {
        let mut untranslatable = 0;
        // Records come in runs of one owner: look its space up once a run.
        let mut owner: Option<(u32, AddressSpace)> = None;
        let records = Guest::new(self.records).records(CANARY_RECORD_SIZE as usize);
        for (record_idx, rec) in records.enumerate() {
            if rec.le_u32(canary_offsets::LIVE as usize) != Some(Guest::new(1)) {
                continue;
            }
            let pid = rec
                .le_u32(canary_offsets::PID as usize)
                .map_or(0, Guest::unguarded);
            let canary_gva: Guest<Gva> = rec
                .le_u64(canary_offsets::CANARY_GVA as usize)
                .unwrap_or(Guest::new(0))
                .into();
            let space = match owner {
                Some((p, space)) if p == pid => Some(space),
                _ => session.address_space(pid),
            };
            let Some(space) = space else {
                untranslatable += 1;
                continue;
            };
            owner = Some((pid, space));
            let canary_gpa = match session.translate_in(&space, canary_gva, CANARY_LEN as u64) {
                Ok(gpa) => gpa,
                Err(VmiError::TranslationFault(_)) => {
                    untranslatable += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            each(LiveCanary {
                record_idx,
                pid,
                canary_gpa,
                rec,
            })?;
        }
        Ok(untranslatable)
    }
}

impl LiveCanary<'_> {
    /// The dirty page the canary is attributed to: the first of the (up
    /// to two) pages it touches that is dirty, `None` if both are clean.
    /// The GPA lies inside the image, so both pages are in the bitmap.
    fn owner_page(&self, dirty: &DirtyBitmap) -> Option<Pfn> {
        let first = self.canary_gpa.pfn();
        let last = self.canary_gpa.add(CANARY_LEN as u64 - 1).pfn();
        [first, last].into_iter().find(|&pfn| dirty.is_dirty(pfn))
    }

    /// The record's report fields, decoded only for a record that makes
    /// it into a report: (object GVA, object size, canary GVA).
    fn report_fields(&self) -> (Gva, u64, Gva) {
        let field = |off: u64| self.rec.le_u64(off as usize).map_or(0, Guest::unguarded);
        (
            Gva(field(canary_offsets::OBJECT_GVA)),
            field(canary_offsets::SIZE),
            Gva(field(canary_offsets::CANARY_GVA)),
        )
    }
}

/// One trampled canary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanaryViolation {
    /// Index of the record in the guest table.
    pub record_idx: usize,
    /// Owning pid.
    pub pid: u32,
    /// Protected object's user GVA.
    pub object_gva: Gva,
    /// Object size in bytes.
    pub size: u64,
    /// The canary's user GVA.
    pub canary_gva: Gva,
    /// The bytes found instead of the secret.
    pub found: [u8; CANARY_LEN],
}

/// Result of one canary scan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CanaryScanReport {
    /// Canaries whose bytes were compared.
    pub checked: usize,
    /// Live records skipped because their page was clean (dirty-scoped
    /// scans only).
    pub skipped_clean: usize,
    /// Live records whose owner's address space could not be resolved
    /// through the task list — typically because a rootkit hid the owning
    /// process. The hidden-process (cross-view) module is responsible for
    /// that evidence; the canary scan only counts it.
    pub skipped_untranslatable: usize,
    /// Violations found.
    pub violations: Vec<CanaryViolation>,
}

impl CanaryScanReport {
    /// `true` when no canary was trampled.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Scanner configured with the per-VM canary secret.
#[derive(Debug, Clone)]
pub struct CanaryScanner {
    secret: [u8; CANARY_LEN],
}

impl CanaryScanner {
    /// Create a scanner for a VM whose allocator uses `secret` (shared with
    /// the provider out of band, never visible to the attacker).
    pub fn new(secret: [u8; CANARY_LEN]) -> Self {
        CanaryScanner { secret }
    }

    /// Validate every live canary.
    ///
    /// # Errors
    ///
    /// Fails if the table symbol is unknown or a record's owner cannot be
    /// translated.
    pub fn scan_all(
        &self,
        session: &VmiSession,
        mem: &GuestMemory,
    ) -> Result<CanaryScanReport, VmiError> {
        self.scan(session, mem, None)
    }

    /// Validate only canaries living on pages marked in `dirty`.
    ///
    /// # Errors
    ///
    /// Fails if the table symbol is unknown or a record's owner cannot be
    /// translated.
    pub fn scan_dirty(
        &self,
        session: &VmiSession,
        mem: &GuestMemory,
        dirty: &DirtyBitmap,
    ) -> Result<CanaryScanReport, VmiError> {
        self.scan(session, mem, Some(dirty))
    }

    fn scan(
        &self,
        session: &VmiSession,
        mem: &GuestMemory,
        dirty: Option<&DirtyBitmap>,
    ) -> Result<CanaryScanReport, VmiError> {
        let mut report = CanaryScanReport::default();
        let mut records = Vec::new();
        let table = CanaryTable::read(session, mem, &mut records)?;
        let untranslatable = table.for_each_live(session, |live| {
            if dirty.is_some_and(|dirty| live.owner_page(dirty).is_none()) {
                report.skipped_clean += 1;
                return Ok(());
            }
            let found = mem.peek_array::<CANARY_LEN>(live.canary_gpa)?;
            report.checked += 1;
            if found != self.secret {
                let (object_gva, size, canary_gva) = live.report_fields();
                report.violations.push(CanaryViolation {
                    record_idx: live.record_idx,
                    pid: live.pid,
                    object_gva,
                    size,
                    canary_gva,
                    found: found.unguarded(),
                });
            }
            Ok(())
        })?;
        report.skipped_untranslatable = untranslatable;
        Ok(report)
    }
}

/// One canary check staged for a fused pause-window walk: the record's
/// fields and its translated GPA, resolved *before* the walk so worker
/// threads only compare bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedCheck {
    /// Index of the record in the guest table.
    pub record_idx: usize,
    /// Owning pid.
    pub pid: u32,
    /// Protected object's user GVA.
    pub object_gva: Gva,
    /// Object size in bytes.
    pub size: u64,
    /// The canary's user GVA.
    pub canary_gva: Gva,
    /// The canary's translated guest-physical address.
    pub canary_gpa: Gpa,
    /// The dirty page this check is attributed to (the first dirty page
    /// the canary touches); the fused walk runs the check when it visits
    /// this page.
    pub owner_pfn: Pfn,
}

/// Dirty-scoped canary checks staged for one epoch's fused walk, sorted by
/// owner page for cheap per-page lookup. Filled by
/// [`CanaryScanner::prepare_dirty`] on the main thread; worker threads
/// then call [`check_page`](Self::check_page) — pure byte compares, no
/// translation, no allocation. Refilled every epoch, it keeps its
/// buffers: staging allocates only when the guest's canary table, or the
/// checks on one epoch's dirty pages, outgrow every earlier epoch's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreparedCanaries {
    secret: [u8; CANARY_LEN],
    /// The bulk-read table the checks were decoded from.
    records: Vec<u8>,
    checks: Vec<PreparedCheck>,
    /// Live records skipped because their pages were clean.
    pub skipped_clean: usize,
    /// Live records whose owner could not be translated (counted exactly
    /// as [`CanaryScanReport::skipped_untranslatable`]).
    pub skipped_untranslatable: usize,
}

impl PreparedCanaries {
    /// Number of canaries staged (each is compared exactly once, when the
    /// walk visits its owner page).
    pub fn checked(&self) -> usize {
        self.checks.len()
    }

    /// Run every check owned by `pfn`, invoking `hit` with the record
    /// index of each trampled canary. Thread-safe by construction: reads
    /// paused guest memory and per-call state only.
    pub fn check_page(&self, pfn: Pfn, mem: &GuestMemory, hit: &mut dyn FnMut(usize)) {
        let start = self.checks.partition_point(|c| c.owner_pfn < pfn);
        for check in self
            .checks
            .get(start..)
            .unwrap_or(&[])
            .iter()
            .take_while(|c| c.owner_pfn == pfn)
        {
            // Staged GPAs lie inside the image, so the read succeeds; were
            // it to fail, the canary counts as trampled (fail closed).
            let intact = mem
                .peek_array::<CANARY_LEN>(check.canary_gpa)
                .is_ok_and(|found| found == self.secret);
            if !intact {
                hit(check.record_idx);
            }
        }
    }

    /// The staged check for `record_idx`, if any — resolves a fused walk's
    /// finding key back into the full record.
    pub fn resolve(&self, record_idx: usize) -> Option<&PreparedCheck> {
        self.checks.iter().find(|c| c.record_idx == record_idx)
    }
}

impl CanaryScanner {
    /// Stage the epoch's dirty-scoped canary checks for a fused walk: the
    /// same record walk as [`scan_dirty`](Self::scan_dirty), but stopping
    /// short of the byte compare — translation and filtering happen here,
    /// on the main thread, and the compares run sharded inside the walk.
    ///
    /// # Errors
    ///
    /// Fails if the table symbol is unknown or a record's owner cannot be
    /// translated (the same errors `scan_dirty` surfaces); `prepared` is
    /// then only partly filled and stages nothing.
    pub fn prepare_dirty(
        &self,
        session: &VmiSession,
        mem: &GuestMemory,
        dirty: &DirtyBitmap,
        prepared: &mut PreparedCanaries,
    ) -> Result<(), VmiError> {
        let PreparedCanaries { secret, records, checks, skipped_clean, skipped_untranslatable } =
            prepared;
        *secret = self.secret;
        checks.clear();
        *skipped_clean = 0;
        *skipped_untranslatable = 0;
        let table = CanaryTable::read(session, mem, records)?;
        checks.reserve(table.len());
        *skipped_untranslatable = table.for_each_live(session, |live| {
            // A canary can span two pages; it is owned by the first dirty
            // one, which the fused walk is guaranteed to visit.
            let Some(owner_pfn) = live.owner_page(dirty) else {
                *skipped_clean += 1;
                return Ok(());
            };
            let (object_gva, size, canary_gva) = live.report_fields();
            checks.push(PreparedCheck {
                record_idx: live.record_idx,
                pid: live.pid,
                object_gva,
                size,
                canary_gva,
                canary_gpa: live.canary_gpa,
                owner_pfn,
            });
            Ok(())
        })?;
        checks.sort_unstable_by_key(|c| (c.owner_pfn, c.record_idx));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::layout::task_offsets;
    use crimes_vm::Vm;

    fn setup() -> (Vm, VmiSession, CanaryScanner) {
        let mut b = Vm::builder();
        b.pages(2048).seed(31);
        let vm = b.build();
        let session = VmiSession::init(&vm).expect("init");
        let scanner = CanaryScanner::new(vm.canary_secret());
        (vm, session, scanner)
    }

    fn prepare(
        scanner: &CanaryScanner,
        s: &VmiSession,
        vm: &Vm,
        dirty: &DirtyBitmap,
    ) -> Result<PreparedCanaries, VmiError> {
        let mut prepared = PreparedCanaries::default();
        scanner.prepare_dirty(s, vm.memory(), dirty, &mut prepared)?;
        Ok(prepared)
    }

    fn refresh(session: &mut VmiSession, vm: &Vm) {
        session.refresh_address_spaces(vm.memory()).unwrap();
    }

    #[test]
    fn clean_heap_scans_clean() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        for _ in 0..10 {
            vm.malloc(pid, 64).unwrap();
        }
        refresh(&mut s, &vm);
        let report = scanner.scan_all(&s, vm.memory()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.checked, 10);
    }

    #[test]
    fn overflow_is_detected_with_object_details() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("victim", 0, 16).unwrap();
        let obj = vm.malloc(pid, 32).unwrap();
        vm.malloc(pid, 32).unwrap();
        vm.write_user(pid, obj, &[0x61u8; 40], 0xbad).unwrap();
        refresh(&mut s, &vm);
        let report = scanner.scan_all(&s, vm.memory()).unwrap();
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.pid, pid);
        assert_eq!(v.object_gva, obj);
        assert_eq!(v.size, 32);
        assert_eq!(v.canary_gva, obj.add(32));
        assert_eq!(v.found, [0x61u8; CANARY_LEN]);
    }

    #[test]
    fn freed_records_are_not_scanned() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        let obj = vm.malloc(pid, 32).unwrap();
        vm.free(pid, obj).unwrap();
        // A write over the freed region would have trampled the old canary.
        vm.write_user(pid, obj, &[9u8; 48], 0).unwrap();
        refresh(&mut s, &vm);
        let report = scanner.scan_all(&s, vm.memory()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn dirty_scoped_scan_skips_clean_pages() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 64).unwrap();
        // Fill several pages with allocations.
        for _ in 0..100 {
            vm.malloc(pid, 1000).unwrap();
        }
        refresh(&mut s, &vm);
        // New epoch: nothing dirty.
        vm.memory_mut().clear_dirty();
        let obj = vm.malloc(pid, 16).unwrap();
        vm.write_user(pid, obj, &[1u8; 30], 0xbad).unwrap();
        let dirty = vm.memory().dirty().clone();
        refresh(&mut s, &vm);
        let report = scanner.scan_dirty(&s, vm.memory(), &dirty).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(
            report.skipped_clean > 50,
            "most canaries sit on clean pages; got {}",
            report.skipped_clean
        );
        assert!(report.checked < 101);
    }

    #[test]
    fn dirty_and_full_scans_agree_on_violations() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 32).unwrap();
        let a = vm.malloc(pid, 24).unwrap();
        vm.malloc(pid, 24).unwrap();
        vm.write_user(pid, a, &[7u8; 33], 0).unwrap();
        refresh(&mut s, &vm);
        let full = scanner.scan_all(&s, vm.memory()).unwrap();
        let dirty = vm.memory().dirty().clone();
        let scoped = scanner.scan_dirty(&s, vm.memory(), &dirty).unwrap();
        assert_eq!(full.violations, scoped.violations);
    }

    #[test]
    fn wrong_secret_flags_everything() {
        let (mut vm, mut s, _) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        vm.malloc(pid, 8).unwrap();
        refresh(&mut s, &vm);
        let wrong = CanaryScanner::new(*b"WRONG!!!");
        let report = wrong.scan_all(&s, vm.memory()).unwrap();
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn exact_fit_write_does_not_trip_canary() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        let obj = vm.malloc(pid, 64).unwrap();
        vm.write_user(pid, obj, &[5u8; 64], 0).unwrap();
        refresh(&mut s, &vm);
        assert!(scanner.scan_all(&s, vm.memory()).unwrap().is_clean());
    }

    /// Drive prepared checks the way a fused walk would: visit every dirty
    /// page once, collect hit record indices.
    fn run_prepared(prepared: &PreparedCanaries, vm: &Vm, dirty: &DirtyBitmap) -> Vec<usize> {
        let mut hits = Vec::new();
        for pfn in dirty.iter() {
            prepared.check_page(pfn, vm.memory(), &mut |idx| hits.push(idx));
        }
        hits.sort_unstable();
        hits
    }

    #[test]
    fn prepared_checks_match_dirty_scan() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 64).unwrap();
        for _ in 0..100 {
            vm.malloc(pid, 1000).unwrap();
        }
        refresh(&mut s, &vm);
        vm.memory_mut().clear_dirty();
        let a = vm.malloc(pid, 16).unwrap();
        vm.malloc(pid, 16).unwrap();
        vm.write_user(pid, a, &[1u8; 30], 0xbad).unwrap();
        let dirty = vm.memory().dirty().clone();
        refresh(&mut s, &vm);

        let report = scanner.scan_dirty(&s, vm.memory(), &dirty).unwrap();
        let prepared = prepare(&scanner, &s, &vm, &dirty).unwrap();

        assert_eq!(prepared.checked(), report.checked);
        assert_eq!(prepared.skipped_clean, report.skipped_clean);
        assert_eq!(
            prepared.skipped_untranslatable,
            report.skipped_untranslatable
        );
        let hits = run_prepared(&prepared, &vm, &dirty);
        let want: Vec<usize> = report.violations.iter().map(|v| v.record_idx).collect();
        assert_eq!(hits, want, "fused-walk hits must equal the serial scan's");
        // The staged record resolves back to the violation's full details.
        let v = &report.violations[0];
        let check = prepared.resolve(v.record_idx).expect("staged");
        assert_eq!(check.pid, v.pid);
        assert_eq!(check.object_gva, v.object_gva);
        assert_eq!(check.size, v.size);
        assert_eq!(check.canary_gva, v.canary_gva);
    }

    #[test]
    fn prepared_checks_on_clean_heap_find_nothing() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        for _ in 0..10 {
            vm.malloc(pid, 64).unwrap();
        }
        let dirty = vm.memory().dirty().clone();
        refresh(&mut s, &vm);
        let prepared = prepare(&scanner, &s, &vm, &dirty).unwrap();
        assert_eq!(prepared.checked(), 10);
        assert!(run_prepared(&prepared, &vm, &dirty).is_empty());
    }

    #[test]
    fn off_by_one_overflow_is_caught() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        let obj = vm.malloc(pid, 64).unwrap();
        vm.write_user(pid, obj, &[5u8; 65], 0).unwrap();
        refresh(&mut s, &vm);
        let report = scanner.scan_all(&s, vm.memory()).unwrap();
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn forged_huge_record_count_fails_closed() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        vm.malloc(pid, 64).unwrap();
        refresh(&mut s, &vm);
        // A compromised guest forges an absurd count in the table header.
        // Every scan entry point must surface the typed error instead of
        // sizing a buffer from (or wrapping on) the forged value.
        let table = s.hot_symbol(names::CANARY_TABLE).unwrap();
        vm.memory_mut().write_u64(table, u64::MAX);
        let dirty = vm.memory().dirty().clone();
        assert!(matches!(
            scanner.scan_all(&s, vm.memory()).unwrap_err(),
            VmiError::ImplausibleTableHeader {
                what: "canary",
                claimed: u64::MAX,
                ..
            }
        ));
        assert!(matches!(
            scanner.scan_dirty(&s, vm.memory(), &dirty).unwrap_err(),
            VmiError::ImplausibleTableHeader { .. }
        ));
        assert!(matches!(
            prepare(&scanner, &s, &vm, &dirty).unwrap_err(),
            VmiError::ImplausibleTableHeader { .. }
        ));
    }

    #[test]
    fn a_mapping_past_the_image_fails_every_scan_closed() {
        let (mut vm, mut s, scanner) = setup();
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        vm.malloc(pid, 64).unwrap();
        let slot = vm.kernel().task_slot_of(pid).unwrap();
        let mm_phys = vm.layout().task_slot(slot).add(task_offsets::MM_PHYS);
        vm.memory_mut().write_u64(mm_phys, 1 << 40);
        refresh(&mut s, &vm);
        let dirty = vm.memory().dirty().clone();
        let past_image = |e: VmiError| matches!(e, VmiError::OutOfImage(e) if e.value == 1 << 40);
        assert!(past_image(scanner.scan_all(&s, vm.memory()).unwrap_err()));
        assert!(past_image(
            scanner.scan_dirty(&s, vm.memory(), &dirty).unwrap_err()
        ));
        assert!(past_image(
            prepare(&scanner, &s, &vm, &dirty).unwrap_err()
        ));
    }

    #[test]
    fn record_count_just_past_the_addressable_extent_is_refused() {
        let (mut vm, mut s, scanner) = setup();
        refresh(&mut s, &vm);
        let table = s.hot_symbol(names::CANARY_TABLE).unwrap();
        let extent = vm.memory().size_bytes() as u64 - (table.0 + 8);
        let max = extent / CANARY_RECORD_SIZE;
        vm.memory_mut().write_u64(table, max + 1);
        assert_eq!(
            scanner.scan_all(&s, vm.memory()).unwrap_err(),
            VmiError::ImplausibleTableHeader {
                what: "canary",
                claimed: max + 1,
                max,
            }
        );
    }
}
