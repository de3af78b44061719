//! The introspection session — our LibVMI.
//!
//! `vmi_init` on real LibVMI is expensive: it parses the kernel's symbol
//! file, detects the OS version, and configures address translation. That
//! is why CRIMES initialises **once** and only pays the (sub-millisecond)
//! structure walks at each checkpoint (§5.3, Table 3). [`VmiSession`]
//! reproduces the same phase split:
//!
//! * **initialization** — render and *re-parse* the textual `System.map`
//!   (tens of thousands of lines) into [`Symbols`], read the
//!   `linux_banner` string out of guest memory, and check the kernel
//!   version against the profile. The render and parse dominate it and
//!   are timed on their own ([`InitTimings::symbols`]);
//! * **preprocessing** — pre-resolve the hot symbols to physical addresses
//!   and build the user-address-translation cache by walking the task list
//!   once;
//! * **memory analysis** — the per-scan walks in [`crate::linux`], which are
//!   all that runs inside the checkpoint pause window.
//!
//! The parse depends on the kernel build alone, the rest on the guest.
//! [`Symbols::parse`] is the parse and [`VmiSession::open`] everything
//! after it, so one parsed table serves every session on that build: the
//! tenants of a fleet that run it, and the sessions an incident opens
//! over its dumps. [`VmiSession::init`] is both, the cold path a fresh
//! monitor pays.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crimes_telemetry::{Clock, RealClock};
use crimes_vm::layout::task_offsets;
use crimes_vm::symbols::names;
use crimes_vm::{Gpa, Guest, GuestMemory, Gva, SystemMap, Vm};

use crate::error::VmiError;

/// A parsed `System.map`: immutable, and shared by every session opened
/// on it (cloning is a reference count).
#[derive(Debug, Clone)]
pub struct Symbols(Arc<SystemMap>);

impl Symbols {
    /// Render `map` as `System.map` text and parse it back, as LibVMI
    /// parses the real file: the only symbol parse there is, and most of
    /// Table 3's *initialization* row ([`InitTimings::symbols`]). Each
    /// call pays both passes cold; nothing is kept between calls.
    ///
    /// # Errors
    ///
    /// [`VmiError::BadSystemMap`] naming the first malformed line.
    pub fn parse(map: &SystemMap) -> Result<Self, VmiError> {
        let text = map.to_text();
        let parsed = SystemMap::parse(&text).map_err(VmiError::BadSystemMap)?;
        Ok(Symbols(Arc::new(parsed)))
    }

    /// The parsed map. Parsing is idempotent on its own output, so a map
    /// equal to this one parses to this one: a caller holding a
    /// `Symbols` may open sessions on it for any guest whose map is equal.
    pub fn map(&self) -> &SystemMap {
        &self.0
    }

    /// `true` when `a` and `b` are one parse, not two equal ones.
    pub fn ptr_eq(a: &Symbols, b: &Symbols) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

/// Init-phase timings, matching Table 3's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InitTimings {
    /// Symbol parse (when the session made one) + kernel detection.
    pub initialization: Duration,
    /// The part of `initialization` that rendered System.map as text and
    /// parsed it back ([`Symbols::parse`]); `Duration::ZERO` for a session
    /// opened on shared [`Symbols`].
    pub symbols: Duration,
    /// Translation-cache construction.
    pub preprocessing: Duration,
}

/// Cached user address-space info for one task, read from its task
/// struct — guest values all, checked only when a translation uses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    /// User virtual base.
    pub virt_base: Guest<Gva>,
    /// Backing physical base.
    pub phys_base: Guest<Gpa>,
    /// Mapping length in bytes.
    pub len: Guest<u64>,
}

impl AddressSpace {
    /// Translate `span` bytes at `gva` in this space to a GPA inside an
    /// image of `image_bytes`: the whole mapping must lie inside the
    /// image, the span inside the mapping.
    fn translate(&self, gva: Guest<Gva>, span: u64, image_bytes: usize) -> Result<Gpa, VmiError> {
        let len = self.len.extent(image_bytes)?;
        let phys = self.phys_base.checked_span(len as u64, image_bytes)?;
        // The span's end offset, checked against the mapping's length.
        let end = gva
            .checked_sub(self.virt_base)
            .and_then(|off| off.checked_add(span))
            .and_then(|end| end.extent(len).ok())
            .ok_or(VmiError::TranslationFault(gva))?;
        Ok(phys.add(end as u64 - span))
    }
}

/// An initialised introspection session for one VM.
#[derive(Debug, Clone)]
pub struct VmiSession {
    symbols: Symbols,
    banner: String,
    /// Hot symbols resolved to guest-physical addresses.
    resolved: HashMap<&'static str, Gpa>,
    /// pid → user address space, discovered from task structs.
    address_spaces: HashMap<u32, AddressSpace>,
    /// The map the next refresh fills, swapped in only when the walk
    /// succeeds.
    spare_spaces: HashMap<u32, AddressSpace>,
    /// Size of the guest image the session was opened on: every
    /// translation lands inside it.
    image_bytes: usize,
    timings: InitTimings,
    /// Whether making the session parsed `symbols`.
    parsed: bool,
}

/// The symbols resolved eagerly during preprocessing.
const HOT_SYMBOLS: [&str; 9] = [
    names::SYS_CALL_TABLE,
    names::INIT_TASK,
    names::MODULES,
    names::PID_HASH,
    names::TASK_SLAB,
    names::MODULE_SLAB,
    names::SOCKET_TABLE,
    names::FILE_TABLE,
    names::CANARY_TABLE,
];

impl VmiSession {
    /// Initialise introspection against `vm`, paying the full
    /// initialization + preprocessing cost: a symbol parse, then
    /// [`open`](Self::open).
    ///
    /// # Errors
    ///
    /// Fails if `System.map` is malformed, a required symbol is missing, or
    /// the guest banner names an unsupported kernel.
    pub fn init(vm: &Vm) -> Result<Self, VmiError> {
        Self::init_with(vm.system_map(), vm.memory())
    }

    /// Initialise against any memory view (a live guest or a forensic
    /// dump) plus its `System.map` — the path Volatility-style offline
    /// analysis uses.
    ///
    /// # Errors
    ///
    /// Same conditions as [`VmiSession::init`].
    pub fn init_with(map: &SystemMap, mem: &GuestMemory) -> Result<Self, VmiError> {
        let clock = RealClock::new();
        let symbols = Symbols::parse(map)?;
        let parse = Duration::from_nanos(clock.now_ns());
        let mut session = Self::open_since(symbols, mem, &clock)?;
        session.parsed = true;
        session.timings.symbols = parse;
        Ok(session)
    }

    /// Open a session on `mem` over symbols already parsed for its kernel
    /// build: everything [`init_with`](Self::init_with) does but the
    /// parse. The banner is still read and checked against this guest,
    /// and the task walk still runs.
    ///
    /// # Errors
    ///
    /// Fails if a required symbol is missing or the guest banner names an
    /// unsupported kernel.
    pub fn open(symbols: &Symbols, mem: &GuestMemory) -> Result<Self, VmiError> {
        Self::open_since(symbols.clone(), mem, &RealClock::new())
    }

    /// The per-guest part of start-up, its initialization timed from
    /// `clock`'s origin.
    fn open_since(symbols: Symbols, mem: &GuestMemory, clock: &RealClock) -> Result<Self, VmiError> {
        // ---- initialization --------------------------------------------
        let banner_gpa = kernel_sym_gpa(symbols.map(), names::LINUX_BANNER)?;
        let banner = crate::linux::read_fixed_string(mem, banner_gpa, 128)?;
        if !banner.starts_with("Linux version 4.") {
            return Err(VmiError::UnsupportedKernel(banner));
        }
        let initialization = Duration::from_nanos(clock.now_ns());

        // ---- preprocessing ----------------------------------------------
        let t1 = clock.now_ns();
        let mut resolved = HashMap::new();
        for name in HOT_SYMBOLS {
            resolved.insert(name, kernel_sym_gpa(symbols.map(), name)?);
        }
        let mut session = VmiSession {
            symbols,
            banner,
            resolved,
            address_spaces: HashMap::new(),
            spare_spaces: HashMap::new(),
            image_bytes: mem.size_bytes(),
            timings: InitTimings::default(),
            parsed: false,
        };
        session.refresh_address_spaces(mem)?;
        session.timings = InitTimings {
            initialization,
            symbols: Duration::ZERO,
            preprocessing: Duration::from_nanos(clock.now_ns().saturating_sub(t1)),
        };
        Ok(session)
    }

    /// The parsed symbol table this session resolves through.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// `true` when making this session parsed its symbols
    /// ([`init`](Self::init)), `false` when it was opened on shared ones.
    pub fn parsed_symbols(&self) -> bool {
        self.parsed
    }

    /// Init-phase timings (Table 3's first two rows).
    pub fn timings(&self) -> InitTimings {
        self.timings
    }

    /// The banner string read from guest memory.
    pub fn kernel_banner(&self) -> &str {
        &self.banner
    }

    /// Resolve a hot symbol to its guest-physical address (pre-resolved at
    /// preprocessing time, so this is a map lookup).
    ///
    /// # Errors
    ///
    /// Fails for symbols outside the hot set — use [`VmiSession::lookup`]
    /// for those.
    pub fn hot_symbol(&self, name: &str) -> Result<Gpa, VmiError> {
        self.resolved
            .get(name)
            .copied()
            .ok_or_else(|| VmiError::UnknownSymbol(name.to_owned()))
    }

    /// Resolve any symbol through the parsed map (kernel direct map only).
    ///
    /// # Errors
    ///
    /// Fails if the symbol is missing or not a kernel address.
    pub fn lookup(&self, name: &str) -> Result<Gpa, VmiError> {
        kernel_sym_gpa(self.symbols.map(), name)
    }

    /// Translate a kernel GVA (direct map) to the GPA of a `span`-byte
    /// structure that lies wholly inside the guest image.
    ///
    /// # Errors
    ///
    /// [`VmiError::TranslationFault`] for a user address,
    /// [`VmiError::OutOfImage`] when the structure would leave the image.
    pub fn translate_kernel(&self, gva: Guest<Gva>, span: u64) -> Result<Gpa, VmiError> {
        let gpa = gva.kernel_to_gpa().ok_or(VmiError::TranslationFault(gva))?;
        Ok(gpa.checked_span(span, self.image_bytes)?)
    }

    /// Translate `span` bytes at a user GVA through `pid`'s cached address
    /// space. The whole mapping must lie inside the guest image; the span
    /// must lie inside the mapping.
    ///
    /// # Errors
    ///
    /// [`VmiError::NoSuchTask`] if the pid is unknown to the cache,
    /// [`VmiError::TranslationFault`] if the span is outside its mapping,
    /// [`VmiError::OutOfImage`] if the mapping itself leaves the image (a
    /// forged `mm_phys`/`mm_size`: a hard error, not a skip).
    pub fn translate_user(&self, pid: u32, gva: Guest<Gva>, span: u64) -> Result<Gpa, VmiError> {
        let space = self
            .address_spaces
            .get(&pid)
            .ok_or(VmiError::NoSuchTask(pid))?;
        space.translate(gva, span, self.image_bytes)
    }

    /// [`translate_user`](Self::translate_user) for a caller that already
    /// holds `pid`'s address space — the canary decoder, which meets the
    /// same owner record after record.
    pub(crate) fn translate_in(
        &self,
        space: &AddressSpace,
        gva: Guest<Gva>,
        span: u64,
    ) -> Result<Gpa, VmiError> {
        space.translate(gva, span, self.image_bytes)
    }

    /// The cached address space of `pid`, if known.
    pub fn address_space(&self, pid: u32) -> Option<AddressSpace> {
        self.address_spaces.get(&pid).copied()
    }

    /// Re-walk the task list and rebuild the pid → address-space cache.
    /// Call after process churn; the canary scanner calls it each scan so
    /// newly spawned processes translate.
    ///
    /// # Errors
    ///
    /// Fails if the task list is malformed or leaves the image, or with
    /// [`VmiError::TransientReadFault`] when an injected read fault fires
    /// (retry-safe — the guest is paused during audits). A failed refresh
    /// leaves the cache as it was.
    pub fn refresh_address_spaces(&mut self, mem: &GuestMemory) -> Result<(), VmiError> {
        if crimes_faults::should_inject(crimes_faults::FaultPoint::VmiRead) {
            return Err(VmiError::TransientReadFault);
        }
        let mut spaces = std::mem::take(&mut self.spare_spaces);
        spaces.clear();
        let walked = crate::linux::walk_tasks(self, mem, |task| {
            let len = mem.peek_u64(task.add(task_offsets::MM_SIZE))?;
            if len != 0 {
                let pid = mem.peek_u32(task.add(task_offsets::PID))?;
                let space = AddressSpace {
                    virt_base: mem.peek_u64(task.add(task_offsets::MM_START))?.into(),
                    phys_base: mem.peek_u64(task.add(task_offsets::MM_PHYS))?.into(),
                    len,
                };
                spaces.insert(pid.unguarded(), space);
            }
            Ok(())
        });
        if walked.is_ok() {
            std::mem::swap(&mut self.address_spaces, &mut spaces);
            // The spare grows with the cache, so the next refresh
            // allocates only past the most tasks ever seen.
            spaces.clear();
            spaces.reserve(self.address_spaces.len());
        }
        self.spare_spaces = spaces;
        walked
    }
}

/// Resolve `name` and translate through the kernel direct map.
fn kernel_sym_gpa(symbols: &SystemMap, name: &str) -> Result<Gpa, VmiError> {
    let gva = symbols
        .lookup(name)
        .ok_or_else(|| VmiError::UnknownSymbol(name.to_owned()))?;
    gva.kernel_to_gpa()
        .ok_or(VmiError::TranslationFault(Guest::new(gva)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Vm;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(4);
        b.build()
    }

    #[test]
    fn init_detects_kernel_version() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(s.kernel_banner().starts_with("Linux version 4.8.0-crimes"));
    }

    #[test]
    fn init_records_phase_timings() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(s.timings().initialization > Duration::ZERO);
        assert!(s.timings().preprocessing > Duration::ZERO);
    }

    #[test]
    fn init_times_its_parse_and_open_on_shared_symbols_makes_none() {
        let vm = vm();
        let cold = VmiSession::init(&vm).expect("init");
        let t = cold.timings();
        assert!(t.symbols > Duration::ZERO);
        assert!(t.symbols <= t.initialization, "{t:?}");
        let symbols = Symbols::parse(vm.system_map()).expect("parse");
        let warm = VmiSession::open(&symbols, vm.memory()).expect("open");
        assert_eq!(warm.timings().symbols, Duration::ZERO);
        assert!(warm.timings().initialization > Duration::ZERO);
    }

    #[test]
    fn open_on_shared_symbols_matches_init() {
        let mut vm = vm();
        vm.spawn_process("app", 0, 4).unwrap();
        let cold = VmiSession::init(&vm).expect("init");
        let symbols = Symbols::parse(vm.system_map()).expect("parse");
        let a = VmiSession::open(&symbols, vm.memory()).expect("open");
        let b = VmiSession::open(&symbols, vm.memory()).expect("open");
        assert!(Symbols::ptr_eq(a.symbols(), b.symbols()), "one parse, two sessions");
        assert!(cold.parsed_symbols() && !a.parsed_symbols());
        assert!(!Symbols::ptr_eq(a.symbols(), cold.symbols()));
        assert_eq!(a.symbols().map(), cold.symbols().map());
        assert_eq!(a.kernel_banner(), cold.kernel_banner());
        for name in HOT_SYMBOLS {
            assert_eq!(a.hot_symbol(name), cold.hot_symbol(name), "{name}");
        }
        assert_eq!(a.address_spaces, cold.address_spaces);
    }

    #[test]
    fn shared_symbols_never_skip_the_banner_check() {
        let mut vm = vm();
        let symbols = Symbols::parse(vm.system_map()).expect("parse");
        let banner = vm.layout().banner;
        vm.memory_mut().write(banner, b"Linux version 2.6.32-forged\0");
        assert!(matches!(
            VmiSession::open(&symbols, vm.memory()),
            Err(VmiError::UnsupportedKernel(b)) if b.starts_with("Linux version 2.6")
        ));
    }

    #[test]
    fn parsed_symbols_equal_their_source_map() {
        let vm = vm();
        let symbols = Symbols::parse(vm.system_map()).expect("parse");
        assert_eq!(symbols.map(), vm.system_map());
        let again = Symbols::parse(symbols.map()).expect("a parse output parses");
        assert_eq!(again.map(), symbols.map(), "parsing is idempotent on its output");
    }

    #[test]
    fn hot_symbols_resolve_to_layout_addresses() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert_eq!(
            s.hot_symbol(names::SYS_CALL_TABLE).unwrap(),
            vm.layout().syscall_table
        );
        assert_eq!(
            s.hot_symbol(names::CANARY_TABLE).unwrap(),
            vm.layout().canary_table
        );
    }

    #[test]
    fn unknown_symbol_is_an_error() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(matches!(
            s.hot_symbol("no_such_symbol"),
            Err(VmiError::UnknownSymbol(_))
        ));
        assert!(matches!(
            s.lookup("no_such_symbol"),
            Err(VmiError::UnknownSymbol(_))
        ));
    }

    #[test]
    fn translate_kernel_rejects_user_addresses() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert!(s.translate_kernel(Guest::new(Gva(0x1000)), 8).is_err());
    }

    #[test]
    fn user_translation_goes_through_task_structs() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 8).unwrap();
        let obj = vm.malloc(pid, 64).unwrap();
        vm.write_user(pid, obj, b"find me", 0).unwrap();

        let mut s = VmiSession::init(&vm).expect("init");
        s.refresh_address_spaces(vm.memory()).unwrap();
        let gpa = s
            .translate_user(pid, Guest::new(obj), 7)
            .expect("translate");
        assert!(vm.memory().peek_array::<7>(gpa).unwrap() == *b"find me");
    }

    #[test]
    fn translation_cache_refresh_picks_up_new_processes() {
        let mut vm = vm();
        let s0 = VmiSession::init(&vm).expect("init");
        let pid = vm.spawn_process("late", 0, 4).unwrap();
        assert!(s0.address_space(pid).is_none(), "stale cache misses it");
        let mut s = s0;
        s.refresh_address_spaces(vm.memory()).unwrap();
        assert!(s.address_space(pid).is_some());
    }

    #[test]
    fn translate_user_unknown_pid_fails() {
        let vm = vm();
        let s = VmiSession::init(&vm).expect("init");
        assert_eq!(
            s.translate_user(42, Guest::new(Gva(0)), 1),
            Err(VmiError::NoSuchTask(42))
        );
    }

    #[test]
    fn translate_user_out_of_mapping_fails() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 1).unwrap();
        let mut s = VmiSession::init(&vm).expect("init");
        s.refresh_address_spaces(vm.memory()).unwrap();
        let end = vm.processes().get(pid).unwrap().mapping.virt_end();
        assert!(matches!(
            s.translate_user(pid, Guest::new(end), 1),
            Err(VmiError::TranslationFault(_))
        ));
    }
}
