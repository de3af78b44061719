//! `System.map` — the symbol table a cloud provider holds for a known guest
//! kernel version, which is what makes virtual machine introspection
//! possible (§3.2: "using a System.map file to locate kernel data
//! structures for a VM running a known version of Linux").
//!
//! The map is produced (and consumed) in the classic textual format:
//!
//! ```text
//! ffff880000001000 D sys_call_table
//! ```
//!
//! `crimes-vmi` parses this text during its *initialization* phase, so the
//! Table 3 init-cost measurement exercises a real parse.

use std::fmt;

use crate::addr::Gva;
use crate::layout::KernelLayout;

/// Kernel version banner of the simulated guest. Matches the paper's
/// evaluation guests (OpenSUSE 13.1, Linux 4.8).
pub const LINUX_BANNER: &str =
    "Linux version 4.8.0-crimes (gcc version 4.8.1) #1 SMP Mon Dec 10 2018";

/// Well-known symbol names exported by the simulated kernel.
pub mod names {
    /// The kernel version banner string.
    pub const LINUX_BANNER: &str = "linux_banner";
    /// The syscall table.
    pub const SYS_CALL_TABLE: &str = "sys_call_table";
    /// Head of the circular task list (pid 0's task struct).
    pub const INIT_TASK: &str = "init_task";
    /// The module list head.
    pub const MODULES: &str = "modules";
    /// The pid hash array.
    pub const PID_HASH: &str = "pid_hash";
    /// Base of the task-struct slab (`kmem_cache`).
    pub const TASK_SLAB: &str = "task_struct_cachep";
    /// Base of the module slab (`kmem_cache` for module structs).
    pub const MODULE_SLAB: &str = "module_cachep";
    /// The socket table.
    pub const SOCKET_TABLE: &str = "crimes_socket_table";
    /// The open-file table.
    pub const FILE_TABLE: &str = "crimes_file_table";
    /// The guest-aided canary table (installed by the malloc wrapper).
    pub const CANARY_TABLE: &str = "crimes_canary_table";
}

/// One symbol: its name as a slice of the map's name arena, and its
/// address.
#[derive(Debug, Clone, Copy)]
struct Entry {
    off: u32,
    len: u32,
    addr: Gva,
}

/// An in-memory `System.map`: symbol name → kernel virtual address.
///
/// Stored compactly — every name lives in one `String` arena and the
/// entries are a name-sorted `Vec` that lookups binary-search — because a
/// fleet holds one of these per tenant (the guest's) plus one per kernel
/// build (the parsed copy its tenants' introspection sessions share), at
/// ~20 000 symbols each. Bulk construction
/// ([`for_layout`](Self::for_layout), [`parse`](Self::parse)) appends
/// unsorted and sorts once; [`insert`](Self::insert) keeps the order one
/// symbol at a time.
#[derive(Debug, Clone, Default)]
pub struct SystemMap {
    names: String,
    /// Sorted by name, names unique.
    entries: Vec<Entry>,
}

/// Equal when the same names map to the same addresses; how the arena
/// happens to be laid out (insertion order, replaced duplicates) is not
/// part of the value.
impl PartialEq for SystemMap {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for SystemMap {}

/// The name `e` points at in the arena `names`.
fn name_of<'a>(names: &'a str, e: &Entry) -> &'a str {
    names
        .get(e.off as usize..e.off as usize + e.len as usize)
        .unwrap_or_default()
}

impl SystemMap {
    /// An empty map.
    pub fn new() -> Self {
        SystemMap::default()
    }

    /// Build the map for a guest laid out as `layout`. `init_task` points at
    /// task slab slot 0, where the kernel writer places the swapper task.
    pub fn for_layout(layout: &KernelLayout) -> Self {
        let mut m = SystemMap::new();
        m.push(names::LINUX_BANNER, layout.banner.to_kernel_gva());
        m.push(names::SYS_CALL_TABLE, layout.syscall_table.to_kernel_gva());
        m.push(names::INIT_TASK, layout.task_slot(0).to_kernel_gva());
        m.push(names::MODULES, layout.modules_head.to_kernel_gva());
        m.push(names::PID_HASH, layout.pid_hash.to_kernel_gva());
        m.push(names::TASK_SLAB, layout.task_area.to_kernel_gva());
        m.push(names::MODULE_SLAB, layout.module_area.to_kernel_gva());
        m.push(names::SOCKET_TABLE, layout.socket_table.to_kernel_gva());
        m.push(names::FILE_TABLE, layout.file_table.to_kernel_gva());
        m.push(names::CANARY_TABLE, layout.canary_table.to_kernel_gva());
        // Pad with filler symbols so parsing cost resembles a real
        // System.map (tens of thousands of lines) instead of nine.
        let mut name = String::new();
        for i in 0..20_000u64 {
            name.clear();
            fmt::Write::write_fmt(&mut name, format_args!("__ksym_filler_{i:05}"))
                .expect("string write cannot fail");
            m.push(&name, Gva(0xffff_8800_4000_0000 + i * 16));
        }
        m.sort_pushed();
        m
    }

    /// Append `name` to the arena and return its entry, not yet placed.
    fn arena_entry(&mut self, name: &str, addr: Gva) -> Entry {
        let off = u32::try_from(self.names.len()).expect("System.map names stay under 4 GiB");
        let len = u32::try_from(name.len()).expect("System.map names stay under 4 GiB");
        self.names.push_str(name);
        Entry { off, len, addr }
    }

    /// Bulk path: append without keeping the order. The map is not usable
    /// again until [`sort_pushed`](Self::sort_pushed) has run.
    fn push(&mut self, name: &str, addr: Gva) {
        let entry = self.arena_entry(name, addr);
        self.entries.push(entry);
    }

    /// Restore the invariant after a run of [`push`](Self::push)es: sort by
    /// name (stable, so equal names stay in push order) and keep the last
    /// of each, as repeated [`insert`](Self::insert)s would.
    fn sort_pushed(&mut self) {
        let SystemMap { names, entries } = self;
        entries.sort_by(|a, b| name_of(names, a).cmp(name_of(names, b)));
        // `dedup_by` drops `later` when the closure says it repeats
        // `kept`; carry the later address over first so the last wins.
        entries.dedup_by(|later, kept| {
            let same = name_of(names, later) == name_of(names, kept);
            if same {
                kept.addr = later.addr;
            }
            same
        });
        // Built once and then held per tenant: give back the growth slack.
        names.shrink_to_fit();
        entries.shrink_to_fit();
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| name_of(&self.names, e).cmp(name))
    }

    /// Insert or replace a symbol.
    pub fn insert(&mut self, name: &str, addr: Gva) {
        match self.position(name) {
            Ok(i) => {
                if let Some(e) = self.entries.get_mut(i) {
                    e.addr = addr;
                }
            }
            Err(i) => {
                let entry = self.arena_entry(name, addr);
                self.entries.insert(i, entry);
            }
        }
    }

    /// Look up a symbol.
    pub fn lookup(&self, name: &str) -> Option<Gva> {
        let i = self.position(name).ok()?;
        self.entries.get(i).map(|e| e.addr)
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the map holds no symbols.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the classic `System.map` text (`addr TYPE name` per line,
    /// sorted by address like the real file).
    pub fn to_text(&self) -> String {
        let mut entries: Vec<(&str, Gva)> = self.iter().collect();
        entries.sort_by_key(|(_, gva)| gva.0);
        let mut out = String::with_capacity(entries.len() * 40);
        for (name, gva) in entries {
            // All our symbols are data symbols; use 'D' like sys_call_table.
            fmt::Write::write_fmt(&mut out, format_args!("{:016x} D {}\n", gva.0, name))
                .expect("string write cannot fail");
        }
        out
    }

    /// Parse `System.map` text produced by [`SystemMap::to_text`] (or a real
    /// kernel build).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut m = SystemMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let addr = parts
                .next()
                .ok_or_else(|| format!("line {}: missing address", lineno + 1))?;
            let _ty = parts
                .next()
                .ok_or_else(|| format!("line {}: missing type", lineno + 1))?;
            let name = parts
                .next()
                .ok_or_else(|| format!("line {}: missing symbol name", lineno + 1))?;
            let addr = u64::from_str_radix(addr, 16)
                .map_err(|e| format!("line {}: bad address: {e}", lineno + 1))?;
            m.push(name, Gva(addr));
        }
        m.sort_pushed();
        Ok(m)
    }

    /// Iterate over `(name, gva)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Gva)> {
        self.entries
            .iter()
            .map(|e| (name_of(&self.names, e), e.addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_map_contains_all_known_symbols() {
        let layout = KernelLayout::for_pages(8192);
        let m = SystemMap::for_layout(&layout);
        for name in [
            names::LINUX_BANNER,
            names::SYS_CALL_TABLE,
            names::INIT_TASK,
            names::MODULES,
            names::PID_HASH,
            names::TASK_SLAB,
            names::SOCKET_TABLE,
            names::FILE_TABLE,
            names::CANARY_TABLE,
        ] {
            assert!(m.lookup(name).is_some(), "missing symbol {name}");
        }
    }

    #[test]
    fn symbols_are_kernel_addresses() {
        let layout = KernelLayout::for_pages(8192);
        let m = SystemMap::for_layout(&layout);
        for (name, gva) in m.iter() {
            assert!(gva.is_kernel(), "symbol {name} not in kernel space");
        }
    }

    #[test]
    fn map_is_padded_to_realistic_size() {
        let layout = KernelLayout::for_pages(8192);
        let m = SystemMap::for_layout(&layout);
        assert!(m.len() > 10_000, "map should resemble a real System.map");
    }

    #[test]
    fn text_round_trips_through_parse() {
        let layout = KernelLayout::for_pages(8192);
        let m = SystemMap::for_layout(&layout);
        let parsed = SystemMap::parse(&m.to_text()).expect("parse");
        assert_eq!(parsed, m);
    }

    #[test]
    fn parse_rejects_bad_address() {
        let err = SystemMap::parse("zzzz D foo").unwrap_err();
        assert!(err.contains("bad address"));
    }

    #[test]
    fn parse_rejects_truncated_line() {
        let err = SystemMap::parse("ffff880000001000").unwrap_err();
        assert!(err.contains("missing type"));
    }

    #[test]
    fn parse_skips_blank_lines() {
        let m = SystemMap::parse("\n\nffff880000001000 D foo\n\n").expect("parse");
        assert_eq!(m.len(), 1);
        assert_eq!(m.lookup("foo"), Some(Gva(0xffff_8800_0000_1000)));
    }

    #[test]
    fn insert_replaces_existing() {
        let mut m = SystemMap::new();
        m.insert("a", Gva(1));
        m.insert("a", Gva(2));
        assert_eq!(m.lookup("a"), Some(Gva(2)));
        assert_eq!(m.len(), 1);
    }
}
