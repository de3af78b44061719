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
//! Table 3 init-cost measurement exercises a real parse. Both directions
//! are one pass over the text. [`SystemMap::to_text`] writes each line
//! into a buffer sized up front, without the formatting machinery.
//! [`SystemMap::parse`] finds the whitespace between fields eight bytes at
//! a time, decoding a character only at a non-ASCII byte, and reads hex
//! digits eight at a time; `u64::from_str_radix` runs only to word the
//! error for an address it rejects. Bulk construction sorts only the
//! symbols pushed out of name order and merges them into the rest: the
//! ~20 000 filler symbols of a map arrive in name order from
//! [`SystemMap::for_layout`] and from the text alike.

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

/// What [`SystemMap::to_text`] writes around each name: 16 hex digits and
/// ` D ` before it, a newline after.
const LINE_OVERHEAD: usize = 16 + 3 + 1;

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
/// unsorted and orders once; [`insert`](Self::insert) keeps the order one
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
        // System.map (tens of thousands of lines) instead of ten. Their
        // names, `__ksym_filler_00000` upwards, count up in name order, so
        // `sort_pushed` only merges the ten above into them.
        for i in 0..20_000u32 {
            let off = m.names.len();
            m.names.push_str("__ksym_filler_");
            for place in [10_000, 1_000, 100, 10, 1] {
                m.names.push(char::from(b'0' + (i / place % 10) as u8));
            }
            let entry = m.entry_since(off, Gva(0xffff_8800_4000_0000 + u64::from(i) * 16));
            m.entries.push(entry);
        }
        m.sort_pushed();
        m
    }

    /// The entry for the name appended to the arena since `off`, not yet
    /// placed.
    fn entry_since(&self, off: usize, addr: Gva) -> Entry {
        let len = self.names.len() - off;
        let off = u32::try_from(off).expect("System.map names stay under 4 GiB");
        let len = u32::try_from(len).expect("System.map names stay under 4 GiB");
        Entry { off, len, addr }
    }

    /// Append `name` to the arena and return its entry, not yet placed.
    fn arena_entry(&mut self, name: &str, addr: Gva) -> Entry {
        let off = self.names.len();
        self.names.push_str(name);
        self.entry_since(off, addr)
    }

    /// Bulk path: append without keeping the order. The map is not usable
    /// again until [`sort_pushed`](Self::sort_pushed) has run.
    fn push(&mut self, name: &str, addr: Gva) {
        let entry = self.arena_entry(name, addr);
        self.entries.push(entry);
    }

    /// Restore the invariant after a run of [`push`](Self::push)es: sorted
    /// by name, the last of each name kept, as repeated
    /// [`insert`](Self::insert)s would.
    ///
    /// The longest suffix already in strict name order stays where it is.
    /// Only the entries before it are sorted (stably, so equal names stay
    /// in push order) and deduplicated, then merged in, each placed by a
    /// binary search into what is left of the suffix. A map's filler
    /// arrives in name order, so that is a few symbols, not 20 000.
    fn sort_pushed(&mut self) {
        let SystemMap { names, entries } = self;
        let in_order = entries
            .windows(2)
            .rev()
            .take_while(|w| name_of(names, &w[0]) < name_of(names, &w[1]))
            .count();
        let split = entries.len().saturating_sub(in_order + 1);
        if split > 0 {
            let mut head = entries[..split].to_vec();
            head.sort_by(|a, b| name_of(names, a).cmp(name_of(names, b)));
            // `dedup_by` drops `later` when the closure says it repeats
            // `kept`; carry the later address over first so the last wins.
            head.dedup_by(|later, kept| {
                let same = name_of(names, later) == name_of(names, kept);
                if same {
                    kept.addr = later.addr;
                }
                same
            });
            // Merge in place, writing from the front: `write` trails
            // `read` by the head entries not yet written, so it never
            // overtakes an unread suffix entry.
            let (mut write, mut read) = (0, split);
            for h in head {
                let below =
                    entries[read..].partition_point(|e| name_of(names, e) < name_of(names, &h));
                entries.copy_within(read..read + below, write);
                write += below;
                read += below;
                // Every suffix entry was pushed after every head entry:
                // on a repeated name the suffix's address is the last.
                if entries
                    .get(read)
                    .is_some_and(|e| name_of(names, e) == name_of(names, &h))
                {
                    continue;
                }
                entries[write] = h;
                write += 1;
            }
            entries.copy_within(read.., write);
            entries.truncate(write + entries.len() - read);
        }
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
    /// sorted by address like the real file, equal addresses in name
    /// order).
    pub fn to_text(&self) -> String {
        // The entries are in name order. A run of them already in address
        // order at the front (a map's filler) is written as it stands,
        // merged with the rest sorted by address; both keep name order
        // among equal addresses.
        let run = self
            .entries
            .windows(2)
            .take_while(|w| w[0].addr.0 <= w[1].addr.0)
            .count();
        let (run, rest) = self.entries.split_at((run + 1).min(self.entries.len()));
        let mut rest: Vec<&Entry> = rest.iter().collect();
        rest.sort_by_key(|e| e.addr.0);
        let mut rest = rest.into_iter().peekable();

        let len = self
            .entries
            .iter()
            .map(|e| LINE_OVERHEAD + e.len as usize)
            .sum();
        let mut out = Vec::with_capacity(len);
        let mut line = |e: &Entry| {
            out.extend_from_slice(&hex16(e.addr.0));
            // All our symbols are data symbols; use 'D' like sys_call_table.
            out.extend_from_slice(b" D ");
            out.extend_from_slice(name_of(&self.names, e).as_bytes());
            out.push(b'\n');
        };
        for e in run {
            while let Some(r) = rest.next_if(|r| r.addr.0 < e.addr.0) {
                line(r);
            }
            line(e);
        }
        rest.for_each(line);
        String::from_utf8(out).expect("hex digits, ASCII and whole names are UTF-8")
    }

    /// Parse `System.map` text produced by [`SystemMap::to_text`] (or a real
    /// kernel build).
    ///
    /// A line is split into fields at whitespace, as `str::split_whitespace`
    /// splits it: the address in hex as `u64::from_str_radix` reads it, the
    /// type, the name, and anything after it ignored. Blank lines are
    /// skipped, `\r\n` ends a line as `\n` does, and the last line naming
    /// a symbol wins.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut m = SystemMap::new();
        // Where the current line's first three fields start and end; any
        // after them are ignored.
        let mut fields = [(0, 0); 3];
        let mut found = 0;
        let mut lineno = 1usize;
        let mut start = 0;
        let mut spaces = Spaces::new(text);
        loop {
            // The end of the text ends the last line as a newline does.
            let (at, width) = spaces.next().unwrap_or((text.len(), 0));
            if at > start && found < fields.len() {
                fields[found] = (start, at);
                found += 1;
            }
            start = at + width;
            if text.as_bytes().get(at).is_some_and(|&b| b != b'\n') {
                continue;
            }
            let field = |i: usize| text.get(fields[i].0..fields[i].1).unwrap_or_default();
            match found {
                0 => {}
                1 => return Err(format!("line {lineno}: missing type")),
                2 => return Err(format!("line {lineno}: missing symbol name")),
                _ => {
                    let addr = field(0);
                    let addr = hex_u64(addr)
                        .map_or_else(|| u64::from_str_radix(addr, 16), Ok)
                        .map_err(|e| format!("line {lineno}: bad address: {e}"))?;
                    m.push(field(2), Gva(addr));
                }
            }
            if at == text.len() {
                break;
            }
            lineno += 1;
            found = 0;
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

/// A word with `b` in each of its eight bytes.
const fn bytes(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

const HIGH: u64 = bytes(0x80);

/// Flags, in its top bit, each byte of `word` from `lo` to `hi`. Exact
/// when every byte is ASCII: then no carry crosses a byte.
fn bytes_in(word: u64, lo: u8, hi: u8) -> u64 {
    word.wrapping_add(bytes(0x80 - lo)) & !word.wrapping_add(bytes(0x7f - hi)) & HIGH
}

/// `value` as 16 lower-case hex digits, most significant first.
fn hex16(value: u64) -> [u8; 16] {
    let mut out = [0; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(value >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// Eight hex digits, the first in the top byte, as a number; `None` if
/// any byte is not a hex digit.
fn hex8(word: u64) -> Option<u64> {
    let digits = bytes_in(word, b'0', b'9') | bytes_in(word | bytes(0x20), b'a', b'f');
    if word & HIGH != 0 || digits != HIGH {
        return None;
    }
    // Letters (bit 6 set) count nine above their low nibble.
    let x = (word & bytes(0x0f)) + (word >> 6 & bytes(1)) * 9;
    let x = (x >> 4 | x) & 0x00ff_00ff_00ff_00ff;
    let x = (x >> 8 | x) & 0x0000_ffff_0000_ffff;
    Some((x >> 16 | x) & 0xffff_ffff)
}

/// `s` read as `u64::from_str_radix(s, 16)` reads it — an optional `+`,
/// then hex digits in either case, any number of them leading zeros —
/// where that succeeds, and `None` where it fails.
fn hex_u64(s: &str) -> Option<u64> {
    let digits = s.strip_prefix('+').unwrap_or(s).as_bytes();
    // Past 16 digits, only leading zeros leave the value in a u64.
    let (surplus, digits) = digits.split_at(digits.len().saturating_sub(16));
    if digits.is_empty() || surplus.iter().any(|&b| b != b'0') {
        return None;
    }
    let mut value = 0u64;
    let mut words = digits.chunks_exact(8);
    for word in &mut words {
        value = value << 32 | hex8(u64::from_be_bytes(word.try_into().ok()?))?;
    }
    for &b in words.remainder() {
        value = value << 4 | u64::from(char::from(b).to_digit(16)?);
    }
    Some(value)
}

/// Flags, in its top bit, each byte of `word` that is not graphic ASCII:
/// whitespace, controls and the bytes of non-ASCII characters.
fn special_bytes(word: u64) -> u64 {
    // With its top bit forced on, a byte keeps it after subtracting `!`
    // exactly when its low seven bits are `!` or above; no borrow crosses
    // a byte.
    let graphic_low = (word | HIGH) - bytes(b'!');
    (word | !graphic_low) & HIGH
}

/// The whitespace characters of a text in order, as `char::is_whitespace`
/// sees them: each one's offset and width.
///
/// Reads the text a word of eight bytes at a time and looks one at a time
/// only at the bytes that are not graphic ASCII. A non-ASCII character is
/// decoded at its first byte; its other bytes are passed over.
struct Spaces<'a> {
    text: &'a str,
    /// Offset of the word `pending` flags bytes of.
    word: usize,
    /// Bytes of that word not yet looked at that may be whitespace.
    pending: u64,
}

impl<'a> Spaces<'a> {
    fn new(text: &'a str) -> Self {
        let mut spaces = Spaces {
            text,
            word: 0,
            pending: 0,
        };
        spaces.pending = spaces.load();
        spaces
    }

    /// Flag the word at `self.word`; past the end of the text, bytes read
    /// as graphic.
    fn load(&self) -> u64 {
        let rest = self.text.as_bytes().get(self.word..).unwrap_or_default();
        let mut word = [b'!'; 8];
        match rest.get(..8) {
            Some(full) => word.copy_from_slice(full),
            None => word[..rest.len()].copy_from_slice(rest),
        }
        special_bytes(u64::from_le_bytes(word))
    }
}

impl Iterator for Spaces<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        loop {
            while self.pending == 0 {
                self.word += 8;
                if self.word >= self.text.len() {
                    return None;
                }
                self.pending = self.load();
            }
            let at = self.word + self.pending.trailing_zeros() as usize / 8;
            self.pending &= self.pending - 1;
            let b = *self.text.as_bytes().get(at)?;
            if b.is_ascii() {
                if matches!(b, b'\t'..=b'\r' | b' ') {
                    return Some((at, 1));
                }
            } else if let Some(c) = self.text.get(at..).and_then(|rest| rest.chars().next()) {
                // `get` is `None` inside a character: only its first byte
                // says what it is.
                if c.is_whitespace() {
                    return Some((at, c.len_utf8()));
                }
            }
        }
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
