//! `SystemMap::parse` against the line loop it replaced.
//!
//! The reference below is that loop, verbatim but for collecting into a
//! `BTreeMap` (where, as in the map, the last line naming a symbol wins).
//! Generated text reaches every corner of the language it accepts:
//! fixed- and variable-width addresses in either case, `+` prefixes,
//! addresses of 17 digits and more with and without overflow, tabs, runs of
//! spaces and non-ASCII whitespace, CRLF, blank and whitespace-only lines,
//! trailing fields, duplicate and non-ASCII names, and one malformed line
//! at a random position. Both parsers must give the same `(name, address)`
//! pairs in name order, or byte-identical errors.
//!
//! The text `SystemMap::to_text` renders for a guest's map is pinned by
//! digest, so a faster renderer cannot change what every monitor parses.

use std::collections::BTreeMap;

use crimes_rng::prop::{check, Config, Gen};
use crimes_vm::{KernelLayout, SystemMap};

/// The line loop `SystemMap::parse` ran before it walked bytes.
fn reference(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut m = BTreeMap::new();
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
        m.insert(name.to_owned(), addr);
    }
    Ok(m)
}

/// What `SystemMap::parse` made of `text`, in the reference's terms.
fn parsed(text: &str) -> Result<Vec<(String, u64)>, String> {
    SystemMap::parse(text).map(|m| m.iter().map(|(n, a)| (n.to_owned(), a.0)).collect())
}

fn pick<'a>(g: &mut Gen, choices: &[&'a str]) -> &'a str {
    choices[g.int(0..choices.len())]
}

/// Whitespace between fields: ASCII, NEL, no-break space, em space,
/// ideographic space, and runs of them.
fn gap(g: &mut Gen, text: &mut String) {
    for _ in 0..g.int(1usize..4) {
        text.push_str(pick(
            g,
            &[
                " ", " ", " ", "\t", "  ", "\x0b", "\x0c", "\r", "\u{85}", "\u{a0}", "\u{2003}",
                "\u{3000}",
            ],
        ));
    }
}

/// Leading or trailing whitespace on a line, often none.
fn margin(g: &mut Gen, text: &mut String) {
    if g.int(0u32..4) == 0 {
        gap(g, text);
    }
}

fn hex_digits(g: &mut Gen, len: usize) -> String {
    let alphabet: &[u8] = match g.int(0u32..3) {
        0 => b"0123456789abcdef",
        1 => b"0123456789ABCDEF",
        _ => b"0123456789abcdefABCDEF",
    };
    g.ascii_string(len..len + 1, alphabet)
}

/// A well-formed address: what `from_str_radix` accepts.
fn address(g: &mut Gen) -> String {
    let digits = match g.int(0u32..5) {
        0 | 1 => hex_digits(g, 16),
        2 => {
            let len = g.int(1usize..17);
            hex_digits(g, len)
        }
        // 17 digits or more that still fit: leading zeros.
        3 => {
            let zeros = g.int(1usize..6);
            let len = g.int(1usize..17);
            "0".repeat(zeros) + &hex_digits(g, len)
        }
        _ => format!("{:x}", g.any_u64()),
    };
    if g.int(0u32..6) == 0 {
        format!("+{digits}")
    } else {
        digits
    }
}

/// A name: identifier-like, sometimes from a small pool (duplicates),
/// sometimes with non-ASCII characters or an ASCII control byte in it.
fn name(g: &mut Gen) -> String {
    match g.int(0u32..6) {
        0 => pick(g, &["a", "init_task", "sys_call_table", "ab"]).to_owned(),
        1 => {
            let mut n = g.ascii_string(1..10, b"abc_");
            n.push_str(pick(g, &["é", "名", "\u{1}", "\u{7f}", "ß_x", "\u{200b}"]));
            n
        }
        _ => g.ascii_string(1..40, b"abcdefghijklmnopqrstuvwxyz0123456789_.$"),
    }
}

/// A line `from_str_radix` or the field split rejects, or one that only
/// looks like it should be rejected.
fn malformed(g: &mut Gen) -> String {
    let addr = match g.int(0u32..9) {
        0 => "zzzz".to_owned(),
        1 => "0x1000".to_owned(),
        2 => "-5".to_owned(),
        3 => "+".to_owned(),
        4 => "++1".to_owned(),
        // Overflow: 17 significant digits.
        5 => format!("1{}", hex_digits(g, 16)),
        // Overflow behind leading zeros.
        6 => format!("000{}", "f".repeat(17)),
        // A non-ASCII character glued to the digits.
        7 => "ffff\u{e9}00".to_owned(),
        _ => hex_digits(g, 12) + "g",
    };
    match g.int(0u32..4) {
        0 => addr,
        1 => format!("{} D", address(g)),
        2 => address(g),
        _ => format!("{addr} D {}", name(g)),
    }
}

/// A well-formed line, or a blank or whitespace-only one.
fn line(g: &mut Gen, text: &mut String) {
    margin(g, text);
    if g.int(0u32..8) == 0 {
        return;
    }
    text.push_str(&address(g));
    gap(g, text);
    text.push_str(pick(g, &["D", "T", "t", "b", "R", "W"]));
    gap(g, text);
    text.push_str(&name(g));
    for _ in 0..g.int(0usize..3) {
        gap(g, text);
        text.push_str(pick(g, &["[ext4]", "x", "名"]));
    }
    margin(g, text);
}

/// Generated System.map text: well-formed lines, sometimes one malformed
/// line among them.
fn text(g: &mut Gen) -> String {
    let bad = g.any_bool();
    let lines = g.int(0usize..40) + usize::from(bad);
    let bad_at = bad.then(|| g.int(0..lines));
    let mut text = String::new();
    for i in 0..lines {
        if bad_at == Some(i) {
            text.push_str(&malformed(g));
        } else {
            line(g, &mut text);
        }
        // The last line may end without a newline.
        if i + 1 < lines || g.any_bool() {
            text.push_str(if g.int(0u32..4) == 0 { "\r\n" } else { "\n" });
        }
    }
    text
}

#[test]
fn parse_matches_the_line_loop_it_replaced() {
    check(
        "parse_matches_the_line_loop_it_replaced",
        Config::with_cases(512),
        |g| {
            let text = text(g);
            let want = reference(&text).map(|m| m.into_iter().collect::<Vec<_>>());
            assert_eq!(parsed(&text), want, "text: {text:?}");
        },
    );
}

/// The corners the generator reaches, spelled out once.
#[test]
fn parse_agrees_on_each_corner() {
    for text in [
        "",
        "\n",
        "  \t \r\n",
        "ffff880000001000 D a\r\nFFFF880000002000\tT  b [mod]\n",
        "+10 D a",
        "+ D a",
        "++1 D a",
        "-1 D a",
        "0000000000000000000000001 D a",
        "10000000000000000 D a",
        "00000000000000000g D a",
        "1\u{a0}D\u{2003}a\u{85}trailing",
        "1\u{200b} D a",
        "1 D na\u{1}me",
        "1 D a\n2 D a\n1 D b",
        "1 D a\nffff\n2 D b",
        "1 D a\n\n1 D",
        "zzzz D",
    ] {
        let want = reference(text).map(|m| m.into_iter().collect::<Vec<_>>());
        assert_eq!(parsed(text), want, "text: {text:?}");
    }
}

/// FNV-1a, 64 bits.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn guest_maps_render_the_same_text() {
    for pages in [320, 8192] {
        let text = SystemMap::for_layout(&KernelLayout::for_pages(pages)).to_text();
        assert_eq!(text.len(), 780_336, "{pages} pages");
        assert_eq!(
            digest(text.as_bytes()),
            0x9618_4c2b_849b_56b6,
            "{pages} pages"
        );
    }
}
