//! A small Rust lexer: strips comments, string/char literals and doc text,
//! and produces a token stream with line numbers — enough surface syntax for
//! the token-pattern rules in [`crate::rules`], with three extras the rules
//! need:
//!
//! * `lint:allow(<rule>): <reason>` markers harvested from comments,
//! * `#[cfg(test)]` / `#[test]` item spans, so findings inside test code are
//!   suppressed (tests legitimately `unwrap` and build `HashMap` oracles),
//! * raw/byte string and lifetime handling, so `r#"..."#` bodies and `'a`
//!   never masquerade as code tokens.

use std::fmt;

/// What kind of token this is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (`.`, `[`, `!`, …).
    Punct,
    /// String literal (text is the *content*, unescaped lazily — rules only
    /// compare, never interpret escapes beyond `\"`).
    Str,
    /// Character or byte literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`), including the quote-less name.
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (content for strings, without quotes).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:?}:{}", self.line, self.kind, self.text)
    }
}

/// An inline suppression marker: `lint:allow(<rule>): <reason>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowMarker {
    /// 1-based line the marker comment sits on.
    pub line: u32,
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory one-line justification.
    pub reason: String,
}

/// A lexed source file plus the side tables rules consult.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path (display only).
    pub path: String,
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Inline allow markers with a non-empty reason.
    pub markers: Vec<AllowMarker>,
    /// Lines carrying a `lint:allow` marker with a missing/empty reason.
    pub bad_marker_lines: Vec<u32>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Whether `line` falls inside a test item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Lexes `src`, recording allow markers and test-item spans.
pub fn lex(path: &str, src: &str) -> SourceFile {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut tokens = Vec::new();
    let mut markers = Vec::new();
    let mut bad_marker_lines = Vec::new();

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                scan_comment(src, start, i, line, &mut markers, &mut bad_marker_lines);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment; markers are matched per line.
                let mut depth = 1;
                let mut seg_start = i;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        scan_comment(src, seg_start, i, line, &mut markers, &mut bad_marker_lines);
                        line += 1;
                        seg_start = i + 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                scan_comment(src, seg_start, i.min(b.len()), line, &mut markers, &mut bad_marker_lines);
            }
            b'"' => {
                let (text, ni, nl) = scan_string(b, i + 1, line);
                tokens.push(Token { kind: TokKind::Str, text, line });
                line = nl;
                i = ni;
            }
            b'r' | b'b' if is_raw_or_byte_string(b, i) => {
                let (tok, ni, nl) = scan_raw_or_byte(b, i, line);
                tokens.push(tok);
                line = nl;
                i = ni;
            }
            b'\'' => {
                if is_lifetime(b, i) {
                    let start = i + 1;
                    let mut j = start;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[start..j].to_owned(),
                        line,
                    });
                    i = j;
                } else {
                    // Char literal: 'x', '\n', '\'', '\u{1F600}'.
                    let mut j = i + 1;
                    while j < b.len() {
                        if b[j] == b'\\' {
                            j += 2;
                        } else if b[j] == b'\'' {
                            j += 1;
                            break;
                        } else {
                            if b[j] == b'\n' {
                                line += 1;
                            }
                            j += 1;
                        }
                    }
                    tokens.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        i += 1;
                    } else if d == b'.'
                        && i + 1 < b.len()
                        && b[i + 1].is_ascii_digit()
                    {
                        // Decimal point, not a `0..n` range.
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokKind::Num,
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Ident,
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }

    let test_ranges = find_test_ranges(&tokens);
    SourceFile {
        path: path.to_owned(),
        tokens,
        markers,
        bad_marker_lines,
        test_ranges,
    }
}

/// Harvests `lint:allow(rule): reason` from one comment segment.
fn scan_comment(
    src: &str,
    start: usize,
    end: usize,
    line: u32,
    markers: &mut Vec<AllowMarker>,
    bad: &mut Vec<u32>,
) {
    let Some(text) = src.get(start..end) else {
        return;
    };
    // Doc comments describe the marker syntax without *being* markers;
    // harvesting them would feed phantom entries to the stale-exemption
    // audit.
    if text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
    {
        return;
    }
    let Some(pos) = text.find("lint:allow(") else {
        return;
    };
    let rest = &text[pos + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        bad.push(line);
        return;
    };
    let rule = rest[..close].trim().to_owned();
    let mut reason = rest[close + 1..].trim();
    reason = reason
        .strip_prefix(':')
        .or_else(|| reason.strip_prefix("--"))
        .unwrap_or(reason)
        .trim();
    if rule.is_empty() || reason.is_empty() {
        bad.push(line);
    } else {
        markers.push(AllowMarker {
            line,
            rule,
            reason: reason.to_owned(),
        });
    }
}

/// Scans a plain `"..."` string body starting *after* the opening quote.
/// Returns (content, next index, next line).
fn scan_string(b: &[u8], mut i: usize, mut line: u32) -> (String, usize, u32) {
    let start = i;
    let mut out = String::new();
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                out = String::from_utf8_lossy(&b[start..i]).into_owned();
                i += 1;
                break;
            }
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (out, i, line)
}

/// Whether position `i` starts `r"`, `r#"`, `br"`, `b"`, or `b'` — a raw or
/// byte literal rather than an identifier.
fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j < b.len() && (b[j] == b'"' || b[j] == b'\'') {
            return true;
        }
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
        return j < b.len() && b[j] == b'"';
    }
    false
}

/// Scans a raw/byte string or byte-char literal starting at `r`/`b`.
fn scan_raw_or_byte(b: &[u8], mut i: usize, mut line: u32) -> (Token, usize, u32) {
    let tok_line = line;
    if b[i] == b'b' {
        i += 1;
        if i < b.len() && b[i] == b'\'' {
            // Byte char b'x' / b'\n'.
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'\'' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            return (
                Token { kind: TokKind::Char, text: String::new(), line: tok_line },
                i,
                line,
            );
        }
        if i < b.len() && b[i] == b'"' {
            let (text, ni, nl) = scan_string(b, i + 1, line);
            return (
                Token { kind: TokKind::Str, text, line: tok_line },
                ni,
                nl,
            );
        }
    }
    // Raw string: r#*" ... "#*
    if b[i] == b'r' {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    debug_assert!(i < b.len() && b[i] == b'"');
    i += 1;
    let start = i;
    let mut end = i;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                end = i;
                i = j;
                break;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    (
        Token {
            kind: TokKind::Str,
            text: String::from_utf8_lossy(&b[start..end]).into_owned(),
            line: tok_line,
        },
        i,
        line,
    )
}

/// Whether the `'` at `i` opens a lifetime rather than a char literal.
fn is_lifetime(b: &[u8], i: usize) -> bool {
    let Some(&first) = b.get(i + 1) else {
        return false;
    };
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return false;
    }
    // 'a' is a char, 'ab / 'a, / 'a> are lifetimes: a lifetime's name is
    // never followed by a closing quote.
    let mut j = i + 2;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    b.get(j) != Some(&b'\'')
}

/// Finds the line spans of items annotated `#[cfg(test)]` or `#[test]`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].text == "#"
            && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("["))
        {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // Collect the attribute body up to the matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut body = String::new();
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                t => {
                    body.push_str(t);
                }
            }
            j += 1;
        }
        let is_test_attr =
            body == "test" || (body.contains("cfg(test") && !body.contains("not(test"));
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then span the annotated item: up to
        // the matching `}` of its first brace, or the terminating `;`.
        let mut k = j + 1;
        while k + 1 < tokens.len()
            && tokens[k].text == "#"
            && tokens[k + 1].text == "["
        {
            let mut d = 0usize;
            k += 1;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace = 0usize;
        let mut end_line = attr_line;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = tokens[k].line;
                        break;
                    }
                }
                ";" if brace == 0 => {
                    end_line = tokens[k].line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        out.push((attr_line, end_line));
        i = k + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Non-literal token texts: what the ident-matching rules can see.
    fn texts(sf: &SourceFile) -> Vec<&str> {
        sf.tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Str | TokKind::Char))
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_and_strings_stripped() {
        let sf = lex(
            "t.rs",
            "// HashMap in a comment\nlet x = \"HashMap\"; /* Instant::now */ call();",
        );
        let t = texts(&sf);
        assert!(t.contains(&"let"));
        assert!(t.contains(&"call"));
        assert!(!t.contains(&"HashMap"));
        assert!(!t.contains(&"Instant"));
    }

    #[test]
    fn string_content_kept_as_str_token() {
        let sf = lex("t.rs", "let s = \"version\";");
        assert!(sf
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "version"));
    }

    #[test]
    fn raw_strings_and_byte_literals() {
        let sf = lex("t.rs", "let a = r#\"un\"wrap()\"#; let b = b\"panic!\"; let c = b'x';");
        assert!(!texts(&sf).contains(&"unwrap"));
        assert!(!texts(&sf).contains(&"panic"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let sf = lex("t.rs", "fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = sf
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        // The following ident tokens survive.
        assert!(texts(&sf).contains(&"str"));
    }

    #[test]
    fn char_literal_with_quote_content() {
        let sf = lex("t.rs", "let q = '\\''; let n = 'x'; foo();");
        assert!(texts(&sf).contains(&"foo"));
        assert_eq!(
            sf.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn line_numbers_advance() {
        let sf = lex("t.rs", "a\nb\n\nc");
        let lines: Vec<u32> = sf.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn allow_markers_parsed() {
        let sf = lex(
            "t.rs",
            "let m = HashMap::new(); // lint:allow(unordered-map): membership only\n",
        );
        assert_eq!(sf.markers.len(), 1);
        assert_eq!(sf.markers[0].rule, "unordered-map");
        assert_eq!(sf.markers[0].reason, "membership only");
        assert_eq!(sf.markers[0].line, 1);
    }

    #[test]
    fn doc_comments_do_not_carry_markers() {
        let sf = lex(
            "t.rs",
            "/// lint:allow(panic-path): documented syntax, not a marker\n\
             //! lint:allow(wallclock): module docs\nx();\n",
        );
        assert!(sf.markers.is_empty());
        assert!(sf.bad_marker_lines.is_empty());
    }

    #[test]
    fn marker_without_reason_is_bad() {
        let sf = lex("t.rs", "x(); // lint:allow(panic-path)\n");
        assert!(sf.markers.is_empty());
        assert_eq!(sf.bad_marker_lines, vec![1]);
    }

    #[test]
    fn cfg_test_ranges_detected() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let sf = lex("t.rs", src);
        assert_eq!(sf.test_ranges, vec![(2, 5)]);
        assert!(!sf.in_test(1));
        assert!(sf.in_test(4));
        assert!(!sf.in_test(6));
    }

    #[test]
    fn test_attr_fn_detected() {
        let src = "#[test]\nfn check() {\n    a.unwrap();\n}\nfn prod() {}\n";
        let sf = lex("t.rs", src);
        assert_eq!(sf.test_ranges, vec![(1, 4)]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_range() {
        let src = "#[cfg(not(test))]\nfn prod() { x(); }\n";
        let sf = lex("t.rs", src);
        assert!(sf.test_ranges.is_empty());
    }
}
