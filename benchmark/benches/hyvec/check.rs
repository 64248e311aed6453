//! Output checks: minimal JSON and CSV well-formedness validators for
//! the rendered reports.

/// Whether `s` is one well-formed JSON value (objects, arrays,
/// strings, numbers, literals), surrounded only by whitespace.
pub fn json_parses(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0;
    value(b, &mut i) && {
        skip_ws(b, &mut i);
        i == b.len()
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b[*i].is_ascii_whitespace() {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> bool {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => seq(b, i, b'}', |b, i| {
            string(b, i) && {
                skip_ws(b, i);
                b.get(*i) == Some(&b':') && {
                    *i += 1;
                    value(b, i)
                }
            }
        }),
        Some(b'[') => seq(b, i, b']', value),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(_) => number(b, i),
        None => false,
    }
}

/// A bracketed, comma-separated sequence of `item`s closed by `close`.
fn seq(b: &[u8], i: &mut usize, close: u8, item: fn(&[u8], &mut usize) -> bool) -> bool {
    *i += 1;
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return true;
    }
    loop {
        skip_ws(b, i);
        if !item(b, i) {
            return false;
        }
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(&c) if c == close => {
                *i += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> bool {
    skip_ws(b, i);
    if b.get(*i) != Some(&b'"') {
        return false;
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return true,
            b'\\' => *i += 1,
            c if c < 0x20 => return false,
            _ => {}
        }
    }
    false
}

fn literal(b: &[u8], i: &mut usize, word: &[u8]) -> bool {
    let ok = b[*i..].starts_with(word);
    *i += word.len();
    ok
}

fn number(b: &[u8], i: &mut usize) -> bool {
    let start = *i;
    while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *i += 1;
    }
    std::str::from_utf8(&b[start..*i]).is_ok_and(|t| t.parse::<f64>().is_ok())
}

/// Whether `s` is RFC 4180-style CSV whose every record has as many
/// fields as the header.
pub fn csv_parses(s: &str) -> bool {
    let mut records = Vec::new();
    let (mut fields, mut quoted, mut at_field_start) = (1usize, false, true);
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (false, '"') if at_field_start => quoted = true,
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
            }
            (true, '"') => quoted = false,
            (false, ',') => {
                fields += 1;
                at_field_start = true;
                continue;
            }
            (false, '\n') => {
                records.push(fields);
                fields = 1;
                at_field_start = true;
                continue;
            }
            _ => {}
        }
        at_field_start = false;
    }
    !quoted && !records.is_empty() && records.iter().all(|&n| n == records[0])
}
