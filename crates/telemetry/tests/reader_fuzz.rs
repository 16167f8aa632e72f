//! No-panic fuzzing of the log readers: `json::parse`, `parse_log` and
//! `LogReader` sit on an input boundary (logs and summaries read back
//! from disk), so hostile input must come back as `Err`, never as a
//! panic, an overflow or an abort. Two generators: "token soup" glued
//! from JSON-ish fragments (brackets, quotes, lone surrogate escapes,
//! huge and malformed numbers), optionally behind a valid header line so
//! the readers get past it; and raw random bytes.

use lb_telemetry::schema::header_line;
use lb_telemetry::{json, parse_log, LogReader};
use proptest::prelude::*;

/// Fragments the soup is made of: structure, strings and escapes,
/// numbers at and past every limit, keywords, schema keys and
/// whitespace, plus a few complete event lines.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    ":",
    ",",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "\\ud83d\\ude00",
    "\\uZZZZ",
    "\\x",
    "\\n",
    "0",
    "-",
    "-0",
    "0.",
    ".5",
    "1e",
    "1e999999",
    "-1e999999",
    "1.5e-400",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "123456789012345678901234567890",
    "00012",
    "+1",
    "NaN",
    "Infinity",
    "true",
    "fals",
    "null",
    "nul",
    "\"seq\"",
    "\"t_us\"",
    "\"event\"",
    "\"fields\"",
    "\"span\"",
    "\"parent\"",
    "\"name\"",
    "\"span_open\"",
    "\"span_close\"",
    "\"schema\"",
    "\"lb-telemetry\"",
    "\"version\"",
    "\"é\u{1F600}\"",
    "\u{0}",
    "\u{FFFD}",
    " ",
    "\t",
    "\n",
    "\r\n",
    "{\"seq\":1,\"t_us\":0,\"event\":\"x\",\"fields\":{}}\n",
    "{\"seq\":2,\"t_us\":5,\"event\":\"span_open\",\"fields\":{\"span\":1,\"name\":\"a\"}}\n",
    "{\"seq\":3,\"t_us\":9,\"event\":\"span_close\",\"fields\":{\"span\":1,\"name\":\"a\"}}\n",
];

/// Runs every reader over `text`; each must return rather than panic.
fn read_all(text: &str) {
    let _ = json::parse(text);
    let _ = parse_log(text);
    if let Ok(reader) = LogReader::new(text.as_bytes()) {
        let _ = reader.version();
        for event in reader {
            let _ = event;
        }
    }
}

fn soup() -> impl Strategy<Value = String> {
    (0u32..3, prop::collection::vec(0usize..TOKENS.len(), 0..64)).prop_map(|(header, picks)| {
        let mut text = match header {
            0 => String::new(),
            _ => header_line() + "\n",
        };
        for i in picks {
            text.push_str(TOKENS[i]);
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn token_soup_never_panics_a_reader(text in soup()) {
        read_all(&text);
    }

    #[test]
    fn random_bytes_never_panic_a_reader(
        header in 0u32..2,
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let mut raw = match header {
            0 => Vec::new(),
            _ => (header_line() + "\n").into_bytes(),
        };
        raw.extend_from_slice(&bytes);
        // `LogReader` sees the bytes as they are (invalid UTF-8 is a
        // read error); the `&str` readers see their lossy decoding.
        if let Ok(reader) = LogReader::new(raw.as_slice()) {
            for event in reader {
                let _ = event;
            }
        }
        read_all(&String::from_utf8_lossy(&raw));
    }
}
