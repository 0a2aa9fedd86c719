//! Property tests for the JSON writer and parser. The parser reads
//! untrusted `/extract` request bodies, so besides round-tripping the
//! writer's output it must turn any input into a value or an `Err`,
//! never a panic.

use pae_obs::json::{write_f64, write_str, Json};
use proptest::prelude::*;

/// Bytes with a meaning in JSON syntax, drawn often so that random
/// input reaches deep into the parser rather than failing at byte 0.
const SYNTAX: &[u8] = b"{}[]\",:\\/ \n-+.eE0123456789tfnrulsab";

/// One Unicode scalar, biased towards the characters a JSON string
/// escapes or delimits: control characters, `"`, `\`, ASCII and
/// multi-byte text. Surrogate code points become U+FFFD.
fn scalar() -> impl Strategy<Value = char> {
    (0u32..5, 0u32..0x11_0000).prop_map(|(kind, x)| {
        let cp = match kind {
            0 => x % 0x20,
            1 => u32::from(SYNTAX[x as usize % SYNTAX.len()]),
            2 => 0x20 + x % 0x5f,
            3 => 0x80 + x % 0x780,
            _ => x,
        };
        char::from_u32(cp).unwrap_or('\u{fffd}')
    })
}

fn text(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(scalar(), 0..max_len).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `write_str` output parses back to the same string, alone and as
    /// an object key and value next to other members.
    #[test]
    fn written_strings_parse_back(s in text(48), k in text(8), n in -1.0e6..1.0e6f64) {
        let mut lit = String::new();
        write_str(&mut lit, &s);
        prop_assert_eq!(Json::parse(&lit), Ok(Json::Str(s.clone())));

        let mut doc = String::from("{");
        write_str(&mut doc, &k);
        doc.push(':');
        write_str(&mut doc, &s);
        doc.push_str(",\"n\":");
        write_f64(&mut doc, n);
        doc.push_str(",\"a\":[");
        write_str(&mut doc, &k);
        doc.push_str("]}");
        let v = Json::parse(&doc).unwrap();
        if k != "n" && k != "a" {
            prop_assert_eq!(v.get(&k).and_then(Json::as_str), Some(s.as_str()));
            prop_assert_eq!(v.get("n").and_then(Json::as_f64), Some(n));
        }
        prop_assert_eq!(v.get("a"), Some(&Json::Arr(vec![Json::Str(k.clone())])));
    }

    /// Arbitrary text, mostly made of JSON syntax, parses or fails
    /// with an error; it never panics.
    #[test]
    fn arbitrary_input_never_panics(s in text(64)) {
        let _ = Json::parse(&s);
    }

    /// Every strict prefix of a well-formed object is an error (never
    /// a panic, never a value), whichever byte it is cut after.
    #[test]
    fn truncated_documents_are_errors(s in text(24)) {
        let mut doc = String::from("{\"pages\":[{\"id\":7,\"html\":");
        write_str(&mut doc, &s);
        doc.push_str("}]}");
        prop_assert!(Json::parse(&doc).is_ok());
        for (cut, _) in doc.char_indices().skip(1) {
            prop_assert!(Json::parse(&doc[..cut]).is_err(), "prefix {:?} parsed", &doc[..cut]);
        }
    }
}
