//! Fuzz the XML text readers: tree parser (fresh and dirty-slot),
//! field-level pull reader, and the raw lexer.
//!
//! Oracles beyond "don't panic":
//! * `parse_into` into a dirty slot must agree with a fresh `parse` —
//!   both in outcome and in the resulting document.
//! * A document that parses must serialize and re-parse to itself
//!   (lexical round-trip through the writer).
//! * A field-reader walk that reaches `finish` cleanly proves the
//!   document well-formed: `parse` must accept it too.

use libfuzzer_sys::fuzz_target;

fn drive_lexer(s: &str) {
    let mut lx = xmltext::lexer::Lexer::new(s);
    for _ in 0..100_000 {
        match lx.next_event() {
            Ok(xmltext::lexer::Event::StartTagOpen { .. }) => loop {
                match lx.next_attr() {
                    Ok(xmltext::lexer::AttrEvent::Attr(..)) => {}
                    Ok(xmltext::lexer::AttrEvent::TagEnd { .. }) => break,
                    Err(_) => return,
                }
            },
            Ok(xmltext::lexer::Event::Eof) => return,
            Ok(_) => {}
            Err(_) => return,
        }
    }
}

/// Walk the document with the typed reader, choosing per element, from
/// its name, to skip it, read it as a string leaf or an `f64` array, or
/// descend into it. `Ok` only when the walk reached `finish` cleanly.
fn field_walk(s: &str) -> xmltext::XmlResult<()> {
    let mut fr = xmltext::XmlFieldReader::new(s);
    let (mut text, mut values) = (String::new(), Vec::<f64>::new());
    for _ in 0..100_000 {
        match fr.next()? {
            xmltext::XmlItem::Start(h) => match h.name.len() % 4 {
                0 => fr.skip(&h)?,
                1 => fr.leaf_str_into(&h, &mut text)?,
                2 => fr.array_into(&h, &mut values)?,
                _ => {}
            },
            xmltext::XmlItem::End(_) => {}
            xmltext::XmlItem::Eof => return fr.finish(),
        }
    }
    Err(xmltext::XmlError::Structure { what: "walk too long".into() })
}

fuzz_target!(|data: &[u8]| {
    let Ok(s) = std::str::from_utf8(data) else {
        return;
    };
    drive_lexer(s);
    let walked = field_walk(s);

    let fresh = xmltext::parse(s);
    if walked.is_ok() {
        assert!(fresh.is_ok(), "field reader finished a document parse rejects: {fresh:?}");
    }

    // Dirty-slot decode: reuse a document that already holds content.
    let mut slot = xmltext::parse("<a x='1'><b>text</b><c/></a>").unwrap();
    let reused = xmltext::parse_into(s, &mut slot);
    assert_eq!(
        fresh.is_ok(),
        reused.is_ok(),
        "parse and parse_into disagree on acceptance"
    );

    if let Ok(doc) = fresh {
        assert_eq!(slot, doc, "dirty-slot parse_into diverged from parse");
        let text = xmltext::to_string(&doc).expect("serialization is infallible");
        let back = xmltext::parse(&text).expect("serialized document must re-parse");
        assert_eq!(back, doc, "write/parse round trip changed the document");
    }
});
