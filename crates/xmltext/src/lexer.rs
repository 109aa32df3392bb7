//! A pull tokenizer for XML 1.0.
//!
//! Produces a flat event stream; the open-element stack, attribute
//! classification and document rules live in the XML core
//! (`markup.rs`), which both readers run on. The subset implemented is
//! what SOAP toolkits of the paper's era actually exchanged: elements,
//! attributes, character data, CDATA, comments, processing instructions
//! and the XML declaration. DTDs with internal subsets are rejected
//! (SOAP forbids DTDs anyway).

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;
use crate::field::TypedText;

/// One lexical event, pulled with [`Lexer::next_event`].
///
/// Text borrows from the input unless it contained entity references
/// that had to be decoded. A start tag stops after the tag name: the
/// caller must then drain the attributes with [`Lexer::next_attr`]
/// until it returns [`AttrEvent::TagEnd`] before pulling the next event,
/// so attributes are consumed without ever materializing a `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event<'a> {
    /// `<?xml version="1.0"?>` — contents are not interpreted.
    Decl,
    /// An opening tag name; attributes follow via [`Lexer::next_attr`].
    StartTagOpen { name: &'a str },
    /// A closing tag.
    EndTag { name: &'a str },
    /// Character data with entities resolved.
    Text(Cow<'a, str>),
    /// A `<![CDATA[...]]>` section (verbatim).
    CData(&'a str),
    /// A comment (without the `<!--`/`-->` markers).
    Comment(&'a str),
    /// A processing instruction.
    Pi { target: &'a str, data: &'a str },
    /// End of input.
    Eof,
}

/// One step of incremental attribute lexing (see [`Event::StartTagOpen`]).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrEvent<'a> {
    /// An attribute: raw name (possibly prefixed), unescaped value.
    Attr(&'a str, Cow<'a, str>),
    /// The tag closed with `>` (or `/>` when `self_closing`).
    TagEnd { self_closing: bool },
}

/// The tokenizer.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Tokenize `input` from the beginning.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    /// Current byte offset (for error reporting and tests).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn eof_err(&self, what: &str) -> XmlError {
        XmlError::UnexpectedEof { what: what.into() }
    }

    fn malformed(&self, what: impl Into<String>) -> XmlError {
        XmlError::Malformed {
            offset: self.pos,
            what: what.into(),
        }
    }

    /// The array item loop both XML readers share: parse consecutive
    /// plain items at the cursor into `out` with `T`'s parser, picked
    /// once per run of items. Returns `None` when the next input is not a
    /// plain item (cursor left on it, for the caller's event loop), or
    /// the raw text of the first item the parser declines (cursor past
    /// it, for the caller to report).
    pub(crate) fn plain_items_into<T: TypedText>(&mut self, out: &mut Vec<T>) -> Option<&'a str> {
        while let Some(text) = self.next_simple_item() {
            // Writers emit no padding, so try the raw text first. No
            // number parser accepts surrounding whitespace, so a raw
            // parse that succeeds is the trimmed parse; only a failure
            // pays for trim.
            match T::parse_text(text).or_else(|| T::parse_text(text.trim())) {
                Some(v) => out.push(v),
                None => return Some(text),
            }
        }
        None
    }

    /// One plain `<tag>text</tag>` item — no attributes, entities,
    /// nested markup, or self-closing form — consumed from the raw bytes,
    /// returning its text. Any other shape leaves the cursor untouched
    /// and returns `None`; it must never take a spelling the event path
    /// rejects. Leading inter-item whitespace is consumed only on a match.
    fn next_simple_item(&mut self) -> Option<&'a str> {
        let b = self.input.as_bytes();
        let lt = self.pos + b[self.pos..].iter().position(|c| !c.is_ascii_whitespace())?;
        if b[lt] != b'<' {
            return None;
        }
        // Tag name: printable ASCII up to '>' that can't be an end tag, a
        // declaration, an attribute list, a self-closing tag, or a name
        // the event path cuts short (at '<') or trims differently at the
        // end tag (Unicode whitespace).
        let name_start = lt + 1;
        let name_end = name_start
            + b[name_start..].iter().position(|&c| {
                !c.is_ascii_graphic()
                    || matches!(c, b'>' | b'/' | b'!' | b'?' | b'=' | b'"' | b'\'' | b'<')
            })?;
        if name_end == name_start || b[name_end] != b'>' {
            return None;
        }
        let name = &b[name_start..name_end];
        // Text: up to '<', declining entities (they need unescaping).
        let text_start = name_end + 1;
        let text_end = text_start + b[text_start..].iter().position(|&c| c == b'<' || c == b'&')?;
        // Matching end tag, byte for byte.
        let close = &b[text_end..];
        if !(close.starts_with(b"</")
            && close[2..].starts_with(name)
            && close.get(2 + name.len()) == Some(&b'>'))
        {
            return None;
        }
        self.pos = text_end + name.len() + 3;
        Some(&self.input[text_start..text_end])
    }

    /// Pull the next incremental event (see [`Event`] for the contract
    /// around start tags and [`Lexer::next_attr`]).
    pub fn next_event(&mut self) -> XmlResult<Event<'a>> {
        if self.pos >= self.input.len() {
            return Ok(Event::Eof);
        }
        if self.rest().starts_with('<') {
            self.lex_markup()
        } else {
            self.lex_text()
        }
    }

    /// Lex one attribute (or the closing `>`/`/>`) of the start tag
    /// opened by the last [`Event::StartTagOpen`].
    pub fn next_attr(&mut self) -> XmlResult<AttrEvent<'a>> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with("/>") {
            self.pos += 2;
            return Ok(AttrEvent::TagEnd { self_closing: true });
        }
        if rest.starts_with('>') {
            self.pos += 1;
            return Ok(AttrEvent::TagEnd {
                self_closing: false,
            });
        }
        if rest.is_empty() {
            return Err(self.eof_err("unterminated start tag"));
        }
        let attr_name = self.lex_name()?;
        self.skip_ws();
        if !self.rest().starts_with('=') {
            return Err(self.malformed(format!("attribute {attr_name:?} missing '='")));
        }
        self.pos += 1;
        self.skip_ws();
        let value = self.lex_attr_value()?;
        Ok(AttrEvent::Attr(attr_name, value))
    }

    fn lex_text(&mut self) -> XmlResult<Event<'a>> {
        let start = self.pos;
        let raw = match self.rest().find('<') {
            Some(i) => {
                self.pos += i;
                &self.input[start..start + i]
            }
            None => {
                self.pos = self.input.len();
                &self.input[start..]
            }
        };
        Ok(Event::Text(unescape(raw, start)?))
    }

    fn lex_markup(&mut self) -> XmlResult<Event<'a>> {
        let rest = self.rest();
        if let Some(r) = rest.strip_prefix("<!--") {
            let end = r.find("-->").ok_or_else(|| self.eof_err("unterminated comment"))?;
            let body = &self.input[self.pos + 4..self.pos + 4 + end];
            if body.contains("--") {
                return Err(self.malformed("'--' inside comment"));
            }
            self.pos += 4 + end + 3;
            return Ok(Event::Comment(body));
        }
        if let Some(r) = rest.strip_prefix("<![CDATA[") {
            let end = r.find("]]>").ok_or_else(|| self.eof_err("unterminated CDATA"))?;
            let body = &self.input[self.pos + 9..self.pos + 9 + end];
            self.pos += 9 + end + 3;
            return Ok(Event::CData(body));
        }
        if rest.starts_with("<!DOCTYPE") {
            return Err(self.malformed("DOCTYPE is not allowed in SOAP messages"));
        }
        if rest.starts_with("<?") {
            return self.lex_pi();
        }
        if rest.starts_with("</") {
            return self.lex_end_tag();
        }
        // self.input[self.pos] == '<': open the start tag, leaving the
        // attributes for next_attr.
        self.pos += 1;
        let name = self.lex_name()?;
        Ok(Event::StartTagOpen { name })
    }

    fn lex_pi(&mut self) -> XmlResult<Event<'a>> {
        let body_start = self.pos + 2;
        let rest = &self.input[body_start..];
        let end = rest.find("?>").ok_or_else(|| self.eof_err("unterminated processing instruction"))?;
        let body = &self.input[body_start..body_start + end];
        self.pos = body_start + end + 2;
        let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body, ""),
        };
        if target.is_empty() {
            return Err(self.malformed("processing instruction with empty target"));
        }
        if target.eq_ignore_ascii_case("xml") {
            Ok(Event::Decl)
        } else {
            Ok(Event::Pi { target, data })
        }
    }

    fn lex_end_tag(&mut self) -> XmlResult<Event<'a>> {
        let name_start = self.pos + 2;
        let rest = &self.input[name_start..];
        let end = rest.find('>').ok_or_else(|| self.eof_err("unterminated close tag"))?;
        let name = rest[..end].trim_end();
        if name.is_empty() || name.contains(|c: char| c.is_ascii_whitespace()) {
            return Err(self.malformed(format!("bad close tag name {name:?}")));
        }
        self.pos = name_start + end + 1;
        Ok(Event::EndTag {
            name: &rest[..name.len()],
        })
    }

    fn lex_name(&mut self) -> XmlResult<&'a str> {
        let name = self.name_at(self.pos);
        if name.is_empty() {
            return Err(self.malformed("expected a name"));
        }
        self.pos += name.len();
        Ok(name)
    }

    /// The name lexed at byte offset `at` of the input (a start tag's
    /// name, as `next_event` returned it).
    pub(crate) fn name_at(&self, at: usize) -> &'a str {
        let rest = &self.input[at..];
        let end = rest
            .find(|c: char| c.is_ascii_whitespace() || matches!(c, '>' | '/' | '=' | '<'))
            .unwrap_or(rest.len());
        &rest[..end]
    }

    /// Whether an end tag named `name` closes the start tag whose name
    /// `next_event` returned at byte offset `at`. A start tag that opens
    /// an element has whitespace or `>` right after its name (anything
    /// else fails in `next_attr`) and an end tag's name contains neither,
    /// so a byte comparison decides it.
    pub(crate) fn closes(&self, at: usize, name: &str) -> bool {
        let rest = &self.input.as_bytes()[at..];
        rest.starts_with(name.as_bytes())
            && rest.get(name.len()).is_some_and(|&b| b == b'>' || b.is_ascii_whitespace())
    }

    /// Byte offset of `s`, a slice this lexer returned, in the input.
    pub(crate) fn offset_of(&self, s: &str) -> usize {
        s.as_ptr() as usize - self.input.as_ptr() as usize
    }

    fn lex_attr_value(&mut self) -> XmlResult<Cow<'a, str>> {
        let rest = self.rest();
        let quote = match rest.chars().next() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(self.malformed("attribute value must be quoted")),
        };
        let value_start = self.pos + 1;
        let body = &self.input[value_start..];
        let end = body
            .find(quote)
            .ok_or_else(|| self.eof_err("unterminated attribute value"))?;
        let raw = &body[..end];
        if raw.contains('<') {
            return Err(self.malformed("'<' in attribute value"));
        }
        self.pos = value_start + end + 1;
        unescape(raw, value_start)
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let n = rest.len() - rest.trim_start().len();
        self.pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event of `input`, each start tag with its drained attribute
    /// events (ending in the `TagEnd`).
    fn all_events(input: &str) -> Vec<(Event<'_>, Vec<AttrEvent<'_>>)> {
        let mut lx = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let event = lx.next_event().unwrap();
            let mut attrs = Vec::new();
            if let Event::StartTagOpen { .. } = event {
                loop {
                    let attr = lx.next_attr().unwrap();
                    let end = matches!(attr, AttrEvent::TagEnd { .. });
                    attrs.push(attr);
                    if end {
                        break;
                    }
                }
            }
            let done = event == Event::Eof;
            out.push((event, attrs));
            if done {
                break;
            }
        }
        out
    }

    fn open_tag(input: &str) -> XmlResult<()> {
        let mut lx = Lexer::new(input);
        if let Event::StartTagOpen { .. } = lx.next_event()? {
            while !matches!(lx.next_attr()?, AttrEvent::TagEnd { .. }) {}
        }
        Ok(())
    }

    #[test]
    fn simple_element() {
        let events = all_events("<a>hi</a>");
        assert_eq!(
            events,
            vec![
                (
                    Event::StartTagOpen { name: "a" },
                    vec![AttrEvent::TagEnd { self_closing: false }]
                ),
                (Event::Text("hi".into()), vec![]),
                (Event::EndTag { name: "a" }, vec![]),
                (Event::Eof, vec![]),
            ]
        );
    }

    #[test]
    fn attributes_and_self_closing() {
        let events = all_events(r#"<x a="1" b='two &amp; three'/>"#);
        assert_eq!(
            events[0],
            (
                Event::StartTagOpen { name: "x" },
                vec![
                    AttrEvent::Attr("a", "1".into()),
                    AttrEvent::Attr("b", "two & three".into()),
                    AttrEvent::TagEnd { self_closing: true },
                ]
            )
        );
    }

    #[test]
    fn declaration_comment_pi_cdata() {
        let events = all_events("<?xml version=\"1.0\"?><!-- c --><?app do it?><![CDATA[<raw>]]>");
        assert_eq!(events[0].0, Event::Decl);
        assert_eq!(events[1].0, Event::Comment(" c "));
        assert_eq!(
            events[2].0,
            Event::Pi {
                target: "app",
                data: "do it"
            }
        );
        assert_eq!(events[3].0, Event::CData("<raw>"));
    }

    #[test]
    fn whitespace_inside_tags() {
        let events = all_events("<a  x = \"1\"  ></a >");
        assert_eq!(
            events[0],
            (
                Event::StartTagOpen { name: "a" },
                vec![
                    AttrEvent::Attr("x", "1".into()),
                    AttrEvent::TagEnd { self_closing: false },
                ]
            )
        );
        assert_eq!(events[1].0, Event::EndTag { name: "a" });
    }

    #[test]
    fn errors() {
        assert!(open_tag("<a b=1>").is_err()); // unquoted
        assert!(open_tag("<a b=\"x").is_err()); // unterminated value
        assert!(open_tag("<!-- x -- y -->").is_err()); // -- in comment
        assert!(open_tag("<!DOCTYPE html>").is_err()); // DTD
        assert!(open_tag("<a b=\"<\"/>").is_err()); // < in attr
        assert!(open_tag("</ >").is_err());
        assert!(open_tag("<a").is_err());
    }

    #[test]
    fn prefixed_names_pass_through() {
        let events = all_events("<soap:Envelope xmlns:soap=\"u\"></soap:Envelope>");
        assert_eq!(events[0].0, Event::StartTagOpen { name: "soap:Envelope" });
        assert_eq!(events[0].1[0], AttrEvent::Attr("xmlns:soap", "u".into()));
    }

    #[test]
    fn text_entities_decoded() {
        let events = all_events("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
        assert_eq!(events[1].0, Event::Text("1 < 2 && 3 > 2".into()));
    }
}
