//! A pull tokenizer for XML 1.0.
//!
//! Produces a flat token stream; tree building and namespace handling
//! live in [`crate::reader`]. The subset implemented is what SOAP
//! toolkits of the paper's era actually exchanged: elements, attributes,
//! character data, CDATA, comments, processing instructions and the XML
//! declaration. DTDs with internal subsets are rejected (SOAP forbids
//! DTDs anyway).

use std::borrow::Cow;

use crate::error::{XmlError, XmlResult};
use crate::escape::unescape;
use crate::field::TypedText;

/// One lexical event.
///
/// Text and attribute values borrow from the input unless they contained
/// entity references that had to be decoded, so tokenizing typical
/// machine-generated markup allocates only for the attribute `Vec`.
/// (The streaming reader avoids even that by pulling [`Event`]s and
/// draining attributes one at a time with [`Lexer::next_attr`].)
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<?xml version="1.0"?>` — contents are not interpreted.
    Decl,
    /// An opening tag with its (name, unescaped value) attributes.
    StartTag {
        name: &'a str,
        attrs: Vec<(&'a str, Cow<'a, str>)>,
        self_closing: bool,
    },
    /// A closing tag.
    EndTag { name: &'a str },
    /// Character data with entities resolved. Adjacent CDATA is merged by
    /// the reader, not the lexer.
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

/// One *incremental* lexical event, pulled with [`Lexer::next_event`].
///
/// Identical to [`Token`] except that a start tag stops after the tag
/// name: the caller must then drain the attributes with
/// [`Lexer::next_attr`] until it returns [`AttrEvent::TagEnd`] before
/// pulling the next event. Splitting the tag this way lets the streaming
/// reader consume attributes without ever materializing a `Vec` for
/// them — the allocation-free half of the decode fast path.
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
    /// plain items at the cursor into `out` with `T`'s kernel, picked
    /// once per run of items. Returns `None` when the next input is not a
    /// plain item (cursor left on it, for the caller's event loop), or
    /// the raw text of the first item the kernel declines (cursor past
    /// it, for the caller to fail or parse leniently).
    pub(crate) fn plain_items_into<T: TypedText>(&mut self, out: &mut Vec<T>) -> Option<&'a str> {
        while let Some(text) = self.next_simple_item() {
            // Writers emit no padding, so try the raw text first. No
            // kernel accepts surrounding whitespace, so a raw parse that
            // succeeds is the trimmed parse; only a failure pays for trim.
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

    /// Pull the next token (start tags arrive with all attributes
    /// collected into a `Vec`).
    pub fn next_token(&mut self) -> XmlResult<Token<'a>> {
        Ok(match self.next_event()? {
            Event::Decl => Token::Decl,
            Event::StartTagOpen { name } => {
                let mut attrs = Vec::new();
                loop {
                    match self.next_attr()? {
                        AttrEvent::Attr(n, v) => attrs.push((n, v)),
                        AttrEvent::TagEnd { self_closing } => {
                            return Ok(Token::StartTag {
                                name,
                                attrs,
                                self_closing,
                            })
                        }
                    }
                }
            }
            Event::EndTag { name } => Token::EndTag { name },
            Event::Text(t) => Token::Text(t),
            Event::CData(t) => Token::CData(t),
            Event::Comment(c) => Token::Comment(c),
            Event::Pi { target, data } => Token::Pi { target, data },
            Event::Eof => Token::Eof,
        })
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
        let rest = self.rest();
        let end = rest
            .find(|c: char| c.is_ascii_whitespace() || matches!(c, '>' | '/' | '=' | '<'))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.malformed("expected a name"));
        }
        let name = &rest[..end];
        self.pos += end;
        Ok(name)
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

    fn all_tokens(input: &str) -> Vec<Token<'_>> {
        let mut lx = Lexer::new(input);
        let mut out = Vec::new();
        loop {
            let t = lx.next_token().unwrap();
            let done = t == Token::Eof;
            out.push(t);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn simple_element() {
        let toks = all_tokens("<a>hi</a>");
        assert_eq!(
            toks,
            vec![
                Token::StartTag {
                    name: "a",
                    attrs: vec![],
                    self_closing: false
                },
                Token::Text("hi".into()),
                Token::EndTag { name: "a" },
                Token::Eof
            ]
        );
    }

    #[test]
    fn attributes_and_self_closing() {
        let toks = all_tokens(r#"<x a="1" b='two &amp; three'/>"#);
        assert_eq!(
            toks[0],
            Token::StartTag {
                name: "x",
                attrs: vec![("a", "1".into()), ("b", "two & three".into())],
                self_closing: true
            }
        );
    }

    #[test]
    fn declaration_comment_pi_cdata() {
        let toks = all_tokens("<?xml version=\"1.0\"?><!-- c --><?app do it?><![CDATA[<raw>]]>");
        assert_eq!(toks[0], Token::Decl);
        assert_eq!(toks[1], Token::Comment(" c "));
        assert_eq!(
            toks[2],
            Token::Pi {
                target: "app",
                data: "do it"
            }
        );
        assert_eq!(toks[3], Token::CData("<raw>"));
    }

    #[test]
    fn whitespace_inside_tags() {
        let toks = all_tokens("<a  x = \"1\"  ></a >");
        assert_eq!(
            toks[0],
            Token::StartTag {
                name: "a",
                attrs: vec![("x", "1".into())],
                self_closing: false
            }
        );
        assert_eq!(toks[1], Token::EndTag { name: "a" });
    }

    #[test]
    fn errors() {
        assert!(Lexer::new("<a b=1>").next_token().is_err()); // unquoted
        assert!(Lexer::new("<a b=\"x").next_token().is_err()); // unterminated value
        assert!(Lexer::new("<!-- x -- y -->").next_token().is_err()); // -- in comment
        assert!(Lexer::new("<!DOCTYPE html>").next_token().is_err()); // DTD
        assert!(Lexer::new("<a b=\"<\"/>").next_token().is_err()); // < in attr
        assert!(Lexer::new("</ >").next_token().is_err());
        assert!(Lexer::new("<a").next_token().is_err());
    }

    #[test]
    fn prefixed_names_pass_through() {
        let toks = all_tokens("<soap:Envelope xmlns:soap=\"u\"></soap:Envelope>");
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert_eq!(*name, "soap:Envelope");
                assert_eq!(attrs[0].0, "xmlns:soap");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn text_entities_decoded() {
        let toks = all_tokens("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
        assert_eq!(toks[1], Token::Text("1 < 2 && 3 > 2".into()));
    }
}
