//! The array item loop — the byte-level scanner both XML readers share —
//! must accept exactly the spellings the event path accepts.
//!
//! Each generated typed-array document is read twice: in the plain
//! spelling, whose `<item>v</item>` items the scanner takes, and with
//! every item end tag spelled `</item >`, which only the event path
//! takes. On the tree reader and on the typed reader, both spellings must
//! give equal results or both must fail. Adversarial items and
//! separators are mixed in, so the scanner sees every shape it has to
//! decline.

use bxdm::ArrayValue;
use proptest::prelude::*;
use proptest::{ArbitraryValue, TestRng};
use xbs::TypeCode;
use xmltext::{TypedText, XmlFieldReader, XmlItem};

/// Where an item's end tag closes: `>` in the plain spelling, ` >` in
/// the spelling only the event path reads.
const CLOSE: &str = "\u{1}";

const CODES: [TypeCode; 10] = [
    TypeCode::I8,
    TypeCode::U8,
    TypeCode::I16,
    TypeCode::U16,
    TypeCode::I32,
    TypeCode::U32,
    TypeCode::I64,
    TypeCode::U64,
    TypeCode::F32,
    TypeCode::F64,
];

fn lexical<T: TypedText + ArbitraryValue>(rng: &mut TestRng) -> String {
    let mut out = String::new();
    T::arbitrary(rng).push_text(&mut out);
    out
}

/// One value's lexical form, valid for `code`.
fn value(code: TypeCode, rng: &mut TestRng) -> String {
    match code {
        TypeCode::I8 => lexical::<i8>(rng),
        TypeCode::U8 => lexical::<u8>(rng),
        TypeCode::I16 => lexical::<i16>(rng),
        TypeCode::U16 => lexical::<u16>(rng),
        TypeCode::I32 => lexical::<i32>(rng),
        TypeCode::U32 => lexical::<u32>(rng),
        TypeCode::I64 => lexical::<i64>(rng),
        TypeCode::U64 => lexical::<u64>(rng),
        TypeCode::F32 => lexical::<f32>(rng),
        TypeCode::F64 => lexical::<f64>(rng),
        TypeCode::Str | TypeCode::Bool => unreachable!("not an array type"),
    }
}

fn pick<'s>(rng: &mut TestRng, choices: &[&'s str]) -> &'s str {
    choices[rng.below(choices.len())]
}

/// One item, with [`CLOSE`] where its end tag closes. About half are
/// plain.
fn item(code: TypeCode, rng: &mut TestRng) -> String {
    let v = value(code, rng);
    let c = CLOSE;
    match rng.below(40) {
        0 => format!("<item> {v}\n</item{c}"),
        1 => format!("<item k=\"1\">{v}</item{c}"),
        2 => format!("<item>{v}&#32;</item{c}"),
        3 => format!("<item>&lt;{v}</item{c}"),
        4 => format!("<item><![CDATA[{v}]]></item{c}"),
        5 => format!("<item>{v}<!--c--></item{c}"),
        6 => format!("<item>{v}<?p d?></item{c}"),
        7 => format!("<item><b>{v}</b></item{c}"),
        8 => pick(rng, &["<item/>", "<item k='2'/>"]).to_owned(),
        9 => format!("<item>\u{a0}{v}\u{a0}</item{c}"),
        10 => format!("<item>x{v}</item{c}"),
        11 => format!("<item>+{v}</item{c}"),
        12 => format!("<item>{v}{v}</item{c}"),
        13 => {
            let bad = pick(
                rng,
                &["", " ", "NaN", "INF", "-INF", "+INF", "inf", "1e400", "0x10", "1_0", "- 1",
                  "99999999999999999999999", "007", "-0", "1.5", ".5", "1e3"],
            );
            format!("<item>{bad}</item{c}")
        }
        14 => format!("<a<b>{v}</a<b{c}"),
        15 => format!("<item\u{a0}>{v}</item\u{a0}{c}"),
        16 => format!("<item\u{b}>{v}</item\u{b}{c}"),
        17 => format!("<i-\u{e9}>{v}</i-\u{e9}{c}"),
        18 => format!("<x:item>{v}</x:item{c}"),
        19 => format!("<item>{v}</itex{c}"),
        20 => format!("<item>{v}</item"),
        21 => format!("<item>{v}"),
        _ => format!("<item>{v}</item{c}"),
    }
}

/// Text between items: mostly whitespace, sometimes not.
fn separator(rng: &mut TestRng) -> &'static str {
    if rng.below(4) != 0 {
        return pick(rng, &["", "", " ", "\n  "]);
    }
    pick(
        rng,
        &["\u{a0}", "<!--c-->", "<?p x?>", "x", "<![CDATA[ ]]>", "\t\r\n", "&#32;"],
    )
}

/// A document holding one typed array, followed by a leaf so a reader
/// that leaves the array at the wrong place is caught.
fn document(code: TypeCode, rng: &mut TestRng) -> String {
    let mut items = String::new();
    for _ in 0..rng.below(12) {
        items.push_str(separator(rng));
        items.push_str(&item(code, rng));
    }
    items.push_str(separator(rng));
    format!(
        "<r>\n<v bx:arrayType=\"{}\">{items}</v>\n<t xsi:type=\"xsd:int\">7</t></r>",
        code.xsd_name()
    )
}

fn spellings(doc: &str) -> (String, String) {
    (doc.replace(CLOSE, ">"), doc.replace(CLOSE, " >"))
}

/// The tree reader's view: the whole document, or that it failed.
fn tree_read(xml: &str) -> Option<String> {
    xmltext::parse(xml).ok().map(|doc| format!("{doc:?}"))
}

/// The array's items as the tree reader read them.
fn tree_items(xml: &str) -> Option<String> {
    let doc = xmltext::parse(xml).ok()?;
    let array = doc.root()?.find_child("v")?.array_value()?;
    Some(match array {
        ArrayValue::I8(v) => format!("{v:?}"),
        ArrayValue::U8(v) => format!("{v:?}"),
        ArrayValue::I16(v) => format!("{v:?}"),
        ArrayValue::U16(v) => format!("{v:?}"),
        ArrayValue::I32(v) => format!("{v:?}"),
        ArrayValue::U32(v) => format!("{v:?}"),
        ArrayValue::I64(v) => format!("{v:?}"),
        ArrayValue::U64(v) => format!("{v:?}"),
        ArrayValue::F32(v) => format!("{v:?}"),
        ArrayValue::F64(v) => format!("{v:?}"),
    })
}

/// The typed reader's view: the array's items, or that it failed.
fn typed_read<T: TypedText + std::fmt::Debug>(xml: &str) -> Option<String> {
    let mut r = XmlFieldReader::new(xml);
    let XmlItem::Start(_) = r.next().ok()? else { return None };
    let XmlItem::Start(array) = r.next().ok()? else { return None };
    let mut out: Vec<T> = Vec::new();
    r.array_into(&array, &mut out).ok()?;
    let XmlItem::Start(tail) = r.next().ok()? else { return None };
    (r.leaf_value::<i32>(&tail).ok()? == 7).then_some(())?;
    (r.next().ok()? == XmlItem::End("r")).then_some(())?;
    (r.next().ok()? == XmlItem::Eof).then(|| format!("{out:?}"))
}

fn typed_read_as(code: TypeCode, xml: &str) -> Option<String> {
    match code {
        TypeCode::I8 => typed_read::<i8>(xml),
        TypeCode::U8 => typed_read::<u8>(xml),
        TypeCode::I16 => typed_read::<i16>(xml),
        TypeCode::U16 => typed_read::<u16>(xml),
        TypeCode::I32 => typed_read::<i32>(xml),
        TypeCode::U32 => typed_read::<u32>(xml),
        TypeCode::I64 => typed_read::<i64>(xml),
        TypeCode::U64 => typed_read::<u64>(xml),
        TypeCode::F32 => typed_read::<f32>(xml),
        TypeCode::F64 => typed_read::<f64>(xml),
        TypeCode::Str | TypeCode::Bool => unreachable!("not an array type"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn scanned_items_read_like_the_event_path(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let code = CODES[rng.below(CODES.len())];
        let (plain, spaced) = spellings(&document(code, &mut rng));

        let tree = tree_read(&plain);
        prop_assert_eq!(&tree, &tree_read(&spaced), "tree reader, {:?}", plain);
        let typed = typed_read_as(code, &plain);
        prop_assert_eq!(&typed, &typed_read_as(code, &spaced), "typed reader, {:?}", plain);
        // The typed reader accepts no more than the tree reader, and
        // reads the same values where it accepts.
        if typed.is_some() {
            prop_assert_eq!(&typed, &tree_items(&plain), "typed vs tree, {:?}", plain);
        }
    }
}

#[test]
fn the_generator_yields_both_outcomes() {
    let mut accepted = 0;
    let mut rejected = 0;
    let mut rng = TestRng::from_seed(7);
    for _ in 0..500 {
        let code = CODES[rng.below(CODES.len())];
        let (plain, _) = spellings(&document(code, &mut rng));
        match tree_read(&plain) {
            Some(_) => accepted += 1,
            None => rejected += 1,
        }
    }
    assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
}
