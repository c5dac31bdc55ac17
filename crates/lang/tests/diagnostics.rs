//! Lexer and parser diagnostics, pinned by exact message and span.
//!
//! Every malformed source below must fail with exactly this text at exactly
//! this location.  The table is the contract for any rewrite of the lexer's
//! literal scanning or the parser's token handling: a diagnostic that moves
//! by one column, or changes a word, fails here.

use cp_lang::parser::{parse_expr_text, MAX_NESTING_DEPTH};
use cp_lang::{parse_program, Span};

/// `(source, message, span)` for whole-program parses.
fn program_cases() -> Vec<(String, &'static str, Span)> {
    vec![
        // An item that is not an item.
        (
            "var x: u32 = 1;".into(),
            "expected item, found `var`",
            Span::new(0, 3, 1, 1),
        ),
        // A bad type.
        (
            "fn f(x: 5) {}".into(),
            "expected type, found integer `5`",
            Span::new(8, 9, 1, 9),
        ),
        // A missing `;`.
        (
            "fn main() -> u32 { return 1 }".into(),
            "expected `;`, found `}`",
            Span::new(28, 29, 1, 29),
        ),
        // A missing `;`, reported on a later line.
        (
            "fn main() -> u32 {\n    return 1\n}".into(),
            "expected `;`, found `}`",
            Span::new(32, 33, 3, 1),
        ),
        // An identifier where an integer is expected.
        (
            "global g: u32 = x;".into(),
            "expected integer, found identifier `x`",
            Span::new(16, 17, 1, 17),
        ),
        // A number where an identifier is expected.
        (
            "fn 5() {}".into(),
            "expected identifier, found integer `5`",
            Span::new(3, 4, 1, 4),
        ),
        // An invalid hex literal: the prefix with no digits.
        (
            "global g: u32 = 0xZZ;".into(),
            "invalid integer literal `0x`",
            Span::new(16, 18, 1, 17),
        ),
        // An underscored hex literal that overflows 64 bits: the message
        // shows the literal with its underscores dropped.
        (
            "global g: u32 = 0xFFFF_FFFF_FFFF_FFFF_F;".into(),
            "invalid integer literal `0xFFFFFFFFFFFFFFFFF`",
            Span::new(16, 39, 1, 17),
        ),
        // Hex digits in a decimal literal.
        (
            "global g: u32 = 12ab;".into(),
            "invalid integer literal `12ab`",
            Span::new(16, 20, 1, 17),
        ),
        // An unexpected character.
        (
            "fn main() { @ }".into(),
            "unexpected character `@`",
            Span::new(12, 13, 1, 13),
        ),
        // A missing expression.
        (
            "fn main() -> u32 { x = ; }".into(),
            "expected expression, found `;`",
            Span::new(23, 24, 1, 24),
        ),
        // Input that ends inside a block.
        (
            "fn main() -> u32 {".into(),
            "expected expression, found end of input",
            Span::new(18, 18, 1, 19),
        ),
        // An unclosed type argument.
        (
            "struct S { a: ptr<u8, }".into(),
            "expected `>`, found `,`",
            Span::new(20, 21, 1, 21),
        ),
        // Nesting past the parser's depth limit.
        (
            format!(
                "fn main() -> u32 {{ return {}1{}; }}",
                "(".repeat(MAX_NESTING_DEPTH),
                ")".repeat(MAX_NESTING_DEPTH)
            ),
            "nesting exceeds the maximum depth of 128",
            Span::new(89, 90, 1, 90),
        ),
    ]
}

#[test]
fn malformed_programs_report_exact_messages_and_spans() {
    for (source, message, span) in program_cases() {
        let err = parse_program(&source).expect_err(&source);
        assert_eq!(err.message, message, "message for {source:?}");
        assert_eq!(err.span, Some(span), "span for {source:?}");
    }
}

#[test]
fn malformed_expressions_report_exact_messages_and_spans() {
    let cases = [
        (
            "a b",
            "expected end of input, found identifier `b`",
            Span::new(2, 3, 1, 3),
        ),
        (
            "(a + 1",
            "expected `)`, found end of input",
            Span::new(6, 6, 1, 7),
        ),
        (
            "x as 7",
            "expected type, found integer `7`",
            Span::new(5, 6, 1, 6),
        ),
    ];
    for (source, message, span) in cases {
        let err = parse_expr_text(source).expect_err(source);
        assert_eq!(err.message, message, "message for {source:?}");
        assert_eq!(err.span, Some(span), "span for {source:?}");
    }
}
