//! Pretty printer emitting re-parseable Phage-C source.
//!
//! Code Phage generates source-level patches and recompiles the recipient
//! (paper Section 3.4).  The pretty printer is what turns a patched AST back
//! into source text, both for recompilation and for presenting patches in the
//! reports — the round trip `parse ∘ print` is checked by tests.

use crate::ast::*;
use std::fmt::{self, Write};

/// Renders a whole program as source text.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for def in &program.structs {
        let _ = writeln!(out, "struct {} {{", def.name);
        for (name, ty) in &def.fields {
            let _ = writeln!(out, "    {name}: {ty},");
        }
        out.push_str("}\n\n");
    }
    for global in &program.globals {
        let _ = writeln!(
            out,
            "global {}: {} = {};",
            global.name, global.ty, global.init
        );
    }
    if !program.globals.is_empty() {
        out.push('\n');
    }
    for function in &program.functions {
        write_function(function, &mut out);
        out.push('\n');
    }
    out
}

/// Writes a single function definition.
fn write_function(function: &Function, out: &mut String) {
    let _ = write!(out, "fn {}(", function.name);
    for (i, param) in function.params.iter().enumerate() {
        let separator = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{separator}{}: {}", param.name, param.ty);
    }
    out.push(')');
    if let Some(ty) = &function.ret {
        let _ = write!(out, " -> {ty}");
    }
    out.push_str(" {\n");
    for stmt in &function.body {
        print_stmt(stmt, 1, out);
    }
    out.push_str("}\n");
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// Writes a block's statements one level deeper, then its closing brace.
fn write_body(stmts: &[Stmt], level: usize, out: &mut String) {
    for inner in stmts {
        print_stmt(inner, level + 1, out);
    }
    indent(level, out);
    out.push('}');
}

/// Renders one statement at the given indentation level.
pub fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    let _ = match &stmt.kind {
        StmtKind::VarDecl { name, ty, init } => match init {
            Some(init) => write!(out, "var {name}: {ty} = {};", Source(init)),
            None => write!(out, "var {name}: {ty};"),
        },
        StmtKind::Assign { target, value } => {
            write!(out, "{} = {};", Source(target), Source(value))
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            let _ = writeln!(out, "if ({}) {{", Source(cond));
            write_body(then_block, level, out);
            if let Some(else_block) = else_block {
                out.push_str(" else {\n");
                write_body(else_block, level, out);
            }
            Ok(())
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", Source(cond));
            write_body(body, level, out);
            Ok(())
        }
        StmtKind::Return(Some(value)) => write!(out, "return {};", Source(value)),
        StmtKind::Return(None) => write!(out, "return;"),
        StmtKind::Exit(code) => write!(out, "exit({});", Source(code)),
        StmtKind::Expr(expr) => write!(out, "{};", Source(expr)),
    };
    out.push('\n');
}

/// Renders an expression.  Sub-expressions are parenthesised conservatively so
/// the output re-parses with the same structure.
pub fn print_expr(expr: &Expr) -> String {
    Source(expr).to_string()
}

/// An expression's source text, formatted straight into the caller's buffer
/// (see [`print_expr`]).
struct Source<'a>(&'a Expr);

impl fmt::Display for Source<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.kind {
            ExprKind::Int(value) => write!(f, "{value}"),
            ExprKind::Var(name) => f.write_str(name),
            ExprKind::Unary { op, expr } => {
                let token = match op {
                    UnaryOp::Neg => "-",
                    UnaryOp::Not => "~",
                    UnaryOp::LogicalNot => "!",
                };
                write!(f, "{token}({})", Source(expr))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let token = match op {
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Div => "/",
                    BinaryOp::Rem => "%",
                    BinaryOp::And => "&",
                    BinaryOp::Or => "|",
                    BinaryOp::Xor => "^",
                    BinaryOp::Shl => "<<",
                    BinaryOp::Shr => ">>",
                    BinaryOp::Eq => "==",
                    BinaryOp::Ne => "!=",
                    BinaryOp::Lt => "<",
                    BinaryOp::Le => "<=",
                    BinaryOp::Gt => ">",
                    BinaryOp::Ge => ">=",
                    BinaryOp::LogicalAnd => "&&",
                    BinaryOp::LogicalOr => "||",
                };
                write!(f, "({} {token} {})", Source(lhs), Source(rhs))
            }
            ExprKind::Cast { expr, ty } => write!(f, "({} as {ty})", Source(expr)),
            ExprKind::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    let separator = if i > 0 { ", " } else { "" };
                    write!(f, "{separator}{}", Source(arg))?;
                }
                f.write_str(")")
            }
            ExprKind::Field { base, field } => write!(f, "{}.{field}", Base(base)),
            ExprKind::Index { base, index } => write!(f, "{}[{}]", Base(base), Source(index)),
            ExprKind::Deref(inner) => write!(f, "*({})", Source(inner)),
            ExprKind::AddrOf(inner) => write!(f, "&{}", Base(inner)),
            ExprKind::Sizeof(ty) => write!(f, "sizeof({ty})"),
        }
    }
}

/// The base of a postfix expression: parenthesised unless it is itself a
/// postfix or primary expression.
struct Base<'a>(&'a Expr);

impl fmt::Display for Base<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0.kind {
            ExprKind::Var(_)
            | ExprKind::Field { .. }
            | ExprKind::Index { .. }
            | ExprKind::Call { .. } => write!(f, "{}", Source(self.0)),
            _ => write!(f, "({})", Source(self.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, parse_program};

    const SOURCE: &str = r#"
        struct Image { width: u16, height: u16, data: ptr<u8>, }
        global limit: u32 = 16384;
        fn area(img: ptr<Image>) -> u64 {
            var w: u64 = img.width as u64;
            var h: u64 = img.height as u64;
            if (w * h > 536870911) {
                exit(1);
            }
            return w * h;
        }
        fn main() -> u32 {
            var img: Image;
            img.width = input_byte(0) as u16;
            img.height = input_byte(1) as u16;
            var a: u64 = area(&img);
            output(a);
            return a as u32;
        }
    "#;

    #[test]
    fn round_trips_through_the_parser() {
        let program = parse_program(SOURCE).unwrap();
        let printed = print_program(&program);
        let reparsed = parse_program(&printed).expect("printed source must re-parse");
        // Printing the re-parsed program must be a fixed point.
        assert_eq!(print_program(&reparsed), printed);
        assert_eq!(reparsed.functions.len(), program.functions.len());
        assert_eq!(reparsed.structs.len(), program.structs.len());
    }

    #[test]
    fn round_trip_preserves_semantics_metadata() {
        let original = frontend(SOURCE).unwrap();
        let printed = print_program(&original.program);
        let reparsed = frontend(&printed).unwrap();
        assert_eq!(
            original.debug.structs["Image"].size,
            reparsed.debug.structs["Image"].size
        );
        assert_eq!(
            original.debug.functions["main"].num_statements,
            reparsed.debug.functions["main"].num_statements
        );
    }

    #[test]
    fn expressions_parenthesise_binary_operations() {
        let program = parse_program("fn main() -> u32 { return 1 + 2 * 3; }").unwrap();
        if let StmtKind::Return(Some(expr)) = &program.functions[0].body[0].kind {
            assert_eq!(print_expr(expr), "(1 + (2 * 3))");
        } else {
            panic!("expected return statement");
        }
    }
}
